#include "vhls/Report.h"

#include "support/Json.h"
#include "support/StringUtils.h"

#include <charconv>
#include <sstream>

namespace mha::vhls {

std::string SynthesisReport::str() const {
  std::ostringstream os;
  os << "== Virtual HLS synthesis report ==\n";
  os << "frontend: " << (accepted ? "ACCEPTED" : "REJECTED")
     << strfmt(" (%lld errors, %lld warnings)\n",
               static_cast<long long>(compat.errors),
               static_cast<long long>(compat.warnings));
  if (!compat.violations.empty()) {
    os << "violations:\n";
    for (const auto &[category, count] : compat.violations)
      os << strfmt("  %-20s %lld\n", category.c_str(),
                   static_cast<long long>(count));
  }
  for (const FunctionReport &fn : functions) {
    os << strfmt("\nfunction @%s%s\n", fn.name.c_str(),
                 fn.name == topName ? "  [top]" : "");
    os << strfmt("  latency        %lld cycles%s\n",
                 static_cast<long long>(fn.latencyCycles),
                 fn.dataflow ? "  (dataflow: tasks overlapped)" : "");
    os << strfmt("  est. period    %.2f ns\n", fn.achievedPeriodNs);
    os << strfmt("  fsm states     %lld\n",
                 static_cast<long long>(fn.fsmStates));
    os << strfmt("  resources      DSP=%lld BRAM=%lld LUT=%lld FF=%lld\n",
                 static_cast<long long>(fn.resources.dsp),
                 static_cast<long long>(fn.resources.bram),
                 static_cast<long long>(fn.resources.lut),
                 static_cast<long long>(fn.resources.ff));
    if (!fn.loops.empty()) {
      os << "  loops:\n";
      for (const LoopReport &loop : fn.loops) {
        os << strfmt("    %-14s trip=%-6lld %s", loop.name.c_str(),
                     static_cast<long long>(loop.tripCount),
                     loop.pipelined ? "pipelined" : "sequential");
        if (loop.pipelined)
          os << strfmt(" II=%lld (target %lld, RecMII=%lld, ResMII=%lld) "
                       "depth=%lld",
                       static_cast<long long>(loop.achievedII),
                       static_cast<long long>(loop.targetII),
                       static_cast<long long>(loop.recMII),
                       static_cast<long long>(loop.resMII),
                       static_cast<long long>(loop.iterationLatency));
        os << strfmt(" latency=%lld",
                     static_cast<long long>(loop.totalLatency));
        if (!loop.note.empty())
          os << "  (" << loop.note << ")";
        os << "\n";
      }
    }
    if (!fn.arrays.empty()) {
      os << "  arrays:\n";
      for (const ArrayReport &array : fn.arrays)
        os << strfmt("    %-10s %6lld B  banks=%-3lld %-24s BRAM=%lld %s\n",
                     array.name.c_str(),
                     static_cast<long long>(array.bytes),
                     static_cast<long long>(array.banks),
                     array.partition.c_str(),
                     static_cast<long long>(array.bramBlocks),
                     array.onChip ? "(on-chip)" : "(interface)");
    }
  }
  return os.str();
}

namespace {

// The JSON writer appends into one string: `prefix` (punctuation and the
// key), then the value, an integer through to_chars, a bool as its
// literal or a string quoted and escaped in place.

void put(std::string &out, const char *prefix, int64_t value) {
  out += prefix;
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void put(std::string &out, const char *prefix, bool value) {
  out += prefix;
  out += value ? "true" : "false";
}

void put(std::string &out, const char *prefix, std::string_view text) {
  out += prefix;
  out += '"';
  json::appendEscaped(out, text);
  out += '"';
}

} // namespace

std::string SynthesisReport::json() const {
  // A rough size from the record counts, so the string grows once at most.
  std::string out;
  size_t estimate = 256;
  for (const FunctionReport &fn : functions)
    estimate += 320 + 180 * fn.loops.size() + 140 * fn.arrays.size();
  out.reserve(estimate);
  put(out, "{\n  \"accepted\": ", accepted);
  put(out, ",\n  \"errors\": ", compat.errors);
  put(out, ",\n  \"warnings\": ", compat.warnings);
  out += ",\n  \"violations\": {";
  const char *sep = "";
  for (const auto &[category, count] : compat.violations) {
    put(out, sep, category);
    put(out, ": ", count);
    sep = ", ";
  }
  put(out, "},\n  \"top\": ", topName);
  out += ",\n  \"functions\": [\n";
  for (size_t f = 0; f < functions.size(); ++f) {
    const FunctionReport &fn = functions[f];
    put(out, "    {\n      \"name\": ", fn.name);
    put(out, ",\n      \"latency_cycles\": ", fn.latencyCycles);
    put(out, ",\n      \"dataflow\": ", fn.dataflow);
    put(out, ",\n      \"fsm_states\": ", fn.fsmStates);
    out += ",\n      \"estimated_period_ns\": ";
    out += json::number(fn.achievedPeriodNs);
    put(out, ",\n      \"resources\": {\"dsp\": ", fn.resources.dsp);
    put(out, ", \"bram\": ", fn.resources.bram);
    put(out, ", \"lut\": ", fn.resources.lut);
    put(out, ", \"ff\": ", fn.resources.ff);
    out += "},\n      \"loops\": [";
    sep = "";
    for (const LoopReport &loop : fn.loops) {
      out += sep;
      put(out, "{\"name\": ", loop.name);
      put(out, ", \"trip\": ", loop.tripCount);
      put(out, ", \"pipelined\": ", loop.pipelined);
      put(out, ", \"ii\": ", loop.achievedII);
      put(out, ", \"rec_mii\": ", loop.recMII);
      put(out, ", \"res_mii\": ", loop.resMII);
      put(out, ", \"depth\": ", loop.iterationLatency);
      put(out, ", \"latency\": ", loop.totalLatency);
      out += '}';
      sep = ", ";
    }
    out += "],\n      \"arrays\": [";
    sep = "";
    for (const ArrayReport &array : fn.arrays) {
      out += sep;
      put(out, "{\"name\": ", array.name);
      put(out, ", \"bytes\": ", array.bytes);
      put(out, ", \"banks\": ", array.banks);
      put(out, ", \"partition\": ", array.partition);
      put(out, ", \"bram\": ", array.bramBlocks);
      put(out, ", \"on_chip\": ", array.onChip);
      out += '}';
      sep = ", ";
    }
    out += f + 1 < functions.size() ? "]\n    },\n" : "]\n    }\n";
  }
  out += "  ]\n}\n";
  return out;
}

} // namespace mha::vhls
