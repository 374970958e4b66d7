#include "dse/DesignSpace.h"

#include "lir/transforms/LoopUnroll.h"
#include "mir/Ops.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>

namespace mha::dse {

namespace {

/// Structural facts the space model needs: the kernel is built once (no
/// directives) and inspected — how tight is the innermost loop, and does
/// the function body hold more than one top-level nest?
struct KernelShape {
  int64_t minInnerTrip = 1;
  bool multiNest = false;
};

KernelShape inspectKernel(const flow::KernelSpec &spec) {
  KernelShape shape;
  flow::KernelConfig plain;
  plain.applyDirectives = false;
  mir::MContext mctx;
  mir::OwnedModule module = spec.build(mctx, plain);

  int64_t minTrip = 0;
  module.get().op->walk([&](mir::Operation *op) {
    if (!op->is(mir::ops::AffineFor))
      return;
    mir::ForOp loop = mir::ForOp::wrap(op);
    bool innermost = true;
    op->walk([&](mir::Operation *inner) {
      if (inner != op && inner->is(mir::ops::AffineFor))
        innermost = false;
    });
    if (!innermost)
      return;
    int64_t trip = loop.tripCount();
    if (trip > 0 && (minTrip == 0 || trip < minTrip))
      minTrip = trip;
  });
  shape.minInnerTrip = minTrip > 0 ? minTrip : 1;

  for (mir::FuncOp fn : module.get().funcs()) {
    int nests = 0;
    for (mir::Operation *op : fn.entryBlock()->opPtrs())
      if (op->is(mir::ops::AffineFor))
        ++nests;
    if (nests > 1)
      shape.multiNest = true;
  }
  return shape;
}

} // namespace

std::string configKey(const flow::KernelConfig &config) {
  // Formatted on the stack so the key is one exact-size allocation: the
  // QoR cache, the archive and every search hold many of them.
  char buffer[160];
  int length = 0;
  for (const flow::Knob &knob : flow::kKnobs)
    length += std::snprintf(buffer + length, sizeof(buffer) - length,
                            "%s%s=%lld", length ? "|" : "", knob.tag,
                            static_cast<long long>(knob.get(config)));
  return std::string(buffer, length);
}

std::optional<flow::KernelConfig> parseConfigKey(std::string_view key) {
  // Every knob's "tag=value", in table order, joined by '|'.
  flow::KernelConfig config;
  for (const flow::Knob &knob : flow::kKnobs) {
    if (&knob != flow::kKnobs) {
      if (key.substr(0, 1) != "|")
        return std::nullopt;
      key.remove_prefix(1);
    }
    std::string_view tag = knob.tag;
    if (key.substr(0, tag.size()) != tag ||
        key.substr(tag.size(), 1) != "=")
      return std::nullopt;
    key.remove_prefix(tag.size() + 1);
    std::optional<int64_t> value = parseInt(key.substr(0, key.find('|')));
    if (!value || (knob.isBool() && *value != 0 && *value != 1))
      return std::nullopt;
    knob.set(config, *value);
    key.remove_prefix(std::min(key.size(), key.find('|')));
  }
  if (!key.empty())
    return std::nullopt;
  return config;
}

DesignSpace::DesignSpace(const flow::KernelSpec &spec,
                         DesignSpaceOptions options)
    : spec_(&spec), options_(std::move(options)) {
  KernelShape shape = inspectKernel(spec);
  minInnerTrip_ = shape.minInnerTrip;
  multiNest_ = shape.multiNest;

  auto push = [&](const flow::KernelConfig &candidate) {
    flow::KernelConfig canonical = canonicalize(candidate);
    std::string key = configKey(canonical);
    if (std::find(pointKeys_.begin(), pointKeys_.end(), key) !=
        pointKeys_.end())
      return;
    pointKeys_.push_back(std::move(key));
    points_.push_back(canonical);
  };

  push(baseline());
  std::vector<bool> dataflows = {false};
  if (options_.exploreDataflow && multiNest_)
    dataflows.push_back(true);
  for (int64_t ii : options_.pipelineIIs)
    for (int64_t unroll : options_.unrollFactors)
      for (int64_t partition : options_.partitionFactors)
        for (bool dataflow : dataflows) {
          flow::KernelConfig config;
          config.pipelineII = ii;
          config.unrollFactor = unroll;
          config.partitionFactor = partition;
          config.dataflow = dataflow;
          push(config);
        }
}

flow::KernelConfig DesignSpace::baseline() const {
  flow::KernelConfig config;
  config.pipelineII = 0;
  config.unrollFactor = 1;
  config.partitionFactor = 1;
  config.dataflow = false;
  config.applyDirectives = false;
  return config;
}

flow::KernelConfig DesignSpace::canonicalize(
    const flow::KernelConfig &config) const {
  // Start from the all-off knobs — KernelConfig's defaults describe a
  // directive-applying configuration, not the unoptimized design.
  flow::KernelConfig out;
  out.pipelineII = 0;
  out.unrollFactor = 1;
  out.partitionFactor = 1;
  out.dataflow = false;
  if (config.applyDirectives) {
    out.pipelineII = std::max<int64_t>(0, config.pipelineII);
    out.unrollFactor = lir::clampUnrollFactor(
        minInnerTrip_, std::max<int64_t>(1, config.unrollFactor));
    out.partitionFactor = std::max<int64_t>(1, config.partitionFactor);
    out.dataflow = config.dataflow && multiNest_;
  }
  // All-default knobs are exactly the unoptimized design.
  out.applyDirectives = out.pipelineII > 0 || out.unrollFactor > 1 ||
                        out.partitionFactor > 1 || out.dataflow;
  if (!out.applyDirectives) {
    out.pipelineII = 0;
    out.unrollFactor = 1;
    out.partitionFactor = 1;
    out.dataflow = false;
  }
  return out;
}

bool DesignSpace::contains(const flow::KernelConfig &config) const {
  std::string key = configKey(canonicalize(config));
  return std::find(pointKeys_.begin(), pointKeys_.end(), key) !=
         pointKeys_.end();
}

std::vector<flow::KernelConfig>
DesignSpace::neighbors(const flow::KernelConfig &config) const {
  flow::KernelConfig self = canonicalize(config);
  std::vector<flow::KernelConfig> out;
  for (const flow::KernelConfig &candidate : points_) {
    int differing = 0;
    if (candidate.pipelineII != self.pipelineII)
      ++differing;
    if (candidate.unrollFactor != self.unrollFactor)
      ++differing;
    if (candidate.partitionFactor != self.partitionFactor)
      ++differing;
    if (candidate.dataflow != self.dataflow)
      ++differing;
    if (differing == 1)
      out.push_back(candidate);
  }
  return out;
}

} // namespace mha::dse
