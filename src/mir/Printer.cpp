#include "mir/Printer.h"

#include "mir/Ops.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace mha::mir {

namespace {

class PrintState {
public:
  std::string nameOf(Value *v) {
    auto it = names_.find(v);
    if (it != names_.end())
      return it->second;
    std::string name = strfmt("%%%u", next_++);
    names_[v] = name;
    return name;
  }

  void nameBlockArg(Value *v, const std::string &name) { names_[v] = name; }

private:
  std::map<Value *, std::string> names_;
  unsigned next_ = 0;
};

std::string attrStr(const Attribute *attr) {
  switch (attr->kind()) {
  case Attribute::Kind::Integer:
    return strfmt("%lld",
                  static_cast<long long>(cast<IntegerAttr>(attr)->value()));
  case Attribute::Kind::Float:
    // Shortest round-trip form via to_chars: exact and locale-independent
    // (%f/%g obey LC_NUMERIC and emit ',' decimals under e.g. de_DE).
    return json::shortestDouble(cast<FloatAttr>(attr)->value());
  case Attribute::Kind::String:
    return "\"" + cast<StringAttr>(attr)->value() + "\"";
  case Attribute::Kind::Type:
    return "type(" + cast<TypeAttr>(attr)->value()->str() + ")";
  case Attribute::Kind::Array: {
    std::string out = "[";
    const auto &elems = cast<ArrayAttr>(attr)->value();
    for (size_t i = 0; i < elems.size(); ++i) {
      if (i)
        out += ", ";
      out += attrStr(elems[i]);
    }
    return out + "]";
  }
  case Attribute::Kind::AffineMap:
    return "affine_map<" + cast<AffineMapAttr>(attr)->value().str() + ">";
  case Attribute::Kind::Unit:
    return "unit";
  }
  return "<?>";
}

std::string attrDictStr(const Operation::AttrMap &attrs,
                        const std::vector<std::string> &skip = {}) {
  std::string out;
  bool any = false;
  for (const auto &[key, value] : attrs) {
    if (std::find(skip.begin(), skip.end(), key) != skip.end())
      continue;
    if (any)
      out += ", ";
    any = true;
    out += key + " = " + attrStr(value);
  }
  if (!any)
    return "";
  return "{" + out + "}";
}

class Printer {
public:
  explicit Printer(std::ostringstream &os) : os_(os) {}

  void printModuleOp(Operation *op) {
    os_ << "builtin.module {\n";
    for (Operation *child : ModuleOp::wrap(op).body()->opPtrs()) {
      printIndent(1);
      printAnyOp(child, 1);
    }
    os_ << "}\n";
  }

  void printAnyOp(Operation *op, int indent) {
    if (op->is(ops::Func)) {
      printFuncOp(op, indent);
      return;
    }
    printGenericOp(op, indent);
  }

private:
  void printIndent(int indent) {
    for (int i = 0; i < indent; ++i)
      os_ << "  ";
  }

  void printFuncOp(Operation *op, int indent) {
    FuncOp fn = FuncOp::wrap(op);
    os_ << "func.func @" << fn.name() << "(";
    for (unsigned i = 0; i < fn.numArgs(); ++i) {
      if (i)
        os_ << ", ";
      std::string name = strfmt("%%arg%u", i);
      state_.nameBlockArg(fn.arg(i), name);
      os_ << name << ": " << fn.arg(i)->type()->str();
    }
    os_ << ")";
    std::string attrs =
        attrDictStr(op->attrs(), {"sym_name", "function_type"});
    if (!attrs.empty())
      os_ << " attributes " << attrs;
    os_ << " {\n";
    for (Operation *child : fn.entryBlock()->opPtrs()) {
      printIndent(indent + 1);
      printAnyOp(child, indent + 1);
    }
    printIndent(indent);
    os_ << "}\n";
  }

  void printGenericOp(Operation *op, int indent) {
    if (op->numResults()) {
      for (unsigned i = 0; i < op->numResults(); ++i) {
        if (i)
          os_ << ", ";
        os_ << state_.nameOf(op->result(i));
      }
      os_ << " = ";
    }
    os_ << "\"" << op->name() << "\"(";
    for (unsigned i = 0; i < op->numOperands(); ++i) {
      if (i)
        os_ << ", ";
      os_ << state_.nameOf(op->operand(i));
    }
    os_ << ")";
    if (op->numRegions()) {
      os_ << " (";
      for (unsigned r = 0; r < op->numRegions(); ++r) {
        if (r)
          os_ << ", ";
        printRegion(op->region(r), indent);
      }
      os_ << ")";
    }
    std::string attrs = attrDictStr(op->attrs());
    if (!attrs.empty())
      os_ << " " << attrs;
    // Trailing type signature.
    os_ << " : (";
    for (unsigned i = 0; i < op->numOperands(); ++i) {
      if (i)
        os_ << ", ";
      os_ << op->operand(i)->type()->str();
    }
    os_ << ") -> (";
    for (unsigned i = 0; i < op->numResults(); ++i) {
      if (i)
        os_ << ", ";
      os_ << op->result(i)->type()->str();
    }
    os_ << ")\n";
  }

  void printRegion(Region *region, int indent) {
    os_ << "{\n";
    for (auto &block : *region) {
      if (block->numArgs()) {
        printIndent(indent + 1);
        os_ << "^bb(";
        for (unsigned i = 0; i < block->numArgs(); ++i) {
          if (i)
            os_ << ", ";
          os_ << state_.nameOf(block->arg(i)) << ": "
              << block->arg(i)->type()->str();
        }
        os_ << "):\n";
      }
      for (Operation *child : block->opPtrs()) {
        printIndent(indent + 1);
        printAnyOp(child, indent + 1);
      }
    }
    printIndent(indent);
    os_ << "}";
  }

  std::ostringstream &os_;
  PrintState state_;
};

} // namespace

std::string printModule(ModuleOp module) {
  std::ostringstream os;
  Printer(os).printModuleOp(module.op);
  return os.str();
}

} // namespace mha::mir
