#include "lir/analysis/Dependence.h"

#include "lir/Function.h"

#include <algorithm>
#include <unordered_map>

namespace mha::lir {

bool LinearSubscript::sameSymbols(const LinearSubscript &other) const {
  if (symbols.size() != other.symbols.size())
    return false;
  for (size_t i = 0; i < symbols.size(); ++i)
    if (symbols[i] != other.symbols[i])
      return false;
  return true;
}

namespace {

/// Adds scale * v, linearized in `iv`, to `out`. Every non-iv leaf becomes
/// a symbol; coefficients of a repeated symbol add up.
void accumulate(LinearSubscript &out, const Value *v, const Value *iv,
                int64_t scale) {
  if (v == iv) {
    out.ivCoef += scale;
    return;
  }
  if (const auto *c = dyn_cast<ConstantInt>(v)) {
    out.constant += scale * c->value();
    return;
  }
  if (const auto *inst = dyn_cast<Instruction>(v)) {
    switch (inst->opcode()) {
    case Opcode::Add:
    case Opcode::Sub:
      accumulate(out, inst->operand(0), iv, scale);
      accumulate(out, inst->operand(1), iv,
                 inst->opcode() == Opcode::Add ? scale : -scale);
      return;
    case Opcode::Mul:
      if (const auto *rc = dyn_cast<ConstantInt>(inst->operand(1)))
        return accumulate(out, inst->operand(0), iv, scale * rc->value());
      if (const auto *lc = dyn_cast<ConstantInt>(inst->operand(0)))
        return accumulate(out, inst->operand(1), iv, scale * lc->value());
      break;
    case Opcode::Shl:
      if (const auto *rc = dyn_cast<ConstantInt>(inst->operand(1)))
        if (rc->value() >= 0 && rc->value() < 63)
          return accumulate(out, inst->operand(0), iv,
                            scale * (int64_t(1) << rc->value()));
      break;
    case Opcode::SExt:
    case Opcode::ZExt:
    case Opcode::Trunc:
      return accumulate(out, inst->operand(0), iv, scale);
    default:
      break;
    }
  }
  // Leaf symbol (loop-invariant value, outer IV, argument, ...).
  for (auto &[sym, coef] : out.symbols)
    if (sym == v) {
      coef += scale;
      return;
    }
  out.symbols.push_back({v, scale});
}

} // namespace

LinearSubscript linearizeInIV(const Value *v, const Value *iv) {
  LinearSubscript out;
  out.valid = true;
  accumulate(out, v, iv, 1);
  // Drop zero coefficients and sort for stable comparison.
  std::erase_if(out.symbols, [](const auto &p) { return p.second == 0; });
  std::sort(out.symbols.begin(), out.symbols.end());
  return out;
}

std::vector<MemAccess> collectLoopAccesses(const CanonicalLoop &loop) {
  std::vector<MemAccess> out;
  const Value *iv = loop.indVar;
  for (BasicBlock *bb : loop.loop->blocks()) {
    unsigned pos = 0;
    for (auto &inst : *bb) {
      unsigned instPos = pos++;
      bool isLoad = inst->opcode() == Opcode::Load;
      bool isStore = inst->opcode() == Opcode::Store;
      if (!isLoad && !isStore)
        continue;
      MemAccess access;
      access.inst = inst.get();
      access.pos = instPos;
      access.isStore = isStore;
      Value *ptr = inst->operand(isStore ? 1 : 0);
      access.base = pointerRoot(ptr);
      access.affine = true;
      // Single shaped GEP expected; otherwise mark non-affine.
      const auto *gep = dyn_cast<Instruction>(ptr);
      if (gep && gep->opcode() == Opcode::GEP &&
          pointerRoot(gep->operand(0)) == gep->operand(0)) {
        unsigned firstIdx = 1;
        // Skip the leading zero "through-pointer" index of shaped GEPs.
        if (gep->numOperands() > 2) {
          if (const auto *c = dyn_cast<ConstantInt>(gep->operand(1));
              c && c->isZero())
            firstIdx = 2;
        }
        access.firstIndex = firstIdx;
        for (unsigned i = firstIdx; i < gep->numOperands(); ++i) {
          LinearSubscript sub = linearizeInIV(gep->operand(i), iv);
          access.affine &= sub.valid;
          access.subscripts.push_back(std::move(sub));
        }
      } else if (gep && gep->opcode() == Opcode::GEP) {
        access.affine = false; // chained GEPs: be conservative
      } else if (ptr == access.base) {
        // Direct access to a scalar (0-d) base: constant address.
        access.affine = true;
      } else {
        access.affine = false;
      }
      out.push_back(std::move(access));
    }
  }
  return out;
}

namespace {

/// Solves src@iter(i) == dst@iter(i+d) for d. Returns nullopt when the
/// accesses can never alias; `exactUnknown` is set when the analysis must
/// be conservative.
std::optional<int64_t> solveDistance(const MemAccess &src,
                                     const MemAccess &dst,
                                     bool &exactUnknown) {
  exactUnknown = false;
  if (!src.affine || !dst.affine ||
      src.subscripts.size() != dst.subscripts.size()) {
    exactUnknown = true;
    return std::nullopt;
  }
  std::optional<int64_t> distance;
  bool anyIvDim = false;
  for (size_t dim = 0; dim < src.subscripts.size(); ++dim) {
    const LinearSubscript &a = src.subscripts[dim];
    const LinearSubscript &b = dst.subscripts[dim];
    if (!a.sameSymbols(b)) {
      // Different symbolic parts: cannot prove equality -> conservative.
      exactUnknown = true;
      return std::nullopt;
    }
    if (a.ivCoef != b.ivCoef) {
      exactUnknown = true;
      return std::nullopt;
    }
    if (a.ivCoef == 0) {
      if (a.constant != b.constant)
        return std::nullopt; // provably different addresses in this dim
      continue;
    }
    anyIvDim = true;
    // a.coef*i + a.c == a.coef*(i+d) + b.c  =>  d = (a.c - b.c) / coef
    int64_t num = a.constant - b.constant;
    if (num % a.ivCoef != 0)
      return std::nullopt; // never equal
    int64_t d = num / a.ivCoef;
    if (distance && *distance != d)
      return std::nullopt; // inconsistent across dims -> no solution
    distance = d;
  }
  if (!anyIvDim)
    return 0; // address invariant in iv; handled by caller as carried-1
  return distance;
}

} // namespace

std::vector<LoopDependence>
analyzeLoopDependences(const std::vector<MemAccess> &accesses) {
  // Only accesses to one base can conflict, and load/load never does:
  // visit each remaining unordered pair (i < j) once, in index order.
  struct Peers {
    std::vector<unsigned> all, stores;
  };
  std::vector<Peers> groups;
  std::vector<unsigned> groupOf(accesses.size());
  {
    std::unordered_map<const Value *, unsigned> groupOfBase;
    for (unsigned i = 0; i < accesses.size(); ++i) {
      auto [it, added] = groupOfBase.emplace(
          accesses[i].base, static_cast<unsigned>(groups.size()));
      if (added)
        groups.emplace_back();
      groupOf[i] = it->second;
      groups[it->second].all.push_back(i);
      if (accesses[i].isStore)
        groups[it->second].stores.push_back(i);
    }
  }

  std::vector<LoopDependence> deps;
  for (unsigned i = 0; i < accesses.size(); ++i) {
    const Peers &peers = groups[groupOf[i]];
    const std::vector<unsigned> &candidates =
        accesses[i].isStore ? peers.all : peers.stores;
    const MemAccess &a = accesses[i];
    for (auto it = std::upper_bound(candidates.begin(), candidates.end(), i);
         it != candidates.end(); ++it) {
      unsigned j = *it;
      const MemAccess &b = accesses[j];
      // The same-iteration edge follows program order.
      auto ordered = [&]() -> LoopDependence {
        return a.pos < b.pos ? LoopDependence{i, j, 0}
                             : LoopDependence{j, i, 0};
      };

      bool unknown = false;
      std::optional<int64_t> d = solveDistance(a, b, unknown);
      if (unknown) {
        // Conservative: mutual ordering plus carried distance 1.
        deps.push_back({i, j, 1});
        deps.push_back({j, i, 1});
        deps.push_back(ordered());
        continue;
      }
      if (!d)
        continue; // provably disjoint

      if (*d == 0) {
        // Same iteration: ordering edge following program order; if the
        // address is iv-invariant the conflict also recurs every iteration.
        deps.push_back(ordered());
        bool invariantAddr = std::all_of(
            a.subscripts.begin(), a.subscripts.end(),
            [](const LinearSubscript &s) { return s.ivCoef == 0; });
        if (invariantAddr) {
          deps.push_back({i, j, 1});
          deps.push_back({j, i, 1});
        }
      } else if (*d > 0) {
        // dst at iteration i+d touches what src touched at i.
        deps.push_back({i, j, *d});
      } else {
        deps.push_back({j, i, -*d});
      }
    }
  }
  return deps;
}

} // namespace mha::lir
