#include "lir/analysis/Dependence.h"

#include "lir/Function.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

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

void addSymbol(LinearSubscript &expr, const Value *sym, int64_t coef) {
  for (auto &[s, c] : expr.symbols) {
    if (s == sym) {
      c += coef;
      return;
    }
  }
  expr.symbols.push_back({sym, coef});
}

LinearSubscript combine(const LinearSubscript &a, const LinearSubscript &b,
                        int64_t bScale) {
  LinearSubscript out;
  if (!a.valid || !b.valid)
    return out;
  out.valid = true;
  out.ivCoef = a.ivCoef + bScale * b.ivCoef;
  out.constant = a.constant + bScale * b.constant;
  out.symbols = a.symbols;
  for (const auto &[s, c] : b.symbols)
    addSymbol(out, s, bScale * c);
  // Drop zero coefficients and sort for stable comparison.
  std::erase_if(out.symbols, [](const auto &p) { return p.second == 0; });
  std::sort(out.symbols.begin(), out.symbols.end());
  return out;
}

LinearSubscript scale(const LinearSubscript &a, int64_t factor) {
  LinearSubscript zero;
  zero.valid = true;
  return combine(zero, a, factor);
}

} // namespace

LinearSubscript linearizeInIV(const Value *v, const Value *iv) {
  LinearSubscript out;
  if (v == iv) {
    out.valid = true;
    out.ivCoef = 1;
    return out;
  }
  if (const auto *c = dyn_cast<ConstantInt>(v)) {
    out.valid = true;
    out.constant = c->value();
    return out;
  }
  if (const auto *inst = dyn_cast<Instruction>(v)) {
    switch (inst->opcode()) {
    case Opcode::Add:
      return combine(linearizeInIV(inst->operand(0), iv),
                     linearizeInIV(inst->operand(1), iv), 1);
    case Opcode::Sub:
      return combine(linearizeInIV(inst->operand(0), iv),
                     linearizeInIV(inst->operand(1), iv), -1);
    case Opcode::Mul: {
      if (const auto *rc = dyn_cast<ConstantInt>(inst->operand(1)))
        return scale(linearizeInIV(inst->operand(0), iv), rc->value());
      if (const auto *lc = dyn_cast<ConstantInt>(inst->operand(0)))
        return scale(linearizeInIV(inst->operand(1), iv), lc->value());
      break;
    }
    case Opcode::Shl: {
      if (const auto *rc = dyn_cast<ConstantInt>(inst->operand(1)))
        if (rc->value() >= 0 && rc->value() < 63)
          return scale(linearizeInIV(inst->operand(0), iv),
                       int64_t(1) << rc->value());
      break;
    }
    case Opcode::SExt:
    case Opcode::ZExt:
    case Opcode::Trunc:
      return linearizeInIV(inst->operand(0), iv);
    default:
      break;
    }
  }
  // Leaf symbol (loop-invariant value, outer IV, argument, ...).
  out.valid = true;
  addSymbol(out, v, 1);
  return out;
}

namespace {

/// Walks back through GEPs/bitcasts to the root pointer.
const Value *pointerRoot(const Value *ptr) {
  while (true) {
    const auto *inst = dyn_cast<Instruction>(ptr);
    if (!inst)
      return ptr;
    if (inst->opcode() == Opcode::GEP || inst->opcode() == Opcode::Bitcast)
      ptr = inst->operand(0);
    else
      return ptr;
  }
}

} // namespace

std::vector<MemAccess> collectLoopAccesses(const CanonicalLoop &loop) {
  std::vector<MemAccess> out;
  const Value *iv = loop.indVar;
  for (BasicBlock *bb : loop.loop->blocks()) {
    for (auto &inst : *bb) {
      bool isLoad = inst->opcode() == Opcode::Load;
      bool isStore = inst->opcode() == Opcode::Store;
      if (!isLoad && !isStore)
        continue;
      MemAccess access;
      access.inst = inst.get();
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
  // Program-order position of every access in its block, from one walk per
  // distinct block rather than one walk per compared pair.
  std::unordered_map<const Instruction *, unsigned> position;
  for (const MemAccess &access : accesses)
    position.emplace(access.inst, 0);
  std::unordered_set<const BasicBlock *> walked;
  for (const MemAccess &access : accesses) {
    if (!walked.insert(access.inst->parent()).second)
      continue;
    unsigned pos = 0;
    for (const auto &inst : *access.inst->parent()) {
      if (auto it = position.find(inst.get()); it != position.end())
        it->second = pos;
      ++pos;
    }
  }
  auto inOrder = [&](const MemAccess &a, const MemAccess &b) {
    return position[a.inst] < position[b.inst];
  };

  // Only accesses to one base can conflict, and load/load never does:
  // visit each remaining unordered pair (i < j) once, in index order.
  struct Peers {
    std::vector<size_t> all, stores;
  };
  std::unordered_map<const Value *, Peers> byBase;
  for (size_t i = 0; i < accesses.size(); ++i) {
    Peers &peers = byBase[accesses[i].base];
    peers.all.push_back(i);
    if (accesses[i].isStore)
      peers.stores.push_back(i);
  }

  std::vector<LoopDependence> deps;
  for (size_t i = 0; i < accesses.size(); ++i) {
    const Peers &peers = byBase[accesses[i].base];
    const std::vector<size_t> &candidates =
        accesses[i].isStore ? peers.all : peers.stores;
    for (auto it = std::upper_bound(candidates.begin(), candidates.end(), i);
         it != candidates.end(); ++it) {
      const MemAccess &a = accesses[i];
      const MemAccess &b = accesses[*it];

      bool unknown = false;
      std::optional<int64_t> d = solveDistance(a, b, unknown);
      if (unknown) {
        // Conservative: mutual ordering plus carried distance 1.
        deps.push_back({a.inst, b.inst, 1});
        deps.push_back({b.inst, a.inst, 1});
        if (inOrder(a, b))
          deps.push_back({a.inst, b.inst, 0});
        else
          deps.push_back({b.inst, a.inst, 0});
        continue;
      }
      if (!d)
        continue; // provably disjoint

      bool invariantAddr =
          std::all_of(a.subscripts.begin(), a.subscripts.end(),
                      [](const LinearSubscript &s) { return s.ivCoef == 0; });
      if (*d == 0) {
        // Same iteration: ordering edge following program order; if the
        // address is iv-invariant the conflict also recurs every iteration.
        if (inOrder(a, b))
          deps.push_back({a.inst, b.inst, 0});
        else
          deps.push_back({b.inst, a.inst, 0});
        if (invariantAddr) {
          deps.push_back({a.inst, b.inst, 1});
          deps.push_back({b.inst, a.inst, 1});
        }
      } else if (*d > 0) {
        // dst at iteration i+d touches what src touched at i.
        deps.push_back({a.inst, b.inst, *d});
      } else {
        deps.push_back({b.inst, a.inst, -*d});
      }
    }
  }
  return deps;
}

} // namespace mha::lir
