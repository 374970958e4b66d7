// Reducer.cpp - greedy first-improvement reduction.
//
// Every edit strictly decreases a bounded structural measure (reachable
// node count, loop extents, nonzero constants), so the scan terminates at
// a fixpoint even without a size check; the attempt budget bounds oracle
// cost on stubborn reproducers.
//
// Kernel-mode edits preserve the generator's invariants (integer binops
// keep an IV-containing left subtree — nodes are only ever replaced by
// their LEFT child; subscript coefficients only shrink toward zero), so a
// reduced program is still a valid generator program: it can be re-checked
// and re-reduced from its JSON report.
#include "fuzz/Reducer.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

namespace mha::fuzz {

namespace {

/// One candidate edit, applied in place to a copy of the current program.
template <typename P> using Edit = std::function<void(P &)>;

void collectReachableF(const Program &p, std::vector<bool> &fSeen,
                       std::vector<bool> &iSeen) {
  fSeen.assign(p.fpool.size(), false);
  iSeen.assign(p.ipool.size(), false);
  std::function<void(int)> markI = [&](int idx) {
    if (idx < 0 || iSeen[static_cast<size_t>(idx)])
      return;
    iSeen[static_cast<size_t>(idx)] = true;
    markI(p.ipool[static_cast<size_t>(idx)].lhs);
    markI(p.ipool[static_cast<size_t>(idx)].rhs);
  };
  std::function<void(int)> markF = [&](int idx) {
    if (idx < 0 || fSeen[static_cast<size_t>(idx)])
      return;
    fSeen[static_cast<size_t>(idx)] = true;
    markF(p.fpool[static_cast<size_t>(idx)].lhs);
    markF(p.fpool[static_cast<size_t>(idx)].rhs);
    markI(p.fpool[static_cast<size_t>(idx)].iexpr);
  };
  for (const Stmt &s : p.stmts)
    markF(s.root);
}

/// Drops loop level 0: every IV(0) becomes the loop's lower bound, deeper
/// IVs shift up one level, LoadA subscripts fold level 0 into their
/// constants.
void peelOuterLoop(Program &p) {
  int64_t lb = p.loops[0].lb;
  for (IExpr &e : p.ipool) {
    if (e.kind != IExpr::Kind::IV)
      continue;
    if (e.iv == 0) {
      e.kind = IExpr::Kind::Const;
      e.cst = lb;
    } else {
      --e.iv;
    }
  }
  for (FExpr &e : p.fpool) {
    if (e.kind != FExpr::Kind::LoadA)
      continue;
    e.rowCst += e.rowCoef[0] * lb;
    e.colCst += e.colCoef[0] * lb;
    e.rowCoef.erase(e.rowCoef.begin());
    e.colCoef.erase(e.colCoef.begin());
  }
  p.loops.erase(p.loops.begin());
}

/// Candidate edits for the current program, most aggressive first.
std::vector<Edit<Program>> kernelEdits(const Program &p) {
  std::vector<Edit<Program>> edits;
  if (p.stmts.size() > 1)
    for (size_t s = 0; s < p.stmts.size(); ++s)
      edits.push_back([s](Program &q) {
        q.stmts.erase(q.stmts.begin() + static_cast<long>(s));
      });
  if (p.loops.size() > 1)
    edits.push_back([](Program &q) { peelOuterLoop(q); });
  for (size_t l = 0; l < p.loops.size(); ++l) {
    if (p.loops[l].ub > p.loops[l].lb + 2)
      edits.push_back(
          [l](Program &q) { q.loops[l].ub = q.loops[l].lb + 2; });
    if (p.loops[l].step != 1)
      edits.push_back([l](Program &q) { q.loops[l].step = 1; });
    if (p.loops[l].lb != 0)
      edits.push_back([l](Program &q) {
        q.loops[l].ub -= q.loops[l].lb;
        q.loops[l].lb = 0;
      });
  }

  std::vector<bool> fSeen, iSeen;
  collectReachableF(p, fSeen, iSeen);
  for (size_t i = 0; i < p.fpool.size(); ++i) {
    if (!fSeen[i])
      continue;
    const FExpr &e = p.fpool[i];
    // Hoist a child over its parent (either side: FP trees carry no
    // integer-invariant to preserve).
    if (e.lhs >= 0)
      edits.push_back([i](Program &q) {
        q.fpool[i] = q.fpool[static_cast<size_t>(q.fpool[i].lhs)];
      });
    if (e.rhs >= 0)
      edits.push_back([i](Program &q) {
        q.fpool[i] = q.fpool[static_cast<size_t>(q.fpool[i].rhs)];
      });
    // Collapse leaves to plain constants.
    if (e.kind == FExpr::Kind::LoadA || e.kind == FExpr::Kind::LoadOut ||
        e.kind == FExpr::Kind::FromInt)
      edits.push_back([i](Program &q) {
        FExpr c;
        c.kind = FExpr::Kind::ConstF;
        c.cst = 1.0;
        q.fpool[i] = c;
      });
    if (e.kind == FExpr::Kind::LoadA) {
      bool nonzero = e.rowCst != 0 || e.colCst != 0;
      for (int64_t v : e.rowCoef)
        nonzero |= v != 0;
      for (int64_t v : e.colCoef)
        nonzero |= v != 0;
      if (nonzero)
        edits.push_back([i](Program &q) {
          FExpr &a = q.fpool[i];
          a.rowCst = a.colCst = 0;
          std::fill(a.rowCoef.begin(), a.rowCoef.end(), 0);
          std::fill(a.colCoef.begin(), a.colCoef.end(), 0);
        });
    }
    if (e.kind == FExpr::Kind::ConstF && e.cst != 0.0)
      edits.push_back([i](Program &q) { q.fpool[i].cst = 0.0; });
  }
  for (size_t i = 0; i < p.ipool.size(); ++i) {
    if (!iSeen[i])
      continue;
    const IExpr &e = p.ipool[i];
    // Only the LEFT child: integer binops must keep an IV-containing left
    // subtree (see the generator's const-folding invariant).
    if (e.lhs >= 0)
      edits.push_back([i](Program &q) {
        q.ipool[i] = q.ipool[static_cast<size_t>(q.ipool[i].lhs)];
      });
    if (e.kind == IExpr::Kind::Const && e.cst != 0)
      edits.push_back([i](Program &q) { q.ipool[i].cst = 0; });
  }
  return edits;
}

/// Removes instructions the return value does not depend on, remapping
/// operand indices (constants are kept: they cost nothing and removing
/// them would churn every instruction index).
bool dceIr(IrProgram &p) {
  int instBase = static_cast<int>(p.numArgs + p.consts.size());
  std::vector<bool> live(p.insts.size(), false);
  std::function<void(int)> mark = [&](int v) {
    if (v < instBase)
      return;
    size_t idx = static_cast<size_t>(v - instBase);
    if (live[idx])
      return;
    live[idx] = true;
    mark(p.insts[idx].a);
    mark(p.insts[idx].b);
    mark(p.insts[idx].c);
  };
  mark(p.ret);
  std::vector<int> remap(p.insts.size(), -1);
  std::vector<IrInst> kept;
  for (size_t i = 0; i < p.insts.size(); ++i) {
    if (!live[i])
      continue;
    remap[i] = instBase + static_cast<int>(kept.size());
    kept.push_back(p.insts[i]);
  }
  if (kept.size() == p.insts.size())
    return false;
  auto remapOperand = [&](int &v) {
    if (v >= instBase)
      v = remap[static_cast<size_t>(v - instBase)];
  };
  for (IrInst &inst : kept) {
    remapOperand(inst.a);
    remapOperand(inst.b);
    remapOperand(inst.c);
  }
  remapOperand(p.ret);
  p.insts = std::move(kept);
  return true;
}

std::vector<Edit<IrProgram>> irEdits(const IrProgram &p) {
  std::vector<Edit<IrProgram>> edits;
  int instBase = static_cast<int>(p.numArgs + p.consts.size());
  // Retarget the return to an earlier instruction, then garbage-collect.
  if (p.ret >= instBase)
    for (int v = instBase; v < p.ret; ++v)
      if (p.widthOf(v) != 1)
        edits.push_back([v](IrProgram &q) {
          q.ret = v;
          dceIr(q);
        });
  {
    IrProgram probe = p;
    if (dceIr(probe))
      edits.push_back([](IrProgram &q) { dceIr(q); });
  }
  // Rewire an operand to the smallest same-width earlier value.
  for (size_t i = 0; i < p.insts.size(); ++i) {
    auto tryOperand = [&](int IrInst::*member) {
      int cur = p.insts[i].*member;
      if (cur < 0)
        return;
      unsigned width = p.widthOf(cur);
      for (int v = 0; v < cur; ++v) {
        if (p.widthOf(v) != width)
          continue;
        edits.push_back([i, member, v](IrProgram &q) {
          q.insts[i].*member = v;
          dceIr(q);
        });
        break;
      }
    };
    tryOperand(&IrInst::a);
    tryOperand(&IrInst::b);
    tryOperand(&IrInst::c);
  }
  if (p.argSets.size() > 1)
    for (size_t s = 0; s < p.argSets.size(); ++s)
      edits.push_back([s](IrProgram &q) {
        q.argSets.erase(q.argSets.begin() + static_cast<long>(s));
      });
  for (size_t c = 0; c < p.consts.size(); ++c)
    if (p.consts[c].first != 0)
      edits.push_back([c](IrProgram &q) { q.consts[c].first = 0; });
  for (size_t s = 0; s < p.argSets.size(); ++s)
    for (size_t a = 0; a < p.argSets[s].size(); ++a)
      if (p.argSets[s][a] != 0)
        edits.push_back(
            [s, a](IrProgram &q) { q.argSets[s][a] = 0; });
  return edits;
}

/// Op-level DCE inside one calls-mode function: drops ops the return
/// does not reach (sound — every op is pure and terminating), remapping
/// operand indices. Returns true when anything was removed.
bool dceCallFn(CallFn &fn, unsigned numArgs) {
  int opBase = static_cast<int>(numArgs + fn.consts.size());
  std::vector<bool> live(fn.ops.size(), false);
  std::function<void(int)> mark = [&](int v) {
    if (v < opBase)
      return;
    size_t idx = static_cast<size_t>(v - opBase);
    if (live[idx])
      return;
    live[idx] = true;
    mark(fn.ops[idx].a);
    mark(fn.ops[idx].b);
  };
  mark(fn.ret);
  std::vector<int> remap(fn.ops.size(), -1);
  std::vector<CallOp> kept;
  for (size_t i = 0; i < fn.ops.size(); ++i) {
    if (!live[i])
      continue;
    remap[i] = opBase + static_cast<int>(kept.size());
    kept.push_back(fn.ops[i]);
  }
  if (kept.size() == fn.ops.size())
    return false;
  auto remapOperand = [&](int &v) {
    if (v >= opBase)
      v = remap[static_cast<size_t>(v - opBase)];
  };
  for (CallOp &op : kept) {
    remapOperand(op.a);
    remapOperand(op.b);
  }
  remapOperand(fn.ret);
  fn.ops = std::move(kept);
  return true;
}

/// Marks function-table entries reachable from the top via Call ops.
std::vector<bool> reachableCallFns(const CallProgram &p) {
  std::vector<bool> seen(static_cast<size_t>(p.numFunctions()), false);
  std::function<void(const CallFn &)> visit = [&](const CallFn &fn) {
    for (const CallOp &op : fn.ops) {
      if (op.kind != CallOp::Kind::Call || op.callee < 0)
        continue;
      size_t callee = static_cast<size_t>(op.callee);
      if (callee >= seen.size() || seen[callee])
        continue;
      seen[callee] = true;
      if (op.callee < static_cast<int>(p.helpers.size()))
        visit(p.helpers[callee]);
    }
  };
  visit(p.top);
  return seen;
}

/// Drops unreachable trailing helpers and unreachable special functions,
/// shifting the array/recursion table indices in every body.
bool gcCallFns(CallProgram &p) {
  std::vector<bool> seen = reachableCallFns(p);
  int oldArr = p.arrayIndex(), oldRec = p.recIndex();
  bool dropArr = p.hasArrayHelper && !seen[static_cast<size_t>(oldArr)];
  bool dropRec = p.hasRecursion && !seen[static_cast<size_t>(oldRec)];
  size_t keepHelpers = p.helpers.size();
  while (keepHelpers > 0 && !seen[keepHelpers - 1])
    --keepHelpers;
  if (!dropArr && !dropRec && keepHelpers == p.helpers.size())
    return false;
  p.helpers.resize(keepHelpers);
  if (dropArr)
    p.hasArrayHelper = false;
  if (dropRec)
    p.hasRecursion = false;
  int newArr = p.arrayIndex(), newRec = p.recIndex();
  auto retarget = [&](CallFn &fn) {
    for (CallOp &op : fn.ops) {
      if (op.kind != CallOp::Kind::Call)
        continue;
      if (op.callee == oldArr)
        op.callee = newArr;
      else if (op.callee == oldRec)
        op.callee = newRec;
    }
  };
  for (CallFn &fn : p.helpers)
    retarget(fn);
  retarget(p.top);
  return true;
}

void dceCallProgram(CallProgram &p) {
  for (CallFn &fn : p.helpers)
    dceCallFn(fn, 2);
  dceCallFn(p.top, p.numArgs);
  gcCallFns(p);
}

std::vector<Edit<CallProgram>> callEdits(const CallProgram &p) {
  std::vector<Edit<CallProgram>> edits;
  // Replace a call site with a bitwise op over its operands, then
  // garbage-collect whatever became unreachable.
  auto decall = [&](bool top, size_t fnIdx) {
    const CallFn &fn = top ? p.top : p.helpers[fnIdx];
    for (size_t i = 0; i < fn.ops.size(); ++i) {
      if (fn.ops[i].kind != CallOp::Kind::Call)
        continue;
      edits.push_back([top, fnIdx, i](CallProgram &q) {
        CallFn &f = top ? q.top : q.helpers[fnIdx];
        f.ops[i].kind = CallOp::Kind::Xor;
        if (f.ops[i].b < 0)
          f.ops[i].b = f.ops[i].a;
        dceCallProgram(q);
      });
    }
  };
  decall(true, 0);
  for (size_t h = 0; h < p.helpers.size(); ++h)
    decall(false, h);
  // Retarget the top's return to an earlier value, then garbage-collect.
  {
    int opBase = static_cast<int>(p.numArgs + p.top.consts.size());
    if (p.top.ret >= opBase)
      for (int v = 0; v < p.top.ret; ++v)
        edits.push_back([v](CallProgram &q) {
          q.top.ret = v;
          dceCallProgram(q);
        });
  }
  {
    CallProgram probe = p;
    dceCallProgram(probe);
    if (probe.size() < p.size() ||
        probe.numFunctions() < p.numFunctions())
      edits.push_back([](CallProgram &q) { dceCallProgram(q); });
  }
  if (p.hasRecursion && p.recKind == RecKind::Fib)
    edits.push_back([](CallProgram &q) { q.recKind = RecKind::Sum; });
  for (size_t h = 0; h < p.helpers.size(); ++h)
    if (p.helpers[h].noinline)
      edits.push_back(
          [h](CallProgram &q) { q.helpers[h].noinline = false; });
  auto zeroConsts = [&](bool top, size_t fnIdx) {
    const CallFn &fn = top ? p.top : p.helpers[fnIdx];
    for (size_t c = 0; c < fn.consts.size(); ++c)
      if (fn.consts[c] != 0)
        edits.push_back([top, fnIdx, c](CallProgram &q) {
          (top ? q.top : q.helpers[fnIdx]).consts[c] = 0;
        });
  };
  zeroConsts(true, 0);
  for (size_t h = 0; h < p.helpers.size(); ++h)
    zeroConsts(false, h);
  if (p.hasArrayHelper)
    for (int k = 0; k < 8; ++k) {
      if (p.arrCoef[k] != 0)
        edits.push_back([k](CallProgram &q) { q.arrCoef[k] = 0; });
      if (p.arrAdd[k] != 0)
        edits.push_back([k](CallProgram &q) { q.arrAdd[k] = 0; });
    }
  if (p.argSets.size() > 1)
    for (size_t s = 0; s < p.argSets.size(); ++s)
      edits.push_back([s](CallProgram &q) {
        q.argSets.erase(q.argSets.begin() + static_cast<long>(s));
      });
  for (size_t s = 0; s < p.argSets.size(); ++s)
    for (size_t a = 0; a < p.argSets[s].size(); ++a)
      if (p.argSets[s][a] != 0)
        edits.push_back(
            [s, a](CallProgram &q) { q.argSets[s][a] = 0; });
  return edits;
}

/// The greedy first-improvement loop every mode shares: applies each
/// candidate edit of `edits(current)` in turn (then `finalize`, when
/// given) and keeps the first candidate on which `check` still reports
/// `failure`'s kind and stage, rescanning from the kept program until no
/// edit is kept or the attempt budget is spent.
template <typename P>
P reduceGreedy(const P &program, const OracleResult &failure,
               const OracleOptions &oracle, const ReducerOptions &options,
               ReductionTrace *trace,
               std::vector<Edit<P>> (*edits)(const P &),
               OracleResult (*check)(const P &, const OracleOptions &),
               void (*finalize)(P &) = nullptr) {
  ReductionTrace local;
  ReductionTrace &t = trace ? *trace : local;
  t.initialSize = program.size();
  P current = program;
  bool improved = true;
  while (improved && t.attempts < options.maxAttempts) {
    improved = false;
    for (const auto &edit : edits(current)) {
      if (t.attempts >= options.maxAttempts)
        break;
      P candidate = current;
      edit(candidate);
      if (finalize)
        finalize(candidate);
      ++t.attempts;
      if (check(candidate, oracle).sameFailure(failure)) {
        current = std::move(candidate);
        ++t.accepted;
        improved = true;
        break;
      }
    }
  }
  t.finalSize = current.size();
  return current;
}

} // namespace

Program reduceKernel(const Program &program, const OracleResult &failure,
                     const OracleOptions &oracle,
                     const ReducerOptions &options, ReductionTrace *trace) {
  return reduceGreedy<Program>(program, failure, oracle, options, trace,
                               kernelEdits, checkKernel,
                               [](Program &p) { p.finalizeShapes(); });
}

IrProgram reduceIr(const IrProgram &program, const OracleResult &failure,
                   const OracleOptions &oracle,
                   const ReducerOptions &options, ReductionTrace *trace) {
  return reduceGreedy<IrProgram>(program, failure, oracle, options, trace,
                                 irEdits, checkIr);
}

CallProgram reduceCalls(const CallProgram &program,
                        const OracleResult &failure,
                        const OracleOptions &oracle,
                        const ReducerOptions &options,
                        ReductionTrace *trace) {
  return reduceGreedy<CallProgram>(program, failure, oracle, options, trace,
                                   callEdits, checkCalls);
}

} // namespace mha::fuzz
