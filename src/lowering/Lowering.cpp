#include "lowering/Lowering.h"

#include "lir/IRBuilder.h"
#include "lir/Intrinsics.h"
#include "lir/LContext.h"
#include "mir/MContext.h"
#include "support/StringUtils.h"

#include <map>
#include <unordered_map>

namespace mha::lowering {

namespace {

using lir::IRBuilder;
using lir::Opcode;

/// How a mir memref value maps onto LLVM-level values.
struct LoweredMemRef {
  lir::Value *alignedPtr = nullptr;
  lir::Value *offset = nullptr;            // i64
  std::vector<lir::Value *> sizes;         // i64 each
  std::vector<lir::Value *> strides;       // i64 each
  lir::Type *elemTy = nullptr;
  std::vector<int64_t> shape;
};

class FunctionLowering {
public:
  FunctionLowering(mir::FuncOp fn, lir::Module &module,
                   DiagnosticEngine &diags)
      : fn_(fn), module_(module), ctx_(module.context()), builder_(ctx_),
        diags_(diags) {}

  bool run() {
    lir::Function *out = createSignature();
    if (!out)
      return false;
    BasicBlockRef entry = out->createBlock("entry");
    builder_.setInsertPoint(entry);
    bindArguments(out);
    if (!lowerBlock(fn_.entryBlock()))
      return false;
    return !diags_.hadError();
  }

private:
  using BasicBlockRef = lir::BasicBlock *;

  lir::Type *lowerType(mir::Type *type) {
    switch (type->kind()) {
    case mir::Type::Kind::Index:
      return ctx_.i64();
    case mir::Type::Kind::Integer:
      return ctx_.intTy(cast<mir::IntegerType>(type)->width());
    case mir::Type::Kind::Float:
      return ctx_.floatTy();
    case mir::Type::Kind::Double:
      return ctx_.doubleTy();
    default:
      diags_.error("cannot lower type " + type->str());
      return nullptr;
    }
  }

  lir::Function *createSignature() {
    mir::FunctionType *fnType = fn_.type();
    std::vector<lir::Type *> params;
    // Per-argument plan so we can bind later.
    for (mir::Type *input : fnType->inputs()) {
      if (auto *mt = dyn_cast<mir::MemRefType>(input)) {
        if (!lowerType(mt->elementType()))
          return nullptr;
        params.push_back(ctx_.opaquePtrTy());    // allocated
        params.push_back(ctx_.opaquePtrTy());    // aligned
        params.push_back(ctx_.i64());            // offset
        for (unsigned d = 0; d < mt->rank(); ++d)
          params.push_back(ctx_.i64());          // sizes
        for (unsigned d = 0; d < mt->rank(); ++d)
          params.push_back(ctx_.i64());          // strides
      } else {
        lir::Type *t = lowerType(input);
        if (!t)
          return nullptr;
        params.push_back(t);
      }
    }
    lir::Function *out = module_.createFunction(
        ctx_.fnTy(ctx_.voidTy(), params), fn_.name());
    fnOut_ = out;
    // Modern-only function attributes, as current LLVM frontends attach.
    out->attrs().insert("mustprogress");
    out->attrs().insert("nofree");
    out->attrs().insert("nosync");
    out->attrs().insert("willreturn");
    out->attrs().insert("memory(argmem: readwrite)");
    // Function-level dataflow (task-level pipelining) directive.
    if (fn_.op->attr(mir::hlsattr::Dataflow))
      out->attrs().insert("mha.dataflow");
    // Partition directives become function attributes.
    if (const auto *partitions = dyn_cast<mir::ArrayAttr>(
            fn_.op->attr(mir::hlsattr::ArrayPartition))) {
      for (const mir::Attribute *entry : partitions->value()) {
        const auto *tuple = cast<mir::ArrayAttr>(entry);
        out->attrs().insert(strfmt(
            "%s%lld:%lld:%lld:%s", kPartitionAttrPrefix,
            static_cast<long long>(
                cast<mir::IntegerAttr>(tuple->value()[0])->value()),
            static_cast<long long>(
                cast<mir::IntegerAttr>(tuple->value()[1])->value()),
            static_cast<long long>(
                cast<mir::IntegerAttr>(tuple->value()[2])->value()),
            cast<mir::StringAttr>(tuple->value()[3])->value().c_str()));
      }
    }
    return out;
  }

  void bindArguments(lir::Function *out) {
    unsigned lirIdx = 0;
    for (unsigned i = 0; i < fn_.numArgs(); ++i) {
      mir::BlockArgument *arg = fn_.arg(i);
      if (auto *mt = dyn_cast<mir::MemRefType>(arg->type())) {
        LoweredMemRef lowered;
        lowered.elemTy = lowerType(mt->elementType());
        lowered.shape = mt->shape();
        lir::Argument *alloc = out->arg(lirIdx++);
        lir::Argument *aligned = out->arg(lirIdx++);
        lir::Argument *offset = out->arg(lirIdx++);
        alloc->setName(strfmt("arg%u.alloc", i));
        aligned->setName(strfmt("arg%u.aligned", i));
        offset->setName(strfmt("arg%u.offset", i));
        aligned->attrs().insert("noalias");
        // Mark the group start for the adaptor.
        auto md = std::make_unique<lir::MDNode>();
        md->addString(strfmt("arg%u", i));
        md->addString(mt->elementType()->str());
        md->addInt(mt->rank());
        for (int64_t d : mt->shape())
          md->addInt(d);
        alloc->metadata()[kMemRefGroupMD] = std::move(md);

        lowered.alignedPtr = aligned;
        lowered.offset = offset;
        for (unsigned d = 0; d < mt->rank(); ++d) {
          out->arg(lirIdx)->setName(strfmt("arg%u.size%u", i, d));
          lowered.sizes.push_back(out->arg(lirIdx++));
        }
        for (unsigned d = 0; d < mt->rank(); ++d) {
          out->arg(lirIdx)->setName(strfmt("arg%u.stride%u", i, d));
          lowered.strides.push_back(out->arg(lirIdx++));
        }
        memrefs_[arg] = std::move(lowered);
      } else {
        lir::Argument *scalar = out->arg(lirIdx++);
        scalar->setName(strfmt("arg%u", i));
        valueMap_[arg] = scalar;
      }
    }
  }

  lir::Value *mapped(mir::Value *v) {
    auto it = valueMap_.find(v);
    if (it != valueMap_.end())
      return it->second;
    diags_.error("use of unlowered value");
    return ctx_.undef(ctx_.i64());
  }

  bool lowerBlock(mir::Block *block) {
    for (mir::Operation *op : block->opPtrs())
      if (!lowerOp(op))
        return false;
    return true;
  }

  bool lowerOp(mir::Operation *op) {
    const std::string &name = op->name();
    namespace mops = mir::ops;

    if (name == mops::ConstantOp)
      return lowerConstant(op);
    if (name == mops::AddI || name == mops::SubI || name == mops::MulI ||
        name == mops::DivSI || name == mops::RemSI)
      return lowerIntBinop(op);
    if (name == mops::AddF || name == mops::SubF || name == mops::MulF ||
        name == mops::DivF)
      return lowerFloatBinop(op);
    if (name == mops::NegF) {
      valueMap_[op->result()] = builder_.createFNeg(mapped(op->operand(0)));
      return true;
    }
    if (name == mops::CmpI || name == mops::CmpF)
      return lowerCmp(op);
    if (name == mops::Select) {
      valueMap_[op->result()] =
          builder_.createSelect(mapped(op->operand(0)),
                                mapped(op->operand(1)),
                                mapped(op->operand(2)));
      return true;
    }
    if (name == mops::IndexCast) {
      lir::Value *in = mapped(op->operand(0));
      lir::Type *to = lowerType(op->result()->type());
      if (in->type() == to)
        valueMap_[op->result()] = in;
      else if (in->type()->sizeInBytes() < to->sizeInBytes())
        valueMap_[op->result()] = builder_.createCast(Opcode::SExt, in, to);
      else
        valueMap_[op->result()] = builder_.createCast(Opcode::Trunc, in, to);
      return true;
    }
    if (name == mops::SIToFP) {
      valueMap_[op->result()] = builder_.createCast(
          Opcode::SIToFP, mapped(op->operand(0)),
          lowerType(op->result()->type()));
      return true;
    }
    if (name == mops::FPToSI) {
      valueMap_[op->result()] = builder_.createCast(
          Opcode::FPToSI, mapped(op->operand(0)),
          lowerType(op->result()->type()));
      return true;
    }
    if (name == mops::MathSqrt || name == mops::MathExp ||
        name == mops::MathFabs)
      return lowerMath(op);
    if (name == mops::MemRefAlloc)
      return lowerAlloc(op);
    if (name == mops::MemRefLoad)
      return lowerLoad(op);
    if (name == mops::MemRefStore)
      return lowerStore(op);
    if (name == mops::MemRefCopy)
      return lowerCopy(op);
    if (name == mops::ScfFor)
      return lowerFor(op);
    if (name == mops::Return) {
      builder_.createRet();
      return true;
    }
    if (name == mops::ScfYield)
      return true; // handled by the loop lowering
    diags_.error("cannot lower op " + name);
    return false;
  }

  bool lowerConstant(mir::Operation *op) {
    const mir::Attribute *value = op->attr("value");
    lir::Type *type = lowerType(op->result()->type());
    if (!type)
      return false;
    if (const auto *i = dyn_cast<mir::IntegerAttr>(value))
      valueMap_[op->result()] =
          ctx_.constInt(cast<lir::IntType>(type), i->value());
    else if (const auto *f = dyn_cast<mir::FloatAttr>(value))
      valueMap_[op->result()] = ctx_.constFP(type, f->value());
    else {
      diags_.error("bad constant attribute");
      return false;
    }
    return true;
  }

  bool lowerIntBinop(mir::Operation *op) {
    static const std::map<std::string, Opcode> table = {
        {mir::ops::AddI, Opcode::Add},
        {mir::ops::SubI, Opcode::Sub},
        {mir::ops::MulI, Opcode::Mul},
        {mir::ops::DivSI, Opcode::SDiv},
        {mir::ops::RemSI, Opcode::SRem}};
    valueMap_[op->result()] = builder_.createBinOp(
        table.at(op->name()), mapped(op->operand(0)), mapped(op->operand(1)));
    return true;
  }

  bool lowerFloatBinop(mir::Operation *op) {
    // Fuse a*b+c -> llvm.fmuladd(a, b, c) when the mul feeds one add.
    if (op->is(mir::ops::AddF)) {
      for (unsigned i = 0; i < 2; ++i) {
        mir::Operation *def = op->operand(i)->definingOp();
        if (def && def->is(mir::ops::MulF) &&
            def->result()->uses().size() == 1 &&
            valueMap_.count(def->result())) {
          // The mul was already lowered; replace its use with fmuladd if
          // the lowered mul is an FMul instruction we can fold away.
          auto *mulInst = dyn_cast<lir::Instruction>(valueMap_[def->result()]);
          if (mulInst && mulInst->opcode() == Opcode::FMul &&
              mulInst->numUses() == 0) {
            lir::Function *fma =
                lir::getFMulAddIntrinsic(module_, mulInst->type());
            lir::Value *other = mapped(op->operand(1 - i));
            lir::Value *call = builder_.createCall(
                fma, {mulInst->operand(0), mulInst->operand(1), other});
            valueMap_[op->result()] = call;
            valueMap_.erase(def->result());
            mulInst->eraseFromParent();
            return true;
          }
        }
      }
    }
    static const std::map<std::string, Opcode> table = {
        {mir::ops::AddF, Opcode::FAdd},
        {mir::ops::SubF, Opcode::FSub},
        {mir::ops::MulF, Opcode::FMul},
        {mir::ops::DivF, Opcode::FDiv}};
    valueMap_[op->result()] = builder_.createBinOp(
        table.at(op->name()), mapped(op->operand(0)), mapped(op->operand(1)));
    return true;
  }

  bool lowerCmp(mir::Operation *op) {
    static const std::map<std::string, lir::CmpPred> table = {
        {"eq", lir::CmpPred::EQ},   {"ne", lir::CmpPred::NE},
        {"slt", lir::CmpPred::SLT}, {"sle", lir::CmpPred::SLE},
        {"sgt", lir::CmpPred::SGT}, {"sge", lir::CmpPred::SGE},
        {"ult", lir::CmpPred::ULT}, {"ule", lir::CmpPred::ULE},
        {"ugt", lir::CmpPred::UGT}, {"uge", lir::CmpPred::UGE},
        {"oeq", lir::CmpPred::OEQ}, {"one", lir::CmpPred::ONE},
        {"olt", lir::CmpPred::OLT}, {"ole", lir::CmpPred::OLE},
        {"ogt", lir::CmpPred::OGT}, {"oge", lir::CmpPred::OGE}};
    const std::string &pred =
        cast<mir::StringAttr>(op->attr("predicate"))->value();
    lir::CmpPred p = table.at(pred);
    if (op->is(mir::ops::CmpI))
      valueMap_[op->result()] = builder_.createICmp(
          p, mapped(op->operand(0)), mapped(op->operand(1)));
    else
      valueMap_[op->result()] = builder_.createFCmp(
          p, mapped(op->operand(0)), mapped(op->operand(1)));
    return true;
  }

  bool lowerMath(mir::Operation *op) {
    const char *name = op->is(mir::ops::MathSqrt)  ? "sqrt"
                       : op->is(mir::ops::MathExp) ? "exp"
                                                   : "fabs";
    lir::Value *in = mapped(op->operand(0));
    if (op->is(mir::ops::MathSqrt)) {
      lir::Function *intrinsic = lir::getSqrtIntrinsic(module_, in->type());
      valueMap_[op->result()] = builder_.createCall(intrinsic, {in});
      return true;
    }
    // exp/fabs: declare modern llvm.* intrinsics too.
    lir::Function *fn = module_.getFunction(strfmt("llvm.%s.f64", name));
    if (!fn)
      fn = module_.createFunction(
          ctx_.fnTy(in->type(), {in->type()}), strfmt("llvm.%s.f64", name));
    valueMap_[op->result()] = builder_.createCall(fn, {in});
    return true;
  }

  bool lowerAlloc(mir::Operation *op) {
    auto *mt = cast<mir::MemRefType>(op->result()->type());
    lir::Type *elem = lowerType(mt->elementType());
    if (!elem)
      return false;
    // Allocas go to the entry block, flat [N x T] form (modern lowering
    // linearizes local buffers too).
    lir::BasicBlock *entry = fnOut_->entry();
    IRBuilder entryBuilder(ctx_);
    entryBuilder.setInsertPoint(entry, entry->firstNonPhi());
    lir::Instruction *alloca = entryBuilder.createAlloca(
        ctx_.arrayTy(elem, static_cast<uint64_t>(mt->numElements())),
        "buf");
    // Record the logical shape for the adaptor's delinearization.
    auto shapeMD = std::make_unique<lir::MDNode>();
    shapeMD->addString(mt->elementType()->str());
    shapeMD->addInt(mt->rank());
    for (int64_t d : mt->shape())
      shapeMD->addInt(d);
    alloca->setMetadata("mha.shape", std::move(shapeMD));
    // Record static geometry (constants).
    LoweredMemRef lowered;
    lowered.alignedPtr = alloca;
    lowered.offset = ctx_.constI64(0);
    lowered.elemTy = elem;
    lowered.shape = mt->shape();
    std::vector<int64_t> strides = mt->strides();
    for (unsigned d = 0; d < mt->rank(); ++d) {
      lowered.sizes.push_back(ctx_.constI64(mt->shape()[d]));
      lowered.strides.push_back(ctx_.constI64(strides[d]));
    }
    memrefs_[op->result()] = std::move(lowered);
    return true;
  }

  const LoweredMemRef *memrefFor(mir::Value *v) {
    auto it = memrefs_.find(v);
    if (it == memrefs_.end()) {
      diags_.error("use of unlowered memref");
      return nullptr;
    }
    return &it->second;
  }

  /// offset + sum(idx_d * stride_d), then `gep elemTy, ptr, linear`.
  lir::Value *emitAddress(const LoweredMemRef &mr,
                          const std::vector<lir::Value *> &indices) {
    lir::Value *linear = mr.offset;
    for (size_t d = 0; d < indices.size(); ++d) {
      lir::Value *scaled =
          builder_.createMul(indices[d], mr.strides[d], "idx.scaled");
      linear = builder_.createAdd(linear, scaled, "idx.linear");
    }
    return builder_.createGEP(mr.elemTy, mr.alignedPtr, {linear}, "addr");
  }

  bool lowerLoad(mir::Operation *op) {
    const LoweredMemRef *mr = memrefFor(op->operand(0));
    if (!mr)
      return false;
    std::vector<lir::Value *> indices;
    for (unsigned i = 1; i < op->numOperands(); ++i)
      indices.push_back(mapped(op->operand(i)));
    lir::Value *addr = emitAddress(*mr, indices);
    valueMap_[op->result()] = builder_.createLoad(mr->elemTy, addr, "ld");
    return true;
  }

  bool lowerStore(mir::Operation *op) {
    const LoweredMemRef *mr = memrefFor(op->operand(1));
    if (!mr)
      return false;
    std::vector<lir::Value *> indices;
    for (unsigned i = 2; i < op->numOperands(); ++i)
      indices.push_back(mapped(op->operand(i)));
    lir::Value *addr = emitAddress(*mr, indices);
    builder_.createStore(mapped(op->operand(0)), addr);
    return true;
  }

  bool lowerCopy(mir::Operation *op) {
    const LoweredMemRef *src = memrefFor(op->operand(0));
    const LoweredMemRef *dst = memrefFor(op->operand(1));
    if (!src || !dst)
      return false;
    int64_t elements = 1;
    for (int64_t d : src->shape)
      elements *= d;
    lir::Function *memcpyFn = lir::getMemcpyIntrinsic(module_);
    int64_t bytes =
        elements * static_cast<int64_t>(src->elemTy->sizeInBytes());
    builder_.createCall(memcpyFn, {dst->alignedPtr, src->alignedPtr,
                                   ctx_.constI64(bytes)});
    return true;
  }

  bool lowerFor(mir::Operation *op) {
    mir::ForOp loop = mir::ForOp::wrap(op);
    lir::Value *lb = mapped(op->operand(0));
    lir::Value *ub = mapped(op->operand(1));
    lir::Value *step = mapped(op->operand(2));

    lir::BasicBlock *pre = builder_.insertBlock();
    lir::BasicBlock *header = fnOut_->createBlock("for.header");
    lir::BasicBlock *body = fnOut_->createBlock("for.body");
    lir::BasicBlock *exit = fnOut_->createBlock("for.exit");

    builder_.createBr(header);
    builder_.setInsertPoint(header);
    lir::Instruction *iv = builder_.createPhi(ctx_.i64(), "iv");
    lir::Value *cmp =
        builder_.createICmp(lir::CmpPred::SLT, iv, ub, "exitcond");
    builder_.createCondBr(cmp, body, exit);

    builder_.setInsertPoint(body);
    valueMap_[loop.inductionVar()] = iv;
    if (!lowerBlock(loop.bodyBlock()))
      return false;
    // Latch: iv.next then back edge carrying the loop directives.
    lir::Value *ivNext = builder_.createAdd(iv, step, "iv.next");
    lir::Instruction *latch = builder_.createBr(header);
    attachLoopMetadata(latch, loop);

    iv->addIncoming(lb, pre);
    iv->addIncoming(ivNext, builder_.insertBlock());
    builder_.setInsertPoint(exit);
    return true;
  }

  void attachLoopMetadata(lir::Instruction *latch, mir::ForOp loop) {
    if (auto ii = loop.pipelineII())
      latch->setMetadata(kLoopPipelineMD, lir::MDNode::ofInt(*ii));
    if (auto factor = loop.unrollFactor())
      latch->setMetadata(kLoopUnrollMD, lir::MDNode::ofInt(*factor));
    if (const auto *trip = dyn_cast<mir::IntegerAttr>(
            loop.op->attr(mir::hlsattr::TripCount)))
      latch->setMetadata(kLoopTripCountMD, lir::MDNode::ofInt(trip->value()));
    if (loop.op->attr(mir::hlsattr::Dataflow))
      latch->setMetadata(kLoopDataflowMD, lir::MDNode::ofInt(1));
  }

  mir::FuncOp fn_;
  lir::Module &module_;
  lir::LContext &ctx_;
  IRBuilder builder_;
  DiagnosticEngine &diags_;
  lir::Function *fnOut_ = nullptr;
  // Pointer-keyed and lookup-only — never iterate these: iteration order
  // would follow allocation addresses and vary run to run. Anything that
  // needs an ordered walk must go through the mir function's own
  // operation order instead.
  std::unordered_map<mir::Value *, lir::Value *> valueMap_;
  std::unordered_map<mir::Value *, LoweredMemRef> memrefs_;
};

} // namespace

std::unique_ptr<lir::Module> lowerToLIR(mir::ModuleOp module,
                                        lir::LContext &ctx,
                                        const LoweringOptions &,
                                        DiagnosticEngine &diags) {
  ctx.emitOpaquePointers = true;
  auto out = std::make_unique<lir::Module>(ctx, "lowered");
  out->flags()["opaque-pointers"] = "true";
  out->flags()["ir-producer"] = "mlir-lowering";
  for (mir::FuncOp fn : module.funcs()) {
    FunctionLowering lowering(fn, *out, diags);
    if (!lowering.run())
      return nullptr;
  }
  return out;
}

} // namespace mha::lowering
