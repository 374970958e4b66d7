// Intrinsics.h - intrinsic declaration helpers.
//
// "Modern" intrinsics (llvm.*) are what the MLIR lowering emits; the HLS
// frontend only understands plain calls into a small math library (hls_*).
// The adaptor's IntrinsicLegalize pass rewrites the former into the latter
// (or into explicit IR).
#pragma once

#include <string>

namespace mha::lir {

class Function;
class LContext;
class Module;
class Type;

/// True for functions named llvm.* — not accepted by the HLS frontend.
bool isModernIntrinsic(const Function &fn);

/// True for the HLS math library calls the virtual HLS backend accepts
/// (hls_sqrt, hls_fabs, hls_exp, hls_log, hls_sin, hls_cos, hls_pow).
bool isHlsMathFunction(const std::string &name);

/// Declares (or finds) @llvm.memcpy.p0.p0.i64 : void(ptr, ptr, i64).
Function *getMemcpyIntrinsic(Module &module);
/// Declares (or finds) @llvm.fmuladd.<ty> : T(T, T, T).
Function *getFMulAddIntrinsic(Module &module, Type *type);
/// Declares (or finds) @llvm.sqrt.<ty> : T(T).
Function *getSqrtIntrinsic(Module &module, Type *type);

/// Declares (or finds) the HLS math call @hls_<op> : T(T).
Function *getHlsMathFunction(Module &module, const std::string &op,
                             Type *type);

} // namespace mha::lir
