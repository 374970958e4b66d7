// Printer.h - MiniMLIR textual form.
//
// func.func and builtin.module print in custom syntax; all other ops print
// in MLIR's *generic* form (`%0 = "dialect.op"(%a) ({regions}) {attrs} :
// (types) -> (types)`), which round-trips through mir::parseModule.
#pragma once

#include <string>

namespace mha::mir {

class Operation;
struct ModuleOp;

std::string printModule(ModuleOp module);

} // namespace mha::mir
