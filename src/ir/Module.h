//===- ir/Module.h - IR modules ---------------------------------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Module is one whole VL program lowered to IR: functions plus all
/// memory objects (arrays, and size-1 cells backing global scalars).
///
//===----------------------------------------------------------------------===//

#ifndef VRP_IR_MODULE_H
#define VRP_IR_MODULE_H

#include "ir/Function.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace vrp {

/// A whole-program IR container.
class Module {
public:
  Function *makeFunction(std::string Name, IRType ReturnType) {
    Functions.push_back(
        std::make_unique<Function>(this, std::move(Name), ReturnType));
    Function *F = Functions.back().get();
    ByName.emplace(F->name(), F); // First function of a name wins.
    return F;
  }

  MemoryObject *makeMemoryObject(std::string Name, IRType ElemType,
                                 int64_t Size, bool IsGlobal) {
    Objects.push_back(std::make_unique<MemoryObject>(
        std::move(Name), ElemType, Size, IsGlobal, Objects.size()));
    return Objects.back().get();
  }

  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Functions;
  }
  const std::vector<std::unique_ptr<MemoryObject>> &memoryObjects() const {
    return Objects;
  }

  /// The first function created as \p Name, or null.
  Function *findFunction(const std::string &Name) const {
    auto It = ByName.find(Name);
    return It == ByName.end() ? nullptr : It->second;
  }

  /// Initial value for a global scalar cell (index = MemoryObject id).
  /// Cells without an entry start at zero.
  void setScalarInit(const MemoryObject *Obj, double Value) {
    if (ScalarInits.size() <= Obj->id())
      ScalarInits.resize(Obj->id() + 1, 0.0);
    ScalarInits[Obj->id()] = Value;
  }
  double scalarInit(const MemoryObject *Obj) const {
    return Obj->id() < ScalarInits.size() ? ScalarInits[Obj->id()] : 0.0;
  }

  /// Total instruction count across all functions (paper Figures 5/6 use
  /// this as the program-size axis).
  unsigned numInstructions() const {
    unsigned N = 0;
    for (const auto &F : Functions)
      N += F->numInstructions();
    return N;
  }

private:
  std::vector<std::unique_ptr<Function>> Functions;
  /// Name -> first function of that name. Every function enters through
  /// makeFunction (IRGen and cloning alike), which keeps this current.
  std::unordered_map<std::string, Function *> ByName;
  std::vector<std::unique_ptr<MemoryObject>> Objects;
  std::vector<double> ScalarInits;
};

} // namespace vrp

#endif // VRP_IR_MODULE_H
