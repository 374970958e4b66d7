#include "lir/Value.h"

#include <cassert>

namespace mha::lir {

Value::~Value() {
  assert(uses_.empty() && "destroying a value that still has uses");
}

void Value::replaceAllUsesWith(Value *replacement) {
  assert(replacement != this && "self-replacement");
  // Copy: Use::set mutates uses_.
  std::vector<Use *> snapshot = uses_;
  for (Use *use : snapshot)
    use->set(replacement);
}

void Use::set(Value *value) {
  if (value_ == value)
    return;
  if (value_) {
    auto &uses = value_->uses_;
    uses.erase(std::find(uses.begin(), uses.end(), this));
  }
  value_ = value;
  if (value_)
    value_->uses_.push_back(this);
}

} // namespace mha::lir
