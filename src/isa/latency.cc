#include "isa/op.hh"

namespace mtsim {

const char *
opName(Op op)
{
    switch (op) {
      case Op::IntAlu:    return "alu";
      case Op::Shift:     return "shift";
      case Op::IntMul:    return "mul";
      case Op::IntDiv:    return "div";
      case Op::Load:      return "load";
      case Op::Store:     return "store";
      case Op::Prefetch:  return "pref";
      case Op::Branch:    return "br";
      case Op::Jump:      return "j";
      case Op::FpAdd:     return "fadd";
      case Op::FpMul:     return "fmul";
      case Op::FpDiv:     return "fdiv";
      case Op::CtxSwitch: return "cswitch";
      case Op::Backoff:   return "backoff";
      case Op::Lock:      return "lock";
      case Op::Unlock:    return "unlock";
      case Op::Barrier:   return "barrier";
      case Op::Nop:       return "nop";
      default:            return "?";
    }
}

} // namespace mtsim
