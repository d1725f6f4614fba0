/**
 * @file
 * Operation timing queries (Table 3). Maps an op class onto its
 * functional unit, issue interval and result latency. Inline: the
 * issue path asks them on every attempt.
 */

#ifndef MTSIM_ISA_LATENCY_HH
#define MTSIM_ISA_LATENCY_HH

#include <cstdint>

#include "common/config.hh"
#include "isa/micro_op.hh"
#include "isa/op.hh"

namespace mtsim {

/**
 * Functional units that can be structurally busy. Single-cycle units
 * (ALU, load port, branch) never block and are folded into None.
 */
enum class FuKind : std::uint8_t {
    None,
    IntMulDiv, ///< shared non-pipelined integer multiply/divide unit
    FpDiv,     ///< non-pipelined floating-point divider
    NumFus
};

/** Which blocking functional unit @p op occupies, if any. */
inline FuKind
fuKind(Op op)
{
    switch (op) {
      case Op::IntMul:
      case Op::IntDiv:
        return FuKind::IntMulDiv;
      case Op::FpDiv:
        return FuKind::FpDiv;
      default:
        return FuKind::None;
    }
}

/** Cycles the functional unit stays occupied after issue. */
inline std::uint32_t
issueInterval(const LatencyParams &lat, const MicroOp &op)
{
    switch (op.op) {
      case Op::Shift:  return lat.shiftIssue;
      case Op::IntMul: return lat.intMulIssue;
      case Op::IntDiv: return lat.intDivIssue;
      case Op::Load:   return lat.loadIssue;
      case Op::FpAdd:
      case Op::FpMul:  return lat.fpAddIssue;
      case Op::FpDiv:
        return op.singlePrec ? lat.fpDivSpIssue : lat.fpDivIssue;
      default:         return lat.intAluIssue;
    }
}

/**
 * Cycles from issue until the result may forward to a dependent's EX
 * stage. 1 means a dependent may issue back-to-back.
 */
inline std::uint32_t
resultLatency(const LatencyParams &lat, const MicroOp &op)
{
    switch (op.op) {
      case Op::Shift:  return lat.shiftLat;
      case Op::IntMul: return lat.intMulLat;
      case Op::IntDiv: return lat.intDivLat;
      case Op::Load:   return lat.loadLat;
      case Op::FpAdd:
      case Op::FpMul:  return lat.fpAddLat;
      case Op::FpDiv:
        return op.singlePrec ? lat.fpDivSpLat : lat.fpDivLat;
      default:         return lat.intAluLat;
    }
}

/** Pipeline depth (stages occupied) for @p op (7 int / 9 fp). */
inline std::uint32_t
pipeDepth(const Config &cfg, Op op)
{
    return isFp(op) ? cfg.fpPipeDepth : cfg.intPipeDepth;
}

} // namespace mtsim

#endif // MTSIM_ISA_LATENCY_HH
