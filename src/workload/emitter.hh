/**
 * @file
 * The Emitter is the API workload kernels use to produce micro-op
 * streams. It plays two of the roles the paper's toolchain played:
 *
 *  - the compiler back end: it allocates architectural registers from
 *    a rotating pool (creating realistic reuse and anti/output
 *    dependences) and assigns instruction addresses so the BTB and
 *    instruction cache see a faithful PC stream;
 *  - the Twine scheduler: before a basic block is released to the
 *    simulator it is list-scheduled by critical path, separating loads
 *    and long-latency producers from their consumers exactly the way
 *    the paper's scheduled code was (Section 4.2).
 *
 * Kernels are coroutines; they call the emission helpers freely and
 * `co_await e.pause()` periodically so the simulator can drain the
 * buffered stream lazily.
 */

#ifndef MTSIM_WORKLOAD_EMITTER_HH
#define MTSIM_WORKLOAD_EMITTER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/generator.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "isa/micro_op.hh"
#include "workload/program.hh"

namespace mtsim {

namespace detail {
class BlockScheduler;
}

class Emitter
{
  public:
    /** A stable instruction address usable as a branch target. */
    struct Label
    {
        Addr pc = 0;
    };

    /**
     * @param code_base base address of this thread's text segment
     * @param data_base base address of this thread's data segment
     * @param seed RNG seed for kernels that make stochastic choices
     * @param schedule enable the Twine-like block scheduler
     */
    Emitter(Addr code_base, Addr data_base, std::uint64_t seed = 1,
            bool schedule = true);
    ~Emitter();

    /** Data-segment allocator for the kernel. */
    AddressSpace &mem() { return space_; }

    /** Deterministic per-thread RNG for the kernel. */
    Rng &rng() { return rng_; }

    /** Coroutine suspend point; flushes the pending block. */
    PauseAwaiter pause();

    // ---- register management -------------------------------------
    /** Pin an integer register for a long-lived value (max 7). */
    RegId ipin();
    /** Pin a floating-point register for a long-lived value (max 7). */
    RegId fpin();
    /** Return a pinned register to the pool. */
    void unpin(RegId r);

    // ---- emission helpers (return the destination register) ------
    /**
     * Integer load. @p addr_src optionally names the register the
     * effective address depends on (pointer chasing / indexed
     * accesses), creating a serial load-load dependence chain.
     */
    RegId load(Addr a, RegId addr_src = kNoReg);
    /** Load into an fp register (same addr_src semantics). */
    RegId fload(Addr a, RegId addr_src = kNoReg);
    void store(Addr a, RegId v = kNoReg);
    /** Non-binding software prefetch of the line holding @p a. */
    void prefetch(Addr a);
    RegId iop(RegId a = kNoReg, RegId b = kNoReg);   ///< 1-cycle ALU
    RegId ishift(RegId a);
    RegId imul(RegId a, RegId b);
    RegId idiv(RegId a, RegId b);
    RegId fadd(RegId a = kNoReg, RegId b = kNoReg);  ///< add/sub/conv
    RegId fmul(RegId a = kNoReg, RegId b = kNoReg);
    RegId fdiv(RegId a, RegId b, bool single_prec = false);
    RegId imm();                     ///< constant materialisation
    void nop();

    /** Result into a specific (usually pinned) destination register. */
    RegId loadInto(RegId dst, Addr a);
    RegId iopInto(RegId dst, RegId a = kNoReg, RegId b = kNoReg);
    RegId faddInto(RegId dst, RegId a = kNoReg, RegId b = kNoReg);
    RegId fmulInto(RegId dst, RegId a = kNoReg, RegId b = kNoReg);

    // ---- control flow ---------------------------------------------
    /** Current pc; also a basic-block boundary. */
    Label here();
    /** Conditional branch to @p target with actual outcome @p taken. */
    void branch(RegId cond, Label target, bool taken);
    /**
     * Forward conditional branch skipping @p skip_ops instructions.
     * When @p taken, the caller must not emit the skipped body.
     */
    void branchFwd(RegId cond, bool taken, std::uint32_t skip_ops);
    /** Unconditional jump to a label. */
    void jump(Label target);
    /** Jump into another text region; returns the return label. */
    Label call(Addr region_pc);
    /** Jump back to the label call() returned. */
    void ret(Label return_to);

    /**
     * Fixed text-region base for "function" @p idx. Calling into the
     * same region repeatedly re-executes the same instruction
     * addresses, giving kernels a realistic, controllable
     * instruction-cache footprint. Regions are 2 KB (512
     * instructions) apart, above the linear emission area.
     */
    Addr codeRegion(std::uint32_t idx) const;

    // ---- multithreading control -------------------------------------
    /** Interleaved backoff instruction (Table 4). */
    void backoff(std::uint16_t cycles);
    /** Blocked scheme's explicit context-switch instruction. */
    void ctxSwitch();

    // ---- synchronization (multiprocessor kernels) ------------------
    void lock(std::uint32_t id);
    void unlock(std::uint32_t id);
    void barrier(std::uint32_t id);

    /**
     * Finished ops in program order, scheduled and pc-assigned. They
     * arrive a basic block at a time as blocks are flushed;
     * ThreadSource clears and refills this one buffer.
     */
    std::vector<MicroOp> &out() { return out_; }

    /** Hard cap on a basic block's length; longer runs are split.
     *  Public so BlockScheduler can size per-op bitmask scratch. */
    static constexpr std::uint32_t kMaxBlockOps = 48;

  private:
    void push(MicroOp op);
    void flushBlock();
    /** Assign pcs to @p ops in order and append them to out_. */
    void commit(std::vector<MicroOp> &ops);
    /** Flush the pending block, then append @p op at the next pc. */
    void emitDirect(MicroOp op);
    RegId allocInt();
    RegId allocFp();

    AddressSpace space_;
    Rng rng_;
    Addr codeBase_;
    Addr pc_;
    bool schedule_;

    std::vector<MicroOp> block_;   ///< current unscheduled basic block
    std::vector<MicroOp> out_;     ///< scheduled, pc-assigned stream
    /** Persistent scheduler scratch; reused across blocks so the
     *  steady-state emission path allocates nothing. */
    std::unique_ptr<detail::BlockScheduler> sched_;

    int intRot_ = 0;
    int fpRot_ = 0;
    std::uint8_t intPinned_ = 0;
    std::uint8_t fpPinned_ = 0;
};

/**
 * Emission-loop helper enforcing the kernel PC discipline: every
 * C++ loop that re-emits a body must fold the program counter back
 * to the loop top with a taken branch, so re-executions reuse the
 * same instruction addresses (otherwise the code footprint grows
 * without bound). Construct at the loop top; call next() at the end
 * of every iteration with "will there be another iteration".
 *
 *   EmitLoop loop(e);
 *   for (std::uint32_t k = 0;; ++k) {
 *       ...emit body...
 *       if (!loop.next(k + 1 < n))
 *           break;
 *   }
 */
class EmitLoop
{
  public:
    explicit EmitLoop(Emitter &e) : e_(e), top_(e.here()) {}

    /** Emit the index update + backward branch; @return again. */
    bool
    next(bool again)
    {
        RegId idx = e_.iop();  // index increment / compare
        e_.branch(idx, top_, again);
        return again;
    }

    Emitter::Label top() const { return top_; }

  private:
    Emitter &e_;
    Emitter::Label top_;
};

/**
 * The front end: adapts a kernel coroutine + Emitter into the
 * InstrSource interface the processor consumes (docs/ARCHITECTURE.md
 * §9). next() reads the emitter's one output buffer; once it is used
 * up, refill() clears it and resumes the coroutine until it holds at
 * least kRefillOps ops or the kernel ends. A thread so holds at most
 * one refill plus one resume's ops, however long it runs.
 */
class ThreadSource : public InstrSource
{
  public:
    /** Ops one refill decodes before it stops resuming the kernel. */
    static constexpr std::size_t kRefillOps = 1024;

    ThreadSource(Addr code_base, Addr data_base, std::uint64_t seed,
                 const KernelFn &kernel, bool schedule = true);

    bool
    next(MicroOp &op) override
    {
        if (pos_ == em_.out().size() && !refill())
            return false;
        op = em_.out()[pos_++];
        return true;
    }

  private:
    /** Replace the used-up buffer with the next ops of the stream.
     *  @return false once the kernel has ended and none are left. */
    bool refill();

    Emitter em_;
    KernelCoro coro_;
    std::size_t pos_ = 0;  ///< next op of em_.out() to hand out
};

} // namespace mtsim

#endif // MTSIM_WORKLOAD_EMITTER_HH
