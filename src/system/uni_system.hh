/**
 * @file
 * The workstation system of Figure 4: one (multiple-context)
 * processor, the two-level cache hierarchy with interleaved memory,
 * and the OS scheduler multiprogramming a set of applications.
 * This is the top-level object the uniprocessor experiments
 * (Figures 6-7, Table 7) drive.
 */

#ifndef MTSIM_SYSTEM_UNI_SYSTEM_HH
#define MTSIM_SYSTEM_UNI_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/check_config.hh"
#include "check/checker.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "core/processor.hh"
#include "mem/uni_mem_system.hh"
#include "obs/probe.hh"
#include "os/scheduler.hh"
#include "prof/progress.hh"
#include "system/observer_set.hh"
#include "workload/emitter.hh"
#include "workload/program.hh"

namespace mtsim {

class UniSystem
{
  public:
    explicit UniSystem(const Config &cfg);

    /**
     * Add an application to the multiprogramming workload. Each app
     * receives a disjoint text and data segment.
     */
    std::uint32_t addApp(const std::string &name,
                         const KernelFn &kernel);

    /**
     * Simulate @p warmup cycles (loading caches, completing app
     * initialisation - the paper's discarded first slice), reset the
     * statistics, then simulate @p measure further cycles.
     */
    void run(Cycle warmup, Cycle measure);

    Cycle measuredCycles() const { return measured_; }

    /** Current simulation cycle (warm-up + measured so far). */
    Cycle now() const { return now_; }
    const CycleBreakdown &breakdown() const
    {
        return proc_.breakdown();
    }

    /** Useful instructions retired during the measured window. */
    std::uint64_t retired() const { return proc_.retired(); }

    /** Aggregate throughput in instructions per cycle. */
    double throughput() const;

    std::uint64_t
    retiredForApp(std::uint32_t app) const
    {
        return proc_.retiredForApp(app);
    }

    Processor &processor() { return proc_; }
    UniMemSystem &mem() { return mem_; }
    Scheduler &scheduler() { return sched_; }
    const Config &config() const { return cfg_; }

    /** The system-wide probe bus; add sinks to observe events. */
    ProbeBus &probes() { return probes_; }

    /**
     * Subscribe a flight recorder to the probe bus and give it a
     * state-snapshot hook over this system's live cycle and context
     * state, so a crash dump shows where the machine stood. Passive:
     * a recorded run is bit-identical to a plain one.
     */
    void attachFlightRecorder(FlightRecorder *fr);

    /**
     * Subscribe a latency-tolerance ledger (obs/why_ledger.hh) to
     * the probe bus and drive its cycle-end / bulk-window / stats-
     * clear hooks from the run loop. Must precede the first run().
     * Passive: a --why run is bit-identical to a plain one.
     */
    void attachWhyLedger(WhyLedger *why);

    /**
     * Attach an interval sampler fed with the cumulative busy-cycle
     * count per simulated cycle (bulk stall windows are folded in
     * through observeWindow, so sampling never disables
     * fast-forward). Pass nullptr to detach.
     */
    void setSampler(IntervalSampler *sampler) { obs_.setSampler(sampler); }

    /**
     * Attach a host-side progress heartbeat, polled every few
     * thousand simulated cycles. Pass nullptr to detach. Passive:
     * simulation results are unaffected.
     */
    void setProgress(prof::ProgressMeter *p) { obs_.setProgress(p); }

    /**
     * Enable or disable event-driven fast-forward (default on).
     * When every loaded context is stalled with a known resume cycle
     * the clock jumps to the earliest wake-up, bulk-attributing the
     * skipped issue slots through the regular breakdown accounting.
     * Results are bit-identical either way: an attached checker
     * replays the skipped cycles' streams exactly; ledger, sampler
     * and progress meter consume bulk windows whole.
     */
    void setFastForward(bool on) { ffEnabled_ = on; }

    /** Cycles skipped by fast-forward (0 when disabled). */
    Cycle fastForwardedCycles() const { return ffCycles_; }

    /**
     * Cycles advanced by RAW-stall batching: short register/FU
     * ready-time stalls the issue tick proves and the run loop
     * bulk-attributes instead of re-deriving cycle by cycle
     * (docs/ARCHITECTURE.md §8). Shares the fast-forward gate, so 0
     * when setFastForward(false). Results are bit-identical either
     * way.
     */
    Cycle stallBatchedCycles() const { return batchedCycles_; }

    /**
     * Enable runtime invariant checking (docs/CHECKING.md). Must be
     * called before the first run(); with abortOnViolation (the
     * default) any violated invariant throws CheckError carrying
     * cycle/proc/ctx context.
     */
    void enableChecking(const CheckConfig &cc = CheckConfig{});

    /** The attached checker, or nullptr when checking is off. */
    InvariantChecker *checker() { return obs_.checker(); }

  private:
    /** Simulate lockstep cycles until @p end. */
    void runLoop(Cycle end);
    /**
     * Attempt one fast-forward jump from now_. Returns true (with
     * now_ advanced) when the processor proved a stall window; the
     * caller then re-enters the loop.
     */
    bool tryFastForward(Cycle end);

    Config cfg_;
    ProbeBus probes_;
    UniMemSystem mem_;
    Processor proc_;
    Scheduler sched_;
    std::vector<std::unique_ptr<InstrSource>> sources_;
    ObserverSet obs_;
    Cycle now_ = 0;
    Cycle measured_ = 0;
    bool started_ = false;
    bool ffEnabled_ = true;
    Cycle ffCycles_ = 0;
    Cycle batchedCycles_ = 0;
};

} // namespace mtsim

#endif // MTSIM_SYSTEM_UNI_SYSTEM_HH
