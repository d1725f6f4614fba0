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
     * Enable or disable node sleep and the clock jump (default on),
     * as on the MP with one node (docs/ARCHITECTURE.md section 8).
     * The processor sleeps through a stall window it proves, or
     * through the RAW-stall batch its tick records, and the clock
     * jumps to the end of the sleep, its slots attributed through
     * the regular breakdown accounting. No sleep crosses the OS
     * scheduler's next action. Off, the run is pure lockstep.
     * Results are bit-identical either way.
     */
    void setFastForward(bool on) { ffEnabled_ = on; }

    /** Cycles the clock jumped (0 when disabled, and with a checker
     *  attached, which refuses the jump). */
    Cycle fastForwardedCycles() const { return obs_.jumpedCycles(); }

    /**
     * Cycles the processor slept through RAW-stall batches: short
     * register/FU ready-time stalls its tick proves (0 when
     * disabled). The clock jumps over them like over any sleep, so
     * fastForwardedCycles() counts them too.
     */
    Cycle stallBatchedCycles() const { return proc_.batchedCycles(); }

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
    /** Simulate cycles until @p end. */
    void runLoop(Cycle end);

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
};

} // namespace mtsim

#endif // MTSIM_SYSTEM_UNI_SYSTEM_HH
