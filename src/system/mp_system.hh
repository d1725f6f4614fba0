/**
 * @file
 * The scalable shared-memory multiprocessor of Figure 1: N nodes,
 * each a (multiple-context) processor with a private coherent data
 * cache, running one parallel application with one software thread
 * per hardware context. This is the top-level object the
 * multiprocessor experiments (Table 10, Figures 8-9) drive.
 */

#ifndef MTSIM_SYSTEM_MP_SYSTEM_HH
#define MTSIM_SYSTEM_MP_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/check_config.hh"
#include "check/checker.hh"
#include "coherence/mp_mem_system.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "core/processor.hh"
#include "obs/probe.hh"
#include "prof/progress.hh"
#include "sync/sync_manager.hh"
#include "system/observer_set.hh"
#include "workload/emitter.hh"
#include "workload/program.hh"

namespace mtsim {

/**
 * Builds the per-thread kernels of one parallel application: given
 * the thread count, a shared address space and a seed, returns
 * nThreads kernels that cooperate through shared addresses and
 * lock/barrier ids.
 */
using ParallelAppFn = std::function<std::vector<KernelFn>(
    std::uint32_t n_threads, AddressSpace &shared,
    std::uint64_t seed)>;

class MpSystem
{
  public:
    explicit MpSystem(const Config &cfg);

    /** Total hardware thread slots (processors x contexts). */
    std::uint32_t numThreads() const;

    /**
     * Instantiate the application with one thread per hardware
     * context. Thread t runs on processor t % P, context t / P, so
     * data distribution is stable as the context count varies.
     */
    void loadApp(const ParallelAppFn &app);

    /**
     * Barrier id whose first release resets statistics (the paper
     * discards each application's initialisation / first step).
     */
    void setStatsBarrier(std::uint32_t id);

    /**
     * Run until every thread finishes (or @p max_cycles elapse).
     * @return measured cycles (from the stats barrier, if one fired).
     */
    Cycle run(Cycle max_cycles = 500000000ull);

    /**
     * Select the run loop (docs/ARCHITECTURE.md section 10). (1, 1),
     * the default, is the cycle-exact sequential loop. Any
     * @p quantum > 1 is the relaxed tier: @p host_threads workers
     * run contiguous node blocks concurrently and exchange cross-node
     * traffic at barriers every @p quantum cycles. Its results are
     * approximate and nondeterministic run to run, so run() rejects
     * checking, the why ledger and sampling there. Throws
     * std::invalid_argument on a zero argument and on more than one
     * host thread at quantum 1. Call before run().
     */
    void setHostParallel(std::uint32_t host_threads, Cycle quantum);

    std::uint32_t hostThreads() const { return hostThreads_; }
    Cycle quantum() const { return quantum_; }

    bool finished() const;

    /** Sum of all processors' cycle breakdowns. */
    CycleBreakdown aggregateBreakdown() const;

    Processor &processor(ProcId p) { return *procs_[p]; }
    MpMemSystem &mem() { return mem_; }
    SyncManager &sync() { return sync_; }
    const Config &config() const { return cfg_; }
    Cycle now() const { return now_; }
    Cycle measuredCycles() const { return measured_; }
    std::uint64_t retired() const;

    /** The system-wide probe bus; add sinks to observe events. */
    ProbeBus &probes() { return probes_; }

    /**
     * Subscribe a flight recorder to the probe bus and give it a
     * state-snapshot hook over every node's live context state, so a
     * crash dump shows where the machine stood. Passive.
     */
    void attachFlightRecorder(FlightRecorder *fr);

    /**
     * Subscribe a latency-tolerance ledger (obs/why_ledger.hh) to
     * the probe bus and drive its cycle-end / bulk-window / stats-
     * clear hooks from the run loop. Must precede run(). Passive:
     * a --why run is bit-identical to a plain one.
     */
    void attachWhyLedger(WhyLedger *why);

    /**
     * Attach an interval sampler fed with the aggregate busy-cycle
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
     * Enable or disable node sleep and the clock jump (default on).
     * A node that proves it cannot issue before a known future cycle
     * sleeps until then, its slots attributed cycle by cycle without
     * a tick; a sync wake ends the sleep at once. When every node
     * sleeps the clock jumps to the earliest end of a sleep. Off,
     * the run is pure lockstep. Results are bit-identical either way.
     */
    void setFastForward(bool on) { ffEnabled_ = on; }

    /** Cycles the clock jumped (0 when disabled). */
    Cycle fastForwardedCycles() const { return obs_.jumpedCycles(); }

    /**
     * Node-cycles not ticked: each node's own sleep cycles plus
     * processors x the length of each clock jump (0 when disabled).
     */
    std::uint64_t sleptNodeCycles() const;

    /**
     * Enable runtime invariant checking on every processor
     * (docs/CHECKING.md). Must be called before run().
     */
    void enableChecking(const CheckConfig &cc = CheckConfig{});

    /** The attached checker, or nullptr when checking is off. */
    InvariantChecker *checker() { return obs_.checker(); }

  private:
    /** The relaxed host-parallel tier (system/mp_parallel.cc). */
    Cycle runRelaxedParallel(Cycle end);

    Config cfg_;
    ProbeBus probes_;
    MpMemSystem mem_;
    SyncManager sync_;
    std::vector<std::unique_ptr<Processor>> procs_;
    std::vector<std::unique_ptr<InstrSource>> sources_;
    ObserverSet obs_;
    Cycle now_ = 0;
    Cycle measured_ = 0;
    std::uint32_t statsBarrier_ = ~0u;
    bool ffEnabled_ = true;
    std::uint32_t hostThreads_ = 1;
    Cycle quantum_ = 1;
};

} // namespace mtsim

#endif // MTSIM_SYSTEM_MP_SYSTEM_HH
