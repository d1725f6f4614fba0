/**
 * @file
 * What the two cycle-exact run loops (UniSystem::runLoop and
 * MpSystem::run) share: the observers attached to a run, the tail
 * that ends every cycle the nodes take their turns in, and the one
 * clock jump over cycles in which every node sleeps
 * (docs/ARCHITECTURE.md section 8). The workstation is the one-node
 * case throughout.
 */

#ifndef MTSIM_SYSTEM_OBSERVER_SET_HH
#define MTSIM_SYSTEM_OBSERVER_SET_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "check/check_config.hh"
#include "check/checker.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "core/processor.hh"
#include "metrics/json_stats.hh"
#include "obs/flight_recorder.hh"
#include "obs/probe.hh"
#include "obs/why_ledger.hh"
#include "prof/progress.hh"

namespace mtsim {

/**
 * The observers of one system's run - invariant checker, latency-
 * tolerance ledger, interval sampler, progress meter, flight-recorder
 * snapshot - over the system's nodes in ProcId order. Every observer
 * is passive: attaching any of them leaves the run bit-identical.
 */
class ObserverSet
{
  public:
    /** Append the next node. Call before attaching any observer. */
    void addNode(Processor *p) { nodes_.push_back(p); }
    const std::vector<Processor *> &nodes() const { return nodes_; }

    /**
     * Create an invariant checker over the nodes and subscribe it to
     * @p bus. Returns it so the caller can wire each node's memory
     * resources, or nullptr when one is already attached.
     */
    InvariantChecker *
    enableChecking(const CheckConfig &cc, const Config &cfg,
                   ProbeBus &bus)
    {
        if (checker_)
            return nullptr;
        checker_ = std::make_unique<InvariantChecker>(cc, cfg, nodes_);
        bus.addSink(checker_.get());
        return checker_.get();
    }

    void
    attachWhyLedger(WhyLedger *why, ProbeBus &bus)
    {
        bus.addSink(why);
        why_ = why;
    }

    /**
     * Subscribe @p fr to @p bus and give it a snapshot of where the
     * machine stood: the cycle *@p now, the measured cycles
     * *@p measured, each node's retired count and per-context
     * loaded/finished flags, and the ledger's last closed miss window.
     */
    void
    attachFlightRecorder(FlightRecorder *fr, ProbeBus &bus,
                         const Cycle *now, const Cycle *measured)
    {
        bus.addSink(fr);
        fr->setStateSnapshot([this, now, measured](JsonWriter &w) {
            w.beginObject();
            w.kv("cycle", *now);
            w.kv("measured_cycles", *measured);
            w.key("processors");
            w.beginArray();
            for (std::size_t p = 0; p < nodes_.size(); ++p) {
                const Processor &proc = *nodes_[p];
                w.beginObject();
                w.kv("proc", static_cast<std::uint64_t>(p));
                w.kv("retired", proc.retired());
                w.key("contexts");
                w.beginArray();
                for (CtxId c = 0; c < proc.numContexts(); ++c) {
                    const ThreadContext &ctx = proc.context(c);
                    w.beginObject();
                    w.kv("loaded", ctx.loaded());
                    w.kv("finished", ctx.loaded() && ctx.finished());
                    w.endObject();
                }
                w.endArray();
                w.endObject();
            }
            w.endArray();
            if (why_) {
                w.key("why_last_window");
                why_->writeLastClosedJson(w);
            }
            w.endObject();
        });
    }

    void setSampler(IntervalSampler *sampler) { sampler_ = sampler; }
    void setProgress(prof::ProgressMeter *p) { progress_ = p; }
    /** Feed the sampler only while @p on (the workstation does not
     *  sample its warm-up). */
    void setSampling(bool on) { sampling_ = on; }

    InvariantChecker *checker() const { return checker_.get(); }

    /** True when an attached observer needs every cycle's state. */
    bool cycleExact() const { return checker_ || why_ || sampler_; }

    /** Settle every node's sleep through @p through (see
     *  Processor::settleSleep). */
    void
    settle(Cycle through)
    {
        for (Processor *n : nodes_)
            n->settleSleep(through);
    }

    /** Reset every node's statistics at @p now and rebase the
     *  checker and the ledger onto the new epoch. The nodes must be
     *  settled through the clear (onCycle and the ends of the run
     *  loops do that). */
    void
    clearStats(Cycle now)
    {
        for (Processor *n : nodes_)
            n->clearStats(now);
        statsStart_ = now;
        statsCleared_ = true;
        clearPending_ = false;
        if (checker_)
            checker_->onStatsClear(now);
        if (why_)
            why_->onStatsClear(now);
    }

    /** Clear statistics at the end of the current cycle, unless they
     *  were cleared before (the MP stats barrier: only its first
     *  release starts the measurement). */
    void
    requestStatsClear()
    {
        if (!statsCleared_)
            clearPending_ = true;
    }

    /** Run a requested clear at @p now (onCycle does this itself). */
    void
    settleStatsClear(Cycle now)
    {
        if (clearPending_)
            clearStats(now);
    }

    /** Cycle of the last clearStats (0 before any). */
    Cycle statsStart() const { return statsStart_; }

    /**
     * End cycle @p c, after every awake node took its turn in it:
     * checker, ledger, a requested stats clear, sampler, then
     * progress meter. Those that read node state see every node
     * settled through @p c, as its lockstep tick would have left it:
     * a stats clear counts the cycles slept up to it in the old
     * epoch, because the MP stats barrier can land mid-sleep.
     */
    void
    onCycle(Cycle c)
    {
        if (clearPending_ || cycleExact())
            settle(c + 1);
        if (checker_) {
            MTSIM_PROF_SCOPE("checker");
            checker_->onCycleEnd(c);
        }
        if (why_) {
            MTSIM_PROF_SCOPE("why");
            why_->onCycleEnd(c);
        }
        settleStatsClear(c);
        if (sampling_ && sampler_)
            sampler_->observe(c, busy());
        if (progress_ && (c & 0xFFF) == 0)
            progress_->poll(c, retired());
    }

    /**
     * Jump the clock from @p now, after a cycle at whose end every
     * node sleeps, to the earliest end of a sleep, capped at
     * @p limit; returns false, with @p now unchanged, when that is
     * not past @p now. Memory drains once (event callbacks keep their
     * original timestamps, so this is order-identical to the
     * per-cycle drains); each node settles the window with the rest
     * of its sleep. The ledger, sampler and progress meter take the
     * window whole, after the nodes settle it: no busy slot can
     * accrue inside it. With a checker attached the jump is refused,
     * and the loop visits every cycle, settling the sleeping nodes at
     * each cycle's end: the lockstep stream the checker audits.
     */
    template <class Mem>
    bool
    jump(Mem &mem, Cycle &now, Cycle limit)
    {
        if (checker_)
            return false;
        MTSIM_PROF_SCOPE("fastforward");
        Cycle until = limit;
        for (const Processor *n : nodes_)
            until = std::min(until, n->sleepPlan().until);
        if (until <= now)
            return false;
        if (mem.nextTickAt() <= until - 1)
            mem.tick(until - 1);
        if (cycleExact())
            settle(until);
        if (why_) {
            for (std::size_t i = 0; i < nodes_.size(); ++i) {
                const Processor::FastForwardPlan &plan =
                    nodes_[i]->sleepPlan();
                why_->onBulkWindow(static_cast<ProcId>(i), now, until,
                                   plan.cls, plan.attribute);
            }
        }
        if (sampling_ && sampler_)
            sampler_->observeWindow(now, until, busy());
        pollProgress(until - 1);
        jumped_ += until - now;
        now = until;
        return true;
    }

    /** Cycles the clock jumped (0 with fast-forward off). */
    Cycle jumpedCycles() const { return jumped_; }

    /** Report progress at @p c whatever its alignment. */
    void
    pollProgress(Cycle c)
    {
        if (progress_)
            progress_->poll(c, retired());
    }

  private:
    /** Busy slots so far, summed over the nodes (sampled value). */
    double
    busy() const
    {
        Cycle b = 0;
        for (const Processor *n : nodes_)
            b += n->breakdown().get(CycleClass::Busy);
        return static_cast<double>(b);
    }

    std::uint64_t
    retired() const
    {
        std::uint64_t r = 0;
        for (const Processor *n : nodes_)
            r += n->retired();
        return r;
    }

    std::vector<Processor *> nodes_;
    std::unique_ptr<InvariantChecker> checker_;
    WhyLedger *why_ = nullptr;
    IntervalSampler *sampler_ = nullptr;
    prof::ProgressMeter *progress_ = nullptr;
    bool sampling_ = true;
    bool clearPending_ = false;
    bool statsCleared_ = false;
    Cycle statsStart_ = 0;
    Cycle jumped_ = 0;
};

} // namespace mtsim

#endif // MTSIM_SYSTEM_OBSERVER_SET_HH
