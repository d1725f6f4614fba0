#include "system/uni_system.hh"

#include <algorithm>
#include <cassert>

namespace mtsim {

namespace {

/**
 * Disjoint per-application segments. The bases are staggered by a
 * page-aligned offset that is not a multiple of any cache size, so
 * different applications do not collide on identical cache indices
 * (real program load addresses are similarly unaligned).
 */
Addr
codeBaseOf(std::uint32_t app)
{
    return ((static_cast<Addr>(app) + 1) << 32) +
           static_cast<Addr>(app) * 0x7000;
}

Addr
dataBaseOf(std::uint32_t app)
{
    return codeBaseOf(app) + 0x10000000ull +
           static_cast<Addr>(app) * 0x13000;
}

} // namespace

UniSystem::UniSystem(const Config &cfg)
    : cfg_(cfg),
      mem_(cfg_),
      proc_(cfg_, mem_),
      sched_(cfg_.os, proc_, mem_, cfg_.seed + 17)
{
    mem_.setProbeBus(&probes_);
    proc_.setProbeBus(&probes_);
    sched_.setProbeBus(&probes_);
    obs_.addNode(&proc_);
}

std::uint32_t
UniSystem::addApp(const std::string &name, const KernelFn &kernel)
{
    const auto app = static_cast<std::uint32_t>(sources_.size());
    sources_.push_back(std::make_unique<ThreadSource>(
        codeBaseOf(app), dataBaseOf(app), cfg_.seed + 101 * (app + 1),
        kernel));
    return sched_.addApp(name, sources_.back().get());
}

void
UniSystem::enableChecking(const CheckConfig &cc)
{
    // The shadow state is rebuilt from the probe stream; attaching
    // after cycles already ran would make it diverge from reality.
    assert(!started_ && "enableChecking must precede the first run");
    if (InvariantChecker *ck = obs_.enableChecking(cc, cfg_, probes_))
        ck->setResources(0, &mem_.mshrs(), &mem_.writeBuffer());
}

void
UniSystem::attachWhyLedger(WhyLedger *why)
{
    // Like the checker, the ledger rebuilds attribution from the
    // probe stream; attaching mid-run would desynchronize it.
    assert(!started_ && "attachWhyLedger must precede the first run");
    obs_.attachWhyLedger(why, probes_);
}

void
UniSystem::attachFlightRecorder(FlightRecorder *fr)
{
    obs_.attachFlightRecorder(fr, probes_, &now_, &measured_);
}

void
UniSystem::run(Cycle warmup, Cycle measure)
{
    if (!started_) {
        sched_.start();
        started_ = true;
    }
    obs_.setSampling(false);
    runLoop(now_ + warmup);
    obs_.clearStats(now_);
    obs_.setSampling(true);
    runLoop(now_ + measure);
    measured_ += measure;
}

void
UniSystem::runLoop(Cycle end)
{
    // Consult the fast-forward planner only while "armed": a busy
    // pipeline cannot prove a window, and a declined plan stays
    // declined until the processor's planner-visible state changes
    // again. Pure scheduling heuristic - results are unaffected.
    bool armed = true;
    while (now_ < end) {
        if (ffEnabled_ && armed && !proc_.issuedLastTick() &&
            !proc_.shortStallHint()) {
            if (tryFastForward(end))
                continue;
            armed = false;
        }
        // The scheduler acting (slice boundary) also re-arms: an OS
        // swap changes the context picture behind the flag's back.
        const bool sched_acts = sched_.nextActionCycle() <= now_;
        // Both ticks are provable no-ops before their next-action
        // cycles, so quiet cycles skip the calls outright.
        if (mem_.nextTickAt() <= now_) {
            MTSIM_PROF_SCOPE("mem.tick");
            mem_.tick(now_);
        }
        if (sched_acts) {
            MTSIM_PROF_SCOPE("os");
            sched_.tick(now_);
        }
        {
            MTSIM_PROF_SCOPE("pipeline");
            proc_.tick(now_);
        }
        obs_.onCycle(now_);
        ++now_;
        if (proc_.stateChangedLastTick() || sched_acts)
            armed = true;
        // RAW-stall batch: the tick just proved its remaining stall
        // cycles are bit-identical pure stalls; advance them as one
        // attributed window instead of re-deriving each one. The
        // window may not cross the scheduler's next action cycle (its
        // tick is a provable no-op before then). Gated with
        // fast-forward so --no-fast-forward still means pure lockstep.
        Cycle b_until = 0;
        CycleClass b_cls = CycleClass::Busy;
        if (ffEnabled_ && proc_.takeStallBatch(now_, &b_until, &b_cls)) {
            const Processor::FastForwardPlan batch{
                std::min({b_until, sched_.nextActionCycle(), end}),
                b_cls};
            if (batch.until > now_) {
                obs_.onWindow(mem_, &batch, now_, batch.until);
                batchedCycles_ += batch.until - now_;
                now_ = batch.until;
                // The window usually ends at the stalled op's issue
                // cycle; a plan attempt there is doomed. Disarm - the
                // issue tick re-arms via stateChangedLastTick().
                armed = false;
            }
        }
    }
}

bool
UniSystem::tryFastForward(Cycle end)
{
    MTSIM_PROF_SCOPE("fastforward");
    // The scheduler mutates its slice state at nextActionCycle, so
    // no window may cross it (its tick is a no-op before then).
    Processor::FastForwardPlan plan;
    const Cycle until = planSkipWindow(
        obs_.nodes(), now_, std::min(end, sched_.nextActionCycle()),
        &plan);
    if (until == 0)
        return false;
    obs_.onWindow(mem_, &plan, now_, until);
    ffCycles_ += until - now_;
    now_ = until;
    return true;
}

double
UniSystem::throughput() const
{
    if (measured_ == 0)
        return 0.0;
    return static_cast<double>(proc_.retired()) /
           static_cast<double>(measured_);
}

} // namespace mtsim
