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
    // The MP's node-sleep loop (MpSystem::run) with one node.
    bool asleep = false;
    while (now_ < end) {
        if (asleep) {
            asleep = false;
            if (obs_.jump(mem_, now_, end))
                continue;
        }
        const bool sched_acts = sched_.nextActionCycle() <= now_;
        // Both ticks are provable no-ops before their next-action
        // cycles, so quiet cycles skip the calls outright.
        if (mem_.nextTickAt() <= now_) {
            MTSIM_PROF_SCOPE("mem.tick");
            mem_.tick(now_);
        }
        if (sched_acts) {
            MTSIM_PROF_SCOPE("os");
            // An OS swap drops in-flight ops: first retire what the
            // sleep that ends here owes.
            proc_.settleSleep(now_);
            sched_.tick(now_);
            // A new slice moves the sleep limit, and an OS swap
            // changes the context picture behind the armed flag.
            proc_.rearm();
        }
        {
            MTSIM_PROF_SCOPE("pipeline");
            if (ffEnabled_) {
                // No sleep may cross the scheduler's next action (its
                // tick is a provable no-op only before then).
                if (!proc_.asleep(now_))
                    proc_.turn(now_,
                               std::min(end, sched_.nextActionCycle()));
                asleep = proc_.asleep(now_ + 1);
            } else {
                proc_.tick(now_);
            }
        }
        obs_.onCycle(now_);
        ++now_;
    }
    obs_.settle(now_);
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
