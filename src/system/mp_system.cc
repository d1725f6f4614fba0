#include "system/mp_system.hh"

#include <algorithm>

namespace mtsim {

namespace {

Addr
threadCodeBase(std::uint32_t tid)
{
    // Staggered so threads do not collide on identical cache indices.
    return ((static_cast<Addr>(tid) + 1) << 32) +
           static_cast<Addr>(tid) * 0x7000;
}

Addr
threadDataBase(std::uint32_t tid)
{
    return threadCodeBase(tid) + 0x10000000ull +
           static_cast<Addr>(tid) * 0x13000;
}

/** Shared segment, above every thread-private segment. */
constexpr Addr kSharedBase = 0x4000000000ull;

} // namespace

MpSystem::MpSystem(const Config &cfg)
    : cfg_(cfg), mem_(cfg_), sync_(cfg_.mpMem, cfg_.seed + 31)
{
    procs_.reserve(cfg_.numProcessors);
    const std::uint32_t n_threads = numThreads();
    for (ProcId p = 0; p < cfg_.numProcessors; ++p) {
        procs_.push_back(std::make_unique<Processor>(
            cfg_, mem_, p, &sync_, n_threads));
        procs_.back()->setProbeBus(&probes_);
    }
    for (auto &p : procs_)
        obs_.addNode(p.get());
    mem_.setProbeBus(&probes_);
    sync_.setProbeBus(&probes_);
}

std::uint32_t
MpSystem::numThreads() const
{
    return static_cast<std::uint32_t>(cfg_.numProcessors) *
           cfg_.numContexts;
}

void
MpSystem::loadApp(const ParallelAppFn &app)
{
    const std::uint32_t n = numThreads();
    AddressSpace shared(kSharedBase);
    std::vector<KernelFn> kernels = app(n, shared, cfg_.seed);
    for (std::uint32_t t = 0; t < n; ++t) {
        sources_.push_back(std::make_unique<ThreadSource>(
            threadCodeBase(t), threadDataBase(t),
            cfg_.seed + 577 * (t + 1), kernels[t]));
        const ProcId p = static_cast<ProcId>(t % cfg_.numProcessors);
        const CtxId c = static_cast<CtxId>(t / cfg_.numProcessors);
        procs_[p]->context(c).loadThread(sources_.back().get(), t);
    }
}

void
MpSystem::setStatsBarrier(std::uint32_t id)
{
    statsBarrier_ = id;
    sync_.setBarrierHook([this](std::uint32_t bid, Cycle) {
        if (bid == statsBarrier_)
            obs_.requestStatsClear();
    });
}

void
MpSystem::enableChecking(const CheckConfig &cc)
{
    InvariantChecker *ck = obs_.enableChecking(cc, cfg_, probes_);
    if (!ck)
        return;
    for (ProcId p = 0; p < cfg_.numProcessors; ++p)
        ck->setResources(p, &mem_.mshrs(p), &mem_.writeBuffer(p));
}

void
MpSystem::attachWhyLedger(WhyLedger *why)
{
    obs_.attachWhyLedger(why, probes_);
}

void
MpSystem::attachFlightRecorder(FlightRecorder *fr)
{
    obs_.attachFlightRecorder(fr, probes_, &now_, &measured_);
}

bool
MpSystem::finished() const
{
    for (const auto &p : procs_) {
        if (!p->allFinished())
            return false;
    }
    return true;
}

Cycle
MpSystem::run(Cycle max_cycles)
{
    const Cycle end = now_ + max_cycles;
    if (quantum_ > 1)
        return runRelaxedParallel(end);
    bool all_asleep = false;
    while (now_ < end) {
        // The clock jumps only when every node sleeps, to the end of
        // the earliest sleep, where that node takes its turn again.
        // A finished run does not jump (its limit is now_), so the
        // finished() break below lands where lockstep puts it.
        if (all_asleep) {
            all_asleep = false;
            if (obs_.jump(mem_, now_, finished() ? now_ : end))
                continue;
        }
        // A provable no-op before the next event/MSHR completion.
        if (mem_.nextTickAt() <= now_) {
            MTSIM_PROF_SCOPE("mem.tick");
            mem_.tick(now_);
        }
        all_asleep = ffEnabled_;
        {
            MTSIM_PROF_SCOPE("pipeline");
            // Node i takes its turn after nodes 0..i-1 took theirs in
            // now_, so it plans against exactly the state its lockstep
            // tick would see, wakes from those nodes included.
            for (const auto &p : procs_) {
                if (ffEnabled_)
                    p->turn(now_, end);
                else
                    p->tick(now_);
                all_asleep = all_asleep && p->asleep(now_ + 1);
            }
        }
        obs_.onCycle(now_);
        ++now_;
        if ((now_ & 63) == 0 && finished())
            break;
    }
    measured_ = now_ - obs_.statsStart();
    return measured_;
}

CycleBreakdown
MpSystem::aggregateBreakdown() const
{
    CycleBreakdown sum;
    for (const auto &p : procs_)
        sum += p->breakdown();
    return sum;
}

std::uint64_t
MpSystem::sleptNodeCycles() const
{
    std::uint64_t n = 0;
    for (const auto &p : procs_)
        n += p->sleptCycles();
    return n;
}

std::uint64_t
MpSystem::retired() const
{
    std::uint64_t n = 0;
    for (const auto &p : procs_)
        n += p->retired();
    return n;
}

} // namespace mtsim
