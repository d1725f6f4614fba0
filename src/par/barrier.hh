/**
 * @file
 * The barrier separating the relaxed host-parallel tier's quanta
 * (docs/ARCHITECTURE.md section 10). All parties (worker shards +
 * coordinator) meet twice per quantum: once to open the window, once
 * to close it. Waiters spin briefly then block on std::atomic::wait,
 * because the host may have fewer cores than shards (including
 * exactly one) and a pure spin would invert into a livelock-shaped
 * slowdown there.
 */

#ifndef MTSIM_PAR_BARRIER_HH
#define MTSIM_PAR_BARRIER_HH

#include <atomic>
#include <cstdint>


namespace mtsim::par {

/** Bounded spin on @p a until it leaves @p old, then futex-wait. */
inline std::uint64_t
spinUntilChanged(std::atomic<std::uint64_t> &a, std::uint64_t old)
{
    for (int i = 0; i < 128; ++i) {
        const std::uint64_t v = a.load(std::memory_order_acquire);
        if (v != old)
            return v;
    }
    a.wait(old, std::memory_order_acquire);
    return a.load(std::memory_order_acquire);
}

/** Sense-reversing barrier over a fixed party count. */
class SpinBarrier
{
  public:
    explicit SpinBarrier(std::uint32_t parties) : parties_(parties) {}

    void
    arriveAndWait()
    {
        const std::uint64_t sense =
            sense_.load(std::memory_order_acquire);
        if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            count_.store(0, std::memory_order_relaxed);
            sense_.store(sense + 1, std::memory_order_release);
            sense_.notify_all();
        } else {
            std::uint64_t s = sense;
            while (s == sense)
                s = spinUntilChanged(sense_, s);
        }
    }

  private:
    const std::uint32_t parties_;
    std::atomic<std::uint32_t> count_{0};
    std::atomic<std::uint64_t> sense_{0};
};

} // namespace mtsim::par

#endif // MTSIM_PAR_BARRIER_HH
