/**
 * @file
 * Host-run metadata and throughput accounting: which build produced
 * a result (git sha, build type, compiler, sanitizers) and how fast
 * the simulator itself ran (KIPS - thousands of simulated
 * instructions retired per wall second - cycles per second, peak
 * RSS, heap allocations). This is the `host` block of the stats JSON;
 * the repository benchmark (perfbench/) reports through the same
 * definitions.
 */

#ifndef MTSIM_PROF_HOST_INFO_HH
#define MTSIM_PROF_HOST_INFO_HH

#include <cstdint>
#include <string>

namespace mtsim {

class JsonWriter;

namespace prof {

/** Build identity, fixed at compile/configure time. */
struct BuildInfo
{
    std::string gitSha;     ///< configure-time HEAD (or "unknown")
    std::string buildType;  ///< CMAKE_BUILD_TYPE
    std::string compiler;   ///< __VERSION__
    std::string sanitizers; ///< "asan,ubsan", ... or "none"
};

/** The build this binary came from. */
const BuildInfo &buildInfo();

/** Peak resident set size of this process, in KiB (0 if unknown). */
std::uint64_t peakRssKb();

/**
 * One throughput measurement: simulated work over host wall time.
 * The single KIPS definition every reporter (mtsim_run's host block,
 * the --progress heartbeat, perfbench's sim_kips) shares.
 */
struct Throughput
{
    double wallSeconds = 0.0;
    std::uint64_t cycles = 0;       ///< simulated processor cycles
    std::uint64_t instructions = 0; ///< retired instructions

    /**
     * Denominator clamped to one nanosecond: a measurement shorter
     * than the host timer's granularity (possible on very fast runs,
     * e.g. the first --progress poll) reports a finite saturated
     * rate instead of inf/nan or a misleading zero.
     */
    double
    wallClamped() const
    {
        return wallSeconds > 1e-9 ? wallSeconds : 1e-9;
    }

    /** Thousands of simulated instructions per wall second. */
    double
    kips() const
    {
        return static_cast<double>(instructions) / wallClamped() /
               1e3;
    }

    /** Simulated cycles per wall second. */
    double
    cyclesPerSecond() const
    {
        return static_cast<double>(cycles) / wallClamped();
    }
};

/**
 * Serialize the `host` stats block: build identity plus wall time,
 * KIPS, cycles/s, peak RSS and the profiler's allocation count.
 */
void writeHostJson(JsonWriter &w, const Throughput &t);

} // namespace prof
} // namespace mtsim

#endif // MTSIM_PROF_HOST_INFO_HH
