/**
 * @file
 * The one default size of the windowed sub-digest stream
 * (docs/OBSERVABILITY.md section 8). `mtsim_run --digest-window`
 * defaults to it, and perfbench's observed runs close their windows
 * at it, so a digest mismatch between any two documents localizes to
 * the same cycle ranges.
 */

#ifndef MTSIM_PROF_SPEED_HH
#define MTSIM_PROF_SPEED_HH

#include "common/types.hh"

namespace mtsim::prof {

/** One sub-digest window every 10k simulated cycles. */
inline constexpr Cycle kSpeedDigestWindowCycles = 10000;

} // namespace mtsim::prof

#endif // MTSIM_PROF_SPEED_HH
