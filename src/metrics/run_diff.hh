/**
 * @file
 * Cross-run diffing: the library behind tools/mtsim_diff. Takes two
 * documents the simulator emitted - stats JSON (--stats-json), prof
 * JSON (--prof-json), a flight-recorder dump or a --why-json ledger -
 * and answers the questions a digest mismatch or
 * KIPS regression raises:
 *
 *  - *where* did two runs first diverge? The windowed digest stream
 *    pins the mismatch to one window, giving an exact cycle range to
 *    re-run with --trace-out;
 *  - *what* changed? Per-counter metric deltas with percentages;
 *  - *why* is it slower? Prof-tree leaf attribution: which scopes'
 *    self-times moved, and how much of the KIPS delta each explains.
 *
 * See docs/OBSERVABILITY.md, "Diagnosing a digest mismatch".
 */

#ifndef MTSIM_METRICS_RUN_DIFF_HH
#define MTSIM_METRICS_RUN_DIFF_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mtsim {

struct JsonValue;

namespace diff {

/** What a parsed document is. */
enum class DocKind
{
    Stats,          ///< mtsim_run --stats-json
    Prof,           ///< mtsim_run --prof-json
    FlightRecorder, ///< flight-recorder dump
    Why,            ///< mtsim_run --why-json ledger document
    Unknown
};

const char *docKindName(DocKind k);

/** Classify a parsed document by schema / structure. */
DocKind detectKind(const JsonValue &doc);

/** Outcome of comparing two windowed digest streams. */
struct WindowDivergence
{
    bool comparable = false; ///< both sides carry matching streams
    bool found = false;      ///< a first divergent window exists
    std::uint64_t index = 0;
    Cycle start = 0;         ///< divergent window covers [start, end)
    Cycle end = 0;
};

/**
 * First index at which two per-window hash sequences disagree.
 * Streams are comparable only when both are non-empty and were
 * produced with the same window size; a length mismatch with an
 * identical common prefix diverges at the first missing window.
 */
WindowDivergence
firstDivergentWindow(const std::vector<std::string> &a, Cycle a_window,
                     const std::vector<std::string> &b,
                     Cycle b_window);

/** One scalar metric present in both documents. */
struct MetricDelta
{
    std::string name; ///< e.g. "ipc", "breakdown.busy", "counters.x"
    double a = 0.0;
    double b = 0.0;
    double pct = 0.0; ///< (b - a) / a * 100; 0 when a == 0
};

/**
 * Deltas over the simulated metrics two stats documents share: ipc,
 * retired, the cycle breakdown and every counter. Host-side numbers
 * (wall clock, KIPS) are deliberately excluded - they differ between
 * any two invocations and say nothing about simulated work. Only
 * changed metrics are returned, largest |pct| first.
 */
std::vector<MetricDelta> metricDeltas(const JsonValue &a,
                                      const JsonValue &b);

/** One prof-tree node whose self-time moved between two runs. */
struct LeafDelta
{
    std::string path;            ///< "run/pipeline" style scope path
    std::uint64_t selfNsA = 0;
    std::uint64_t selfNsB = 0;
    double shareA = 0.0;         ///< self / total, run A
    double shareB = 0.0;
    bool hasExplains = false;
    /**
     * KIPS the B run would gain if this node's self-time went back
     * to the A level, i.e. how much of the KIPS delta this node
     * explains (negative: the node got cheaper).
     */
    double explainsKips = 0.0;
};

/**
 * Per-node self-time attribution between two prof-JSON documents,
 * sorted by |self-time delta| descending. Nodes present on only one
 * side count as 0 on the other.
 */
std::vector<LeafDelta> profLeafDeltas(const JsonValue &a,
                                      const JsonValue &b);

/** A rendered comparison. */
struct DiffReport
{
    DocKind kind = DocKind::Unknown;
    /** The runs simulated different work (digest divergence). */
    bool divergence = false;
    std::vector<std::string> lines;
};

/**
 * Compare two documents of the same kind (detectKind on each;
 * throws std::runtime_error on a kind mismatch or unknown kind).
 */
DiffReport diffDocs(const JsonValue &a, const JsonValue &b);

} // namespace diff
} // namespace mtsim

#endif // MTSIM_METRICS_RUN_DIFF_HH
