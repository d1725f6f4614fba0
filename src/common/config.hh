/**
 * @file
 * Central configuration for mtsim. Defaults encode the paper's
 * machine tables: cache parameters (Table 1), uniprocessor memory
 * latencies (Table 2), operation latencies (Table 3), context switch
 * costs (Table 4), OS scheduler interference (Table 6) and
 * multiprocessor latency ranges (Table 8). Values the available paper
 * text garbled are filled with documented R4000/DASH-class numbers
 * (see DESIGN.md section 2) and remain configurable here.
 */

#ifndef MTSIM_COMMON_CONFIG_HH
#define MTSIM_COMMON_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace mtsim {

/** Hardware multithreading scheme under evaluation. */
enum class Scheme : std::uint8_t {
    Single,      ///< one hardware context (the baseline processor)
    Blocked,     ///< switch-on-miss, full pipeline flush (Weber/APRIL)
    Interleaved, ///< the paper's proposal: cycle-by-cycle round robin
    FineGrained, ///< HEP-style: no caches credited, no interlocks
};

const char *schemeName(Scheme s);

/** One cache level's geometry and port occupancies (Table 1). */
struct CacheParams
{
    std::uint32_t sizeBytes;
    std::uint32_t lineBytes = 32;
    std::uint32_t fetchLines = 1;      ///< lines brought in per fill
    std::uint32_t readOccupancy = 1;   ///< cycles a read holds the array
    std::uint32_t writeOccupancy = 1;
    std::uint32_t invalidateOccupancy = 2;
    std::uint32_t fillOccupancy = 1;

    std::uint32_t numLines() const { return sizeBytes / lineBytes; }
};

/** TLB geometry. The paper models TLB stalls; exact geometry is ours. */
struct TlbParams
{
    std::uint32_t entries = 64;
    std::uint32_t pageBytes = 4096;
    std::uint32_t missPenalty = 25;    ///< software-refill trap cost
};

/** Operation issue intervals and result latencies (Table 3). */
struct LatencyParams
{
    // {issue interval, result latency} per class. Issue interval is
    // the number of cycles the functional unit is blocked; result
    // latency is cycles from issue until the value can forward.
    std::uint32_t intAluIssue = 1,  intAluLat = 1;
    std::uint32_t shiftIssue = 1,   shiftLat = 2;
    std::uint32_t intMulIssue = 8,  intMulLat = 10;  // R4000 (garbled)
    std::uint32_t intDivIssue = 35, intDivLat = 35;  // R4000 (garbled)
    std::uint32_t loadIssue = 1,    loadLat = 3;     // two delay slots
    std::uint32_t fpAddIssue = 1,   fpAddLat = 5;    // add/sub/conv/mul
    std::uint32_t fpDivIssue = 61,  fpDivLat = 61;   // double precision
    std::uint32_t fpDivSpIssue = 31, fpDivSpLat = 31; // single precision
};

/** Uniprocessor memory latencies (Table 2), unloaded. */
struct UniMemParams
{
    std::uint32_t l1HitLat = 1;
    std::uint32_t l2HitLat = 9;       ///< from reference to reply
    std::uint32_t memLat = 34;        ///< from reference to reply
    std::uint32_t numBanks = 4;       ///< 4-way interleaved memory
    std::uint32_t bankBusy = 20;      ///< cycles a bank stays occupied
    std::uint32_t busRequestCycles = 1;  ///< split-transaction request
    std::uint32_t busReplyCycles = 2;    ///< reply transfer occupancy
};

/** Multiprocessor latency ranges (Table 8), sampled uniformly. */
struct MpMemParams
{
    std::uint32_t l1HitLat = 1;
    std::uint32_t localMemLo = 25,   localMemHi = 35;
    std::uint32_t remoteMemLo = 90,  remoteMemHi = 130;
    std::uint32_t remoteCacheLo = 110, remoteCacheHi = 150;
    /**
     * Network occupancy per remote transaction, in cycles (0 =
     * contentionless, the paper's model). Setting this makes the
     * interconnect a shared resource and lets an ablation check the
     * paper's claim that cache contention dominates network
     * contention.
     */
    std::uint32_t networkOccupancy = 0;
};

/** Context-switch cost parameters (Table 4 / Figure 2). */
struct SwitchParams
{
    // Blocked: a miss is detected at WB; the whole pipeline is
    // flushed, so the switch costs the pipeline depth.
    std::uint32_t blockedMissCost = 7;
    // Blocked explicit context-switch instruction.
    std::uint32_t blockedExplicitCost = 3;
    // Interleaved backoff instruction (triggered at decode).
    std::uint32_t backoffCost = 1;
    // Pipeline stage (from issue) at which a data-cache miss is known:
    // end of DF2, i.e. the start of WB for the missing load.
    std::uint32_t missDetectStage = 5;
};

/** OS scheduler model (Section 4.3 / Table 6). */
struct OsParams
{
    Cycle timeSliceCycles = 50000;    ///< paper: 6M (see DESIGN.md)
    std::uint32_t affinitySlices = 3; ///< same set runs 3 slices
    // Cache lines displaced by the scheduler per process switched
    // (Torrellas-style interference, Table 6; garbled -> our values).
    std::uint32_t icacheLinesPerProc = 85;
    std::uint32_t dcacheLinesPerProc = 100;
};

/** Everything a single experiment run needs. */
struct Config
{
    Scheme scheme = Scheme::Single;
    std::uint8_t numContexts = 1;

    // Extension (Section 7 discusses combining multiple contexts
    // with superscalar issue): instructions issued per cycle. Width
    // 2 allows one memory op and one control transfer per cycle;
    // under the interleaved scheme the slots go to different
    // contexts when possible (simultaneous multithreading avant la
    // lettre). The paper's machine is width 1.
    std::uint32_t issueWidth = 1;

    // Pipeline (Figure 5).
    std::uint32_t intPipeDepth = 7;
    std::uint32_t fpPipeDepth = 9;
    std::uint32_t branchResolveStage = 3;  ///< EX, from issue
    std::uint32_t mispredictPenalty = 3;
    std::uint32_t btbEntries = 2048;

    LatencyParams lat;
    SwitchParams sw;

    CacheParams l1d{64 * 1024, 32, 1, 1, 1, 2, 1};
    CacheParams l1i{64 * 1024, 32, 2, 1, 0, 0, 8};
    CacheParams l2{1024 * 1024, 32, 1, 2, 2, 4, 2};
    TlbParams itlb{48, 4096, 20};
    TlbParams dtlb{64, 4096, 25};
    std::uint32_t numMshrs = 8;       ///< lockup-free miss slots
    std::uint32_t writeBufferDepth = 8;

    UniMemParams uniMem;
    MpMemParams mpMem;
    OsParams os;

    // Multiprocessor shape.
    std::uint16_t numProcessors = 8;
    bool idealICache = false;         ///< true for the MP study (5.2)
    bool singleLevelDCache = false;   ///< true for the MP study (5.2)

    // Compiler support: insert explicit-switch (blocked) / backoff
    // (interleaved) before instructions that would stall longer than
    // this threshold on a long-latency arithmetic result. 0 disables.
    std::uint32_t switchHintThreshold = 8;

    // Interleaved issue variant: if true, a context whose next
    // instruction is hazard-blocked gives its slot to the next ready
    // context instead of bubbling (ablation; paper uses strict RR).
    bool interleavedSkipBlocked = false;

    // Extension (the paper's "certain jobs are higher priority"
    // workstation requirement): give this hardware context every
    // other issue slot when it is available; remaining slots are
    // shared round-robin by the other contexts. -1 disables.
    int priorityContext = -1;

    std::uint64_t seed = 1;

    /** Throw std::invalid_argument on inconsistent settings. */
    void validate() const;

    /** Convenience: preset for a given scheme and context count. */
    static Config make(Scheme s, std::uint8_t contexts);

    /** Preset matching the Section 5.2 multiprocessor system. */
    static Config makeMp(Scheme s, std::uint8_t contexts,
                         std::uint16_t procs);
};

} // namespace mtsim

#endif // MTSIM_COMMON_CONFIG_HH
