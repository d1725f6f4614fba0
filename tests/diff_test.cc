/**
 * @file
 * Tests of the cross-run diff library (metrics/run_diff.hh):
 * document-kind detection, first-divergent-window search, metric
 * deltas (host numbers excluded), prof-tree leaf attribution with
 * KIPS explanation, the rendered stats diff (re-run hint) and the
 * why-ledger diff.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "metrics/json_parse.hh"
#include "metrics/run_diff.hh"

namespace mtsim {
namespace {

using diff::DocKind;

bool
hasLine(const std::vector<std::string> &lines, const std::string &sub)
{
    for (const std::string &l : lines) {
        if (l.find(sub) != std::string::npos)
            return true;
    }
    return false;
}

/** A minimal but structurally faithful stats document. */
std::string
statsDoc(const std::string &digest_hash, const std::string &w2,
         std::uint64_t dmiss, double wall)
{
    std::ostringstream os;
    os << R"({
      "run": {"mode": "workstation", "scheme": "interleaved",
              "contexts": 2, "mix": "FP", "width": 1, "seed": 1,
              "warmup": 20000, "measured_cycles": 20000},
      "retired": 10000, "ipc": 0.5,
      "breakdown": {"busy": 5000, "idle": 1000},
      "counters": {"dmiss": )"
       << dmiss << R"(},
      "host": {"wall_seconds": )"
       << wall << R"(, "kips": 100.0},
      "digest": {"hash": ")"
       << digest_hash << R"(", "window_cycles": 1000,
                 "windows": [{"hash": "0x1"}, {"hash": "0x2"},
                             {"hash": ")"
       << w2 << R"("}]}
    })";
    return os.str();
}

// ---- document-kind detection --------------------------------------

TEST(RunDiff, DetectKindClassifiesEveryDocument)
{
    EXPECT_EQ(diff::detectKind(parseJson(
                  R"({"schema": "mtsim_flight_recorder/v1"})")),
              DocKind::FlightRecorder);
    EXPECT_EQ(diff::detectKind(
                  parseJson(statsDoc("0xa", "0x3", 42, 1.0))),
              DocKind::Stats);
    EXPECT_EQ(diff::detectKind(parseJson(
                  R"({"profile": {"tree": []}, "host": {}})")),
              DocKind::Prof);
    EXPECT_EQ(diff::detectKind(parseJson(
                  R"({"schema": "mtsim_why/v1"})")),
              DocKind::Why);
    EXPECT_EQ(diff::detectKind(parseJson(R"({"foo": 1})")),
              DocKind::Unknown);
    EXPECT_EQ(diff::detectKind(parseJson("[]")), DocKind::Unknown);
}

TEST(RunDiff, DiffDocsRejectsMismatchedOrUnknownKinds)
{
    const JsonValue stats = parseJson(statsDoc("0xa", "0x3", 42, 1.0));
    const JsonValue why = parseJson(R"({"schema": "mtsim_why/v1"})");
    const JsonValue junk = parseJson(R"({"foo": 1})");
    EXPECT_THROW(diff::diffDocs(stats, why), std::runtime_error);
    EXPECT_THROW(diff::diffDocs(junk, junk), std::runtime_error);
}

// ---- first divergent window ---------------------------------------

TEST(RunDiff, FirstDivergentWindowFindsTheMismatch)
{
    const std::vector<std::string> a{"0x1", "0x2", "0x3"};
    const std::vector<std::string> b{"0x1", "0x9", "0x3"};
    const diff::WindowDivergence w =
        diff::firstDivergentWindow(a, 100, b, 100);
    EXPECT_TRUE(w.comparable);
    ASSERT_TRUE(w.found);
    EXPECT_EQ(w.index, 1u);
    EXPECT_EQ(w.start, 100u);
    EXPECT_EQ(w.end, 200u);
}

TEST(RunDiff, IdenticalStreamsDoNotDiverge)
{
    const std::vector<std::string> a{"0x1", "0x2"};
    const diff::WindowDivergence w =
        diff::firstDivergentWindow(a, 100, a, 100);
    EXPECT_TRUE(w.comparable);
    EXPECT_FALSE(w.found);
}

TEST(RunDiff, LengthMismatchDivergesAtTheFirstMissingWindow)
{
    const std::vector<std::string> a{"0x1", "0x2"};
    const std::vector<std::string> b{"0x1", "0x2", "0x3"};
    const diff::WindowDivergence w =
        diff::firstDivergentWindow(a, 100, b, 100);
    ASSERT_TRUE(w.found);
    EXPECT_EQ(w.index, 2u);
    EXPECT_EQ(w.start, 200u);
    EXPECT_EQ(w.end, 300u);
}

TEST(RunDiff, IncomparableStreamsAreReportedAsSuch)
{
    const std::vector<std::string> a{"0x1"};
    const std::vector<std::string> none;
    EXPECT_FALSE(diff::firstDivergentWindow(a, 100, a, 200).comparable);
    EXPECT_FALSE(diff::firstDivergentWindow(a, 0, a, 0).comparable);
    EXPECT_FALSE(diff::firstDivergentWindow(none, 100, a, 100)
                     .comparable);
    EXPECT_FALSE(diff::firstDivergentWindow(a, 100, none, 100)
                     .comparable);
}

// ---- metric deltas ------------------------------------------------

TEST(RunDiff, MetricDeltasReportOnlyChangesAndExcludeHostNumbers)
{
    // dmiss moves 42 -> 50 (+19%), retired 10000 -> 10100 (+1%);
    // host wall clock differs wildly but must not appear.
    const JsonValue a = parseJson(statsDoc("0xa", "0x3", 42, 1.0));
    JsonValue b = parseJson(statsDoc("0xa", "0x3", 50, 9.0));
    for (auto &[k, v] : b.object) {
        if (k == "retired")
            v.number = 10100;
    }
    const std::vector<diff::MetricDelta> deltas =
        diff::metricDeltas(a, b);
    ASSERT_EQ(deltas.size(), 2u);
    EXPECT_EQ(deltas[0].name, "counters.dmiss"); // largest |pct| first
    EXPECT_EQ(deltas[1].name, "retired");
    EXPECT_NEAR(deltas[0].pct, 19.0476, 0.01);
    for (const diff::MetricDelta &d : deltas)
        EXPECT_EQ(d.name.find("host"), std::string::npos) << d.name;
}

// ---- the rendered stats diff --------------------------------------

TEST(RunDiff, StatsDiffLocalizesAndSuggestsATraceRerun)
{
    const JsonValue a = parseJson(statsDoc("0xaaa", "0x3", 42, 1.0));
    const JsonValue b = parseJson(statsDoc("0xbbb", "0x9", 42, 1.0));
    const diff::DiffReport rep = diff::diffDocs(a, b);
    EXPECT_EQ(rep.kind, DocKind::Stats);
    EXPECT_TRUE(rep.divergence);
    EXPECT_TRUE(hasLine(rep.lines, "digest differs: 0xaaa -> 0xbbb"));
    EXPECT_TRUE(hasLine(
        rep.lines,
        "first divergent digest window #2 (cycles [2000, 3000))"));
    // The reconstructed command line for capturing the range.
    EXPECT_TRUE(hasLine(rep.lines,
                        "mtsim_run --scheme interleaved --contexts 2 "
                        "--mix FP --width 1 --seed 1 --warmup 20000 "
                        "--cycles 20000 --trace-out firstdiv.json"));
}

TEST(RunDiff, IdenticalStatsDocumentsReportNoDivergence)
{
    const JsonValue a = parseJson(statsDoc("0xaaa", "0x3", 42, 1.0));
    const JsonValue b = parseJson(statsDoc("0xaaa", "0x3", 42, 2.0));
    const diff::DiffReport rep = diff::diffDocs(a, b);
    EXPECT_FALSE(rep.divergence);
    EXPECT_TRUE(hasLine(rep.lines, "identical, the runs simulated"));
    EXPECT_TRUE(hasLine(rep.lines, "all simulated metrics identical"));
}

// ---- prof-tree leaf attribution -----------------------------------

std::string
profDoc(double wall, double kips, std::uint64_t tick_self)
{
    std::ostringstream os;
    os << R"({
      "host": {"wall_seconds": )"
       << wall << R"(, "kips": )" << kips
       << R"(, "retired": 1000000},
      "profile": {"total_ns": )"
       << static_cast<std::uint64_t>(wall * 1e9) << R"(,
        "tree": [
          {"name": "tick", "self_ns": )"
       << tick_self << R"(, "children": []},
          {"name": "probe", "self_ns": 100000000, "children": [
            {"name": "digest", "self_ns": 50000000, "children": []}
          ]}
        ]}
    })";
    return os.str();
}

TEST(RunDiff, ProfLeafDeltasAttributeTheKipsDelta)
{
    // Run B is 0.5 s slower and all of it is tick's self-time:
    // reverting tick to the A level would restore
    // 1e6 / (1.5 - 0.5) / 1e3 - 666.67 = +333.33 KIPS.
    const JsonValue a = parseJson(profDoc(1.0, 1000.0, 200000000));
    JsonValue b = parseJson(profDoc(1.5, 666.666667, 700000000));
    const std::vector<diff::LeafDelta> leaves =
        diff::profLeafDeltas(a, b);
    ASSERT_EQ(leaves.size(), 1u); // probe and probe/digest unchanged
    EXPECT_EQ(leaves[0].path, "tick");
    EXPECT_EQ(leaves[0].selfNsA, 200000000u);
    EXPECT_EQ(leaves[0].selfNsB, 700000000u);
    EXPECT_NEAR(leaves[0].shareA, 0.2, 1e-9);
    EXPECT_NEAR(leaves[0].shareB, 700000000.0 / 1.5e9, 1e-9);
    ASSERT_TRUE(leaves[0].hasExplains);
    EXPECT_NEAR(leaves[0].explainsKips, 333.33, 0.1);
}

TEST(RunDiff, ProfLeafDeltasSortByAbsoluteSelfTimeChange)
{
    const JsonValue a = parseJson(profDoc(1.0, 1000.0, 200000000));
    // tick +5e8 ns and probe/digest +1e7 ns.
    std::string text = profDoc(1.5, 666.666667, 700000000);
    const std::string from = "\"digest\", \"self_ns\": 50000000";
    text.replace(text.find(from), from.size(),
                 "\"digest\", \"self_ns\": 60000000");
    const JsonValue b = parseJson(text);
    const std::vector<diff::LeafDelta> leaves =
        diff::profLeafDeltas(a, b);
    ASSERT_EQ(leaves.size(), 2u);
    EXPECT_EQ(leaves[0].path, "tick");
    EXPECT_EQ(leaves[1].path, "probe/digest");
}

TEST(RunDiff, ProfDiffRendersTheKipsHeadline)
{
    const JsonValue a = parseJson(profDoc(1.0, 1000.0, 200000000));
    const JsonValue b = parseJson(profDoc(1.5, 666.666667, 700000000));
    const diff::DiffReport rep = diff::diffDocs(a, b);
    EXPECT_EQ(rep.kind, DocKind::Prof);
    EXPECT_FALSE(rep.divergence); // host speed is not divergence
    EXPECT_TRUE(hasLine(rep.lines, "KIPS 1000 -> 666.667"));
    EXPECT_TRUE(hasLine(rep.lines, "self tick:"));
}

// ---- why-ledger documents -----------------------------------------

std::string
whyDoc(std::uint64_t hidden, std::uint64_t issues_b,
       bool extra_row)
{
    std::ostringstream os;
    os << R"({
      "schema": "mtsim_why/v1",
      "run": {"mode": "workstation", "scheme": "interleaved",
              "contexts": 4, "mix": "DC", "width": 1, "seed": 1},
      "tolerance": {"covered_cycles": 1000,
                    "hidden_covered_cycles": )"
       << hidden << R"(, "ratio": 0.5, "misses_closed": 10,
                    "open_misses": 0, "unexplained": 0},
      "attribution": {"hidden_same_ctx": 100,
                      "hidden_other_ctx": 400,
        "classes": [{"class": "busy", "under_miss": 500,
                     "clear": 200},
                    {"class": "dcache_mem", "under_miss": 300,
                     "clear": 100}]},
      "pcs": [{"pc": "0x1000", "issues": 5, "exposed": 7},
              {"pc": "0x2000", "issues": )"
       << issues_b << R"(, "exposed": 3})";
    if (extra_row)
        os << R"(, {"pc": "0x3000", "issues": 1, "exposed": 1})";
    os << R"(]})";
    return os.str();
}

TEST(RunDiff, IdenticalWhyDocumentsReportNoDivergence)
{
    const JsonValue a = parseJson(whyDoc(500, 9, false));
    const diff::DiffReport rep = diff::diffDocs(a, a);
    EXPECT_EQ(rep.kind, DocKind::Why);
    EXPECT_FALSE(rep.divergence);
    EXPECT_TRUE(hasLine(rep.lines, "all 2 pc rows identical"));
    EXPECT_TRUE(hasLine(rep.lines, "ledgers identical"));
}

TEST(RunDiff, WhyDiffLocalizesTheFirstDivergingPcRow)
{
    // Row #0 matches on both sides; row #1's issue count moves
    // 9 -> 12, so the diff must name pc 0x2000 at row #1.
    const JsonValue a = parseJson(whyDoc(500, 9, false));
    const JsonValue b = parseJson(whyDoc(600, 12, false));
    const diff::DiffReport rep = diff::diffDocs(a, b);
    EXPECT_TRUE(rep.divergence);
    EXPECT_TRUE(hasLine(rep.lines,
                        "tolerance.hidden_covered_cycles: 500 -> "
                        "600 (+20.0%)"));
    EXPECT_TRUE(hasLine(rep.lines, "first diverging pc row #1"));
    EXPECT_TRUE(hasLine(rep.lines, "0x2000"));
}

TEST(RunDiff, WhyDiffReportsAPcOnlyOnOneSide)
{
    const JsonValue a = parseJson(whyDoc(500, 9, false));
    const JsonValue b = parseJson(whyDoc(500, 9, true));
    const diff::DiffReport rep = diff::diffDocs(a, b);
    EXPECT_TRUE(rep.divergence);
    EXPECT_TRUE(hasLine(rep.lines, "pc tables differ in length"));
    EXPECT_TRUE(hasLine(rep.lines, "first B-only pc 0x3000"));
}

} // namespace
} // namespace mtsim
