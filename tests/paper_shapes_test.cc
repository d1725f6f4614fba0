/**
 * @file
 * Regression tests pinning the paper's headline result shapes, so a
 * refactor that silently breaks a conclusion fails CI. These are
 * miniature versions of the bench experiments (shorter windows).
 */

#include <gtest/gtest.h>

#include <map>

#include "common/config.hh"
#include "spec/spec_suite.hh"
#include "system/uni_system.hh"

namespace mtsim {
namespace {

double
ipcOf(const std::string &mix, Scheme scheme, std::uint8_t contexts)
{
    Config cfg = Config::make(scheme, contexts);
    UniSystem sys(cfg);
    for (const auto &app : uniWorkload(mix))
        sys.addApp(app, specKernel(app));
    sys.run(400000, 400000);
    return sys.throughput();
}

struct MixCase
{
    const char *mix;
    double min_interleaved_gain;   // at 4 contexts
};

/** Without a printer gtest dumps the case's bytes - a pointer that
 *  moves from build to build - into the name ctest lists. */
void
PrintTo(const MixCase &c, std::ostream *os)
{
    *os << c.mix << ", gain > " << c.min_interleaved_gain;
}

class Table7Shape : public ::testing::TestWithParam<MixCase>
{};

TEST_P(Table7Shape, InterleavedBeatsBlockedAndGains)
{
    const auto &c = GetParam();
    const double base = ipcOf(c.mix, Scheme::Single, 1);
    const double inter = ipcOf(c.mix, Scheme::Interleaved, 4);
    const double blocked = ipcOf(c.mix, Scheme::Blocked, 4);
    // The paper's Table 7: interleaved >= blocked on every workload,
    // and the interleaved gains are substantial.
    EXPECT_GE(inter, blocked * 0.98) << c.mix;
    EXPECT_GT(inter / base, c.min_interleaved_gain) << c.mix;
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, Table7Shape,
    ::testing::Values(MixCase{"DC", 1.3}, MixCase{"DT", 1.5},
                      MixCase{"FP", 1.5}, MixCase{"R0", 1.4}),
    [](const auto &info) { return std::string(info.param.mix); });

TEST(Table7Shape, BlockedGainsEatenOnFpLatency)
{
    // "the blocked scheme is unable to tolerate short pipeline
    // dependencies": on the FP mix its gain stays small while the
    // interleaved scheme's is large.
    const double base = ipcOf("FP", Scheme::Single, 1);
    const double blocked = ipcOf("FP", Scheme::Blocked, 4);
    const double inter = ipcOf("FP", Scheme::Interleaved, 4);
    EXPECT_LT(blocked / base, 1.35);
    EXPECT_GT(inter / base, blocked / base + 0.25);
}

TEST(Table7Shape, TwoContextsAlreadyHelpInterleaved)
{
    // Constraint 1: effective latency tolerance with a small number
    // of contexts.
    const double base = ipcOf("DT", Scheme::Single, 1);
    const double two = ipcOf("DT", Scheme::Interleaved, 2);
    EXPECT_GT(two / base, 1.25);
}

TEST(Figure6Shape, BlockedSwitchOverheadVisible)
{
    Config cfg = Config::make(Scheme::Blocked, 4);
    UniSystem sys(cfg);
    for (const auto &app : uniWorkload("DC"))
        sys.addApp(app, specKernel(app));
    sys.run(400000, 400000);
    // Figure 6: a visible chunk of blocked execution time is switch
    // overhead on the miss-heavy workloads.
    EXPECT_GT(sys.breakdown().fraction(CycleClass::Switch), 0.05);
}

TEST(Figure7Shape, InterleavedRemovesShortInstructionStall)
{
    auto shortStall = [](Scheme s, std::uint8_t n) {
        Config cfg = Config::make(s, n);
        UniSystem sys(cfg);
        for (const auto &app : uniWorkload("FP"))
            sys.addApp(app, specKernel(app));
        sys.run(400000, 400000);
        return sys.breakdown().fraction(CycleClass::ShortInstr);
    };
    const double single = shortStall(Scheme::Single, 1);
    const double inter = shortStall(Scheme::Interleaved, 4);
    // Figure 7: cycle-by-cycle interleaving absorbs most short
    // pipeline-dependency stalls.
    EXPECT_LT(inter, single * 0.6);
}

} // namespace
} // namespace mtsim
