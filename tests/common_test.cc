/**
 * @file
 * Unit tests for the common infrastructure: RNG, statistics,
 * event queue and configuration validation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace mtsim {
namespace {

// ---- Rng -----------------------------------------------------------

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, RangeStaysInBounds)
{
    Rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
        for (int i = 0; i < 500; ++i)
            EXPECT_LT(r.range(bound), bound);
    }
}

TEST(Rng, RangeInclusiveCoversEndpoints)
{
    Rng r(7);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.rangeInclusive(3, 6));
    EXPECT_EQ(seen, (std::set<std::int64_t>{3, 4, 5, 6}));
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(99);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng r(5);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

// ---- CycleBreakdown --------------------------------------------------

TEST(CycleBreakdown, TotalAndFractions)
{
    CycleBreakdown bd;
    bd.add(CycleClass::Busy, 60);
    bd.add(CycleClass::DataStall, 40);
    EXPECT_EQ(bd.total(), 100u);
    EXPECT_DOUBLE_EQ(bd.fraction(CycleClass::Busy), 0.6);
    EXPECT_DOUBLE_EQ(bd.fraction(CycleClass::DataStall), 0.4);
    EXPECT_DOUBLE_EQ(bd.fraction(CycleClass::Sync), 0.0);
}

TEST(CycleBreakdown, EmptyFractionIsZero)
{
    CycleBreakdown bd;
    EXPECT_EQ(bd.total(), 0u);
    EXPECT_DOUBLE_EQ(bd.fraction(CycleClass::Busy), 0.0);
}

TEST(CycleBreakdown, SubSaturatesAtZero)
{
    CycleBreakdown bd;
    bd.add(CycleClass::Busy, 3);
    bd.sub(CycleClass::Busy, 10);
    EXPECT_EQ(bd.get(CycleClass::Busy), 0u);
}

TEST(CycleBreakdown, Accumulate)
{
    CycleBreakdown a, b;
    a.add(CycleClass::Busy, 5);
    b.add(CycleClass::Busy, 7);
    b.add(CycleClass::Switch, 2);
    a += b;
    EXPECT_EQ(a.get(CycleClass::Busy), 12u);
    EXPECT_EQ(a.get(CycleClass::Switch), 2u);
}

TEST(CycleBreakdown, ClearResets)
{
    CycleBreakdown bd;
    bd.add(CycleClass::Sync, 9);
    bd.clear();
    EXPECT_EQ(bd.total(), 0u);
}

TEST(CycleClassNames, AllDistinctAndNonNull)
{
    std::set<std::string> names;
    for (int c = 0; c < static_cast<int>(CycleClass::NumClasses);
         ++c) {
        names.insert(cycleClassName(static_cast<CycleClass>(c)));
    }
    EXPECT_EQ(names.size(),
              static_cast<std::size_t>(CycleClass::NumClasses));
}

TEST(Means, GeometricMean)
{
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geometricMean({3.0}), 3.0, 1e-12);
}

TEST(Means, ArithmeticMean)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 3.0}), 2.0);
}

TEST(CounterSet, IncrementAndRead)
{
    CounterSet cs;
    EXPECT_EQ(cs.get("x"), 0u);
    cs.inc("x");
    cs.inc("x", 4);
    cs.inc("y", 2);
    EXPECT_EQ(cs.get("x"), 5u);
    EXPECT_EQ(cs.get("y"), 2u);
    EXPECT_EQ(cs.entries().size(), 2u);
}

TEST(CounterSet, HandleSharesSlotWithNamedIncrements)
{
    CounterSet cs;
    const std::size_t hx = cs.handle("x");
    // handle() creates the counter at zero without bumping it.
    EXPECT_EQ(cs.get("x"), 0u);
    EXPECT_EQ(cs.entries().size(), 1u);
    // Same slot whichever way it is addressed.
    cs.inc(hx, 3);
    cs.inc("x", 2);
    EXPECT_EQ(cs.get("x"), 5u);
    // Resolving an existing name returns the original index.
    cs.inc("y");
    EXPECT_EQ(cs.handle("x"), hx);
    EXPECT_EQ(cs.handle("y"), cs.handle("y"));
    EXPECT_EQ(cs.entries().size(), 2u);
}

// ---- EventQueue -------------------------------------------------------

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&](Cycle) { order.push_back(3); });
    q.schedule(10, [&](Cycle) { order.push_back(1); });
    q.schedule(20, [&](Cycle) { order.push_back(2); });
    q.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertion)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&order, i](Cycle) { order.push_back(i); });
    q.runUntil(7);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilIsInclusive)
{
    EventQueue q;
    int fired = 0;
    q.schedule(5, [&](Cycle) { ++fired; });
    q.schedule(6, [&](Cycle) { ++fired; });
    q.runUntil(5);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.nextEventCycle(), 6u);
    q.runUntil(6);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.nextEventCycle(), kCycleNever);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    std::vector<Cycle> fired;
    q.schedule(1, [&](Cycle now) {
        fired.push_back(now);
        q.schedule(now + 1, [&](Cycle n2) { fired.push_back(n2); });
    });
    q.runUntil(10);
    EXPECT_EQ(fired, (std::vector<Cycle>{1, 2}));
}

TEST(EventQueue, ClearDropsEverything)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&](Cycle) { ++fired; });
    q.clear();
    q.runUntil(100);
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(q.empty());
}

// ---- Config ------------------------------------------------------------

TEST(Config, DefaultsMatchPaperTables)
{
    Config c;
    // Table 1.
    EXPECT_EQ(c.l1d.sizeBytes, 64u * 1024);
    EXPECT_EQ(c.l1i.sizeBytes, 64u * 1024);
    EXPECT_EQ(c.l2.sizeBytes, 1024u * 1024);
    EXPECT_EQ(c.l1d.lineBytes, 32u);
    EXPECT_EQ(c.l1i.fetchLines, 2u);
    EXPECT_EQ(c.l1i.fillOccupancy, 8u);
    EXPECT_EQ(c.l2.readOccupancy, 2u);
    EXPECT_EQ(c.l2.invalidateOccupancy, 4u);
    // Table 2.
    EXPECT_EQ(c.uniMem.l1HitLat, 1u);
    EXPECT_EQ(c.uniMem.l2HitLat, 9u);
    EXPECT_EQ(c.uniMem.memLat, 34u);
    EXPECT_EQ(c.uniMem.numBanks, 4u);
    // Table 3.
    EXPECT_EQ(c.lat.loadLat, 3u);       // two delay slots
    EXPECT_EQ(c.lat.shiftLat, 2u);
    EXPECT_EQ(c.lat.fpAddLat, 5u);
    EXPECT_EQ(c.lat.fpDivLat, 61u);
    EXPECT_EQ(c.lat.fpDivSpLat, 31u);
    // Pipeline (Figure 5).
    EXPECT_EQ(c.intPipeDepth, 7u);
    EXPECT_EQ(c.fpPipeDepth, 9u);
    EXPECT_EQ(c.btbEntries, 2048u);
    EXPECT_EQ(c.mispredictPenalty, 3u);
    // Table 4.
    EXPECT_EQ(c.sw.blockedExplicitCost, 3u);
    EXPECT_EQ(c.sw.backoffCost, 1u);
    EXPECT_EQ(c.sw.missDetectStage, 5u);
}

struct BadConfigCase
{
    const char *name;
    std::function<void(Config &)> breakIt;
};

/** Without a printer gtest dumps the case's bytes - pointers that
 *  move from build to build - into the name ctest lists. */
void
PrintTo(const BadConfigCase &c, std::ostream *os)
{
    *os << c.name;
}

class ConfigValidation
    : public ::testing::TestWithParam<BadConfigCase>
{};

TEST_P(ConfigValidation, Rejects)
{
    Config c;
    GetParam().breakIt(c);
    EXPECT_THROW(c.validate(), std::invalid_argument)
        << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBadConfigs, ConfigValidation,
    ::testing::Values(
        BadConfigCase{"zero contexts",
                      [](Config &c) { c.numContexts = 0; }},
        BadConfigCase{"single with many contexts",
                      [](Config &c) {
                          c.scheme = Scheme::Single;
                          c.numContexts = 2;
                      }},
        BadConfigCase{"non-pow2 btb",
                      [](Config &c) { c.btbEntries = 1000; }},
        BadConfigCase{"miss detect beyond pipe",
                      [](Config &c) { c.sw.missDetectStage = 9; }},
        BadConfigCase{"branch resolve beyond pipe",
                      [](Config &c) { c.branchResolveStage = 8; }},
        BadConfigCase{"over 64 ops in flight",
                      [](Config &c) {
                          c.issueWidth = 2;
                          c.fpPipeDepth = 33;
                      }},
        BadConfigCase{"non-pow2 cache",
                      [](Config &c) { c.l1d.sizeBytes = 60000; }},
        BadConfigCase{"zero line",
                      [](Config &c) { c.l2.lineBytes = 0; }},
        BadConfigCase{"zero fetch",
                      [](Config &c) { c.l1i.fetchLines = 0; }},
        BadConfigCase{"zero mshrs",
                      [](Config &c) { c.numMshrs = 0; }},
        BadConfigCase{"non-pow2 banks",
                      [](Config &c) { c.uniMem.numBanks = 3; }},
        BadConfigCase{"zero processors",
                      [](Config &c) { c.numProcessors = 0; }},
        BadConfigCase{"zero slice",
                      [](Config &c) { c.os.timeSliceCycles = 0; }},
        BadConfigCase{"inverted mp range", [](Config &c) {
                          c.mpMem.localMemLo = 50;
                          c.mpMem.localMemHi = 10;
                      }}),
    [](const auto &info) {
        std::string n = info.param.name;
        for (char &ch : n)
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n;
    });

TEST(Config, SixtyFourOpsInFlightAreAccepted)
{
    // The widest in-flight set the retire mask holds.
    Config c;
    c.issueWidth = 2;
    c.fpPipeDepth = 32;
    EXPECT_NO_THROW(c.validate());
}

TEST(Config, MakePresets)
{
    Config c = Config::make(Scheme::Interleaved, 4);
    EXPECT_EQ(c.numContexts, 4);
    EXPECT_FALSE(c.idealICache);

    Config m = Config::makeMp(Scheme::Blocked, 8, 16);
    EXPECT_EQ(m.numProcessors, 16);
    EXPECT_TRUE(m.idealICache);
    EXPECT_TRUE(m.singleLevelDCache);
}

TEST(Config, SchemeNamesDistinct)
{
    std::set<std::string> names{
        schemeName(Scheme::Single), schemeName(Scheme::Blocked),
        schemeName(Scheme::Interleaved),
        schemeName(Scheme::FineGrained)};
    EXPECT_EQ(names.size(), 4u);
}

} // namespace
} // namespace mtsim
