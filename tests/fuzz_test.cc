/**
 * @file
 * Randomised stress tests: throw arbitrary-but-valid instruction
 * streams at every scheme and check the structural invariants hold -
 * no crashes, exact cycle accounting, work conservation, and
 * determinism. These sweeps are the property-based complement to
 * the golden timing tests.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "test_util.hh"

namespace mtsim {
namespace {

using namespace test;

/** Random-but-valid instruction stream, heavy on corner cases. */
std::vector<MicroOp>
fuzzStream(std::uint64_t seed, std::size_t n, Addr data_base)
{
    Rng rng(seed);
    std::vector<MicroOp> ops;
    Addr pc = 0x1000 + (seed << 8);
    while (ops.size() < n) {
        const double pick = rng.uniform();
        MicroOp op;
        op.pc = pc;
        pc += 4;
        const RegId dst = static_cast<RegId>(
            rng.range(2) ? 8 + rng.range(24)
                         : kFpRegBase + 8 + rng.range(24));
        const RegId src = static_cast<RegId>(8 + rng.range(24));
        if (pick < 0.35) {
            op.op = Op::IntAlu;
            op.dst = static_cast<RegId>(8 + rng.range(24));
            op.src1 = rng.chance(0.7) ? src : kNoReg;
            op.src2 = rng.chance(0.3) ? kZeroReg : kNoReg;
        } else if (pick < 0.50) {
            op.op = Op::Load;
            op.dst = dst;
            op.addr = data_base + (rng.range(1 << 20) & ~7ull);
        } else if (pick < 0.60) {
            op.op = Op::Store;
            op.src1 = src;
            op.addr = data_base + (rng.range(1 << 20) & ~7ull);
        } else if (pick < 0.70) {
            op.op = Op::Branch;
            op.src1 = src;
            op.taken = rng.chance(0.5);
            op.target = op.taken ? op.pc - 4 * rng.range(8) : op.pc + 8;
            if (op.taken)
                pc = op.target;
        } else if (pick < 0.78) {
            op.op = Op::FpAdd;
            op.dst = static_cast<RegId>(kFpRegBase + 8 +
                                        rng.range(24));
            op.src1 = static_cast<RegId>(kFpRegBase + 8 +
                                         rng.range(24));
        } else if (pick < 0.83) {
            op.op = Op::FpDiv;
            op.dst = static_cast<RegId>(kFpRegBase + 8 +
                                        rng.range(24));
            op.singlePrec = rng.chance(0.5);
        } else if (pick < 0.87) {
            op.op = Op::IntMul;
            op.dst = static_cast<RegId>(8 + rng.range(24));
            op.src1 = src;
        } else if (pick < 0.90) {
            op.op = Op::Shift;
            op.dst = static_cast<RegId>(8 + rng.range(24));
            op.src1 = src;
        } else if (pick < 0.93) {
            op.op = Op::Prefetch;
            op.addr = data_base + (rng.range(1 << 20) & ~7ull);
        } else if (pick < 0.95) {
            op.op = Op::Backoff;
            op.backoffCycles =
                static_cast<std::uint16_t>(1 + rng.range(40));
        } else if (pick < 0.96) {
            op.op = Op::CtxSwitch;
        } else if (pick < 0.98) {
            op.op = Op::Nop;
        } else {
            // Write to the hardwired zero register: must be inert.
            op.op = Op::IntAlu;
            op.dst = kZeroReg;
            op.src1 = src;
        }
        ops.push_back(op);
    }
    return ops;
}

struct FuzzCase
{
    Scheme scheme;
    std::uint8_t contexts;
    /** Fills what would be padding: gtest dumps the case's raw bytes
     *  into the name ctest lists, so every byte must be defined. */
    std::uint16_t zero = 0;
    std::uint32_t width;
    std::uint64_t seed;
};

class FuzzedProcessor : public ::testing::TestWithParam<FuzzCase>
{};

TEST_P(FuzzedProcessor, InvariantsHold)
{
    const FuzzCase &fc = GetParam();
    Config cfg = Config::make(fc.scheme, fc.contexts);
    cfg.issueWidth = fc.width;
    Rig rig(cfg);
    std::vector<std::unique_ptr<VectorSource>> srcs;
    std::size_t total_ops = 0;
    for (CtxId c = 0; c < fc.contexts; ++c) {
        auto ops = fuzzStream(fc.seed * 131 + c, 600,
                              0x100000000ull * (c + 1));
        total_ops += ops.size();
        srcs.push_back(std::make_unique<VectorSource>(ops));
        rig.proc.context(c).loadThread(srcs.back().get(), c);
    }
    const Cycle cycles = rig.runToCompletion(300000);

    // Everything ran and retired exactly once.
    EXPECT_TRUE(rig.proc.allFinished());
    std::size_t overhead_ops = 0;   // CtxSwitch/Backoff don't retire
    for (CtxId c = 0; c < fc.contexts; ++c) {
        auto ops = fuzzStream(fc.seed * 131 + c, 600, 0);
        for (const auto &op : ops)
            overhead_ops +=
                (op.op == Op::CtxSwitch || op.op == Op::Backoff);
    }
    EXPECT_EQ(rig.proc.retired(), total_ops - overhead_ops);
    EXPECT_LT(cycles, 300000u);

    // Accounting: the run portion before completion is fully
    // attributed (the drain after completion attributes nothing).
    EXPECT_LE(rig.proc.breakdown().total(),
              cycles * cfg.issueWidth);
    EXPECT_GE(rig.proc.breakdown().get(CycleClass::Busy),
              rig.proc.retired());
}

TEST_P(FuzzedProcessor, Deterministic)
{
    const FuzzCase &fc = GetParam();
    auto run = [&]() {
        Config cfg = Config::make(fc.scheme, fc.contexts);
        cfg.issueWidth = fc.width;
        Rig rig(cfg);
        std::vector<std::unique_ptr<VectorSource>> srcs;
        for (CtxId c = 0; c < fc.contexts; ++c) {
            srcs.push_back(std::make_unique<VectorSource>(fuzzStream(
                fc.seed * 131 + c, 400, 0x100000000ull * (c + 1))));
            rig.proc.context(c).loadThread(srcs.back().get(), c);
        }
        const Cycle cycles = rig.runToCompletion(300000);
        return std::make_pair(cycles, rig.proc.retired());
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a, b);
}

std::vector<FuzzCase>
allCases()
{
    std::vector<FuzzCase> cases;
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
        const auto add = [&](Scheme scheme, std::uint8_t contexts,
                             std::uint32_t width) {
            cases.push_back({.scheme = scheme, .contexts = contexts,
                             .width = width, .seed = seed});
        };
        add(Scheme::Single, 1, 1);
        add(Scheme::Blocked, 4, 1);
        add(Scheme::Interleaved, 4, 1);
        add(Scheme::Interleaved, 8, 2);
        add(Scheme::FineGrained, 4, 1);
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FuzzedProcessor, ::testing::ValuesIn(allCases()),
    [](const auto &info) {
        const FuzzCase &c = info.param;
        std::string name = std::string(schemeName(c.scheme)) + "_" +
                           std::to_string(c.contexts) + "ctx_w" +
                           std::to_string(c.width) + "_s" +
                           std::to_string(c.seed);
        for (char &ch : name)
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

} // namespace
} // namespace mtsim
