/**
 * @file
 * NASA7 GMTRY: geometry setup dominated by Gaussian elimination of a
 * dense matrix. Pivot reciprocals (divides) followed by unit-stride
 * row updates over a ~200 KB matrix: data-cache streaming with a
 * noticeable divide component and row-crossing TLB pressure.
 */

#include "spec/spec_suite.hh"
#include "workload/emitter.hh"

namespace mtsim {

namespace {

constexpr std::uint32_t kN = 160;   // 160x160 doubles = 205 KB

KernelCoro
gmtryKernel(Emitter &e)
{
    const Addr m = e.mem().alloc(kN * kN * 8);
    auto at = [&](std::uint32_t i, std::uint32_t j) {
        return m + (static_cast<Addr>(i) * kN + j) * 8;
    };

    EmitLoop forever(e);
    for (;;) {
        EmitLoop kloop(e);
        for (std::uint32_t k = 0;; ++k) {
            // Pivot reciprocal.
            RegId pk = e.fload(at(k, k));
            RegId rec = e.fdiv(e.fadd(pk, pk), pk);
            // Eliminate below: for each row, scale and subtract the
            // pivot row (unit stride, 4-way unrolled).
            EmitLoop iloop(e);
            for (std::uint32_t i = k + 1;; ++i) {
                RegId lik = e.fload(at(i, k));
                RegId f = e.fmul(lik, rec);
                e.store(at(i, k), f);
                EmitLoop jloop(e);
                for (std::uint32_t j = k + 1;; j += 4) {
                    for (std::uint32_t u = 0; u < 4; ++u) {
                        const std::uint32_t col =
                            (j + u < kN) ? j + u : kN - 1;
                        RegId kv = e.fload(at(k, col));
                        RegId iv = e.fload(at(i, col));
                        e.store(at(i, col),
                                e.fadd(iv, e.fmul(f, kv)));
                    }
                    if (!jloop.next(j + 4 < kN))
                        break;
                }
                // Once per row: the closing branch just ended the
                // block, so the pause bounds a resume to one row
                // without changing the op stream.
                co_await e.pause();
                if (!iloop.next(i + 1 < kN))
                    break;
            }
            co_await e.pause();
            if (!kloop.next(k + 1 < kN - 1))
                break;
        }
        forever.next(true);
    }
}

} // namespace

KernelFn
makeGmtryKernel()
{
    return [](Emitter &e) { return gmtryKernel(e); };
}

} // namespace mtsim
