/**
 * @file
 * Cross-run diff driver: compare two machine-readable documents the
 * simulator emitted and report what changed. Accepts any matching
 * pair of
 *
 *   - stats JSON      (mtsim_run --stats-json),
 *   - prof JSON       (mtsim_run --prof-json),
 *   - flight-recorder dumps (mtsim_run --fr-dump),
 *   - why ledgers     (mtsim_run --why-json),
 *
 * auto-detected by schema. For diverging runs the windowed digest
 * stream pins the first divergent window to an exact cycle range and
 * prints the command to re-run with --trace-out; for prof documents
 * the KIPS delta is attributed to the cost-tree scopes whose
 * self-times moved (docs/OBSERVABILITY.md, "Diagnosing a digest
 * mismatch").
 *
 * Exit status: 0 when the runs simulated identical work, 1 on
 * divergence, 2 on usage or parse errors.
 */

#include <iostream>
#include <string>

#include "metrics/json_parse.hh"
#include "metrics/run_diff.hh"

using namespace mtsim;

namespace {

void
usage()
{
    std::cout <<
        "mtsim_diff - first-divergence and metric diff of two runs\n"
        "\n"
        "usage: mtsim_diff A.json B.json\n"
        "\n"
        "A and B must be the same kind of document: stats JSON\n"
        "(--stats-json), prof JSON (--prof-json), a flight-recorder\n"
        "dump (--fr-dump) or a why ledger (--why-json; the first\n"
        "diverging per-pc row is localized).\n"
        "\n"
        "exit status: 0 identical simulated work, 1 divergence,\n"
        "2 error\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && (std::string(argv[1]) == "--help" ||
                      std::string(argv[1]) == "-h")) {
        usage();
        return 0;
    }
    if (argc != 3) {
        usage();
        return 2;
    }
    try {
        const JsonValue a = parseJsonFile(argv[1]);
        const JsonValue b = parseJsonFile(argv[2]);
        const diff::DiffReport rep = diff::diffDocs(a, b);
        std::cout << "comparing " << diff::docKindName(rep.kind)
                  << " documents: " << argv[1] << " (A) vs " << argv[2]
                  << " (B)\n";
        for (const std::string &line : rep.lines)
            std::cout << "  " << line << '\n';
        return rep.divergence ? 1 : 0;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 2;
    }
}
