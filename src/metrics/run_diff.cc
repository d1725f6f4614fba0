#include "metrics/run_diff.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <tuple>

#include "metrics/json_parse.hh"

namespace mtsim::diff {

namespace {

std::string
fmtNum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
fmtPct(double p)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", p);
    return buf;
}

std::string
fmtCycle(Cycle c)
{
    return std::to_string(static_cast<unsigned long long>(c));
}

/** Nested lookup: find(doc, "a", "b") == doc.a.b or nullptr. */
const JsonValue *
findPath(const JsonValue &doc, const std::string &k1,
         const std::string &k2 = std::string())
{
    const JsonValue *v = doc.find(k1);
    if (v == nullptr || k2.empty())
        return v;
    return v->find(k2);
}

/** The digest block of a stats document, if one is present. */
struct DigestBlock
{
    bool present = false;
    std::string hash;
    Cycle windowCycles = 0;
    std::vector<std::string> windows;
};

DigestBlock
digestBlockOf(const JsonValue &doc)
{
    DigestBlock d;
    const JsonValue *block = doc.find("digest");
    if (block == nullptr || !block->isObject())
        return d;
    d.present = true;
    if (const JsonValue *h = block->find("hash"))
        d.hash = h->asString();
    if (const JsonValue *k = block->find("window_cycles"))
        d.windowCycles = k->asU64();
    if (const JsonValue *wins = block->find("windows")) {
        for (const JsonValue &w : wins->array) {
            if (const JsonValue *h = w.find("hash"))
                d.windows.push_back(h->asString());
        }
    }
    return d;
}

/**
 * Reconstruct the command line that reproduces the run a stats
 * document describes, pointed at a trace of the divergent range.
 */
std::string
rerunHint(const JsonValue &doc)
{
    const JsonValue *run = doc.find("run");
    if (run == nullptr)
        return {};
    std::string cmd = "mtsim_run";
    const JsonValue *mode = run->find("mode");
    const bool mp =
        mode != nullptr && mode->asString() == "multiprocessor";
    if (mp)
        cmd += " --mp";
    if (const JsonValue *v = run->find("scheme"))
        cmd += " --scheme " + v->asString();
    if (const JsonValue *v = run->find("contexts"))
        cmd += " --contexts " + std::to_string(v->asU64());
    if (const JsonValue *v = run->find("app"))
        cmd += " --app " + v->asString();
    else if (const JsonValue *v = run->find("mix"))
        cmd += " --mix " + v->asString();
    if (mp) {
        if (const JsonValue *v = run->find("procs"))
            cmd += " --procs " + std::to_string(v->asU64());
        if (const JsonValue *v = run->find("host_threads"))
            cmd += " --host-threads " + std::to_string(v->asU64());
        if (const JsonValue *v = run->find("quantum"))
            cmd += " --quantum " + std::to_string(v->asU64());
    }
    if (const JsonValue *v = run->find("width"))
        cmd += " --width " + std::to_string(v->asU64());
    if (const JsonValue *v = run->find("seed"))
        cmd += " --seed " + std::to_string(v->asU64());
    if (!mp) {
        if (const JsonValue *v = run->find("warmup"))
            cmd += " --warmup " + std::to_string(v->asU64());
        if (const JsonValue *v = run->find("measured_cycles"))
            cmd += " --cycles " + std::to_string(v->asU64());
    }
    cmd += " --trace-out firstdiv.json";
    return cmd;
}

/** Collect name -> value from an object of numeric members. */
void
collectNumbers(const JsonValue *obj, const std::string &prefix,
               std::map<std::string, double> &out)
{
    if (obj == nullptr || !obj->isObject())
        return;
    for (const auto &[name, v] : obj->object) {
        if (v.isNumber())
            out[prefix + name] = v.number;
    }
}

std::map<std::string, double>
statsMetrics(const JsonValue &doc)
{
    std::map<std::string, double> m;
    if (const JsonValue *v = doc.find("ipc"))
        m["ipc"] = v->number;
    if (const JsonValue *v = doc.find("retired"))
        m["retired"] = v->number;
    collectNumbers(doc.find("breakdown"), "breakdown.", m);
    collectNumbers(doc.find("counters"), "counters.", m);
    return m;
}

void
flattenProfTree(const JsonValue &nodes, const std::string &prefix,
                std::map<std::string, std::uint64_t> &out)
{
    for (const JsonValue &n : nodes.array) {
        const JsonValue *name = n.find("name");
        if (name == nullptr)
            continue;
        const std::string path =
            prefix.empty() ? name->asString()
                           : prefix + "/" + name->asString();
        if (const JsonValue *self = n.find("self_ns"))
            out[path] += self->asU64();
        if (const JsonValue *kids = n.find("children"))
            flattenProfTree(*kids, path, out);
    }
}

DiffReport diffStats(const JsonValue &a, const JsonValue &b);
DiffReport diffProf(const JsonValue &a, const JsonValue &b);
DiffReport diffFlightRecorder(const JsonValue &a, const JsonValue &b);
DiffReport diffWhy(const JsonValue &a, const JsonValue &b);

DiffReport
diffStats(const JsonValue &a, const JsonValue &b)
{
    DiffReport rep;
    rep.kind = DocKind::Stats;

    const DigestBlock da = digestBlockOf(a);
    const DigestBlock db = digestBlockOf(b);
    if (da.present && db.present) {
        if (da.hash == db.hash) {
            rep.lines.push_back("digest " + da.hash + ": identical, "
                                "the runs simulated the same work");
        } else {
            rep.divergence = true;
            rep.lines.push_back("digest differs: " + da.hash +
                                " -> " + db.hash);
            const WindowDivergence w = firstDivergentWindow(
                da.windows, da.windowCycles, db.windows,
                db.windowCycles);
            if (w.found) {
                rep.lines.push_back(
                    "first divergent digest window #" +
                    std::to_string(w.index) + " (cycles [" +
                    fmtCycle(w.start) + ", " + fmtCycle(w.end) + "))");
                const std::string hint = rerunHint(b);
                if (!hint.empty()) {
                    rep.lines.push_back("re-run to capture it: " +
                                        hint);
                    rep.lines.push_back(
                        "then inspect cycles [" + fmtCycle(w.start) +
                        ", " + fmtCycle(w.end) +
                        ") of the trace in Perfetto");
                }
            } else if (!w.comparable) {
                rep.lines.push_back(
                    "note: window streams not comparable (missing or "
                    "different --digest-window); cannot localize");
            } else {
                // Same windows but different whole-run hash: the
                // divergence is after the last closed window.
                rep.lines.push_back(
                    "note: all " + std::to_string(da.windows.size()) +
                    " windows match; divergence is after the last "
                    "closed window");
            }
        }
    } else {
        rep.lines.push_back(
            "note: no digest block on " +
            std::string(!da.present && !db.present ? "either side"
                        : !da.present ? "side A" : "side B") +
            " (run with --stats-json on a current build to get "
            "windowed digests); comparing metrics only");
    }

    const std::vector<MetricDelta> deltas = metricDeltas(a, b);
    if (!da.present || !db.present) {
        // No digest to rule on: changed simulated metrics are the
        // divergence signal.
        rep.divergence = !deltas.empty();
    }
    for (const MetricDelta &d : deltas)
        rep.lines.push_back("metric " + d.name + ": " + fmtNum(d.a) +
                            " -> " + fmtNum(d.b) + " (" +
                            fmtPct(d.pct) + ")");
    if (deltas.empty())
        rep.lines.push_back(
            "all simulated metrics identical (ipc, retired, "
            "breakdown, counters)");
    return rep;
}

DiffReport
diffProf(const JsonValue &a, const JsonValue &b)
{
    DiffReport rep;
    rep.kind = DocKind::Prof;

    const JsonValue *kips_a = findPath(a, "host", "kips");
    const JsonValue *kips_b = findPath(b, "host", "kips");
    if (kips_a != nullptr && kips_b != nullptr) {
        const double ka = kips_a->number, kb = kips_b->number;
        const double pct = ka > 0.0 ? (kb - ka) / ka * 100.0 : 0.0;
        rep.lines.push_back("KIPS " + fmtNum(ka) + " -> " +
                            fmtNum(kb) + " (" + fmtPct(pct) + ")");
    }

    const std::vector<LeafDelta> leaves = profLeafDeltas(a, b);
    if (leaves.empty()) {
        rep.lines.push_back("no prof-tree self-time changes");
        return rep;
    }
    constexpr std::size_t kMaxLeaves = 8;
    for (std::size_t i = 0; i < leaves.size() && i < kMaxLeaves;
         ++i) {
        const LeafDelta &l = leaves[i];
        std::string line =
            "self " + l.path + ": " +
            fmtNum(static_cast<double>(l.selfNsA) / 1e9) + "s -> " +
            fmtNum(static_cast<double>(l.selfNsB) / 1e9) +
            "s (share " + fmtNum(l.shareA * 100.0) + "% -> " +
            fmtNum(l.shareB * 100.0) + "%)";
        if (l.hasExplains)
            line += ", explains " + fmtNum(l.explainsKips) +
                    " KIPS of the delta";
        rep.lines.push_back(std::move(line));
    }
    if (leaves.size() > kMaxLeaves)
        rep.lines.push_back(
            "(" + std::to_string(leaves.size() - kMaxLeaves) +
            " smaller self-time changes not shown)");
    return rep;
}

DiffReport
diffFlightRecorder(const JsonValue &a, const JsonValue &b)
{
    DiffReport rep;
    rep.kind = DocKind::FlightRecorder;
    auto summary = [](const JsonValue &d, const char *side) {
        std::string s(side);
        s += ": ";
        if (const JsonValue *r = d.find("reason"))
            s += r->asString();
        if (const JsonValue *n = d.find("events_seen"))
            s += ", " + std::to_string(n->asU64()) + " events seen";
        if (const JsonValue *c = d.find("last_cycle"))
            s += ", last cycle " + std::to_string(c->asU64());
        return s;
    };
    rep.lines.push_back(summary(a, "A"));
    rep.lines.push_back(summary(b, "B"));
    const JsonValue *ea = a.find("events");
    const JsonValue *eb = b.find("events");
    if (ea == nullptr || eb == nullptr)
        return rep;
    const std::size_t n = std::min(ea->array.size(), eb->array.size());
    for (std::size_t i = 0; i < n; ++i) {
        const JsonValue &va = ea->array[i];
        const JsonValue &vb = eb->array[i];
        auto field = [](const JsonValue &v, const char *k) {
            const JsonValue *f = v.find(k);
            return f != nullptr && f->isNumber() ? f->number : -1.0;
        };
        auto name = [](const JsonValue &v) {
            const JsonValue *f = v.find("kind");
            return f != nullptr && f->isString() ? f->str
                                                 : std::string();
        };
        if (name(va) != name(vb) ||
            field(va, "cycle") != field(vb, "cycle") ||
            field(va, "seq") != field(vb, "seq")) {
            rep.divergence = true;
            rep.lines.push_back(
                "recordings differ from held event #" +
                std::to_string(i) + " (A: " + name(va) + " @ cycle " +
                fmtNum(field(va, "cycle")) + ", B: " + name(vb) +
                " @ cycle " + fmtNum(field(vb, "cycle")) + ")");
            return rep;
        }
    }
    if (ea->array.size() != eb->array.size()) {
        rep.divergence = true;
        rep.lines.push_back(
            "recordings differ in length: " +
            std::to_string(ea->array.size()) + " vs " +
            std::to_string(eb->array.size()) + " held events");
    } else {
        rep.lines.push_back("held events identical");
    }
    return rep;
}

DiffReport
diffWhy(const JsonValue &a, const JsonValue &b)
{
    DiffReport rep;
    rep.kind = DocKind::Why;

    // Scalar deltas over the ledger's tolerance and attribution
    // blocks; only changed values are reported.
    std::map<std::string, double> ma, mb;
    auto collect = [](const JsonValue &doc,
                      std::map<std::string, double> &m) {
        collectNumbers(doc.find("tolerance"), "tolerance.", m);
        if (const JsonValue *attr = doc.find("attribution")) {
            collectNumbers(attr, "attribution.", m);
            if (const JsonValue *cls = attr->find("classes")) {
                for (const JsonValue &c : cls->array) {
                    const JsonValue *name = c.find("class");
                    if (name == nullptr)
                        continue;
                    const std::string p =
                        "attribution." + name->asString() + ".";
                    collectNumbers(&c, p, m);
                }
            }
        }
    };
    collect(a, ma);
    collect(b, mb);
    std::size_t changed = 0;
    for (const auto &[name, va] : ma) {
        const auto it = mb.find(name);
        if (it == mb.end() || it->second == va)
            continue;
        ++changed;
        const double pct =
            va != 0.0 ? (it->second - va) / va * 100.0 : 0.0;
        rep.lines.push_back(name + ": " + fmtNum(va) + " -> " +
                            fmtNum(it->second) + " (" + fmtPct(pct) +
                            ")");
    }
    rep.divergence = changed != 0;

    // The pcs array is sorted by pc ascending on both sides, so the
    // first row where the sequences disagree - a pc present on only
    // one side, or differing issue / exposed counts - localizes the
    // divergence to one instruction address.
    const JsonValue *pa = a.find("pcs");
    const JsonValue *pb = b.find("pcs");
    if (pa != nullptr && pb != nullptr) {
        auto row = [](const JsonValue &v) {
            std::string pc;
            double issues = -1.0, exposed = -1.0;
            if (const JsonValue *f = v.find("pc"))
                pc = f->asString();
            if (const JsonValue *f = v.find("issues"))
                issues = f->number;
            if (const JsonValue *f = v.find("exposed"))
                exposed = f->number;
            return std::make_tuple(pc, issues, exposed);
        };
        const std::size_t n =
            std::min(pa->array.size(), pb->array.size());
        std::size_t i = 0;
        while (i < n && row(pa->array[i]) == row(pb->array[i]))
            ++i;
        if (i < n) {
            rep.divergence = true;
            const auto [apc, ai, ae] = row(pa->array[i]);
            const auto [bpc, bi, be] = row(pb->array[i]);
            rep.lines.push_back(
                "first diverging pc row #" + std::to_string(i) +
                ": A " + apc + " (issues " + fmtNum(ai) +
                ", exposed " + fmtNum(ae) + ") vs B " + bpc +
                " (issues " + fmtNum(bi) + ", exposed " + fmtNum(be) +
                ")");
        } else if (pa->array.size() != pb->array.size()) {
            rep.divergence = true;
            const bool aLonger = pa->array.size() > pb->array.size();
            const auto [pc, is, ex] =
                row((aLonger ? pa : pb)->array[i]);
            rep.lines.push_back(
                "pc tables differ in length: " +
                std::to_string(pa->array.size()) + " vs " +
                std::to_string(pb->array.size()) + " rows; first " +
                (aLonger ? "A-only" : "B-only") + " pc " + pc +
                " at row #" + std::to_string(i));
        } else {
            rep.lines.push_back(
                "all " + std::to_string(n) + " pc rows identical");
        }
    }
    if (!rep.divergence)
        rep.lines.push_back(
            "ledgers identical: both runs overlapped latency the "
            "same way");
    return rep;
}

} // namespace

const char *
docKindName(DocKind k)
{
    switch (k) {
      case DocKind::Stats:
        return "stats";
      case DocKind::Prof:
        return "prof";
      case DocKind::FlightRecorder:
        return "flight-recorder";
      case DocKind::Why:
        return "why";
      case DocKind::Unknown:
        break;
    }
    return "unknown";
}

DocKind
detectKind(const JsonValue &doc)
{
    if (!doc.isObject())
        return DocKind::Unknown;
    if (const JsonValue *schema = doc.find("schema")) {
        if (schema->isString()) {
            if (schema->str == "mtsim_flight_recorder/v1")
                return DocKind::FlightRecorder;
            if (schema->str == "mtsim_why/v1")
                return DocKind::Why;
        }
    }
    if (doc.find("run") != nullptr &&
        doc.find("breakdown") != nullptr)
        return DocKind::Stats;
    if (doc.find("profile") != nullptr && doc.find("host") != nullptr)
        return DocKind::Prof;
    return DocKind::Unknown;
}

WindowDivergence
firstDivergentWindow(const std::vector<std::string> &a, Cycle a_window,
                     const std::vector<std::string> &b, Cycle b_window)
{
    WindowDivergence out;
    if (a.empty() || b.empty() || a_window == 0 ||
        a_window != b_window)
        return out;
    out.comparable = true;
    const std::size_t n = std::min(a.size(), b.size());
    std::size_t i = 0;
    while (i < n && a[i] == b[i])
        ++i;
    if (i == n && a.size() == b.size())
        return out; // identical streams
    out.found = true;
    out.index = i;
    out.start = static_cast<Cycle>(i) * a_window;
    out.end = out.start + a_window;
    return out;
}

std::vector<MetricDelta>
metricDeltas(const JsonValue &a, const JsonValue &b)
{
    const std::map<std::string, double> ma = statsMetrics(a);
    const std::map<std::string, double> mb = statsMetrics(b);
    std::vector<MetricDelta> out;
    for (const auto &[name, va] : ma) {
        const auto it = mb.find(name);
        if (it == mb.end() || it->second == va)
            continue;
        MetricDelta d;
        d.name = name;
        d.a = va;
        d.b = it->second;
        d.pct = va != 0.0 ? (d.b - va) / va * 100.0 : 0.0;
        out.push_back(std::move(d));
    }
    std::sort(out.begin(), out.end(),
              [](const MetricDelta &x, const MetricDelta &y) {
                  return std::fabs(x.pct) > std::fabs(y.pct);
              });
    return out;
}

std::vector<LeafDelta>
profLeafDeltas(const JsonValue &a, const JsonValue &b)
{
    std::map<std::string, std::uint64_t> sa, sb;
    if (const JsonValue *tree = findPath(a, "profile", "tree"))
        flattenProfTree(*tree, "", sa);
    if (const JsonValue *tree = findPath(b, "profile", "tree"))
        flattenProfTree(*tree, "", sb);

    double total_a = 0.0, total_b = 0.0;
    if (const JsonValue *t = findPath(a, "profile", "total_ns"))
        total_a = t->number;
    if (const JsonValue *t = findPath(b, "profile", "total_ns"))
        total_b = t->number;

    double wall_b = 0.0, kips_b = 0.0, retired_b = 0.0;
    if (const JsonValue *v = findPath(b, "host", "wall_seconds"))
        wall_b = v->number;
    if (const JsonValue *v = findPath(b, "host", "kips"))
        kips_b = v->number;
    if (const JsonValue *v = findPath(b, "host", "retired"))
        retired_b = v->number;

    std::vector<LeafDelta> out;
    auto emit = [&](const std::string &path, std::uint64_t na,
                    std::uint64_t nb) {
        if (na == nb)
            return;
        LeafDelta l;
        l.path = path;
        l.selfNsA = na;
        l.selfNsB = nb;
        l.shareA = total_a > 0.0
                       ? static_cast<double>(na) / total_a
                       : 0.0;
        l.shareB = total_b > 0.0
                       ? static_cast<double>(nb) / total_b
                       : 0.0;
        const double dt = (static_cast<double>(nb) -
                           static_cast<double>(na)) /
                          1e9;
        const double denom = wall_b - dt;
        if (wall_b > 0.0 && denom > 0.0 && retired_b > 0.0) {
            l.hasExplains = true;
            l.explainsKips = retired_b / denom / 1e3 - kips_b;
        }
        out.push_back(std::move(l));
    };
    for (const auto &[path, na] : sa) {
        const auto it = sb.find(path);
        emit(path, na, it != sb.end() ? it->second : 0);
    }
    for (const auto &[path, nb] : sb) {
        if (sa.find(path) == sa.end())
            emit(path, 0, nb);
    }
    std::sort(out.begin(), out.end(),
              [](const LeafDelta &x, const LeafDelta &y) {
                  const auto dx = x.selfNsA > x.selfNsB
                                      ? x.selfNsA - x.selfNsB
                                      : x.selfNsB - x.selfNsA;
                  const auto dy = y.selfNsA > y.selfNsB
                                      ? y.selfNsA - y.selfNsB
                                      : y.selfNsB - y.selfNsA;
                  return dx > dy;
              });
    return out;
}

DiffReport
diffDocs(const JsonValue &a, const JsonValue &b)
{
    const DocKind ka = detectKind(a);
    const DocKind kb = detectKind(b);
    if (ka == DocKind::Unknown || kb == DocKind::Unknown)
        throw std::runtime_error(
            "unrecognized document (expected mtsim stats, prof, "
            "flight-recorder or why JSON)");
    if (ka != kb)
        throw std::runtime_error(
            std::string("document kinds differ: ") + docKindName(ka) +
            " vs " + docKindName(kb));
    switch (ka) {
      case DocKind::Stats:
        return diffStats(a, b);
      case DocKind::Prof:
        return diffProf(a, b);
      case DocKind::FlightRecorder:
        return diffFlightRecorder(a, b);
      case DocKind::Why:
        return diffWhy(a, b);
      case DocKind::Unknown:
        break;
    }
    throw std::runtime_error("unreachable document kind");
}

} // namespace mtsim::diff
