/**
 * @file
 * rowsim_report: one pretty-printer for the simulator's observability
 * output.
 *
 *   rowsim_report profile [--collapsed PATH] FILE|-
 *       attribution profiler: per-core CPI stack table (with an
 *       aggregate percentage row), top-K contended lines, the RoW
 *       predicted × observed cross-tab with dispatch accuracy and
 *       mispredict cost, and per-PC atomic latency averages. --collapsed
 *       also writes flamegraph-style folded stacks ("label;coreN;bucket
 *       slots") for flamegraph.pl / speedscope.
 *   rowsim_report span FILE|-
 *       span tracker: latency percentiles, segment breakdown, per-PC and
 *       per-line tables, and for each retained slowest span an ASCII
 *       waterfall plus its critical-path decomposition.
 *   rowsim_report ts FILE|-
 *       metric time series: per-metric summary with batch-means CI,
 *       sparklines, an over-time table, and the ROWSIM_CONVERGE outcome.
 *   rowsim_report top [--once] FILE
 *       live sweep monitor: tails a ROWSIM_HEARTBEAT JSONL stream into a
 *       per-job table, redrawing until the sweep-end event; --once
 *       renders the current state once and exits.
 *
 * profile, span and ts read a stats JSON report (System::statsJson),
 * the raw section object, or a JSONL stream of run records
 * ({"workload":...,"config":...,"<section>":{...}}); "-" reads stdin.
 * Exit status: 0 when something rendered, 1 when no record was found or
 * the input cannot be opened, 2 on bad usage.
 *
 * Standalone: reads JSON with tools/json.hh (no simulator linkage), so
 * it also works on output of older or newer rowsim builds.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tools/json.hh"

namespace
{

using rowsim::Json;
using rowsim::JsonParser;

// ---------------------------------------------------------------------
// Record input shared by profile, span and ts
// ---------------------------------------------------------------------

std::string
readAll(const char *path)
{
    std::FILE *f =
        std::strcmp(path, "-") == 0 ? stdin : std::fopen(path, "rb");
    if (!f) {
        std::fprintf(stderr, "rowsim_report: cannot open %s\n", path);
        std::exit(1);
    }
    std::string out;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    if (f != stdin)
        std::fclose(f);
    return out;
}

using RecordFn = std::function<void(const Json &, const std::string &)>;

/**
 * Call @p fn for every record in @p text. A record is either a wrapper
 * with a @p section object member (stats report / JSONL run record,
 * labelled "workload/config") or a raw section object carrying
 * @p rawKey (labelled "runN" by record index). A whole-file parse
 * handles pretty-printed stats reports; if that fails the input is a
 * JSONL stream, parsed line by line. Returns the number of records.
 */
unsigned
forEachRecord(const std::string &text, const char *section,
              const char *rawKey, const RecordFn &fn)
{
    unsigned found = 0, index = 0;
    auto visit = [&](const Json &rec) {
        const unsigned i = index++;
        const Json *body = nullptr;
        std::string label;
        if (rec.has(section) && rec.at(section).type == Json::Object) {
            body = &rec.at(section);
            if (rec.at("workload").type == Json::String)
                label = rec.at("workload").str;
            if (rec.at("config").type == Json::String)
                label += (label.empty() ? "" : "/") + rec.at("config").str;
        } else if (rec.has(rawKey)) {
            body = &rec;
        }
        if (!body)
            return;
        fn(*body, label.empty() ? "run" + std::to_string(i) : label);
        found++;
    };

    Json root;
    try {
        root = JsonParser(text).parse();
    } catch (const std::exception &) {
        std::size_t pos = 0;
        while (pos < text.size()) {
            std::size_t eol = text.find('\n', pos);
            if (eol == std::string::npos)
                eol = text.size();
            std::string line = text.substr(pos, eol - pos);
            pos = eol + 1;
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            try {
                visit(JsonParser(line).parse());
            } catch (const std::exception &e) {
                std::fprintf(stderr,
                             "rowsim_report: skipping bad line: %s\n",
                             e.what());
            }
        }
        return found;
    }
    visit(root);
    return found;
}

/** Render every record of @p input with @p fn; exit status 1, naming
 *  the @p what records expected and a @p hint, when there is none. */
int
renderRecords(const char *input, const char *section, const char *rawKey,
              const char *what, const char *hint, const RecordFn &fn)
{
    if (forEachRecord(readAll(input), section, rawKey, fn))
        return 0;
    std::fprintf(stderr, "rowsim_report: no %s records found in %s (%s)\n",
                 what, input, hint);
    return 1;
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: rowsim_report COMMAND ...\n"
        "  profile [--collapsed PATH] FILE|-\n"
        "        attribution profiler records (ROWSIM_PROFILE_JSON or a\n"
        "        stats report with a \"profile\" section); --collapsed\n"
        "        also writes flamegraph folded stacks\n"
        "        (label;coreN;bucket slots) to PATH.\n"
        "  span FILE|-\n"
        "        span records (ROWSIM_SPANS_JSON or a stats report with a\n"
        "        \"spans\" section).\n"
        "  ts FILE|-\n"
        "        time-series records from a ROWSIM_TS / ROWSIM_CONVERGE\n"
        "        run (run reports or a stats report).\n"
        "  top [--once] FILE\n"
        "        tail a ROWSIM_HEARTBEAT JSONL stream into a live per-job\n"
        "        table until the sweep ends; --once renders it once.\n"
        "  FILE may be a stats JSON report, a raw section object, or a\n"
        "  JSONL stream of run records; '-' reads stdin.\n");
    std::exit(2);
}

// ---------------------------------------------------------------------
// profile
// ---------------------------------------------------------------------

/** Matches CpiBucket order in src/sim/profile.hh; the JSON keys are the
 *  source of truth, this list only fixes the column order. */
const char *const cpiBuckets[] = {
    "retired",       "frontendStall",  "robFull",
    "exec",          "sqDrainWait",    "atomicLazyWait",
    "atomicExecute", "coherenceMiss",  "idle",
};
constexpr unsigned numBuckets = sizeof(cpiBuckets) / sizeof(cpiBuckets[0]);

void
printCpi(const Json &cpi, const std::string &label, std::FILE *collapsed)
{
    if (cpi.type != Json::Array || cpi.arr.empty())
        return;
    std::printf("  CPI stack (commit slots per bucket):\n");
    std::printf("    %-6s", "core");
    for (const char *b : cpiBuckets)
        std::printf(" %14s", b);
    std::printf("\n");

    unsigned long long agg[numBuckets] = {0};
    for (const Json &core : cpi.arr) {
        std::printf("    %-6llu", core.at("core").asU64());
        for (unsigned i = 0; i < numBuckets; ++i) {
            unsigned long long v = core.at(cpiBuckets[i]).asU64();
            agg[i] += v;
            std::printf(" %14llu", v);
            if (collapsed && v) {
                std::fprintf(collapsed, "%s;core%llu;%s %llu\n",
                             label.c_str(), core.at("core").asU64(),
                             cpiBuckets[i], v);
            }
        }
        std::printf("\n");
    }

    unsigned long long total = 0;
    for (unsigned long long v : agg)
        total += v;
    std::printf("    %-6s", "all");
    for (unsigned i = 0; i < numBuckets; ++i)
        std::printf(" %14llu", agg[i]);
    std::printf("\n    %-6s", "%");
    for (unsigned i = 0; i < numBuckets; ++i)
        std::printf(" %13.1f%%",
                    total ? 100.0 * static_cast<double>(agg[i]) /
                                static_cast<double>(total)
                          : 0.0);
    std::printf("\n");
}

void
printLines(const Json &profile)
{
    const Json &lines = profile.at("lines");
    if (lines.type != Json::Array)
        return;
    std::printf("  Contended lines (top %zu of %llu tracked, by hold "
                "cycles):\n",
                lines.arr.size(), profile.at("linesTracked").asU64());
    if (lines.arr.empty())
        return;
    std::printf("    %-14s %9s %11s %6s %7s %6s %7s %10s %6s %5s %5s\n",
                "line", "acquires", "holdCyc", "cont", "rfills", "swaps",
                "stalls", "stallCyc", "steals", "qMax", "cores");
    for (const Json &l : lines.arr) {
        std::printf(
            "    %-14s %9llu %11llu %6llu %7llu %6llu %7llu %10llu "
            "%6llu %5llu %5llu\n",
            l.at("line").str.c_str(), l.at("acquires").asU64(),
            l.at("holdCycles").asU64(), l.at("contendedUnlocks").asU64(),
            l.at("remoteFills").asU64(), l.at("ownerSwaps").asU64(),
            l.at("lockStalls").asU64(), l.at("lockStallCycles").asU64(),
            l.at("steals").asU64(), l.at("queuedMax").asU64(),
            l.at("cores").asU64());
    }
}

void
printRow(const Json &row)
{
    if (row.type != Json::Object)
        return;
    const Json &t = row.at("totals");
    std::printf("  RoW decision audit (predicted x observed):\n");
    std::printf("    %-18s %14s %14s\n", "", "uncontended", "contended");
    std::printf("    %-18s %14llu %14llu\n", "predicted eager",
                t.at("eagerUncontended").asU64(),
                t.at("eagerContended").asU64());
    std::printf("    %-18s %14llu %14llu\n", "predicted lazy",
                t.at("lazyUncontended").asU64(),
                t.at("lazyContended").asU64());
    std::printf("    updates=%llu contended=%llu accuracy=%.2f%%\n",
                t.at("updates").asU64(), t.at("contendedOutcomes").asU64(),
                100.0 * row.at("dispatchAccuracy").asDouble());
    std::printf("    mispredict cost: lazy-waste=%llu cyc, "
                "eager-contended=%llu cyc\n",
                t.at("lazyWasteCycles").asU64(),
                t.at("eagerContendedCycles").asU64());

    const Json &pcs = row.at("pcs");
    if (pcs.type != Json::Array || pcs.arr.empty())
        return;
    std::printf("    per-PC: %-14s %8s %8s %8s %8s %10s %10s\n", "pc",
                "eagUnc", "eagCon", "lazUnc", "lazCon", "wasteCyc",
                "eagConCyc");
    for (const Json &p : pcs.arr) {
        std::printf("            %-14s %8llu %8llu %8llu %8llu %10llu "
                    "%10llu\n",
                    p.at("pc").str.c_str(),
                    p.at("eagerUncontended").asU64(),
                    p.at("eagerContended").asU64(),
                    p.at("lazyUncontended").asU64(),
                    p.at("lazyContended").asU64(),
                    p.at("lazyWasteCycles").asU64(),
                    p.at("eagerContendedCycles").asU64());
    }
}

void
printPcs(const Json &pcs)
{
    if (pcs.type != Json::Array || pcs.arr.empty())
        return;
    std::printf("  Atomic latency by PC (average cycles per phase):\n");
    std::printf("    %-14s %9s %14s %12s %13s\n", "pc", "count",
                "dispatch->issue", "issue->lock", "lock->unlock");
    for (const Json &p : pcs.arr) {
        const double n =
            std::max(1.0, static_cast<double>(p.at("count").asU64()));
        std::printf("    %-14s %9llu %14.1f %12.1f %13.1f\n",
                    p.at("pc").str.c_str(), p.at("count").asU64(),
                    static_cast<double>(p.at("dispatchToIssue").asU64()) / n,
                    static_cast<double>(p.at("issueToLock").asU64()) / n,
                    static_cast<double>(p.at("lockToUnlock").asU64()) / n);
    }
}

/** Render one profiler object. */
void
reportProfile(const Json &profile, const std::string &label,
              std::FILE *collapsed)
{
    std::printf("=== %s (categories: %s, commitWidth %llu) ===\n",
                label.c_str(), profile.at("categories").str.c_str(),
                profile.at("commitWidth").asU64());
    printCpi(profile.at("cpi"), label, collapsed);
    printLines(profile);
    printRow(profile.at("row"));
    printPcs(profile.at("pcs"));
    std::printf("\n");
}

int
profileMain(int argc, char **argv)
{
    const char *input = nullptr;
    const char *collapsedPath = nullptr;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--collapsed") == 0) {
            if (++i >= argc)
                usage();
            collapsedPath = argv[i];
        } else if (!input) {
            input = argv[i];
        } else {
            usage();
        }
    }
    if (!input)
        usage();

    std::FILE *collapsed = nullptr;
    if (collapsedPath) {
        collapsed = std::fopen(collapsedPath, "w");
        if (!collapsed) {
            std::fprintf(stderr, "rowsim_report: cannot write %s\n",
                         collapsedPath);
            return 1;
        }
    }
    const int rc = renderRecords(
        input, "profile", "categories", "profile",
        "was the run executed with ROWSIM_PROFILE set?",
        [&](const Json &profile, const std::string &label) {
            reportProfile(profile, label, collapsed);
        });
    if (collapsed)
        std::fclose(collapsed);
    return rc;
}

// ---------------------------------------------------------------------
// span
// ---------------------------------------------------------------------

/** Matches SpanSeg order in src/sim/span.hh; the JSON keys are the
 *  source of truth, this list only fixes the column order. */
const char *const segNames[] = {
    "dispatchWait", "sbDrain",     "aqWait",   "execute",
    "l1Miss",       "unblockWait", "lockHeld",
};
constexpr unsigned numSegs = sizeof(segNames) / sizeof(segNames[0]);

/** Single-letter glyph per segment for the waterfall lane. */
const char segGlyphs[numSegs + 1] = "dsqxmul";

void
printHist(const char *name, const Json &h)
{
    if (h.type != Json::Object)
        return;
    std::printf("    %-12s n=%-8llu mean=%-9.1f p50=%-8.0f p90=%-8.0f "
                "p99=%-8.0f max=%.0f\n",
                name, h.at("count").asU64(), h.at("mean").asDouble(),
                h.at("p50").asDouble(), h.at("p90").asDouble(),
                h.at("p99").asDouble(), h.at("max").asDouble());
}

void
printSegTotals(const Json &spans)
{
    const Json &t = spans.at("segTotals");
    if (t.type != Json::Object)
        return;
    const double total =
        std::max(1.0, static_cast<double>(t.at("total").asU64()));
    std::printf("  Segment breakdown (all %llu closed spans, "
                "%llu span-cycles):\n",
                spans.at("closed").asU64(), t.at("total").asU64());
    for (const char *seg : segNames) {
        const unsigned long long v = t.at(seg).asU64();
        std::printf("    %-14s %12llu %6.1f%%  ", seg, v,
                    100.0 * static_cast<double>(v) / total);
        const int bar = static_cast<int>(
            40.0 * static_cast<double>(v) / total + 0.5);
        for (int i = 0; i < bar; ++i)
            std::printf("#");
        std::printf("\n");
    }
    std::printf("    remote legs inside l1Miss: netCycles=%llu "
                "dirBlocked=%llu lockStall=%llu\n",
                t.at("netCycles").asU64(), t.at("dirBlocked").asU64(),
                t.at("lockStall").asU64());
}

void
printAggTable(const Json &arr, const char *title, const char *keyName,
              unsigned long long tracked)
{
    if (arr.type != Json::Array || arr.arr.empty())
        return;
    std::printf("  %s (top %zu of %llu, by span-cycles):\n", title,
                arr.arr.size(), tracked);
    std::printf("    %-14s %8s %11s %7s %7s %9s %9s %9s %9s\n", keyName,
                "count", "cycles", "lazy", "replays", "sbDrain", "l1Miss",
                "unblock", "lockHeld");
    for (const Json &a : arr.arr) {
        std::printf("    %-14s %8llu %11llu %7llu %7llu %9llu %9llu "
                    "%9llu %9llu\n",
                    a.at(keyName).str.c_str(), a.at("count").asU64(),
                    a.at("total").asU64(), a.at("lazy").asU64(),
                    a.at("replays").asU64(), a.at("sbDrain").asU64(),
                    a.at("l1Miss").asU64(), a.at("unblockWait").asU64(),
                    a.at("lockHeld").asU64());
    }
}

/** One retained span: header line, scaled waterfall lane, critical path. */
void
printSpan(const Json &sp)
{
    const unsigned long long total = sp.at("total").asU64();
    std::printf("    span %llu core%llu pc=%s line=%s [%llu, %llu) "
                "%llu cyc %s replays=%llu\n",
                sp.at("id").asU64(), sp.at("core").asU64(),
                sp.at("pc").str.c_str(), sp.at("line").str.c_str(),
                sp.at("dispatch").asU64(), sp.at("commit").asU64(), total,
                sp.at("lazy").b ? "lazy" : "eager",
                sp.at("replays").asU64());

    // Waterfall: one 60-column lane, segments in SpanSeg order scaled to
    // the span's total. The segments tile dispatch→commit (conservation
    // is enforced at close), so the lane is exact up to rounding.
    const Json &segs = sp.at("segs");
    constexpr int lane = 60;
    std::string bar;
    for (unsigned s = 0; s < numSegs; ++s) {
        const unsigned long long v = segs.at(segNames[s]).asU64();
        if (!v || !total)
            continue;
        int w = static_cast<int>(
            static_cast<double>(lane) * static_cast<double>(v) /
                static_cast<double>(total) + 0.5);
        if (w < 1)
            w = 1;
        bar.append(static_cast<std::size_t>(w), segGlyphs[s]);
    }
    if (bar.size() > lane)
        bar.resize(lane);
    std::printf("      |%-*s|\n", lane, bar.c_str());

    const Json &crit = sp.at("critical");
    std::printf("      legs: net=%llu cyc/%llu hops, dirBlocked=%llu, "
                "lockStall=%llu, missOther=%llu -> critical path: %s\n",
                sp.at("netCycles").asU64(), sp.at("netHops").asU64(),
                sp.at("dirBlocked").asU64(), sp.at("lockStall").asU64(),
                crit.at("missOther").asU64(),
                crit.at("dominant").str.c_str());
}

/** Render one span-tracker object. */
void
reportSpans(const Json &spans, const std::string &label)
{
    std::printf("=== %s (spans: %llu opened, %llu closed, %llu open at "
                "end, %llu truncated) ===\n",
                label.c_str(), spans.at("opened").asU64(),
                spans.at("closed").asU64(), spans.at("openAtEnd").asU64(),
                spans.at("truncated").asU64());
    std::printf("  Latency percentiles (cycles dispatch->commit):\n");
    printHist("all", spans.at("latency"));
    printHist("l1Miss", spans.at("missLatency"));
    printHist("lockHeld", spans.at("lockHeld"));
    printSegTotals(spans);
    printAggTable(spans.at("pcs"), "Atomic PCs", "pc",
                  spans.at("pcsTracked").asU64());
    printAggTable(spans.at("lines"), "Cache lines", "line",
                  spans.at("linesTracked").asU64());

    const Json &recs = spans.at("spans");
    if (recs.type == Json::Array && !recs.arr.empty()) {
        std::printf("  Slowest retained spans (waterfall: d=dispatchWait "
                    "s=sbDrain q=aqWait x=execute m=l1Miss u=unblockWait "
                    "l=lockHeld):\n");
        for (const Json &sp : recs.arr)
            printSpan(sp);
    }
    std::printf("\n");
}

// ---------------------------------------------------------------------
// ts
// ---------------------------------------------------------------------

/** 60-column ASCII sparkline: each column is the mean of the points it
 *  covers, mapped to a 10-level density ramp over [min, max]. */
std::string
sparkline(const std::vector<double> &vals)
{
    constexpr int lane = 60;
    static const char ramp[] = " .:-=+*#%@";
    if (vals.empty())
        return std::string(lane, ' ');
    double lo = vals[0], hi = vals[0];
    for (double v : vals) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const double span = hi - lo;
    std::string out;
    const int cols = std::min<int>(lane, static_cast<int>(vals.size()));
    for (int c = 0; c < cols; ++c) {
        const std::size_t a = vals.size() * c / cols;
        const std::size_t b =
            std::max(a + 1, vals.size() * (c + 1) / cols);
        double sum = 0;
        for (std::size_t i = a; i < b; ++i)
            sum += vals[i];
        const double mean = sum / static_cast<double>(b - a);
        const int level =
            span > 0 ? static_cast<int>(9.0 * (mean - lo) / span + 0.5)
                     : 0;
        out += ramp[std::clamp(level, 0, 9)];
    }
    return out;
}

void
printMetric(const std::string &name, const Json &m)
{
    const Json &ci = m.at("ci");
    std::printf("    %-18s %7llu %12.6g %12.6g %6.3f %4llux%-6llu",
                name.c_str(), m.at("count").asU64(),
                m.at("mean").asDouble(), m.at("stddev").asDouble(),
                m.at("lag1").asDouble(), m.at("batches").asU64(),
                m.at("batchSize").asU64());
    if (ci.at("valid").b) {
        const double rel = ci.at("rel").asDouble();
        std::printf("  [%.6g, %.6g]", ci.at("lo").asDouble(),
                    ci.at("hi").asDouble());
        if (std::isfinite(rel))
            std::printf("  ±%.2f%%", 100.0 * rel);
        std::printf("\n");
    } else {
        std::printf("  (CI needs ≥8 batches)\n");
    }
}

void
printOverTime(const Json &metrics)
{
    // Union of retained cycles (all metrics sample the same grid, but
    // stay defensive) sampled at up to ten rows.
    std::vector<double> cycles;
    for (const auto &kv : metrics.obj) {
        const Json &cyc = kv.second.at("points").at("cycles");
        for (const Json &c : cyc.arr)
            cycles.push_back(c.asDouble());
        break; // one metric fixes the grid
    }
    if (cycles.empty())
        return;
    std::printf("  Over time (window of %zu samples):\n", cycles.size());
    std::printf("    %12s", "cycle");
    for (const auto &kv : metrics.obj)
        std::printf(" %14s", kv.first.c_str());
    std::printf("\n");
    const std::size_t rows = std::min<std::size_t>(10, cycles.size());
    for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t i =
            rows == 1 ? 0 : (cycles.size() - 1) * r / (rows - 1);
        std::printf("    %12.0f", cycles[i]);
        for (const auto &kv : metrics.obj) {
            const Json &vals = kv.second.at("points").at("values");
            std::printf(" %14.6g",
                        i < vals.arr.size() ? vals.arr[i].asDouble() : 0.0);
        }
        std::printf("\n");
    }
}

/** Render one time-series object. */
void
reportTs(const Json &ts, const std::string &label)
{
    const Json &metrics = ts.at("metrics");
    std::printf("=== %s (interval %llu cycles, window %llu samples) ===\n",
                label.c_str(), ts.at("period").asU64(),
                ts.at("window").asU64());
    std::printf("    %-18s %7s %12s %12s %6s %11s  %s\n", "metric",
                "count", "mean", "stddev", "lag1", "batches",
                "batch-means CI");
    for (const auto &kv : metrics.obj)
        printMetric(kv.first, kv.second);

    std::printf("  Sparklines (per-interval deltas, min→max):\n");
    for (const auto &kv : metrics.obj) {
        const Json &vals = kv.second.at("points").at("values");
        std::vector<double> v;
        v.reserve(vals.arr.size());
        for (const Json &x : vals.arr)
            v.push_back(x.asDouble());
        std::printf("    %-18s |%s|\n", kv.first.c_str(),
                    sparkline(v).c_str());
    }

    printOverTime(metrics);

    const Json &conv = ts.at("converge");
    if (conv.type == Json::Object) {
        const double achieved = conv.at("achieved").asDouble();
        std::printf("  Convergence: %s rel CI ≤ %.4g @%.0f%% -> %s "
                    "(achieved %.4g%s)\n",
                    conv.at("metric").str.c_str(),
                    conv.at("target").asDouble(),
                    100.0 * conv.at("confidence").asDouble(),
                    conv.at("converged").b
                        ? "converged" : "NOT converged",
                    achieved,
                    conv.at("converged").b
                        ? (" at cycle " +
                           std::to_string(conv.at("atCycle").asU64()))
                              .c_str()
                        : "");
    }
    std::printf("\n");
}

// ---------------------------------------------------------------------
// top
// ---------------------------------------------------------------------

struct JobRow
{
    std::string workload;
    std::string config;
    std::string state = "queued";
    std::string status;
    unsigned attempt = 1;
    // Live progress from the latest run event.
    double frac = 0;
    double kcps = 0;
    double etaMs = -1;
    long rssKb = -1;
    unsigned long long cycle = 0;
    bool seenRun = false;
};

/**
 * The merged state of a heartbeat stream: "sweep" events frame the run
 * (job total, isolation mode, final ok/failed tally), "job" events
 * drive each row's lifecycle (queued/started/retrying/finished, attempt,
 * status), and "run" events from inside the simulating workers fill the
 * live progress columns (quota fraction, Kcycles/s, ETA, RSS).
 */
struct TopState
{
    bool sweepSeen = false;
    bool sweepEnded = false;
    std::size_t jobsTotal = 0, ok = 0, failed = 0;
    std::string isolation;
    unsigned long long lastWall = 0;
    // Keyed by job index; the "jN" key of run events maps here.
    std::map<std::size_t, JobRow> jobs;

    void
    apply(const Json &ev)
    {
        const std::string kind = ev.at("ev").str;
        if (ev.at("wall").asU64() > lastWall)
            lastWall = ev.at("wall").asU64();
        if (kind == "sweep") {
            sweepSeen = true;
            jobsTotal = ev.at("jobs").asU64();
            isolation = ev.at("isolation").str;
            if (ev.at("state").str == "end") {
                sweepEnded = true;
                ok = ev.at("ok").asU64();
                failed = ev.at("failed").asU64();
            }
            return;
        }
        // Both "job" and "run" events address a row by job key.
        const std::string &key = ev.at("job").str;
        if (key.size() < 2 || key[0] != 'j')
            return; // run event outside a sweep
        const std::size_t idx =
            static_cast<std::size_t>(std::strtoull(key.c_str() + 1,
                                                   nullptr, 10));
        JobRow &row = jobs[idx];
        if (kind == "job") {
            row.state = ev.at("state").str;
            row.attempt =
                static_cast<unsigned>(ev.at("attempt").asU64());
            row.workload = ev.at("workload").str;
            row.config = ev.at("config").str;
            row.status = ev.at("status").str;
        } else if (kind == "run") {
            row.seenRun = true;
            row.frac = ev.at("frac").asDouble();
            row.kcps = ev.at("kcps").asDouble();
            row.etaMs = ev.has("etaMs") ? ev.at("etaMs").asDouble() : -1.0;
            row.rssKb = static_cast<long>(ev.at("rssKb").asDouble());
            row.cycle = ev.at("cycle").asU64();
        }
    }
};

std::string
fmtEta(double ms)
{
    if (ms < 0)
        return "-";
    char buf[32];
    if (ms >= 60000)
        std::snprintf(buf, sizeof buf, "%.1fm", ms / 60000.0);
    else
        std::snprintf(buf, sizeof buf, "%.1fs", ms / 1000.0);
    return buf;
}

void
renderTop(const TopState &st, bool follow)
{
    if (follow)
        std::printf("\x1b[H\x1b[2J"); // home + clear
    std::size_t queued = 0, runningN = 0, done = 0, retrying = 0;
    for (const auto &kv : st.jobs) {
        const std::string &s = kv.second.state;
        if (s == "queued")
            queued++;
        else if (s == "started")
            runningN++;
        else if (s == "retrying")
            retrying++;
        else if (s == "finished")
            done++;
    }
    std::printf("rowsim sweep: %zu jobs (%s isolation)  "
                "queued %zu  running %zu  retrying %zu  done %zu",
                st.jobsTotal, st.isolation.c_str(), queued, runningN,
                retrying, done);
    if (st.sweepEnded)
        std::printf("  -- COMPLETE: %zu ok, %zu failed", st.ok,
                    st.failed);
    std::printf("\n\n");
    std::printf("%5s %-12s %-14s %-9s %3s %7s %9s %8s %9s %-8s\n", "job",
                "workload", "config", "state", "att", "prog", "kcyc/s",
                "eta", "rssMB", "status");
    for (const auto &kv : st.jobs) {
        const JobRow &r = kv.second;
        std::printf("%5zu %-12.12s %-14.14s %-9.9s %3u ", kv.first,
                    r.workload.c_str(), r.config.c_str(),
                    r.state.c_str(), r.attempt);
        if (r.seenRun && r.state != "finished") {
            std::printf("%6.1f%% %9.1f %8s %9.1f", 100.0 * r.frac,
                        r.kcps, fmtEta(r.etaMs).c_str(),
                        r.rssKb >= 0 ? r.rssKb / 1024.0 : 0.0);
        } else if (r.state == "finished") {
            std::printf("%6.0f%% %9s %8s %9s", 100.0, "-", "-", "-");
        } else {
            std::printf("%7s %9s %8s %9s", "-", "-", "-", "-");
        }
        std::printf(" %-8.24s\n", r.status.c_str());
    }
    std::fflush(stdout);
}

int
topMain(int argc, char **argv)
{
    bool once = false;
    const char *path = nullptr;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--once") == 0)
            once = true;
        else if (!path)
            path = argv[i];
        else
            usage();
    }
    if (!path)
        usage();

    TopState st;
    std::string buf;     // undigested bytes (tail may be mid-line)
    long offset = 0;     // next byte to read from the stream file
    bool warnedMissing = false;

    for (;;) {
        if (std::FILE *f = std::fopen(path, "rb")) {
            // A shrunken file means the sweep restarted with a fresh
            // sink; start over instead of reading garbage.
            std::fseek(f, 0, SEEK_END);
            const long size = std::ftell(f);
            if (size < offset) {
                offset = 0;
                buf.clear();
                st = TopState();
            }
            std::fseek(f, offset, SEEK_SET);
            char chunk[1 << 16];
            std::size_t n;
            while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
                buf.append(chunk, n);
                offset += static_cast<long>(n);
            }
            std::fclose(f);
        } else if (once) {
            std::fprintf(stderr, "rowsim_report: cannot open %s\n", path);
            return 1;
        } else if (!warnedMissing) {
            std::fprintf(stderr,
                         "rowsim_report: waiting for %s to appear...\n",
                         path);
            warnedMissing = true;
        }

        // Digest complete lines; a partial tail (a worker mid-write)
        // stays buffered, so the monitor never sees a fragment.
        std::size_t pos = 0;
        while (true) {
            const std::size_t eol = buf.find('\n', pos);
            if (eol == std::string::npos)
                break;
            const std::string line = buf.substr(pos, eol - pos);
            pos = eol + 1;
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            try {
                st.apply(JsonParser(line).parse());
            } catch (const std::exception &) {
                // A torn or foreign line; skip it.
            }
        }
        buf.erase(0, pos);

        renderTop(st, !once);
        if (once)
            return st.sweepSeen || !st.jobs.empty() ? 0 : 1;
        if (st.sweepEnded)
            return 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    argc -= 2;
    argv += 2;
    if (cmd == "profile")
        return profileMain(argc, argv);
    if (cmd == "top")
        return topMain(argc, argv);
    if (argc != 1)
        usage();
    if (cmd == "span")
        return renderRecords(argv[0], "spans", "segTotals", "span",
                             "was the run executed with ROWSIM_SPANS=on?",
                             reportSpans);
    if (cmd == "ts")
        return renderRecords(argv[0], "timeseries", "metrics",
                             "time-series",
                             "was the run executed with ROWSIM_TS=on or "
                             "ROWSIM_CONVERGE?",
                             reportTs);
    usage();
}
