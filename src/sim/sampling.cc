#include "sim/sampling.hh"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "common/log.hh"
#include "common/timeseries.hh"
#include "sim/profiles.hh"
#include "sim/resultstore.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

namespace rowsim
{

SampleSpec
parseSampleSpec(const char *name, const std::string &spec)
{
    SampleSpec s;
    if (spec.empty())
        return s;
    unsigned n = 0;
    unsigned long long warm = 0, detail = 0;
    double conf = 0.95;
    char junk = 0;
    const int got = std::sscanf(spec.c_str(), "%u:%llu:%llu:%lf%c", &n,
                                &warm, &detail, &conf, &junk);
    if (got != 3 && got != 4) {
        ROWSIM_FATAL("bad %s '%s' (want <n_ckpts>:<warm>:<detail>"
                     "[:<confidence>], iterations per core)",
                     name, spec.c_str());
    }
    if (n < 1 || detail < 1) {
        ROWSIM_FATAL("bad %s '%s': need at least 1 checkpoint and 1 "
                     "measured iteration",
                     name, spec.c_str());
    }
    if (!(conf > 0.0 && conf < 1.0)) {
        ROWSIM_FATAL("bad %s '%s': confidence must be in (0, 1)", name,
                     spec.c_str());
    }
    s.active = true;
    s.checkpoints = n;
    s.warmIters = warm;
    s.detailIters = detail;
    s.confidence = conf;
    return s;
}

std::vector<std::uint64_t>
sampleGrid(std::uint64_t quota, unsigned n)
{
    std::vector<std::uint64_t> g(n);
    for (unsigned k = 0; k < n; k++)
        g[k] = quota * k / n;
    return g;
}

namespace
{

/** The current value of an additive tap; 0 for the taps read whole. */
std::uint64_t
readCount(System &sys, const MetricTap &t)
{
    switch (t.read) {
      case MetricRead::Cycles: return sys.now();
      case MetricRead::Instructions: return sys.totalInstructions();
      case MetricRead::Atomics: return sys.totalAtomics();
      case MetricRead::Counter: return sys.totalCounter(t.stat, t.group);
      default: return 0;
    }
}

/** Quantile @p q of the histogram @p t merged across every core; 0 when
 *  no core recorded a sample (profiling off). */
double
mergedPercentile(System &sys, const MetricTap &t, double q)
{
    std::optional<Histogram> merged;
    for (CoreId c = 0; c < sys.numCores(); c++) {
        const Histogram *h = sys.statGroup(c, t.group).findHistogram(t.stat);
        if (!h)
            continue;
        if (!merged) {
            merged.emplace(h->lo(), h->hi(),
                           static_cast<unsigned>(h->buckets().size()));
        }
        merged->merge(*h);
    }
    return merged && merged->summary().count() ? merged->percentile(q)
                                               : 0.0;
}

} // namespace

MetricBaseline
snapshotCounters(System &sys)
{
    MetricBaseline b;
    for (const RunMetric &m : runMetrics()) {
        b.push_back(readCount(sys, m.tap));
        b.push_back(readCount(sys, m.per));
    }
    return b;
}

RunResult
harvestMetrics(System &sys, const MetricBaseline &base, bool capture_stats)
{
    const MetricBaseline now = snapshotCounters(sys);
    auto delta = [&](std::size_t i) {
        return now[i] - (base.empty() ? 0 : base[i]);
    };
    RunResult r;
    for (std::size_t i = 0; i < runMetrics().size(); i++) {
        const RunMetric &m = runMetrics()[i];
        const std::uint64_t num = delta(2 * i), den = delta(2 * i + 1);
        if (m.count)
            r.*m.count = num;
        else if (m.per.read != MetricRead::None)
            r.*m.real = den ? m.arg * static_cast<double>(num) /
                                  static_cast<double>(den)
                            : 0.0;
        else if (m.tap.read == MetricRead::Mean)
            r.*m.real = sys.meanAverage(m.tap.stat, m.tap.group);
        else
            r.*m.real = mergedPercentile(sys, m.tap, m.arg);
    }
    if (capture_stats)
        r.statsJson = sys.statsJson();
    return r;
}

namespace
{

/** Window reporting label; also the store key's label component, so it
 *  encodes everything of the sampling layout the window depends on. */
std::string
windowLabel(const std::string &label, const SampleSpec &spec,
            std::uint64_t quota, unsigned k)
{
    return label + strprintf("#s%u.%llu.%llu.q%llu.k%u", spec.checkpoints,
                             static_cast<unsigned long long>(spec.warmIters),
                             static_cast<unsigned long long>(
                                 spec.detailIters),
                             static_cast<unsigned long long>(quota), k);
}

/** Refuse observability setups the checkpoint format cannot carry /
 *  the sampling layout would distort. */
void
checkSamplingCompatible(const RunSpec &spec)
{
    if (spec.profileMask) {
        ROWSIM_FATAL("ROWSIM_SAMPLE is incompatible with the attribution "
                     "profiler (checkpoints do not carry its state); "
                     "disable ROWSIM_PROFILE");
    }
    if (spec.converge.active) {
        ROWSIM_FATAL("ROWSIM_SAMPLE is incompatible with "
                     "ROWSIM_CONVERGE (the stop cycle would depend on "
                     "the sampling layout)");
    }
}

} // namespace

RunResult
runDetailWindow(const SweepJob &job)
{
    SystemParams sp = job.windowParams;
    sp.mode = "detail";
    const std::uint64_t stop =
        job.windowStartIters + job.windowWarmIters + job.windowIters;

    // Windows are first-class store citizens: a sampled rerun with the
    // same layout restores, at most, nothing.
    const RunSpec spec = resolveRunSpec(sp);
    std::unique_ptr<ResultStore> store = ResultStore::forRun(spec);
    ResultKey key{};
    if (store) {
        key = ResultStore::keyFor(spec, sp, job.workload, job.cfg.label,
                                  stop);
        RunResult cached;
        if (store->serve(key, job.captureStatsJson, cached))
            return cached;
    }

    const WorkloadProfile profile = profileFor(job.workload);
    System sys(sp, makeStreams(profile, sp.numCores, sp.seed));
    sys.restoreCheckpoint(job.ckptPath);
    if (job.windowWarmIters)
        sys.runWarmup(stop, job.windowStartIters + job.windowWarmIters);

    const MetricBaseline base = snapshotCounters(sys);
    sys.run(stop);

    // The timing stats were empty at the func-written checkpoint, so
    // whole-read latency means cover exactly this window's detail-warm +
    // measured segment.
    RunResult r = harvestMetrics(sys, base, job.captureStatsJson);
    r.workload = job.workload;
    r.config = job.cfg.label;

    if (store)
        store->store(key, r);
    return r;
}

RunResult
runSampled(const std::string &workload, const SystemParams &params,
           const std::string &label, std::uint64_t quota,
           const RunSpec &run)
{
    const SampleSpec &spec = run.sample;
    ROWSIM_ASSERT(spec.active && quota > 0,
                  "runSampled needs an active spec and a resolved quota");
    checkSamplingCompatible(run);

    const unsigned n = spec.checkpoints;
    const std::vector<std::uint64_t> grid = sampleGrid(quota, n);

    // Phase 1: one functional system warms through the grid, dropping a
    // checkpoint at every mark. If the full grid already exists on disk
    // the func run is skipped entirely (the embedded config fingerprint
    // protects against restoring a stale layout into the wrong config).
    std::vector<std::string> paths(n);
    bool allExist = true;
    for (unsigned k = 0; k < n; k++) {
        paths[k] = checkpointFilePath(
            run.ckptDir, workload, label,
            strprintf("-c%u-s%llu-q%llu-n%u-k%u.fckpt", params.numCores,
                      static_cast<unsigned long long>(params.seed),
                      static_cast<unsigned long long>(quota), n, k));
        std::error_code ec;
        if (!std::filesystem::exists(paths[k], ec))
            allExist = false;
    }
    if (!allExist) {
        SystemParams fp = params;
        fp.mode = "func";
        const WorkloadProfile profile = profileFor(workload);
        System sys(fp, makeStreams(profile, fp.numCores, fp.seed));
        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(paths[0]).parent_path(), ec);
        for (unsigned k = 0; k < n; k++) {
            if (grid[k] > 0)
                sys.runFunctional(quota, grid[k]);
            sys.saveCheckpoint(paths[k]);
        }
    }

    // Phase 2: the measurement windows, as ordinary sweep jobs under
    // the environment's isolation / retry policy.
    std::vector<SweepJob> jobs(n);
    for (unsigned k = 0; k < n; k++) {
        SweepJob &j = jobs[k];
        j.workload = workload;
        j.cfg.label = windowLabel(label, spec, quota, k);
        j.numCores = params.numCores;
        j.seed = params.seed;
        j.ckptPath = paths[k];
        j.windowParams = params;
        j.windowStartIters = grid[k];
        j.windowWarmIters = spec.warmIters;
        j.windowIters = spec.detailIters;
    }
    const std::vector<RunResult> wins = runSweep(jobs);

    RunResult r;
    r.workload = workload;
    r.config = label;
    for (unsigned k = 0; k < n; k++) {
        if (!wins[k].ok()) {
            r.status = wins[k].status;
            r.attempts = wins[k].attempts;
            r.error = strprintf("sampling window %u (%s): %s", k,
                                jobs[k].cfg.label.c_str(),
                                wins[k].error.c_str());
            return r;
        }
    }

    // Phase 3: batch-means aggregation. Every metric gets a mean,
    // stddev, and Student-t CI over the window values; additive
    // counters are extrapolated by quota / detailIters into whole-run
    // estimates, which also fill the headline RunResult fields (so a
    // fig09 ranking of sampled runs works unchanged). The extrapolated
    // rows come first in the report; percentiles are not aggregated.
    std::vector<const RunMetric *> sampled;
    for (bool extrapolated : {true, false}) {
        for (const RunMetric &m : runMetrics()) {
            if (m.extrapolate == extrapolated &&
                m.tap.read != MetricRead::Percentile)
                sampled.push_back(&m);
        }
    }
    const double scale = static_cast<double>(quota) /
                         static_cast<double>(spec.detailIters);
    std::string metricsJson;
    for (const RunMetric *mp : sampled) {
        const RunMetric &m = *mp;
        double sum = 0.0;
        for (unsigned k = 0; k < n; k++)
            sum += m.get(wins[k]);
        const double mean = sum / n;
        double s2 = 0.0;
        for (unsigned k = 0; k < n; k++) {
            const double d = m.get(wins[k]) - mean;
            s2 += d * d;
        }
        const double stddev = n > 1 ? std::sqrt(s2 / (n - 1)) : 0.0;
        const double estimate = m.extrapolate ? mean * scale : mean;
        m.set(r, estimate);

        std::string ci = "null";
        if (n > 1) {
            const double p = 1.0 - (1.0 - spec.confidence) / 2.0;
            // CI of the window mean; for extrapolated counters the
            // same scale applies to the mean and the halfwidth.
            const double cs = m.extrapolate ? scale : 1.0;
            const double hw =
                tQuantile(p, n - 1) * stddev / std::sqrt(double(n)) * cs;
            ci = strprintf("{\"confidence\":%.6g,\"halfwidth\":%.17g,"
                           "\"lo\":%.17g,\"hi\":%.17g}",
                           spec.confidence, hw, estimate - hw,
                           estimate + hw);
        }
        if (!metricsJson.empty())
            metricsJson += ",";
        metricsJson += strprintf(
            "\"%s\":{\"mean\":%.17g,\"stddev\":%.17g,\"estimate\":%.17g,"
            "\"extrapolated\":%s,\"ci\":%s}",
            m.name, mean, stddev, estimate,
            m.extrapolate ? "true" : "false", ci.c_str());
    }

    std::string gridJson, windowsJson;
    for (unsigned k = 0; k < n; k++) {
        if (k) {
            gridJson += ",";
            windowsJson += ",";
        }
        gridJson += strprintf(
            "%llu", static_cast<unsigned long long>(grid[k]));
        std::string wm;
        for (const RunMetric *m : sampled) {
            if (!wm.empty())
                wm += ",";
            wm += strprintf("\"%s\":%.17g", m->name, m->get(wins[k]));
        }
        windowsJson += strprintf(
            "{\"k\":%u,\"mark\":%llu,\"fromCache\":%s,\"attempts\":%u,"
            "\"metrics\":{%s}}",
            k, static_cast<unsigned long long>(grid[k]),
            wins[k].fromCache ? "true" : "false", wins[k].attempts,
            wm.c_str());
    }

    r.samplingJson = strprintf(
        "{\"spec\":{\"checkpoints\":%u,\"warmIters\":%llu,"
        "\"detailIters\":%llu,\"confidence\":%.6g},\"quota\":%llu,"
        "\"grid\":[%s],\"windows\":[%s],\"metrics\":{%s}}",
        n, static_cast<unsigned long long>(spec.warmIters),
        static_cast<unsigned long long>(spec.detailIters), spec.confidence,
        static_cast<unsigned long long>(quota), gridJson.c_str(),
        windowsJson.c_str(), metricsJson.c_str());
    return r;
}

} // namespace rowsim
