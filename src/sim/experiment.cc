#include "sim/experiment.hh"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>

#include "common/log.hh"
#include "common/trace.hh"
#include "sim/profiles.hh"
#include "sim/resultstore.hh"
#include "sim/sampling.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

namespace rowsim
{

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Ok: return "ok";
      case RunStatus::Failed: return "failed";
      case RunStatus::Crashed: return "crashed";
      case RunStatus::TimedOut: return "timeout";
    }
    return "?";
}

namespace
{

using RR = RunResult;

/** An additive count, extrapolated by sampling. */
constexpr RunMetric
countRow(const char *name, std::uint64_t RR::*m, MetricTap tap)
{
    return {name, m, nullptr, tap, {}, 0, true};
}

/** scale * num / den over the run (or window), 0 when den is 0. */
constexpr RunMetric
ratioRow(const char *name, double RR::*m, double scale, MetricTap num,
         MetricTap den)
{
    return {name, nullptr, m, num, den, scale, false};
}

/** A per-core Average of @p group pooled over cores. */
constexpr RunMetric
meanRow(const char *name, double RR::*m, const char *stat,
        CoreGroup group = CoreGroup::Core)
{
    return {name, nullptr, m, {MetricRead::Mean, group, stat}, {}, 0, false};
}

/** Quantile @p q of a per-core histogram merged over cores. */
constexpr RunMetric
pctRow(const char *name, double RR::*m, const char *hist, double q)
{
    const MetricTap tap{MetricRead::Percentile, CoreGroup::Core, hist};
    return {name, nullptr, m, tap, {}, q, false};
}

constexpr MetricTap
counter(const char *stat, CoreGroup group = CoreGroup::Core)
{
    return {MetricRead::Counter, group, stat};
}

constexpr MetricTap kInsts{MetricRead::Instructions};
constexpr MetricTap kAtomics{MetricRead::Atomics};
constexpr MetricTap kUnlocked = counter("atomicsUnlocked");
constexpr MetricTap kOracle = counter("atomicsOracleContended");
constexpr const char *kD2I = "atomicDispatchToIssueHist";
constexpr const char *kI2L = "atomicIssueToLockHist";
constexpr const char *kL2U = "atomicLockToUnlockHist";

/** Report order, which is also the result-store payload layout. */
constexpr RunMetric kRunMetrics[] = {
    countRow("cycles", &RR::cycles, {MetricRead::Cycles}),
    countRow("instructions", &RR::instructions, kInsts),
    countRow("atomicsCommitted", &RR::atomicsCommitted, kAtomics),
    ratioRow("atomicsPer10k", &RR::atomicsPer10k, 1e4, kAtomics, kInsts),
    countRow("atomicsUnlocked", &RR::atomicsUnlocked, kUnlocked),
    countRow("detectedContended", &RR::detectedContended,
             counter("atomicsDetectedContended")),
    countRow("oracleContended", &RR::oracleContended, kOracle),
    ratioRow("contendedPct", &RR::contendedPct, 100.0, kOracle, kUnlocked),
    meanRow("missLatency", &RR::missLatency, "missLatency", CoreGroup::L1),
    meanRow("dispatchToIssue", &RR::dispatchToIssue,
            "atomicDispatchToIssue"),
    meanRow("issueToLock", &RR::issueToLock, "atomicIssueToLock"),
    meanRow("lockToUnlock", &RR::lockToUnlock, "atomicLockToUnlock"),
    pctRow("dispatchToIssueP50", &RR::dispatchToIssueP50, kD2I, 0.50),
    pctRow("dispatchToIssueP90", &RR::dispatchToIssueP90, kD2I, 0.90),
    pctRow("dispatchToIssueP99", &RR::dispatchToIssueP99, kD2I, 0.99),
    pctRow("issueToLockP50", &RR::issueToLockP50, kI2L, 0.50),
    pctRow("issueToLockP90", &RR::issueToLockP90, kI2L, 0.90),
    pctRow("issueToLockP99", &RR::issueToLockP99, kI2L, 0.99),
    pctRow("lockToUnlockP50", &RR::lockToUnlockP50, kL2U, 0.50),
    pctRow("lockToUnlockP90", &RR::lockToUnlockP90, kL2U, 0.90),
    pctRow("lockToUnlockP99", &RR::lockToUnlockP99, kL2U, 0.99),
    meanRow("olderUnexecuted", &RR::olderUnexecuted,
            "olderUnexecutedAtIssue"),
    meanRow("youngerStarted", &RR::youngerStarted, "youngerStartedAtIssue"),
    ratioRow("predAccuracy", &RR::predAccuracy, 100.0,
             counter("correct", CoreGroup::Predictor),
             counter("updates", CoreGroup::Predictor)),
    countRow("atomicsForwarded", &RR::atomicsForwarded,
             counter("atomicsForwarded")),
    countRow("atomicsPromoted", &RR::atomicsPromoted,
             counter("atomicsPromotedEager")),
    countRow("forcedUnlocks", &RR::forcedUnlocks, counter("forcedUnlocks")),
    countRow("eagerIssued", &RR::eagerIssued, counter("atomicsIssuedEager")),
    countRow("lazyIssued", &RR::lazyIssued, counter("atomicsIssuedLazy")),
};

} // namespace

std::span<const RunMetric>
runMetrics()
{
    return kRunMetrics;
}

void
RunMetric::set(RunResult &r, double v) const
{
    if (count)
        r.*count = static_cast<std::uint64_t>(std::llround(v));
    else
        r.*real = v;
}

std::string
RunResult::toJson() const
{
    std::string j = strprintf("{\"workload\":\"%s\",\"config\":\"%s\"",
                              workload.c_str(), config.c_str());
    for (const RunMetric &m : runMetrics()) {
        if (m.count)
            j += strprintf(",\"%s\":%llu", m.name,
                           static_cast<unsigned long long>(this->*m.count));
        else
            j += strprintf(",\"%s\":%.4f", m.name, this->*m.real);
    }
    if (!spanJson.empty())
        j += ",\"spans\":" + spanJson;
    if (!tsJson.empty())
        j += ",\"timeseries\":" + tsJson;
    if (!samplingJson.empty())
        j += ",\"sampling\":" + samplingJson;
    if (!convergeMetric.empty()) {
        j += strprintf(
            ",\"converge\":{\"metric\":\"%s\",\"target\":%.6g,"
            "\"confidence\":%.6g,\"achieved\":%s,\"converged\":%s}",
            convergeMetric.c_str(), convergeTarget, convergeConfidence,
            std::isfinite(convergeAchieved)
                ? strprintf("%.6g", convergeAchieved).c_str()
                : "null",
            converged ? "true" : "false");
    }
    // Failure fields only when there is a failure: ok-run report lines
    // keep their historical byte layout.
    if (status != RunStatus::Ok) {
        j += strprintf(",\"status\":\"%s\",\"error\":\"%s\","
                       "\"attempts\":%u",
                       runStatusName(status), jsonEscape(error).c_str(),
                       attempts);
    }
    j += "}";
    return j;
}

namespace
{

/** Append @p line to @p path ("-" = stdout). Sweep workers write
 *  concurrently; serialize so every JSON line lands intact
 *  (append-mode writes interleave at the stdio level). */
void
appendJsonLine(const std::string &line, const std::string &path,
               const char *what)
{
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    if (path == "-") {
        std::fprintf(stdout, "%s\n", line.c_str());
        return;
    }
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f) {
        ROWSIM_WARN("cannot open %s file '%s'", what, path.c_str());
        return;
    }
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
}

} // namespace

void
writeRunReport(const RunResult &r, const std::string &path)
{
    appendJsonLine(r.toJson(), path, "run report");
}

ExpConfig
eagerConfig(bool forwarding)
{
    ExpConfig c;
    c.label = forwarding ? "eager+fwd" : "eager";
    c.policy = AtomicPolicy::Eager;
    c.forwardToAtomics = forwarding;
    return c;
}

ExpConfig
lazyConfig()
{
    ExpConfig c;
    c.label = "lazy";
    c.policy = AtomicPolicy::Lazy;
    return c;
}

ExpConfig
fencedConfig()
{
    ExpConfig c;
    c.label = "fenced";
    c.policy = AtomicPolicy::Fenced;
    return c;
}

namespace
{
const char *
detectorName(ContentionDetector d)
{
    switch (d) {
      case ContentionDetector::EW: return "EW";
      case ContentionDetector::RW: return "RW";
      case ContentionDetector::RWDir: return "RW+Dir";
      case ContentionDetector::RWDirNotify: return "RW+DirNtf";
    }
    return "?";
}

const char *
updateName(PredictorUpdate u)
{
    switch (u) {
      case PredictorUpdate::UpDown: return "U/D";
      case PredictorUpdate::SaturateOnContention: return "Sat";
      case PredictorUpdate::TwoUpOneDown: return "+2/-1";
    }
    return "?";
}
} // namespace

ExpConfig
rowConfig(ContentionDetector det, PredictorUpdate upd, bool forwarding)
{
    ExpConfig c;
    c.label = std::string(detectorName(det)) + "_" + updateName(upd) +
              (forwarding ? "+fwd" : "");
    c.policy = AtomicPolicy::RoW;
    c.detector = det;
    c.update = upd;
    c.forwardToAtomics = forwarding;
    return c;
}

std::vector<ExpConfig>
fig9Configs()
{
    std::vector<ExpConfig> v;
    v.push_back(eagerConfig());
    v.push_back(lazyConfig());
    for (auto det : {ContentionDetector::EW, ContentionDetector::RW,
                     ContentionDetector::RWDir}) {
        for (auto upd : {PredictorUpdate::UpDown,
                         PredictorUpdate::SaturateOnContention}) {
            v.push_back(rowConfig(det, upd));
        }
    }
    return v;
}

SystemParams
makeParams(const ExpConfig &cfg, unsigned num_cores, std::uint64_t seed)
{
    SystemParams sp;
    sp.numCores = num_cores;
    sp.seed = seed;
    sp.core.atomicPolicy = cfg.policy;
    sp.core.forwardToAtomics = cfg.forwardToAtomics;
    sp.core.row.detector = cfg.detector;
    sp.core.row.update = cfg.update;
    sp.core.row.latencyThreshold = cfg.latencyThreshold;
    sp.core.row.predictorEntries = cfg.predictorEntries;
    sp.core.row.localityPromotion = cfg.localityPromotion;
    sp.profileCategories = cfg.profile;
    sp.spans = cfg.spans;
    sp.timeseries = cfg.timeseries;
    sp.converge = cfg.converge;
    sp.mode = cfg.mode;
    return sp;
}

namespace
{

/** Append one per-run record {"workload","config","cycles",<name>}
 *  to @p sink ("-" = stdout) — the input format of `rowsim_report
 *  profile` and `rowsim_report span`. Inside a sweep worker the path
 *  carries the job key (like the trace sinks), so concurrent jobs never
 *  interleave one file. */
void
writeRecord(const RunResult &r, const char *name, const std::string &json,
            const std::string &sink)
{
    if (sink.empty() || json.empty())
        return;
    appendJsonLine(
        strprintf("{\"workload\":\"%s\",\"config\":\"%s\",\"cycles\":%llu,"
                  "\"%s\":%s}",
                  r.workload.c_str(), r.config.c_str(),
                  static_cast<unsigned long long>(r.cycles), name,
                  json.c_str()),
        sink == "-" ? sink : suffixJobPath(sink, Trace::jobKey()), name);
}

/**
 * sys.run(quota), optionally short-circuited through a warmup
 * checkpoint (ROWSIM_CKPT=save|restore|auto, see CkptMode), written
 * after spec.ckptAt committed iterations per core (default quota/4)
 * under spec.ckptDir. Because save→restore→run is bit-identical to an
 * uninterrupted run, every downstream metric and stats dump is
 * unaffected — only the wall-clock cost of re-simulating the warmup is.
 */
void
runMaybeCheckpointed(System &sys, const RunSpec &spec,
                     const std::string &workload, const std::string &label,
                     std::uint64_t quota)
{
    if (spec.ckptIgnored)
        ROWSIM_WARN("ROWSIM_CKPT ignored: %s", spec.ckptIgnored);
    if (spec.ckpt == CkptMode::Off) {
        sys.run(quota);
        return;
    }

    const std::uint64_t warm = spec.ckptAt ? spec.ckptAt : quota / 4;
    if (warm == 0 || warm >= quota) {
        ROWSIM_WARN("ROWSIM_CKPT ignored: warmup point %llu outside "
                    "(0, quota %llu)",
                    static_cast<unsigned long long>(warm),
                    static_cast<unsigned long long>(quota));
        sys.run(quota);
        return;
    }

    const std::string path = checkpointFilePath(
        spec.ckptDir, workload, label,
        strprintf("-c%u-s%llu-q%llu-w%llu.ckpt", sys.numCores(),
                  static_cast<unsigned long long>(sys.params().seed),
                  static_cast<unsigned long long>(quota),
                  static_cast<unsigned long long>(warm)));

    bool restored = false;
    if (spec.ckpt == CkptMode::Restore || spec.ckpt == CkptMode::Auto) {
        std::error_code ec;
        if (std::filesystem::exists(path, ec)) {
            sys.restoreCheckpoint(path);
            restored = true;
        } else if (spec.ckpt == CkptMode::Restore) {
            ROWSIM_FATAL("ROWSIM_CKPT=restore: checkpoint '%s' not "
                         "found (populate it with ROWSIM_CKPT=save or "
                         "auto)",
                         path.c_str());
        }
    }
    if (!restored) {
        sys.runWarmup(quota, warm);
        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(path).parent_path(), ec);
        sys.saveCheckpoint(path);
    }
    // Degenerate case: every core already reached the quota at the
    // warmup point, so the run is over — run(quota) would tick once
    // more and report one extra cycle.
    for (CoreId c = 0; c < sys.numCores(); c++) {
        if (sys.core(c).committedIterations() < quota) {
            sys.run(quota);
            return;
        }
    }
}

/** The per-run JSON sinks that need only the RunResult (run report,
 *  profile record, span record) — shared by live runs and result-store
 *  hits, so a warm rerun still feeds every figure script. */
void
emitRunSinks(const RunResult &r, const RunSpec &spec)
{
    // ROWSIM_REPORT=<path>: append a one-line JSON report per run (any
    // bench or test), "-" for stdout. Lets figure scripts collect every
    // run without touching the harness call sites.
    if (!spec.report.empty())
        writeRunReport(r, spec.report);
    // ROWSIM_PROFILE_JSON / ROWSIM_SPANS_JSON: one record per profiled
    // / span-traced run.
    writeRecord(r, "profile", r.profileJson, spec.profileJson);
    writeRecord(r, "spans", r.spanJson, spec.spansJson);
}

/** Run @p workload on a fully-specified system and harvest the metrics. */
RunResult
runAndCollect(const std::string &workload, const SystemParams &sp,
              const std::string &label, std::uint64_t quota,
              bool capture_stats)
{
    const WorkloadProfile profile = profileFor(workload);
    if (quota == 0)
        quota = defaultQuota(workload);

    const RunSpec spec = resolveRunSpec(sp);

    // ROWSIM_SAMPLE=<n>:<warm>:<detail>: divert to SMARTS-style
    // checkpointed sampling — functional warm-up to a checkpoint grid,
    // short detail windows from each checkpoint (sweep jobs, so they
    // cache and parallelize individually), batch-means aggregation. The
    // windows go through the result store themselves; the aggregate
    // bypasses it.
    if (spec.sample.active) {
        RunResult r = runSampled(workload, sp, label, quota, spec);
        emitRunSinks(r, spec);
        return r;
    }

    // Content-addressed result store (ROWSIM_RESULTS=on): serve a prior
    // identical run from disk instead of re-simulating.
    std::unique_ptr<ResultStore> store = ResultStore::forRun(spec);
    ResultKey key{};
    if (store) {
        key = ResultStore::keyFor(spec, sp, workload, label, quota);
        RunResult cached;
        if (store->serve(key, capture_stats, cached)) {
            emitRunSinks(cached, spec);
            return cached;
        }
    }

    System sys(sp, makeStreams(profile, sp.numCores, sp.seed));

    // Functional fast mode retires the whole quota architecturally;
    // the warmup-checkpoint shortcut is pointless there (the func run
    // IS the fast path) and is ignored. Either way the run ends at
    // sys.now(), which the harvest reports as cycles.
    if (spec.funcMode)
        sys.runFunctional(quota);
    else
        runMaybeCheckpointed(sys, spec, workload, label, quota);
    RunResult r = harvestMetrics(sys, {}, capture_stats);
    r.workload = workload;
    r.config = label;

    if (const Profiler *prof = sys.profiler())
        r.profileJson = prof->toJson();
    if (const SpanTracker *sp = sys.spans())
        r.spanJson = sp->toJson();
    if (const TimeSeriesEngine *ts = sys.timeseries()) {
        r.tsJson = ts->toJson();
        if (ts->converge().active) {
            r.convergeMetric = ts->converge().metric;
            r.convergeTarget = ts->converge().relHalfwidth;
            r.convergeConfidence = ts->converge().confidence;
            r.convergeAchieved = ts->achievedRelHalfwidth();
            r.converged = ts->converged();
        }
    }

    // Persist the completed run before emitting sinks: once stored, a
    // rerun with the same key never simulates again.
    if (store)
        store->store(key, r);

    emitRunSinks(r, spec);
    // ROWSIM_STATS_JSON=<path>: the full stats tree (every group's
    // counters/averages/formulas + interval series) of the most recent
    // run, "-" for stdout.
    if (spec.statsJson == "-") {
        std::fputs(sys.statsJson().c_str(), stdout);
    } else if (!spec.statsJson.empty()) {
        if (std::FILE *f = std::fopen(spec.statsJson.c_str(), "w")) {
            std::fputs(sys.statsJson().c_str(), f);
            std::fclose(f);
        } else {
            ROWSIM_WARN("cannot open stats JSON file '%s'",
                        spec.statsJson.c_str());
        }
    }
    return r;
}

} // namespace

RunResult
runExperiment(const std::string &workload, const ExpConfig &cfg,
              unsigned num_cores, std::uint64_t quota, std::uint64_t seed,
              bool capture_stats)
{
    return runAndCollect(workload, makeParams(cfg, num_cores, seed),
                         cfg.label, quota, capture_stats);
}

RunResult
runExperimentParams(const std::string &workload, const SystemParams &params,
                    const std::string &label, std::uint64_t quota,
                    bool capture_stats)
{
    return runAndCollect(workload, params, label, quota, capture_stats);
}

} // namespace rowsim
