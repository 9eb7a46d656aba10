/**
 * @file
 * Experiment harness: configures a System for one (workload, policy)
 * pair, runs it to quota, and extracts every metric the paper's figures
 * report. All benches and integration tests go through this API.
 */

#ifndef ROWSIM_SIM_EXPERIMENT_HH
#define ROWSIM_SIM_EXPERIMENT_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace rowsim
{

/** One experiment configuration (a bar in Fig. 9 / Fig. 13). */
struct ExpConfig
{
    std::string label = "eager";
    AtomicPolicy policy = AtomicPolicy::Eager;
    ContentionDetector detector = ContentionDetector::RWDir;
    PredictorUpdate update = PredictorUpdate::SaturateOnContention;
    bool forwardToAtomics = false;
    bool localityPromotion = true;
    Cycle latencyThreshold = 400;
    unsigned predictorEntries = 64;
    /** Profiler categories for this run ("cpi,lines,row,pcs,check" /
     *  "all"); empty defers to the ROWSIM_PROFILE environment. */
    std::string profile;
    /** Span tracing for this run ("on"/"off" and synonyms); empty
     *  defers to the ROWSIM_SPANS environment. */
    std::string spans;
    /** Metric time-series engine ("on"/"off" and synonyms); empty
     *  defers to the ROWSIM_TS environment. */
    std::string timeseries;
    /** Convergence-bounded run spec
     *  ("<metric>:<rel_halfwidth>[:<confidence>]"); empty defers to the
     *  ROWSIM_CONVERGE environment. Implies the time-series engine. */
    std::string converge;
    /** Execution mode ("detail"/"func"); empty defers to the
     *  ROWSIM_MODE environment. */
    std::string mode;
};

/** Outcome of one run. Anything but Ok means the metric fields are
 *  not meaningful; `error` says why. */
enum class RunStatus : std::uint8_t
{
    Ok = 0,       ///< completed normally
    Failed = 1,   ///< threw (panic, fatal, bad config) in-process
    Crashed = 2,  ///< isolated worker died (signal / abort / _Exit)
    TimedOut = 3, ///< isolated worker exceeded its wall-clock budget
};

const char *runStatusName(RunStatus s);

/** Everything a figure could want from one run. */
struct RunResult
{
    std::string workload;
    std::string config;

    /** Outcome of the run; metric fields below are meaningful only for
     *  Ok. Sweeps in non-strict mode report per-job failures here
     *  instead of throwing. */
    RunStatus status = RunStatus::Ok;
    /** Human-readable failure description (empty when Ok). */
    std::string error;
    /** Executions this result took (> 1 only for isolated sweep jobs
     *  that were retried after a crash / timeout). */
    std::uint32_t attempts = 1;
    /** True when the result was served from the content-addressed
     *  result store instead of being recomputed. */
    bool fromCache = false;

    bool ok() const { return status == RunStatus::Ok; }

    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t atomicsCommitted = 0;
    double atomicsPer10k = 0;

    std::uint64_t atomicsUnlocked = 0;
    std::uint64_t detectedContended = 0;
    std::uint64_t oracleContended = 0;
    /** % of atomics facing contention (oracle; Fig. 5 red line). */
    double contendedPct = 0;

    /** Mean L1D miss latency over all memory instructions (Fig. 11). */
    double missLatency = 0;

    // Fig. 6 latency breakdown (means over unlocked atomics).
    double dispatchToIssue = 0;
    double issueToLock = 0;
    double lockToUnlock = 0;

    /** Fig. 6 tail percentiles, from the per-core atomic-phase
     *  histograms merged across cores. Populated only when the run
     *  profiles with the "pcs" category; 0 otherwise. */
    double dispatchToIssueP50 = 0, dispatchToIssueP90 = 0,
           dispatchToIssueP99 = 0;
    double issueToLockP50 = 0, issueToLockP90 = 0, issueToLockP99 = 0;
    double lockToUnlockP50 = 0, lockToUnlockP90 = 0, lockToUnlockP99 = 0;

    // Fig. 4 independent-instruction counts at atomic issue.
    double olderUnexecuted = 0;
    double youngerStarted = 0;

    /** Contention-prediction accuracy (Fig. 12); 0 when not RoW. */
    double predAccuracy = 0;

    std::uint64_t atomicsForwarded = 0;
    std::uint64_t atomicsPromoted = 0;
    std::uint64_t forcedUnlocks = 0;
    std::uint64_t eagerIssued = 0;
    std::uint64_t lazyIssued = 0;

    /** Full System::statsJson output, captured before the System is
     *  destroyed. Empty unless the run was asked to capture it
     *  (runExperiment's capture_stats / SweepJob::captureStatsJson) —
     *  it is large, and most callers only want the summary metrics. */
    std::string statsJson;

    /** Profiler::toJson() of the run, captured whenever the run was
     *  profiled (ROWSIM_PROFILE / ExpConfig::profile); empty otherwise. */
    std::string profileJson;

    /** SpanTracker::toJson() of the run, captured whenever span tracing
     *  was on (ROWSIM_SPANS / ExpConfig::spans); empty otherwise. */
    std::string spanJson;

    /** TimeSeriesEngine::toJson() of the run — per-metric series,
     *  online statistics, and batch-means CIs — captured whenever the
     *  engine was on (ROWSIM_TS / ROWSIM_CONVERGE / ExpConfig); empty
     *  otherwise. */
    std::string tsJson;

    /** Sampled-run summary (SMARTS-style checkpointed sampling,
     *  ROWSIM_SAMPLE): checkpoint grid, per-window detail results, and
     *  batch-means confidence intervals, as one JSON object. Empty
     *  unless sampling was active; rides along in toJson() as
     *  "sampling" so non-sampled reports stay byte-identical. */
    std::string samplingJson;

    /** Convergence-bounded run outcome; meaningful only when a
     *  convergence spec was active (convergeMetric non-empty). */
    std::string convergeMetric;
    double convergeTarget = 0;
    double convergeConfidence = 0;
    /** Relative CI half-width of the target metric at the stop cycle
     *  (or end of quota); +inf prints as null in JSON. */
    double convergeAchieved = 0;
    /** True when the run stopped on the CI bound before the quota. */
    bool converged = false;

    /** One-line JSON object with every field above except statsJson and
     *  profileJson (run reports); spanJson rides along as "spans" when
     *  the run traced spans, tsJson as "timeseries" (plus a "converge"
     *  object when a spec was active), and status/error/attempts appear
     *  only for failed runs (ok-run reports stay byte-identical across
     *  versions). */
    std::string toJson() const;
};

/** How harvestMetrics reads one statistic from a System. */
enum class MetricRead : std::uint8_t
{
    None,         ///< nothing (the denominator of a non-ratio row)
    Cycles,       ///< System::now()
    Instructions, ///< System::totalInstructions()
    Atomics,      ///< System::totalAtomics()
    Counter,      ///< a per-core counter summed over cores
    Mean,         ///< a per-core Average pooled over cores
    Percentile,   ///< a per-core Histogram merged over cores
};

/** One statistic read: how, from which per-core group, by which name. */
struct MetricTap
{
    MetricRead read = MetricRead::None;
    CoreGroup group = CoreGroup::Core;
    const char *stat = nullptr;
};

/**
 * One RunResult metric. runMetrics() has one row per metric field, in
 * report order; toJson, the result-store payload, harvestMetrics and
 * the sampling aggregation all walk it, so a new metric is one row.
 *
 * Cycles / Instructions / Atomics / Counter taps are additive: a
 * window reports their growth since its baseline. Mean and Percentile
 * taps are read whole.
 */
struct RunMetric
{
    const char *name;                      ///< JSON key
    std::uint64_t RunResult::*count;       ///< integer member, or null
    double RunResult::*real;               ///< real member, or null
    MetricTap tap;                         ///< the value, or a numerator
    MetricTap per;                         ///< ratio rows: denominator
    /** Ratio rows: scale (value = arg * tap / per, 0 when per is 0);
     *  Percentile rows: the quantile. */
    double arg;
    /** Sampling scales the window mean by quota / detailIters (additive
     *  counts). Percentile rows are not aggregated at all. */
    bool extrapolate;

    double get(const RunResult &r) const
    {
        return count ? static_cast<double>(r.*count) : r.*real;
    }
    /** Store @p v; counts round to nearest. */
    void set(RunResult &r, double v) const;
};

/** The RunResult metric table. */
std::span<const RunMetric> runMetrics();

/** Append @p r as one JSON line to @p path ("-" = stdout). */
void writeRunReport(const RunResult &r, const std::string &path);

/** Standard configurations used across the figures. */
ExpConfig eagerConfig(bool forwarding = false);
ExpConfig lazyConfig();
ExpConfig fencedConfig();
ExpConfig rowConfig(ContentionDetector det, PredictorUpdate upd,
                    bool forwarding = false);
/** The Fig. 9 bar set: eager, lazy, EW/RW/RW+Dir x U/D / Sat. */
std::vector<ExpConfig> fig9Configs();

/**
 * Run @p workload under @p cfg.
 * @param quota per-core iterations (0: the workload's default)
 * @param capture_stats fill RunResult::statsJson with the full stats tree
 */
RunResult runExperiment(const std::string &workload, const ExpConfig &cfg,
                        unsigned num_cores = 32, std::uint64_t quota = 0,
                        std::uint64_t seed = 1, bool capture_stats = false);

/** Build the SystemParams for a config (exposed for tests). */
SystemParams makeParams(const ExpConfig &cfg, unsigned num_cores,
                        std::uint64_t seed);

/**
 * Run @p workload with explicit SystemParams — the entry point for
 * microarchitectural ablations (AQ size, re-issue delay, lock-steal
 * threshold, ...) that ExpConfig does not expose.
 */
RunResult runExperimentParams(const std::string &workload,
                              const SystemParams &params,
                              const std::string &label,
                              std::uint64_t quota = 0,
                              bool capture_stats = false);

} // namespace rowsim

#endif // ROWSIM_SIM_EXPERIMENT_HH
