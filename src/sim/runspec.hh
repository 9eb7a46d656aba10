/**
 * @file
 * The resolved run specification: every ROWSIM_* environment knob, read
 * in one place, merged with the SystemParams that override it.
 *
 * This header is the knob reference. Each RunSpec field below names its
 * environment variable, its default, and the SystemParams field (if
 * any) that takes precedence. The table in runspec.cc lists every knob
 * exactly once with its parser and whether it affects a run's result;
 * runspec.cc is the only file that reads the environment.
 *
 * resolveRunSpec() re-reads the environment on every call: tests and
 * tools setenv between runs, and a sweep worker must see the same knobs
 * as a serial run. System resolves one spec per construction; the
 * experiment layer resolves one per run (sampling, store, checkpoint
 * and sink decisions). Resolution is pure: it parses and validates
 * (a malformed value is fatal) but opens no file and touches no gate.
 *
 * The result-store key hashes exactly the fields whose table entry is
 * flagged as affecting results (RunSpecKnob::key), so the key and the
 * run are derived from the same struct and cannot disagree.
 */

#ifndef ROWSIM_SIM_RUNSPEC_HH
#define ROWSIM_SIM_RUNSPEC_HH

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "common/timeseries.hh"
#include "common/trace.hh"
#include "common/types.hh"

namespace rowsim
{

class Ser;

/** Idle fast-forward mode (ROWSIM_FF). */
enum class FastForwardMode : std::uint8_t
{
    Off,
    On,
    /** Equivalence-assert mode: tick through each predicted idle
     *  window and panic if any instruction would have committed. */
    Check,
};

/** Warmup-checkpoint mode (ROWSIM_CKPT). */
enum class CkptMode : std::uint8_t
{
    Off,
    Save,    ///< run to the warmup point, write the checkpoint, continue
    Restore, ///< resume from the checkpoint (missing file is fatal)
    Auto,    ///< restore when the file exists, else run + save it
};

/** SMARTS sampling layout, `<n_ckpts>:<warm>:<detail>[:<conf>]`
 *  (iterations per core; confidence defaults to 0.95). */
struct SampleSpec
{
    bool active = false;
    unsigned checkpoints = 0;
    std::uint64_t warmIters = 0;
    std::uint64_t detailIters = 0;
    double confidence = 0.95;
};

struct RunSpec
{
    // ---- knobs that affect a run's result (store-keyed) ----

    /** ROWSIM_PROFILE (off; SystemParams::profileCategories): profiler
     *  categories "cpi,lines,row,pcs,check" / "all". */
    std::uint32_t profileMask = 0;
    /** ROWSIM_PROFILE_TOPK (16): lines kept in the profile dump. */
    std::uint64_t profileTopK = 16;
    /** ROWSIM_SPANS (off; SystemParams::spans): atomic span tracing. */
    bool spans = false;
    /** ROWSIM_SPANS_TOPK (64): slowest span records retained. */
    std::uint64_t spansTopK = 64;
    /** ROWSIM_STATS_INTERVAL (off; SystemParams::statsInterval):
     *  interval-sampler period in cycles; 8192 when only the time-series
     *  engine asks for one. */
    Cycle statsInterval = 0;
    /** ROWSIM_TS (off; SystemParams::timeseries): time-series engine. */
    bool timeseries = false;
    /** ROWSIM_TS_WINDOW (512): ring depth per metric, 1 .. 2^20. */
    unsigned tsWindow = TimeSeriesEngine::kDefaultWindow;
    /** ROWSIM_CONVERGE (off; SystemParams::converge):
     *  "<metric>:<rel_halfwidth>[:<confidence>]"; implies ROWSIM_TS. */
    ConvergeSpec converge;
    /** ROWSIM_MODE (detail; SystemParams::mode): "detail" or "func". */
    bool funcMode = false;
    /** ROWSIM_SAMPLE (off): SMARTS checkpointed sampling layout. */
    SampleSpec sample;
    /** ROWSIM_FAULTS (off; SystemParams::faultCategories): fault
     *  categories "netdelay,dirstall,evict,unblockdelay" / "all". */
    std::uint32_t faultMask = 0;
    /** ROWSIM_FAULTS_SEED (derived from the system seed;
     *  SystemParams::faultSeed). */
    std::uint64_t faultSeed = 0;
    /** ROWSIM_FAULTS_RATE (50; SystemParams::faultRate): faults per 10k
     *  opportunities. */
    unsigned faultRate = 50;

    // ---- simulation services that never change a result ----

    /** ROWSIM_FF (SystemParams::idleFastForward, which the variable
     *  overrides): 0, 1 or check; forced off under fault injection. */
    FastForwardMode ff = FastForwardMode::On;
    /** ROWSIM_CHECK (off; SystemParams::checkCategories): invariant
     *  checker categories "swmr,locks,leaks,messages,occupancy". */
    std::uint32_t checkMask = 0;
    /** ROWSIM_CHECK_INTERVAL (1024; SystemParams::checkInterval):
     *  cycles between checker sweeps. */
    Cycle checkInterval = 1024;
    /** ROWSIM_CKPT (off): off, save, restore or auto. Resolved to off,
     *  with ckptIgnored saying why, when the profiler, a convergence
     *  bound or span tracing is on (a restored run would differ from a
     *  cold one, and no key could tell them apart). */
    CkptMode ckpt = CkptMode::Off;
    const char *ckptIgnored = nullptr;
    /** ROWSIM_CKPT_AT (quota / 4): warmup point in iterations per core. */
    std::uint64_t ckptAt = 0;
    /** ROWSIM_CKPT_DIR (rowsim-ckpt): checkpoint directory. */
    std::string ckptDir = "rowsim-ckpt";

    // ---- live sinks: a stored result cannot replay them ----

    /** ROWSIM_TRACE (off), ROWSIM_TRACE_RING (off), ROWSIM_TRACE_FILE
     *  (stderr), ROWSIM_TRACE_JSON (rowsim.trace.json). The categories
     *  and the ring are this System's (its Observer); the sink files
     *  are opened once per thread, see Trace::initOnce. */
    TraceSetup trace;
    /** SystemParams::traceCategories: this System's categories in place
     *  of ROWSIM_TRACE's, without the environment's sinks. */
    std::uint32_t traceParamsMask = 0;
    /** ROWSIM_STATS_JSON (off): full stats tree of the last run. */
    std::string statsJson;
    /** ROWSIM_HEARTBEAT (off): JSONL progress stream path. */
    std::string heartbeat;
    /** ROWSIM_HEARTBEAT_MS (250): minimum gap between run events. */
    std::uint64_t heartbeatMs = 250;

    // ---- per-run record sinks ("-" = stdout) ----

    /** ROWSIM_REPORT (off): one JSON line per run. */
    std::string report;
    /** ROWSIM_PROFILE_JSON (off): one profiler record per run. */
    std::string profileJson;
    /** ROWSIM_SPANS_JSON (off): one span record per run. */
    std::string spansJson;
    /** ROWSIM_CRASH_JSON (off): crash diagnostics file. */
    std::string crashJson;
    /** ROWSIM_CRASH_CKPT (off): checkpoint written on a panic. */
    std::string crashCkpt;

    // ---- result store and sweeps ----

    /** ROWSIM_RESULTS (off): on/off for the content-addressed store. */
    bool results = false;
    /** ROWSIM_RESULTS_DIR (rowsim-results): store directory. */
    std::string resultsDir = "rowsim-results";
    /** ROWSIM_SWEEP_THREADS (hardware threads; 0 means 1): 0 = unset. */
    unsigned sweepThreads = 0;
    /** ROWSIM_SWEEP_ISOLATE (thread): thread or process. */
    bool sweepProcess = false;
    /** ROWSIM_SWEEP_TIMEOUT_MS (unlimited), ROWSIM_SWEEP_RETRIES (0),
     *  ROWSIM_SWEEP_BACKOFF_MS (100): process-isolation policy. */
    std::uint64_t sweepTimeoutMs = 0;
    unsigned sweepRetries = 0;
    std::uint64_t sweepBackoffMs = 100;

    /** ROWSIM_LOG_LEVEL (info): silent, warn or info. Read once per
     *  process, at the first diagnostic (see envLogLevel). */
    LogLevel logLevel = LogLevel::Info;

    /** Every table knob set in the environment, with its text, in table
     *  order (perf_baseline echoes these into its history entries). */
    std::vector<std::pair<const char *, std::string>> given;

    /** The text @p name was set to, "" when unset. */
    std::string envText(const char *name) const;

    /** Time-series engine on (ROWSIM_TS, or implied by a convergence
     *  bound). */
    bool tsOn() const { return timeseries || converge.active; }

    /** True when the run feeds a live sink that a stored RunResult
     *  cannot reproduce (stats JSON, any trace, heartbeat): such runs
     *  neither load from nor store to the result store. */
    bool
    liveSinks() const
    {
        return !statsJson.empty() || trace.mask != 0 ||
               traceParamsMask != 0 || !heartbeat.empty();
    }
};

/** One row of the knob table. */
struct RunSpecKnob
{
    const char *name;
    /** Default, as documented on the RunSpec field. */
    const char *defaultText;
    /** A valid non-default value (docs and the key-sensitivity test). */
    const char *example;
    /** The SystemParams text field that overrides the variable when
     *  non-empty (parsed the same way), or nullptr. */
    std::string SystemParams::*param;
    /** Apply the text @p value of knob @p name to the spec; fatal when
     *  malformed. */
    void (*parse)(RunSpec &spec, const char *name, const char *value);
    /** Append the resolved field to a store-key preimage; nullptr for
     *  knobs that never change a run's result. */
    void (*key)(Ser &s, const RunSpec &spec);

    bool affectsResult() const { return key != nullptr; }
};

/** The knob table, one row per ROWSIM_* variable. */
std::span<const RunSpecKnob> runSpecKnobs();

/**
 * Resolve the environment and @p params into a RunSpec. Explicit params
 * override the environment (except ROWSIM_FF, which overrides
 * SystemParams::idleFastForward). The first call in a process also
 * warns once about each ROWSIM_* variable the table does not know.
 */
RunSpec resolveRunSpec(const SystemParams &params);

/** ROWSIM_* variables set in the environment that no table row (and no
 *  test-only reader) knows: typos. */
std::vector<std::string> unknownRunSpecKnobs();

/** ROWSIM_LOG_LEVEL alone: the logger's first-use initialiser, which
 *  must not resolve (and maybe fail on) the other knobs. */
LogLevel envLogLevel();

/** Temporary-file root for sweep handoffs: $TMPDIR, else /tmp. */
std::string hostTmpDir();

} // namespace rowsim

#endif // ROWSIM_SIM_RUNSPEC_HH
