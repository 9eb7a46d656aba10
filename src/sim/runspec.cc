#include "sim/runspec.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <type_traits>

#include <unistd.h>

#include "sim/checker.hh"
#include "sim/faults.hh"
#include "sim/profile.hh"
#include "sim/sampling.hh"
#include "sim/snapshot.hh"
#include "sim/span.hh"

namespace rowsim
{

namespace
{

/** Environment text of @p name; nullptr when unset or empty. */
const char *
envValue(const char *name)
{
    const char *v = std::getenv(name);
    return v && *v ? v : nullptr;
}

/** Index of @p v in @p valid; fatal, listing the valid values, if none. */
unsigned
choice(const char *name, const std::string &v,
       std::initializer_list<const char *> valid)
{
    unsigned i = 0;
    std::string list;
    for (const char *c : valid) {
        if (v == c)
            return i;
        list += (i++ ? ", " : "") + std::string(c);
    }
    ROWSIM_FATAL("bad %s '%s' (valid: %s)", name, v.c_str(), list.c_str());
}

// Field setters and key writers shared by the table rows.
template <auto F>
void
text(RunSpec &s, const char *, const char *v)
{
    s.*F = v;
}

template <auto F>
void
number(RunSpec &s, const char *name, const char *v)
{
    s.*F = static_cast<std::remove_reference_t<decltype(s.*F)>>(
        parseEnvU64(name, v));
}

template <auto F>
void
positive(RunSpec &s, const char *name, const char *v)
{
    number<F>(s, name, v);
    if (s.*F == 0)
        ROWSIM_FATAL("%s: malformed value '%s' (expected a positive "
                     "decimal number)",
                     name, v);
}

template <auto F>
void
onOff(RunSpec &s, const char *name, const char *v)
{
    s.*F = parseOnOffSpec(name, v);
}

template <auto F, std::uint32_t (*Parse)(const std::string &)>
void
categories(RunSpec &s, const char *, const char *v)
{
    s.*F = Parse(v);
}

template <auto F>
void
key(Ser &k, const RunSpec &s)
{
    k.u64(static_cast<std::uint64_t>(s.*F));
}

/** Variables read outside the library (test drivers), never typos. */
constexpr const char *kExternalKnobs[] = {"ROWSIM_TORTURE_SEEDS"};

using R = RunSpec;
using P = SystemParams;

// One row per ROWSIM_* knob: name, default, an example value, the
// SystemParams text field that overrides it, the parser, and — for
// knobs that change what a run produces — the store-key writer.
const RunSpecKnob kKnobs[] = {
    // ---- result-affecting ----
    {"ROWSIM_PROFILE", "off", "pcs", &P::profileCategories,
     categories<&R::profileMask, parseProfileCategories>,
     key<&R::profileMask>},
    {"ROWSIM_PROFILE_TOPK", "16", "4", nullptr, positive<&R::profileTopK>,
     key<&R::profileTopK>},
    {"ROWSIM_SPANS", "off", "on", &P::spans, onOff<&R::spans>,
     key<&R::spans>},
    {"ROWSIM_SPANS_TOPK", "64", "4", nullptr, positive<&R::spansTopK>,
     key<&R::spansTopK>},
    {"ROWSIM_STATS_INTERVAL", "off", "1024", nullptr,
     number<&R::statsInterval>, key<&R::statsInterval>},
    {"ROWSIM_TS", "off", "on", &P::timeseries, onOff<&R::timeseries>,
     key<&R::timeseries>},
    {"ROWSIM_TS_WINDOW", "512", "64", nullptr,
     [](R &s, const char *name, const char *v) {
         const std::uint64_t w = parseEnvU64(name, v);
         if (w == 0 || w > (1u << 20))
             ROWSIM_FATAL("bad %s '%s' (valid: 1 .. 1048576)", name, v);
         s.tsWindow = static_cast<unsigned>(w);
     },
     key<&R::tsWindow>},
    {"ROWSIM_CONVERGE", "off", "instructions:0.05", &P::converge,
     [](R &s, const char *name, const char *v) {
         s.converge = parseConvergeSpec(name, v);
     },
     [](Ser &k, const R &s) {
         k.str(s.converge.metric);
         k.f64(s.converge.relHalfwidth);
         k.f64(s.converge.confidence);
     }},
    {"ROWSIM_MODE", "detail", "func", &P::mode,
     [](R &s, const char *name, const char *v) {
         s.funcMode = choice(name, v, {"detail", "func"});
     },
     key<&R::funcMode>},
    {"ROWSIM_SAMPLE", "off", "4:1:4", nullptr,
     [](R &s, const char *name, const char *v) {
         s.sample = parseSampleSpec(name, v);
     },
     [](Ser &k, const R &s) {
         k.u32(s.sample.checkpoints);
         k.u64(s.sample.warmIters);
         k.u64(s.sample.detailIters);
         k.f64(s.sample.confidence);
     }},
    {"ROWSIM_FAULTS", "off", "netdelay", &P::faultCategories,
     categories<&R::faultMask, parseFaultCategories>, key<&R::faultMask>},
    {"ROWSIM_FAULTS_SEED", "derived", "7", nullptr, number<&R::faultSeed>,
     key<&R::faultSeed>},
    {"ROWSIM_FAULTS_RATE", "50", "500", nullptr, number<&R::faultRate>,
     key<&R::faultRate>},

    // ---- simulation services ----
    {"ROWSIM_FF", "1", "check", nullptr,
     [](R &s, const char *name, const char *v) {
         s.ff = FastForwardMode(choice(name, v, {"0", "1", "check"}));
     },
     nullptr},
    {"ROWSIM_CHECK", "off", "all", &P::checkCategories,
     categories<&R::checkMask, parseCheckCategories>, nullptr},
    {"ROWSIM_CHECK_INTERVAL", "1024", "64", nullptr,
     number<&R::checkInterval>, nullptr},
    {"ROWSIM_CKPT", "off", "auto", nullptr,
     [](R &s, const char *name, const char *v) {
         s.ckpt = CkptMode(
             choice(name, v, {"off", "save", "restore", "auto"}));
     },
     nullptr},
    {"ROWSIM_CKPT_AT", "quota/4", "10", nullptr, number<&R::ckptAt>,
     nullptr},
    {"ROWSIM_CKPT_DIR", "rowsim-ckpt", "ckpt", nullptr, text<&R::ckptDir>,
     nullptr},

    // ---- live sinks ----
    {"ROWSIM_TRACE", "off", "atomic", nullptr,
     [](R &s, const char *, const char *v) {
         s.trace.mask = parseTraceCategories(v);
     },
     nullptr},
    {"ROWSIM_TRACE_RING", "off", "256", nullptr,
     [](R &s, const char *name, const char *v) {
         s.trace.ring = parseEnvU64(name, v);
     },
     nullptr},
    {"ROWSIM_TRACE_FILE", "stderr", "run.trace.txt", nullptr,
     [](R &s, const char *, const char *v) { s.trace.file = v; }, nullptr},
    {"ROWSIM_TRACE_JSON", "rowsim.trace.json", "run.trace.json", nullptr,
     [](R &s, const char *, const char *v) { s.trace.json = v; }, nullptr},
    {"ROWSIM_STATS_JSON", "off", "-", nullptr, text<&R::statsJson>,
     nullptr},
    {"ROWSIM_HEARTBEAT", "off", "hb.jsonl", nullptr, text<&R::heartbeat>,
     nullptr},
    {"ROWSIM_HEARTBEAT_MS", "250", "1000", nullptr,
     number<&R::heartbeatMs>, nullptr},

    // ---- per-run record sinks ----
    {"ROWSIM_REPORT", "off", "-", nullptr, text<&R::report>, nullptr},
    {"ROWSIM_PROFILE_JSON", "off", "-", nullptr, text<&R::profileJson>,
     nullptr},
    {"ROWSIM_SPANS_JSON", "off", "-", nullptr, text<&R::spansJson>,
     nullptr},
    {"ROWSIM_CRASH_JSON", "off", "crash.json", nullptr,
     text<&R::crashJson>, nullptr},
    {"ROWSIM_CRASH_CKPT", "off", "crash.ckpt", nullptr,
     text<&R::crashCkpt>, nullptr},

    // ---- result store and sweeps ----
    {"ROWSIM_RESULTS", "off", "on", nullptr, onOff<&R::results>, nullptr},
    {"ROWSIM_RESULTS_DIR", "rowsim-results", "results", nullptr,
     text<&R::resultsDir>, nullptr},
    {"ROWSIM_SWEEP_THREADS", "hardware threads", "3", nullptr,
     [](R &s, const char *name, const char *v) {
         number<&R::sweepThreads>(s, name, v);
         s.sweepThreads = std::max(s.sweepThreads, 1u);
     },
     nullptr},
    {"ROWSIM_SWEEP_ISOLATE", "thread", "process", nullptr,
     [](R &s, const char *name, const char *v) {
         s.sweepProcess = choice(name, v, {"thread", "process"});
     },
     nullptr},
    {"ROWSIM_SWEEP_TIMEOUT_MS", "unlimited", "5000", nullptr,
     number<&R::sweepTimeoutMs>, nullptr},
    {"ROWSIM_SWEEP_RETRIES", "0", "2", nullptr, number<&R::sweepRetries>,
     nullptr},
    {"ROWSIM_SWEEP_BACKOFF_MS", "100", "7", nullptr,
     number<&R::sweepBackoffMs>, nullptr},

    {"ROWSIM_LOG_LEVEL", "info", "warn", nullptr,
     [](R &s, const char *, const char *v) { s.logLevel = parseLogLevel(v); },
     nullptr},
};

} // namespace

std::span<const RunSpecKnob>
runSpecKnobs()
{
    return kKnobs;
}

std::string
RunSpec::envText(const char *name) const
{
    for (const auto &g : given) {
        if (std::strcmp(g.first, name) == 0)
            return g.second;
    }
    return "";
}

std::vector<std::string>
unknownRunSpecKnobs()
{
    std::vector<std::string> unknown;
    for (char **e = environ; e && *e; e++) {
        const char *eq = std::strchr(*e, '=');
        if (std::strncmp(*e, "ROWSIM_", 7) != 0 || !eq)
            continue;
        const std::string name(*e, static_cast<std::size_t>(eq - *e));
        bool known = false;
        for (const RunSpecKnob &k : kKnobs)
            known = known || name == k.name;
        for (const char *ext : kExternalKnobs)
            known = known || name == ext;
        if (!known)
            unknown.push_back(name);
    }
    return unknown;
}

RunSpec
resolveRunSpec(const SystemParams &params)
{
    static std::once_flag typoCheck;
    std::call_once(typoCheck, [] {
        for (const std::string &name : unknownRunSpecKnobs())
            ROWSIM_WARN("unknown environment variable %s (not a RoWSim "
                        "knob; see src/sim/runspec.hh)",
                        name.c_str());
    });

    RunSpec s;
    // ROWSIM_FF is the one knob the environment overrides params for.
    s.ff = params.idleFastForward ? FastForwardMode::On
                                  : FastForwardMode::Off;
    for (const RunSpecKnob &k : kKnobs) {
        if (const char *v = envValue(k.name)) {
            k.parse(s, k.name, v);
            s.given.emplace_back(k.name, v);
        }
        // Explicit params override the environment.
        if (k.param && !(params.*k.param).empty())
            k.parse(s, k.name, (params.*k.param).c_str());
    }
    if (params.statsInterval)
        s.statsInterval = params.statsInterval;
    if (params.faultSeed)
        s.faultSeed = params.faultSeed;
    if (params.faultRate)
        s.faultRate = params.faultRate;
    if (params.checkInterval)
        s.checkInterval = params.checkInterval;
    if (!params.traceCategories.empty())
        s.traceParamsMask = parseTraceCategories(params.traceCategories);

    // Derived settings.
    if (s.faultSeed == 0) // replayable without any seed given
        s.faultSeed = params.seed * 0x9e3779b97f4a7c15ULL + 1;
    if (s.faultRate == 0)
        s.faultRate = 50;
    if (s.tsOn() && s.statsInterval == 0)
        s.statsInterval = 8192; // default cadence when only the engine asked
    // The injector draws from its RNG every cycle, so eliding ticks
    // would change the fault schedule.
    if (s.faultMask)
        s.ff = FastForwardMode::Off;
    // A restored run must equal a cold one. The snapshot format carries
    // no profiler state; a convergence bound can stop before the warmup
    // point; and a restore truncates the spans in flight at the image.
    if (s.ckpt != CkptMode::Off) {
        if (s.profileMask)
            s.ckptIgnored = "the attribution profiler is active and the "
                            "snapshot format does not carry its state";
        else if (s.converge.active)
            s.ckptIgnored = "ROWSIM_CONVERGE bounds the run at a "
                            "data-dependent cycle";
        else if (s.spans)
            s.ckptIgnored = "span tracing is on and a restore truncates "
                            "the spans in flight at the checkpoint";
        if (s.ckptIgnored)
            s.ckpt = CkptMode::Off;
    }
    return s;
}

LogLevel
envLogLevel()
{
    const char *v = envValue("ROWSIM_LOG_LEVEL");
    return v ? parseLogLevel(v) : LogLevel::Info;
}

std::string
hostTmpDir()
{
    const char *v = envValue("TMPDIR");
    return v ? v : "/tmp";
}

} // namespace rowsim
