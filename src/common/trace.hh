/**
 * @file
 * Per-category trace sinks.
 *
 * Inspired by gem5's DPRINTF flags and Chrome's trace-event format: every
 * trace record belongs to a TraceCategory. Two sinks are supported and
 * can be active simultaneously:
 *
 *  - a human-readable, cycle-stamped text log (stderr by default, or a
 *    file via ROWSIM_TRACE_FILE), and
 *  - a Chrome trace-event JSON writer (ROWSIM_TRACE_JSON; loadable in
 *    Perfetto / chrome://tracing) rendering lock hold intervals, AQ
 *    residency, directory Blocked-state windows and mesh message
 *    lifetimes as duration events on named per-component tracks.
 *
 * Categories are selected with the ROWSIM_TRACE environment variable
 * (comma-separated, e.g. ROWSIM_TRACE=atomic,coherence or "all") or
 * programmatically via SystemParams::traceCategories. The gate is the
 * System's: its Observer (sim/observer.hh) holds the categories and the
 * crash-dump ring and decides which records reach these sinks. Only the
 * sink files are per thread, so the Systems a thread runs one after the
 * other write one text / JSON file, and parallel sweep jobs never share
 * one (see scopeToJob).
 */

#ifndef ROWSIM_COMMON_TRACE_HH
#define ROWSIM_COMMON_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/types.hh"

namespace rowsim
{

/** One bit per subsystem; combined into the runtime trace mask. */
enum class TraceCategory : std::uint32_t
{
    Pipeline  = 1u << 0, ///< dispatch / issue / commit / SB drain
    Atomic    = 1u << 1, ///< atomic lifecycle: decision, lock, unlock
    Coherence = 1u << 2, ///< L1/L2 fills, stalls, forced unlocks
    Directory = 1u << 3, ///< Blocked windows, queued requests
    Network   = 1u << 4, ///< message inject / deliver
    Predictor = 1u << 5, ///< RoW predictions, outcomes, updates
    Queue     = 1u << 6, ///< LQ / SQ / AQ allocate + free
    Span      = 1u << 7, ///< atomic lifetime spans (sim/span.hh)
};

constexpr std::uint32_t traceCategoryAll = (1u << 8) - 1;

const char *traceCategoryName(TraceCategory c);

/**
 * Parse a ROWSIM_TRACE category list ("atomic,coherence", "all",
 * "none", "off") into a bitmask; see parseCategoryList.
 */
std::uint32_t parseTraceCategories(const std::string &spec);

/** The environment's trace request (ROWSIM_TRACE, ROWSIM_TRACE_RING,
 *  ROWSIM_TRACE_FILE, ROWSIM_TRACE_JSON), resolved by resolveRunSpec. */
struct TraceSetup
{
    /** Sink categories; 0 opens no sink. */
    std::uint32_t mask = 0;
    /** Retroactive ring capacity in events; 0 leaves the ring off. */
    std::size_t ring = 0;
    /** Text sink path; empty = stderr. */
    std::string file;
    /** Chrome-trace JSON path; empty = "rowsim.trace.json". */
    std::string json;
};

/** Chrome-trace process-id conventions (one "process" per component). */
constexpr int tracePidDirBase = 1000; ///< directory bank b -> 1000 + b
constexpr int tracePidNetwork = 2000; ///< the mesh

/** Per-core thread-id conventions within a core's process. */
constexpr int traceTidPipeline = 0;
constexpr int traceTidAtomics = 1;
constexpr int traceTidPredictor = 2;
constexpr int traceTidCache = 3;
constexpr int traceTidSpans = 4;

class Trace
{
  public:
    /** This thread's sinks. */
    static Trace &instance();

    /**
     * One-time initialisation from the environment's request; idempotent
     * per thread (until scopeToJob). System calls this at construction
     * so env-var tracing works for every bench and example without code
     * changes. When @p env selects categories, the text sink opens its
     * file (if named) and the Chrome trace opens its JSON, by default
     * "rowsim.trace.json" in the working directory.
     */
    static void initOnce(const TraceSetup &env);

    /**
     * Scope this thread's trace sinks to one sweep job: close any open
     * sinks and re-arm initOnce() with @p key as the job key, so the
     * ROWSIM_TRACE_FILE / ROWSIM_TRACE_JSON paths of the job's System
     * are suffixed (see suffixJobPath) and concurrent jobs never
     * clobber or interleave one file.
     */
    static void scopeToJob(const std::string &key);

    /** This thread's job key ("" outside a sweep job). Other per-job
     *  sinks (ROWSIM_PROFILE_JSON, ROWSIM_SPANS_JSON) consult it. */
    static const std::string &jobKey();

    /** Redirect the text sink. @p owned: close on replacement/exit. */
    void setTextSink(std::FILE *f, bool owned);

    /** Open the Chrome-trace JSON sink. @return false on I/O error. */
    bool openJson(const std::string &path);
    /** Write the JSON footer and close the sink (idempotent). */
    void closeJson();
    /** Flush + close every sink (called from the destructor). */
    void closeAll();

    /** One cycle-stamped text line (the caller formatted @p line). */
    void text(TraceCategory cat, Cycle cycle, const char *line);

    // ----- Chrome trace-event emission -------------------------------
    // Written when the JSON sink is open; the caller gates on its
    // System's categories (sim/observer.hh). `args_json` is either
    // empty or a complete JSON object, e.g. "{\"seq\":12}". Cycles map
    // 1:1 to trace microseconds.

    /** Complete ("X") duration event — for non-overlapping intervals on
     *  one track (e.g. a core's sequential lock holds). */
    void complete(TraceCategory cat, int pid, int tid, const char *name,
                  Cycle start, Cycle end, const std::string &args_json = "");

    /** Async ("b"/"e") duration pair — for intervals that may overlap on
     *  a track (AQ residency, directory Blocked windows, messages). */
    void span(TraceCategory cat, int pid, int tid, const char *name,
              std::uint64_t id, Cycle start, Cycle end,
              const std::string &args_json = "");

    /** Instant ("i") event. */
    void instant(TraceCategory cat, int pid, int tid, const char *name,
                 Cycle ts, const std::string &args_json = "");

    /** Flow ("s"/"t"/"f") event: arrows between slices on different
     *  tracks (e.g. a span's remote leg crossing core -> network).
     *  @p phase is 's' (start), 't' (step) or 'f' (finish). */
    void flow(TraceCategory cat, int pid, int tid, const char *name,
              std::uint64_t id, Cycle ts, char phase);

    /** Counter ("C") event: one numeric series per (pid, name). */
    void counter(TraceCategory cat, int pid, const char *name, Cycle ts,
                 double value);

    /** Name a Chrome-trace process / thread track (metadata events). */
    void nameProcess(int pid, const std::string &name);
    void nameThread(int pid, int tid, const std::string &name);

    bool jsonOpen() const { return json_ != nullptr; }
    std::uint64_t eventsEmitted() const { return events_; }

    Trace(const Trace &) = delete;
    Trace &operator=(const Trace &) = delete;

  private:
    Trace() = default;
    ~Trace();

    void emitJson(const std::string &record);

    /** Per-thread "initOnce already ran" latch. */
    static inline thread_local bool envInitDone_ = false;
    /** This thread's sweep job key ("" on the main thread). */
    static inline thread_local std::string jobKey_;

    std::FILE *textSink_ = nullptr; ///< nullptr -> stderr
    bool ownTextSink_ = false;
    std::FILE *json_ = nullptr;
    bool jsonFirst_ = true;
    std::uint64_t events_ = 0;
};

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Suffix an output path with a sweep job key: the key is inserted
 * before the last extension ("trace.json" + "j3" -> "trace.j3.json";
 * extensionless paths get a plain suffix). An empty key returns the
 * path unchanged.
 */
std::string suffixJobPath(const std::string &path, const std::string &key);

} // namespace rowsim

#endif // ROWSIM_COMMON_TRACE_HH
