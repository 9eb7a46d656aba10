/**
 * @file
 * The one observability hook of a System.
 *
 * Every model component (Core, PrivateCache, Directory, Network) holds
 * one `Observer *`, null when every observability consumer is off, and
 * reports each event once, named for what happened in the model: an
 * atomic locked, a lock stall ended, a request queued behind a Blocked
 * line, a message was delivered. The observer decides what the event
 * feeds:
 *
 *  - a segment or overlapping leg of the atomic's span (sim/span.hh),
 *  - an aggregate of the attribution profiler (sim/profile.hh),
 *  - an event-level invariant check (sim/checker.hh),
 *  - a text line or Chrome trace record (common/trace.hh), and
 *  - the crash-dump ring, the last events replayed by
 *    System::dumpCrashDiagnostics.
 *
 * The observer owns the System's Profiler, SpanTracker, check mask,
 * trace categories and ring, so two Systems on one thread (or parallel
 * sweep jobs) never share a gate or a ring. Only the trace sink files
 * are per thread (Trace::instance()), so serial Systems append to one
 * text / JSON file as before.
 *
 * A site that only writes a text line uses ROWSIM_TRACE, which gates on
 * the component's observer pointer and this System's categories.
 */

#ifndef ROWSIM_SIM_OBSERVER_HH
#define ROWSIM_SIM_OBSERVER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "common/trace.hh"
#include "common/types.hh"
#include "mem/coherence.hh"
#include "sim/profile.hh"
#include "sim/span.hh"

namespace rowsim
{

struct AqEntry;
struct Msg;
class PrivateCache;
struct RunSpec;
struct SystemParams;

class Observer
{
  public:
    /** The observer @p spec asks for, or nullptr when it turns on no
     *  trace category, ring, check, profiler category or spans. */
    static std::unique_ptr<Observer> make(const RunSpec &spec,
                                          const SystemParams &params);

    Observer(const RunSpec &spec, const SystemParams &params);

    // ---- gates and consumers ----

    /** A text line of category @p c goes to the sink or the ring. */
    bool
    tracing(TraceCategory c) const
    {
        return (gate_ & static_cast<std::uint32_t>(c)) != 0;
    }
    /** Sink categories (text file and Chrome JSON). */
    std::uint32_t traceMask() const { return sinkMask_; }
    Profiler *profiler() const { return prof_.get(); }
    SpanTracker *spans() const { return spans_.get(); }

    /** Cycle-stamped printf-style text line: into the ring, and into
     *  the text sink when @p cat is a sink category. */
    void text(TraceCategory cat, Cycle cycle, const char *fmt, ...)
        __attribute__((format(printf, 4, 5)));

    /** The crash-dump ring, oldest first: the last text lines
     *  (ROWSIM_TRACE_RING events; 256 under checks or faults). */
    const std::deque<std::string> &recentTrace() const { return ring_; }

    // ---- core events ----

    /** Atomic @p seq dispatched with policy @p lazy. @return its span
     *  ID (0 when spans are off). */
    std::uint64_t atomicDispatched(CoreId core, SeqNum seq, Addr pc,
                                   bool lazy, Cycle now);
    /** The atomic of @p span entered lifetime phase @p seg. */
    void
    atomicPhase(std::uint64_t span, SpanSeg seg, Cycle now)
    {
        if (spans_)
            spans_->transition(span, seg, now);
    }
    /** The atomic sent its load-lock for @p line to the L1. */
    void atomicIssued(CoreId core, SeqNum seq, std::uint64_t span,
                      Addr line, bool lazy, Cycle now);
    /** The atomic took its value from older store @p store. */
    void atomicForwarded(CoreId core, SeqNum seq, std::uint64_t span,
                         Addr line, SeqNum store, Cycle now);
    /** The atomic locked its line (which @p cache must hold in M). */
    void atomicLocked(CoreId core, SeqNum seq, const AqEntry &a,
                      FillSource source, const PrivateCache *cache,
                      Cycle now);
    /** Another core stole the atomic's lock; it replays lazily. */
    void atomicForcedUnlock(CoreId core, SeqNum seq, std::uint64_t span,
                            Addr line, Cycle now);
    /** The atomic of @p span committed. */
    void
    atomicCommitted(std::uint64_t span, Cycle now)
    {
        if (spans_)
            spans_->close(span, now);
    }
    /** The atomic at the AQ head unlocked (its line, which @p cache must
     *  still hold in M). @return true when its per-PC latencies are
     *  profiled, so the core samples its latency histograms too. */
    bool atomicUnlocked(CoreId core, SeqNum seq, const AqEntry &a,
                        const PrivateCache *cache, Cycle now);
    /** The RoW predictor trained entry @p index (counter @p counter
     *  before the update) on an outcome. */
    void predictorTrained(CoreId core, Addr pc, unsigned index,
                          unsigned counter, bool predicted, bool contended,
                          Cycle now);

    /** @p retired of this cycle's commit slots retired; @p stall names
     *  what blocked the rest (only called when it is needed). */
    template <class Stall>
    void
    commitSlots(CoreId core, unsigned retired, Stall &&stall)
    {
        if (!prof_ || !prof_->on(ProfCategory::Cpi))
            return;
        prof_->cpiSlots(core, CpiBucket::Retired, retired);
        if (retired < commitWidth_)
            prof_->cpiSlots(core, stall(), commitWidth_ - retired);
    }

    // ---- private-cache events ----

    /** An access to @p line missed (or needs an upgrade). */
    void cacheMissed(CoreId core, Addr line, std::uint64_t span,
                     bool exclusive, bool atomic, Cycle now);
    /** A fill for @p msg's line arrived, @p latency after it was sent. */
    void lineFilled(CoreId core, const Msg &msg, bool modified,
                    Cycle latency, Cycle now);
    /** An external request stalled since @p arrival against a locked
     *  line was applied after the unlock. */
    void lockStallEnded(CoreId core, const Msg &m, Cycle arrival,
                        Cycle now);
    /** ... or was applied after stealing the lock. */
    void lockStolen(CoreId core, const Msg &m, Cycle arrival, Cycle now);

    // ---- directory events ----

    /** Exclusive ownership of @p line moved between private caches. */
    void
    ownershipMoved(Addr line)
    {
        if (Profiler::LineProf *p = lineProf(line))
            p->ownerSwaps++;
    }
    /** @p msg queued behind a Blocked line (queue now @p depth deep). */
    void requestQueued(unsigned bank, const Msg &msg, std::size_t depth,
                       Cycle now);
    /** The queued request of @p span is being processed. */
    void
    requestDequeued(std::uint64_t span, Cycle now)
    {
        if (spans_)
            spans_->dirDequeued(span, now);
    }
    /** @p line left Blocked after [@p since, @p now]. */
    void blockedWindowClosed(unsigned bank, Addr line, std::uint64_t span,
                             CoreId requester, std::size_t queued,
                             Cycle since, Cycle now);

    // ---- network and System events ----

    /** @p msg (the @p order-th injected) was delivered. */
    void messageDelivered(const Msg &msg, std::uint64_t order, Cycle now);
    /** The idle fast-forward skipped cycles @p now + 1 .. @p next - 1. */
    void idleSkipped(Cycle now, Cycle next);

  private:
    /** Chrome records and text lines of @p c reach the sinks. */
    bool
    sinks(TraceCategory c) const
    {
        return (sinkMask_ & static_cast<std::uint32_t>(c)) != 0;
    }
    /** The open span @p id; nullptr when spans are off or it closed. */
    SpanTracker::Record *
    openSpan(std::uint64_t id)
    {
        return spans_ ? spans_->find(id) : nullptr;
    }
    /** @p line's contention row; nullptr unless lines are profiled. */
    Profiler::LineProf *
    lineProf(Addr line)
    {
        return prof_ && prof_->on(ProfCategory::Lines) ? &prof_->line(line)
                                                       : nullptr;
    }

    std::uint32_t sinkMask_;
    /** Crash-dump ring capacity in text lines (0: no ring). */
    std::size_t ringCap_;
    /** sinkMask_, or every category while the ring is on. */
    std::uint32_t gate_;
    std::uint32_t checkMask_;
    unsigned commitWidth_;
    bool rowPolicy_;
    std::unique_ptr<Profiler> prof_;
    std::unique_ptr<SpanTracker> spans_;
    std::deque<std::string> ring_; ///< the last ringCap_ text lines
};

/**
 * Text trace point of a component whose observer is @p obs: one branch
 * when the observer is null; the arguments are only evaluated when the
 * category is live.
 */
#define ROWSIM_TRACE(obs, cat, cycle, ...)                                 \
    do {                                                                   \
        if ((obs) && (obs)->tracing(cat))                                  \
            (obs)->text((cat), (cycle), __VA_ARGS__);                      \
    } while (0)

} // namespace rowsim

#endif // ROWSIM_SIM_OBSERVER_HH
