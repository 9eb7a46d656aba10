#include "sim/observer.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "common/config.hh"
#include "common/log.hh"
#include "cpu/atomic_queue.hh"
#include "mem/l1cache.hh"
#include "net/message.hh"
#include "sim/checker.hh"
#include "sim/runspec.hh"

namespace rowsim
{

/** A text line of this observer, formatted only when @p cat is live. */
#define TEXT(cat, cycle, ...)                                              \
    do {                                                                   \
        if (tracing(cat))                                                  \
            text((cat), (cycle), __VA_ARGS__);                             \
    } while (0)

namespace
{

/** A %llu / %llx operand. */
unsigned long long
ull(std::uint64_t v)
{
    return v;
}

/** Cycles from @p since to @p now (0 if out of order). */
std::uint64_t
elapsed(Cycle since, Cycle now)
{
    return now >= since ? now - since : 0;
}

} // namespace

std::unique_ptr<Observer>
Observer::make(const RunSpec &spec, const SystemParams &params)
{
    auto obs = std::make_unique<Observer>(spec, params);
    if (!obs->gate_ && !obs->checkMask_ && !obs->prof_ && !obs->spans_)
        obs.reset();
    return obs;
}

Observer::Observer(const RunSpec &spec, const SystemParams &params)
    : sinkMask_(spec.traceParamsMask ? spec.traceParamsMask
                                     : spec.trace.mask),
      // Checks and faults keep a ring so their crash dumps can replay
      // what led up to a violation even with every sink off.
      ringCap_(spec.trace.ring ? spec.trace.ring
               : spec.checkMask || spec.faultMask ? 256 : 0),
      gate_(ringCap_ ? traceCategoryAll : sinkMask_),
      checkMask_(spec.checkMask), commitWidth_(params.core.commitWidth),
      rowPolicy_(params.core.atomicPolicy == AtomicPolicy::RoW)
{
    if (spec.profileMask) {
        prof_ = std::make_unique<Profiler>(spec.profileMask, params.numCores,
                                           commitWidth_, spec.profileTopK);
    }
    if (spec.spans) {
        spans_ = std::make_unique<SpanTracker>(spec.spansTopK,
                                               sinks(TraceCategory::Span));
    }
}

// ---------------------------------------------------------------------
// Trace records
// ---------------------------------------------------------------------

void
Observer::text(TraceCategory cat, Cycle cycle, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    if (ringCap_) {
        if (ring_.size() == ringCap_)
            ring_.pop_front();
        ring_.push_back(strprintf("%12llu [%s] %s", ull(cycle),
                                  traceCategoryName(cat), buf));
    }
    if (sinks(cat))
        Trace::instance().text(cat, cycle, buf);
}

// ---------------------------------------------------------------------
// Core events
// ---------------------------------------------------------------------

std::uint64_t
Observer::atomicDispatched(CoreId core, SeqNum seq, Addr pc, bool lazy,
                           Cycle now)
{
    const std::uint64_t id = spans_ ? spans_->open(core, pc, lazy, now) : 0;
    const char *policy = lazy ? "lazy" : "eager";
    TEXT(TraceCategory::Atomic, now,
         "core%u dispatch seq=%llu pc=%#llx policy=%s", core, ull(seq),
         ull(pc), policy);
    if (sinks(TraceCategory::Atomic)) {
        Trace::instance().instant(
            TraceCategory::Atomic, static_cast<int>(core), traceTidAtomics,
            "dispatch", now,
            strprintf("{\"seq\":%llu,\"policy\":\"%s\"}", ull(seq), policy));
    }
    return id;
}

void
Observer::atomicIssued(CoreId core, SeqNum seq, std::uint64_t span,
                       Addr line, bool lazy, Cycle now)
{
    TEXT(TraceCategory::Atomic, now,
         "core%u issue seq=%llu line=%#llx mode=%s", core, ull(seq),
         ull(line), lazy ? "lazy" : "eager");
    if (spans_)
        spans_->transition(span, SpanSeg::Execute, now, line);
}

void
Observer::atomicForwarded(CoreId core, SeqNum seq, std::uint64_t span,
                          Addr line, SeqNum store, Cycle now)
{
    // Value consumed now; the remaining wait until the forwarding store
    // writes is an SB-drain dependency.
    if (spans_)
        spans_->transition(span, SpanSeg::SbDrain, now, line);
    TEXT(TraceCategory::Atomic, now,
         "core%u forwarded seq=%llu line=%#llx from store seq=%llu", core,
         ull(seq), ull(line), ull(store));
}

void
Observer::atomicLocked(CoreId core, SeqNum seq, const AqEntry &a,
                       FillSource source, const PrivateCache *cache,
                       Cycle now)
{
    ROWSIM_CHECK_EVENT(checkMask_, CheckCategory::Locks,
                       cache->lineState(a.line()) == CacheState::Modified,
                       "core%u seq %llu locking line %#llx not held in M",
                       core, ull(seq), ull(a.line()));
    if (spans_)
        spans_->transition(a.spanId, SpanSeg::LockHeld, now);
    if (Profiler::LineProf *p = lineProf(a.line())) {
        p->acquires++;
        if (core < 64)
            p->coresMask |= 1ull << core;
    }
    TEXT(TraceCategory::Atomic, now,
         "core%u lock seq=%llu line=%#llx source=%d", core, ull(seq),
         ull(a.line()), static_cast<int>(source));
}

void
Observer::atomicForcedUnlock(CoreId core, SeqNum seq, std::uint64_t span,
                             Addr line, Cycle now)
{
    if (spans_)
        spans_->replay(span, now);
    TEXT(TraceCategory::Atomic, now,
         "core%u forcedUnlock seq=%llu line=%#llx (replaying lazy)", core,
         ull(seq), ull(line));
    if (sinks(TraceCategory::Atomic)) {
        Trace::instance().instant(
            TraceCategory::Atomic, static_cast<int>(core), traceTidAtomics,
            "forcedUnlock", now,
            strprintf("{\"seq\":%llu,\"line\":\"%#llx\"}", ull(seq),
                      ull(line)));
    }
}

bool
Observer::atomicUnlocked(CoreId core, SeqNum seq, const AqEntry &a,
                         const PrivateCache *cache, Cycle now)
{
    ROWSIM_CHECK_EVENT(checkMask_, CheckCategory::Locks,
                       cache->lineState(a.line()) == CacheState::Modified,
                       "core%u seq %llu unlocking line %#llx no longer in M "
                       "(lock lost while held)",
                       core, ull(seq), ull(a.line()));
    const Addr line = a.line();
    const bool locked = a.lockCycle != invalidCycle;
    const bool timed = locked && a.issueCycle != invalidCycle;
    if (timed && sinks(TraceCategory::Atomic)) {
        // The lock hold interval (sequential per core) and the atomic's
        // whole AQ residency (overlapping -> async span).
        Trace &t = Trace::instance();
        t.complete(TraceCategory::Atomic, static_cast<int>(core),
                   traceTidAtomics, "lock", a.lockCycle, now,
                   strprintf("{\"seq\":%llu,\"line\":\"%#llx\","
                             "\"contended\":%d,\"oracle\":%d}",
                             ull(seq), ull(line), a.contended ? 1 : 0,
                             a.oracleContended ? 1 : 0));
        t.span(TraceCategory::Atomic, static_cast<int>(core), traceTidAtomics,
               "aqResidency", seq, a.dispatchCycle, now,
               strprintf("{\"seq\":%llu,\"lazy\":%d}", ull(seq),
                         a.predictedContended ? 1 : 0));
    }
    TEXT(TraceCategory::Atomic, now,
         "core%u unlock seq=%llu line=%#llx held=%llu contended=%d "
         "oracle=%d",
         core, ull(seq), ull(line), ull(locked ? now - a.lockCycle : 0),
         a.contended ? 1 : 0, a.oracleContended ? 1 : 0);
    if (!prof_)
        return false;

    if (Profiler::LineProf *p = locked ? lineProf(line) : nullptr) {
        p->holdCycles += now - a.lockCycle;
        if (a.contended)
            p->contendedUnlocks++;
    }
    const bool pcs = prof_->on(ProfCategory::Pcs) && timed;
    if (pcs) {
        prof_->pcSample(a.pc, a.issueCycle - a.dispatchCycle,
                        a.lockCycle - a.issueCycle, now - a.lockCycle);
    }
    if (prof_->on(ProfCategory::Row) && rowPolicy_) {
        // Mispredict cost: a predicted-lazy atomic that saw no
        // contention wasted its ready->issue wait; a predicted-eager
        // atomic that hit contention paid a contended acquisition.
        std::uint64_t cost = 0;
        if (a.predictedContended && !a.contended &&
            a.readyCycle != invalidCycle && a.issueCycle != invalidCycle) {
            cost = a.issueCycle - a.readyCycle;
        } else if (!a.predictedContended && a.contended && timed) {
            cost = a.lockCycle - a.issueCycle;
        }
        prof_->rowOutcome(a.pc, a.predictedContended, a.contended, cost);
    }
    return pcs;
}

void
Observer::predictorTrained(CoreId core, Addr pc, unsigned index,
                           unsigned counter, bool predicted, bool contended,
                           Cycle now)
{
    TEXT(TraceCategory::Predictor, now,
         "core%u predictor pc=%#llx idx=%u ctr=%u predicted=%d actual=%d",
         core, ull(pc), index, counter, predicted ? 1 : 0,
         contended ? 1 : 0);
    if (predicted != contended && sinks(TraceCategory::Predictor)) {
        Trace::instance().instant(
            TraceCategory::Predictor, static_cast<int>(core),
            traceTidPredictor, "mispredict", now,
            strprintf("{\"pc\":\"%#llx\",\"predicted\":%d,\"actual\":%d}",
                      ull(pc), predicted ? 1 : 0, contended ? 1 : 0));
    }
}

// ---------------------------------------------------------------------
// Private-cache events
// ---------------------------------------------------------------------

void
Observer::cacheMissed(CoreId core, Addr line, std::uint64_t span,
                      bool exclusive, bool atomic, Cycle now)
{
    TEXT(TraceCategory::Coherence, now,
         "l1d%u miss line=%#llx excl=%d atomic=%d", core, ull(line),
         exclusive ? 1 : 0, atomic ? 1 : 0);
    // The atomic's span leaves execute here; whether the request goes
    // out now, coalesces, or waits for a free MSHR, it is in the memory
    // system either way (idempotent on drainPending re-entry).
    if (spans_)
        spans_->transition(span, SpanSeg::L1Miss, now);
}

void
Observer::lineFilled(CoreId core, const Msg &msg, bool modified,
                     Cycle latency, Cycle now)
{
    // A cache-to-cache fill means the line moved between private caches
    // (ping-pong ingredient).
    if (msg.fromPrivateCache) {
        if (Profiler::LineProf *p = lineProf(msg.line))
            p->remoteFills++;
    }
    TEXT(TraceCategory::Coherence, now,
         "l1d%u fill line=%#llx state=%s from=%s latency=%llu", core,
         ull(msg.line), modified ? "M" : "S",
         msg.fromPrivateCache ? "remote-cache"
         : msg.fromMemory     ? "memory"
                              : "llc",
         ull(latency));
}

void
Observer::lockStallEnded(CoreId core, const Msg &m, Cycle arrival,
                         Cycle now)
{
    if (Profiler::LineProf *p = lineProf(m.line)) {
        p->lockStalls++;
        p->lockStallCycles += now - m.sent;
    }
    // The victim span (the remote requester this Fwd/Inv serves) spent
    // [arrival, now] against the AQ lock.
    if (SpanTracker::Record *r = openSpan(m.spanId))
        r->lockStall += elapsed(arrival, now);
    if (sinks(TraceCategory::Coherence)) {
        Trace::instance().complete(
            TraceCategory::Coherence, static_cast<int>(core), traceTidCache,
            "lockStall", arrival, now,
            strprintf("{\"line\":\"%#llx\",\"type\":\"%s\",\"requester\":%u}",
                      ull(m.line), msgTypeName(m.type), m.requester));
    }
}

void
Observer::lockStolen(CoreId core, const Msg &m, Cycle arrival, Cycle now)
{
    if (Profiler::LineProf *p = lineProf(m.line))
        p->steals++;
    if (SpanTracker::Record *r = openSpan(m.spanId))
        r->lockStall += elapsed(arrival, now);
    TEXT(TraceCategory::Coherence, now,
         "l1d%u lock steal line=%#llx after %llu stalled cycles "
         "(requester core%u)",
         core, ull(m.line), ull(now - arrival), m.requester);
    if (sinks(TraceCategory::Coherence)) {
        Trace::instance().instant(
            TraceCategory::Coherence, static_cast<int>(core), traceTidCache,
            "lockSteal", now,
            strprintf("{\"line\":\"%#llx\",\"requester\":%u}",
                      ull(m.line), m.requester));
    }
}

// ---------------------------------------------------------------------
// Directory events
// ---------------------------------------------------------------------

void
Observer::requestQueued(unsigned bank, const Msg &msg, std::size_t depth,
                        Cycle now)
{
    if (spans_)
        spans_->dirQueued(msg.spanId, now);
    if (Profiler::LineProf *p = lineProf(msg.line))
        p->queuedMax = std::max<std::uint64_t>(p->queuedMax, depth);
    TEXT(TraceCategory::Directory, now,
         "dir%u queue line=%#llx %s from core%u depth=%zu", bank,
         ull(msg.line), msgTypeName(msg.type), msg.requester, depth);
}

void
Observer::blockedWindowClosed(unsigned bank, Addr line, std::uint64_t span,
                              CoreId requester, std::size_t queued,
                              Cycle since, Cycle now)
{
    // The transaction's own Blocked residency, attributed causally to
    // the requesting atomic's span.
    if (SpanTracker::Record *r = openSpan(span))
        r->dirBlocked += elapsed(since, now);
    if (sinks(TraceCategory::Directory)) {
        // Async span: several lines can be Blocked at one bank at once.
        Trace::instance().span(
            TraceCategory::Directory, tracePidDirBase + static_cast<int>(bank),
            0, "blocked", line, since, now,
            strprintf("{\"line\":\"%#llx\",\"requester\":%u,\"queued\":%zu}",
                      ull(line), requester, queued));
    }
    TEXT(TraceCategory::Directory, now,
         "dir%u unblock line=%#llx blocked=%llu queued=%zu", bank,
         ull(line), ull(now - since), queued);
}

// ---------------------------------------------------------------------
// Network and System events
// ---------------------------------------------------------------------

void
Observer::messageDelivered(const Msg &msg, std::uint64_t order, Cycle now)
{
    TEXT(TraceCategory::Network, now, "deliver %s", msg.toString().c_str());
    if (sinks(TraceCategory::Network)) {
        // One async span per message lifetime; the injection order makes
        // a unique id so concurrent messages nest correctly.
        Trace::instance().span(
            TraceCategory::Network, tracePidNetwork, 0, msgTypeName(msg.type),
            order, msg.sent, now,
            strprintf("{\"line\":\"%#llx\",\"src\":%u,\"dst\":%u}",
                      ull(msg.line), msg.src, msg.dst));
    }
    // A hop of the span's transaction (an Unblock can arrive after the
    // span committed): a remote leg, and a step of its Chrome flow.
    if (SpanTracker::Record *r = openSpan(msg.spanId)) {
        r->netCycles += elapsed(msg.sent, now);
        r->netHops++;
        if (sinks(TraceCategory::Span)) {
            Trace::instance().flow(TraceCategory::Span, tracePidNetwork, 0,
                                   "miss", msg.spanId, now, 't');
        }
    }
}

void
Observer::idleSkipped(Cycle now, Cycle next)
{
    TEXT(TraceCategory::Pipeline, now, "ff skip %llu..%llu", ull(now + 1),
         ull(next - 1));
    // Skipped windows never get per-tick classification; credit them as
    // explicit Idle slots so the CPI stacks stay slot-conserving.
    if (prof_ && prof_->on(ProfCategory::Cpi))
        prof_->addIdleSlots(next - 1 - now);
}

} // namespace rowsim
