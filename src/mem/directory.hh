/**
 * @file
 * One bank of the shared L3 / directory. Implements a blocking MSI
 * directory protocol: while a transaction is in flight for a line
 * (Blocked state), younger requests queue behind it. This serialisation
 * is what makes contended-line acquisition latency grow with the number
 * of requesters — the signal RoW's directory detector keys on — and it
 * reproduces the Unblock race of the paper's Fig. 8.
 */

#ifndef ROWSIM_MEM_DIRECTORY_HH
#define ROWSIM_MEM_DIRECTORY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache_array.hh"
#include "mem/flat_tables.hh"
#include "net/message.hh"
#include "net/network.hh"

namespace rowsim
{

class Observer;

/**
 * Directory bank. Network endpoint NodeId == numCores + bankIndex.
 */
class Directory : public MsgHandler
{
  public:
    /**
     * Called when a request observes concurrent interest in a line.
     * The system uses it as the ground-truth contention oracle for
     * Fig. 5. @p holder is the current owner/sharer or invalidCore.
     * @p overlap distinguishes definite temporal overlap (the request
     * arrived while a transaction for the line was in flight — mark both
     * sides) from a forward/invalidation of a resident copy (the holder
     * is concurrently *using* the line — mark the holder only; a
     * migratory access with no overlap is not contention for the
     * requester).
     */
    using OracleHook =
        std::function<void(Addr line, CoreId requester, CoreId holder,
                           bool overlap, Cycle now)>;

    Directory(unsigned bank_index, unsigned num_cores,
              const MemParams &params, Network *net);

    void deliver(const Msg &msg, Cycle now) override;

    /** Advance one cycle. Most cycles a bank has neither a stall to
     *  drain nor a data reply due, and returns here without a call. */
    void
    tick(Cycle now)
    {
        if ((stalledUntil != 0 && now >= stalledUntil) ||
            (!wake.empty() && wake.topCycle() <= now))
            service(now);
    }

    bool idle() const;

    /** Earliest future cycle tick() would do anything absent new
     *  deliveries: the next data-ready wake or the end of an injected
     *  stall. invalidCycle when quiescent (fast-forward bound). */
    Cycle nextEventCycle(Cycle now) const;

    void setOracleHook(OracleHook hook) { oracle = std::move(hook); }
    /** Attach the owning System's observer (null: observability off). */
    void setObserver(Observer *obs) { obs_ = obs; }

    /** Directory state probe for tests. */
    DirState lineState(Addr line) const;
    CoreId lineOwner(Addr line) const;

    /** Read-only view of one directory entry (invariant checkers). */
    struct LineInfo
    {
        Addr line = invalidAddr;
        DirState state = DirState::Invalid;
        std::uint64_t sharers = 0;
        CoreId owner = invalidCore;
        CoreId txnRequester = invalidCore;
        unsigned pendingAcks = 0;
        bool dataPending = false;
        Cycle blockedSince = invalidCycle;
        std::size_t queued = 0;
    };

    /** Apply @p fn(const LineInfo &) to every directory entry. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        LineInfo info;
        entries.forEach([&](Addr line, const Entry &e) {
            info.line = line;
            info.state = e.state;
            info.sharers = e.sharers;
            info.owner = e.owner;
            info.txnRequester = e.txnRequester;
            info.pendingAcks = e.pendingAcks;
            info.dataPending = e.dataPending;
            info.blockedSince = e.blockedSince;
            info.queued = e.queued.size();
            fn(info);
        });
    }

    unsigned blockedCount() const { return blockedLines; }

    /**
     * Fault injection: stall the bank — buffer every delivery until
     * @p until, then process them in arrival order. Models a slow/backed
     * up bank; point-to-point ordering is preserved.
     */
    void injectStall(Cycle until);
    bool stalled() const { return !stallBuffer.empty() || stalledUntil > 0; }

    /** Crash diagnostics: one JSON object describing Blocked entries. */
    void dumpDiag(std::FILE *out, Cycle now) const;

    /** Test-only: corrupt the directory by overwriting one entry's
     *  stable state (checker death tests). */
    void testSetLine(Addr line, DirState state, CoreId owner,
                     std::uint64_t sharers);

    // ---- functional fast-mode hooks (src/sim/funcmode.cc) ----
    //
    // The functional interpreter applies each request's protocol *end
    // state* synchronously — no messages, no Blocked transients — so a
    // snapshot taken at a func-mode cycle boundary holds only stable
    // coherence states. These hooks assert the entry is not mid-flight.

    /** Sharer bitmask of @p line (0 when untracked). */
    std::uint64_t lineSharers(Addr line) const;
    /** Overwrite one entry's stable state with a transaction's end
     *  state (refuses Blocked entries: func mode never runs while a
     *  detail transaction is in flight). */
    void funcSetLine(Addr line, DirState state, CoreId owner,
                     std::uint64_t sharers);
    /** Apply a clean writeback's end state (PutM from the owner):
     *  entry Invalid, data presence in the LLC array. */
    void funcWriteback(Addr line, CoreId evictor, Cycle now);
    /** Install LLC data presence for a fill served by LLC/memory,
     *  mirroring dataLatency()'s insertion (latency discarded). */
    void funcTouchLlc(Addr line, Cycle now);

    /** Architectural state: entries (including Blocked transients and
     *  their queued requests), wake schedule, stall buffer, LLC array.
     *  Stats travel in the System's stats pass. */
    void save(Ser &s) const;
    void restore(Deser &d);

    StatGroup &stats() { return stats_; }

  private:
    struct Entry
    {
        DirState state = DirState::Invalid;
        std::uint64_t sharers = 0; ///< bitmask, supports up to 64 cores
        CoreId owner = invalidCore;

        // --- transaction-in-flight (Blocked) bookkeeping ---
        CoreId txnRequester = invalidCore;
        /** State/owner/sharers to apply when the Unblock arrives. */
        DirState nextState = DirState::Invalid;
        CoreId nextOwner = invalidCore;
        std::uint64_t nextSharers = 0;
        /** Outstanding invalidation acks before data can be sent. */
        unsigned pendingAcks = 0;
        /** Earliest cycle LLC/memory data is available. */
        Cycle dataReady = invalidCycle;
        /** Data message to emit once acks are in and data is ready. */
        bool dataPending = false;
        Msg dataMsg;
        /** Cycle the entry entered Blocked (trace Blocked windows). */
        Cycle blockedSince = invalidCycle;
        /** Span of the in-flight transaction (0 = untraced; not
         *  serialized — restored transactions are untraced). */
        std::uint64_t txnSpanId = 0;

        /** Requests waiting behind the transaction, oldest first (no
         *  allocation while empty, which almost every entry is). */
        std::vector<Msg> queued;
    };

    /** Process a request against an unblocked entry (may block it).
     *  @param was_queued the request waited behind an earlier transaction
     *  (feeds the directory-notification contention hint). */
    void processRequest(Entry &e, const Msg &msg, Cycle now,
                        bool was_queued = false);
    /** LLC/memory access latency for this line (inserts into LLC). */
    Cycle dataLatency(Addr line, Cycle now, bool &from_memory);
    /** Emit the blocked entry's data reply if acks and data are ready. */
    void maybeSendData(Entry &e, Cycle now);
    /** Apply the Unblock, then drain queued requests. */
    void finishTxn(Entry &e, Addr line, Cycle now);
    /** tick()'s work: drain an expired stall, send due data replies. */
    void service(Cycle now);

    void
    sendToCore(MsgType t, Addr line, CoreId core, CoreId requester,
               Cycle now, bool excl = false, bool from_memory = false,
               bool contention_hint = false, std::uint64_t span_id = 0);

    unsigned bankIndex;
    unsigned numCores;
    NodeId myNode;
    MemParams params;
    Network *net;
    OracleHook oracle;

    /** One entry per line ever touched. Entries never move, so an
     *  Entry& stays valid across re-entrant deliver() calls. */
    LineTable<Entry> entries;
    /** Lines whose data reply is waiting for the LLC/memory latency. */
    EventHeap<Addr> wake;
    /** Fault injection: deliveries buffered while the bank is stalled. */
    std::deque<Msg> stallBuffer;
    Cycle stalledUntil = 0;
    CacheArray llcArray; ///< data-presence array (latency only)
    /** Number of lines currently Blocked (idle() fast path). */
    unsigned blockedLines = 0;

    Observer *obs_ = nullptr;

    StatGroup stats_;
    CounterRef getS_{stats_, "getS"};
    CounterRef getX_{stats_, "getX"};
    CounterRef fwdGetS_{stats_, "fwdGetS"};
    CounterRef fwdGetX_{stats_, "fwdGetX"};
    CounterRef llcMisses_{stats_, "llcMisses"};
    CounterRef queuedRequests_{stats_, "queuedRequests"};
    AverageRef queueDepth_{stats_, "queueDepth"};
    CounterRef writebacks_{stats_, "writebacks"};
    CounterRef staleWritebacks_{stats_, "staleWritebacks"};
    CounterRef injectedStalls_{stats_, "injectedStalls"};
};

} // namespace rowsim

#endif // ROWSIM_MEM_DIRECTORY_HH
