/**
 * @file
 * Out-of-order core with unfenced atomic RMWs (Free Atomics) and the
 * Rush-or-Wait execution-policy machinery.
 *
 * Pipeline model: dispatch (fetchWidth/cycle, in order, stalls on
 * mispredicted branches until resolution + redirect penalty) -> issue
 * (issueWidth/cycle, oldest-ready-first, wakeup via producer dependent
 * lists) -> execute (ALU latencies, loads via the private cache,
 * store-to-load forwarding, StoreSet speculation with replay on
 * violation) -> in-order commit (commitWidth/cycle; stores drain to the
 * L1D from the SB after commit, strictly in order).
 *
 * Atomics follow §II-B: one ROB entry holding an LQ, SQ and AQ slot.
 * Eager execution issues the load-lock once operands are ready; lazy
 * execution waits until the atomic is the oldest memory instruction and
 * the SB has drained. RoW picks per-atomic based on the contention
 * predictor, computes addresses early (only-calculate-address) to widen
 * the contention-tracking window, and promotes predicted-lazy atomics to
 * eager when a matching older store is found in the SB (§IV-E).
 */

#ifndef ROWSIM_CPU_CORE_HH
#define ROWSIM_CPU_CORE_HH

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/atomic_queue.hh"
#include "cpu/branch.hh"
#include "cpu/lsq.hh"
#include "cpu/microop.hh"
#include "cpu/storeset.hh"
#include "cpu/stream.hh"
#include "mem/l1cache.hh"
#include "row/predictor.hh"
#include "sim/profile.hh"

namespace rowsim
{

class FunctionalMemory;
class Observer;

class Core : public MemClient
{
  public:
    Core(CoreId id, const CoreParams &params, PrivateCache *cache,
         FunctionalMemory *fmem, InstStream *stream);

    /** Advance one cycle: complete, commit, drain stores, issue,
     *  dispatch. */
    void tick(Cycle now);

    // MemClient interface (called by the private cache).
    void accessDone(const MemResult &r) override;
    void atomicLineReady(std::uint64_t token, Addr line, FillSource source,
                         Cycle netIssueCycle, bool contentionHint,
                         Cycle now) override;
    bool lineLocked(Addr line) const override;
    bool anyLineLocked() const override { return aq.anyLocked(); }
    void externalRequestSnoop(Addr line, Cycle now) override;
    bool tryForceUnlock(Addr line, Cycle now) override;

    /** Directory-oracle notification: another core showed interest in
     *  @p line; mark matching in-flight atomics (Fig. 5 ground truth). */
    void oracleContentionHint(Addr line, Cycle now);

    /** Stop fetching new work (quota reached); in-flight ops drain. */
    void halt() { halted = true; }
    bool isHalted() const { return halted; }
    /** True when the pipeline has fully drained. */
    bool drained() const;

    /**
     * Earliest future cycle at which this core can make progress with no
     * external event (cache completion, snoop, fill) arriving first:
     * the minimum over scheduled completions/unlocks, atomic re-issue
     * timers, and next-tick work (ready ops, ops due for a re-try,
     * drainable SB head, committable ROB head, dispatchable fetch).
     * Sleeping parked ops add nothing: their events are bounded by these
     * terms or the memory system's. invalidCycle when the core is fully
     * quiescent. May be conservative (early), never late — System::run's
     * idle fast-forward uses it as a skip bound.
     */
    Cycle nextEventCycle(Cycle now) const;

    std::uint64_t committedInstructions() const { return committedInsts; }
    std::uint64_t committedIterations() const { return iterations; }
    std::uint64_t committedAtomics() const { return committedAtomicCount; }

    StatGroup &stats() { return stats_; }
    ContentionPredictor &predictor() { return rowPredictor; }
    /** Attach the owning System's observer (null: observability off). */
    void setObserver(Observer *obs) { obs_ = obs; }
    BranchPredictor &branchPredictor() { return branchPred; }
    StoreSet &storeSets() { return storeSet; }
    const AtomicQueue &atomicQueue() const { return aq; }

    // ---- invariant-checker / diagnostics probes (read-only) ----
    const LoadQueue &loadQueue() const { return lq; }
    const StoreQueue &storeQueue() const { return sq; }
    unsigned robOccupancy() const { return robCount(); }
    unsigned iqOcc() const { return iqOccupancy; }
    SeqNum lastCommittedSeq() const { return commitSeq; }
    SeqNum nextSeqNum() const { return nextSeq; }
    /** Is @p seq dispatched but not yet committed? */
    bool seqInFlight(SeqNum seq) const { return inFlight(seq); }
    /** Is a post-commit STU write / unlock scheduled for @p seq? */
    bool hasPendingUnlock(SeqNum seq) const;
    std::size_t memBarrierCount() const { return memBarriers.size(); }

    /** Crash diagnostics: one JSON object with pipeline heads, AQ locked
     *  lines, and occupancy — emitted by System::dumpCrashDiagnostics. */
    void dumpDiag(std::FILE *out, Cycle now) const;

    /** Architectural state: ROB, queues, predictors, scheduling events,
     *  the instruction stream position. Stats travel in the System's
     *  stats pass. */
    void save(Ser &s) const;
    void restore(Deser &d);

    /**
     * Functional fast-mode step (src/sim/funcmode.cc): architecturally
     * retire up to @p max_ops micro-ops straight from the stream.
     * Loads/stores/atomics call @p access(addr, exclusive) — the
     * synchronous MemSystem::funcAccess path — whose return value
     * (remote cache-to-cache transfer) stands in for the Dir
     * detector's contention evidence when training the RoW predictor.
     * Branches train the branch predictor exactly as dispatch does.
     * Stops early once @p iter_limit iterations or @p inst_limit
     * committed instructions are reached (0 = unbounded), or when the
     * core is halted. @return micro-ops retired.
     */
    std::uint64_t funcRun(const std::function<bool(Addr, bool)> &access,
                          unsigned max_ops, std::uint64_t iter_limit,
                          std::uint64_t inst_limit, Cycle now);

  private:
    /** Per-atomic execution progress. */
    enum class AState : std::uint8_t
    {
        None,         ///< not an atomic
        WaitOperands, ///< waiting for register sources
        WaitLazy,     ///< predicted/forced lazy; waiting for LQ-head+SB-empty
        WaitStore,    ///< waiting for an older same-word store to write
        MemIssued,    ///< load-lock in the memory system
        WaitLock,     ///< line filled, but an older atomic must lock first
        Locked,       ///< line locked; modify op in flight
        ExecDoneFwd,  ///< forwarded value consumed; lock set at store write
        Done,         ///< modify complete (lock held until STU writes)
    };

    /** What a parked op (dispatched, issue attempted, not issued) waits
     *  for; each parked op sits on exactly one list. Fences, and loads
     *  not blocked by a barrier, stay on Retry. */
    enum class WakeList : std::uint8_t
    {
        None,       ///< not parked
        Retry,      ///< re-tried by the next issue pass
        LqHead,     ///< lazy atomic: wakes when it becomes the LQ head
        SbDrain,    ///< lazy LQ-head atomic: wakes when older SQ entries free
        StoreWrite, ///< WaitStore: wakes when store waitStoreSeq writes
        Barrier,    ///< wakes when the older memory barriers retire
        Timer,      ///< condition met: wakes at reissueReadyAt
    };

    struct RobEntry
    {
        MicroOp op;
        SeqNum seq = 0;
        bool busy = false;
        bool wokeDependents = false;
        std::uint8_t depsPending = 0;
        std::uint16_t replayGen = 0;
        Cycle dispatchCycle = invalidCycle;
        Cycle readyCycle = invalidCycle;
        int lqIdx = -1;
        int sqIdx = -1;
        int aqIdx = -1;
        std::uint32_t ssSet = StoreSet::invalidSet;
        AState astate = AState::None;
        bool lazySelected = false;
        bool forwardedAtomic = false;
        SeqNum waitStoreSeq = 0;
        /** Re-issue pipeline delay once a wait condition is satisfied. */
        Cycle reissueReadyAt = invalidCycle;
        /** Directory-notification hint carried by the fill (extension). */
        bool fillContentionHint = false;
        std::uint64_t result = 0;
        std::uint64_t atomicNewValue = 0;
        std::vector<SeqNum> dependents;
        /** Not serialized: restore re-parks every op on Retry. */
        WakeList wake = WakeList::None;
    };

    // --- pipeline stages ---
    void processCompletions(Cycle now);
    void commitStage(Cycle now);
    void drainStores(Cycle now);
    void issueStage(Cycle now);
    void dispatchStage(Cycle now);
    /** ROB/IQ room, plus the queue slots @p op needs (nullptr: the next
     *  op is not fetched yet). */
    bool dispatchRoom(const MicroOp *op) const;

    /** Token bit marking a post-commit store-buffer write; the low bits
     *  then carry the SQ slot index instead of a sequence number. */
    static constexpr std::uint64_t sbWriteToken = 1ULL << 63;

    // --- helpers ---
    RobEntry &rob(SeqNum seq);
    const RobEntry &rob(SeqNum seq) const;
    std::size_t
    slotOf(const RobEntry &e) const
    {
        return static_cast<std::size_t>(&e - robSlots.data());
    }
    bool issued(const RobEntry &e) const { return robIssued_[slotOf(e)]; }
    bool
    completed(const RobEntry &e) const
    {
        return robCompleted_[slotOf(e)];
    }
    void setIssued(RobEntry &e, bool v) { robIssued_[slotOf(e)] = v; }
    void
    setCompleted(RobEntry &e, bool v)
    {
        robCompleted_[slotOf(e)] = v;
    }
    bool inFlight(SeqNum seq) const;
    unsigned robCount() const;
    void pushReady(SeqNum seq, Cycle now);
    void completeOp(SeqNum seq, Cycle now);
    void scheduleCompletion(SeqNum seq, Cycle when);
    std::uint64_t token(const RobEntry &e) const;

    /** Attempt to issue one op; @return true when it made progress (a
     *  slot was consumed), false when it must wait (re-queued). */
    bool tryIssue(SeqNum seq, Cycle now);
    bool tryIssueLoad(RobEntry &e, Cycle now);
    bool tryIssueStore(RobEntry &e, Cycle now);
    bool tryIssueFence(RobEntry &e, Cycle now);
    bool tryIssueAtomic(RobEntry &e, Cycle now);
    /** Put @p e on wake list @p w. */
    void park(RobEntry &e, WakeList w);
    /** After a failed re-try: park @p e on the list of the event that
     *  can next change its issue outcome. */
    void sleep(RobEntry &e);
    /** LQ-head advance / SQ-head free: wake the LQ head if it is a lazy
     *  atomic whose wait just ended. */
    void wakeLazyHead();
    /** Barrier @p seq retires: wake the ops no longer blocked. */
    void retireBarrier(SeqNum seq);
    /** Execute the atomic's memory phase (eager or lazy real issue). */
    bool atomicExecute(RobEntry &e, Cycle now);
    /** Decide eager/lazy for a dispatching atomic (policy + predictor). */
    bool atomicSelectLazy(const MicroOp &op);
    /** Lazy-issue condition: oldest mem instruction + SB drained. */
    bool lazyConditionMet(const RobEntry &e) const;
    /** Any active memory barrier older than @p seq (mfence / fenced
     *  atomic) that blocks this op's issue? */
    bool blockedByBarrier(SeqNum seq) const;
    /** Compute the atomic's modify result from the loaded value. */
    std::uint64_t atomicModify(const MicroOp &op, std::uint64_t old) const;
    /** Commit one atomic: STU enters the (empty) SB and writes next
     *  cycle; unlock + predictor training happen at the write. */
    void commitAtomic(RobEntry &e, Cycle now);
    /** STU write: functional update, unlock, train, free AQ/SQ. */
    void atomicUnlock(SeqNum seq, Cycle now);
    /** A store wrote: wake its WaitStore atomics, lock forwarded ones. */
    void storeWritten(SeqNum seq, Cycle now);
    /** Engage the lock for an atomic whose line is present in M. */
    void acquireLock(RobEntry &e, FillSource source, Cycle now);
    /** Re-check WaitLock atomics after any lock/unlock event. */
    void pokeWaitingLocks(Cycle now);
    /** Memory-order violation: replay the load. */
    void replayLoad(RobEntry &load, Addr store_pc, Cycle now);
    /** Fig. 4 instrumentation at the atomic's real memory issue. */
    void sampleIndependentInsts(const RobEntry &e);
    /** CPI stack: why could the commit head not retire this cycle? */
    CpiBucket classifyCommitStall() const;

    CoreId coreId;
    CoreParams params;
    PrivateCache *cache;
    FunctionalMemory *fmem;
    InstStream *stream;

    std::vector<RobEntry> robSlots;
    /** Issued / completed flag of each ROB slot, one byte per slot
     *  outside RobEntry: the Fig. 4 sample at every atomic issue scans
     *  up to a ROB's worth of them, and would otherwise touch a whole
     *  entry per step. */
    std::vector<std::uint8_t> robIssued_;
    std::vector<std::uint8_t> robCompleted_;
    LoadQueue lq;
    StoreQueue sq;
    AtomicQueue aq;
    BranchPredictor branchPred;
    StoreSet storeSet;
    ContentionPredictor rowPredictor;

    SeqNum nextSeq = 1;   ///< next sequence number to dispatch
    SeqNum commitSeq = 0; ///< last committed sequence number

    /** Ready-to-issue ops, oldest first. */
    std::priority_queue<SeqNum, std::vector<SeqNum>,
                        std::greater<SeqNum>> readyQueue;
    /** Parked ops the next issue pass re-tries: fresh parks (one re-try
     *  each), woken sleepers, ops a truncated pass did not reach, and
     *  fences and unblocked loads. */
    std::vector<SeqNum> retry_;
    /** The issue pass being run (reuses its capacity across ticks). */
    std::vector<SeqNum> issuePass_;
    /** Ops parked since the last issue pass, in park order: the tail of
     *  the serialized parked list. */
    std::vector<SeqNum> parkTail_;
    /** Timer list: (reissueReadyAt, seq), earliest first. */
    std::priority_queue<std::pair<Cycle, SeqNum>,
                        std::vector<std::pair<Cycle, SeqNum>>,
                        std::greater<>> reissueTimers_;
    /** StoreWrite list (store seq -> atomic seq). */
    std::multimap<SeqNum, SeqNum> storeWaiters_;
    /** Barrier list. LqHead/SbDrain need none: only the LQ head can
     *  wake, and wakeLazyHead finds it through the LQ. */
    std::vector<SeqNum> barrierWaiters_;
    /** Scheduled completion events. */
    std::multimap<Cycle, std::pair<SeqNum, std::uint16_t>> completions;
    /** Pending STU writes (cycle -> atomic seq). */
    std::multimap<Cycle, SeqNum> pendingUnlocks;
    /** Active mfences / fenced atomics gating younger memory issue. */
    std::set<SeqNum> memBarriers;
    /** Forwarded atomics waiting for their store's write to take the
     *  lock (store seq -> atomic seq). */
    std::multimap<SeqNum, SeqNum> fwdLockWaiters;

    std::deque<MicroOp> fetchBuffer;
    SeqNum fetchBlockedBy = 0;
    Cycle fetchBlockedUntil = 0;
    unsigned iqOccupancy = 0;
    bool halted = false;
    /** The last issue pass ran out of slots while a younger op was
     *  parked. Nothing reads it: it keeps the serialized state of the
     *  per-cycle polling issue stage (unreached ops stay on Retry). */
    bool issueTruncated_ = false;

    std::uint64_t committedInsts = 0;
    std::uint64_t committedAtomicCount = 0;
    std::uint64_t iterations = 0;

    Observer *obs_ = nullptr;

    StatGroup stats_;
    // Dispatch and issue.
    CounterRef dispatched_{stats_, "dispatched"};
    CounterRef branchMispredicts_{stats_, "branchMispredicts"};
    CounterRef loadsDispatchedWithDep_{stats_, "loadsDispatchedWithDep"};
    CounterRef loadsPredictedDependent_{stats_, "loadsPredictedDependent"};
    CounterRef loadsSpeculated_{stats_, "loadsSpeculated"};
    CounterRef loadsForwarded_{stats_, "loadsForwarded"};
    CounterRef loadReplays_{stats_, "loadReplays"};
    CounterRef loadL1Hits_{stats_, "loadL1Hits"};
    CounterRef loadL1Misses_{stats_, "loadL1Misses"};
    CounterRef storeWrites_{stats_, "storeWrites"};
    // Atomics.
    CounterRef atomicsDispatched_{stats_, "atomicsDispatched"};
    CounterRef atomicsPredictedContended_{stats_, "atomicsPredictedContended"};
    CounterRef atomicsIssuedLazy_{stats_, "atomicsIssuedLazy"};
    CounterRef atomicsIssuedEager_{stats_, "atomicsIssuedEager"};
    CounterRef atomicsForwarded_{stats_, "atomicsForwarded"};
    CounterRef atomicsPromotedEager_{stats_, "atomicsPromotedEager"};
    CounterRef onlyCalcAddrIssues_{stats_, "onlyCalcAddrIssues"};
    CounterRef lockWaits_{stats_, "lockWaits"};
    CounterRef lockWaitRefetches_{stats_, "lockWaitRefetches"};
    CounterRef forcedUnlocks_{stats_, "forcedUnlocks"};
    CounterRef atomicsUnlocked_{stats_, "atomicsUnlocked"};
    CounterRef atomicsDetectedContended_{stats_, "atomicsDetectedContended"};
    CounterRef atomicsOracleContended_{stats_, "atomicsOracleContended"};
    AverageRef atomicRemoteFillLatency_{stats_, "atomicRemoteFillLatency"};
    AverageRef atomicDispatchToIssue_{stats_, "atomicDispatchToIssue"};
    AverageRef atomicIssueToLock_{stats_, "atomicIssueToLock"};
    AverageRef atomicLockToUnlock_{stats_, "atomicLockToUnlock"};
    AverageRef atomicDispatchToUnlock_{stats_, "atomicDispatchToUnlock"};
    // Fig. 4 sample and the per-PC profile's latency distributions.
    AverageRef olderUnexecutedAtIssue_{stats_, "olderUnexecutedAtIssue"};
    AverageRef youngerStartedAtIssue_{stats_, "youngerStartedAtIssue"};
    HistogramRef atomicDispatchToIssueHist_{
        stats_, "atomicDispatchToIssueHist", 0, 4096, 128};
    HistogramRef atomicIssueToLockHist_{stats_, "atomicIssueToLockHist", 0,
                                        4096, 128};
    HistogramRef atomicLockToUnlockHist_{stats_, "atomicLockToUnlockHist", 0,
                                         4096, 128};
};

} // namespace rowsim

#endif // ROWSIM_CPU_CORE_HH
