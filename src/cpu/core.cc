#include "cpu/core.hh"

#include <algorithm>

#include "common/log.hh"
#include "mem/memsystem.hh"
#include "sim/observer.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu: return "IntAlu";
      case OpClass::FpAlu: return "FpAlu";
      case OpClass::Load: return "Load";
      case OpClass::Store: return "Store";
      case OpClass::AtomicRMW: return "AtomicRMW";
      case OpClass::Branch: return "Branch";
      case OpClass::Fence: return "Fence";
      case OpClass::Nop: return "Nop";
    }
    return "?";
}

const char *
atomicOpName(AtomicOp a)
{
    switch (a) {
      case AtomicOp::FetchAdd: return "FetchAdd";
      case AtomicOp::CompareSwap: return "CompareSwap";
      case AtomicOp::Swap: return "Swap";
    }
    return "?";
}

Core::Core(CoreId id, const CoreParams &p, PrivateCache *c,
           FunctionalMemory *fm, InstStream *s)
    : coreId(id), params(p), cache(c), fmem(fm), stream(s),
      robSlots(p.robEntries), robIssued_(p.robEntries, 0),
      robCompleted_(p.robEntries, 0), lq(p.lqEntries), sq(p.sbEntries),
      aq(p.aqEntries), storeSet(), rowPredictor(p.row),
      stats_(strprintf("core%u", id))
{
    cache->setClient(this);
    rowPredictor.setCoreId(id);
}

Core::RobEntry &
Core::rob(SeqNum seq)
{
    return robSlots[seq % robSlots.size()];
}

const Core::RobEntry &
Core::rob(SeqNum seq) const
{
    return robSlots[seq % robSlots.size()];
}

bool
Core::inFlight(SeqNum seq) const
{
    return seq > commitSeq && seq < nextSeq;
}

unsigned
Core::robCount() const
{
    return static_cast<unsigned>(nextSeq - 1 - commitSeq);
}

std::uint64_t
Core::token(const RobEntry &e) const
{
    return (static_cast<std::uint64_t>(e.replayGen) << 48) | e.seq;
}

void
Core::pushReady(SeqNum seq, Cycle now)
{
    RobEntry &e = rob(seq);
    if (e.readyCycle == invalidCycle)
        e.readyCycle = now;
    if (e.op.cls == OpClass::AtomicRMW && e.aqIdx >= 0) {
        AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
        if (a.readyCycle == invalidCycle)
            a.readyCycle = now;
    }
    readyQueue.push(seq);
}

void
Core::scheduleCompletion(SeqNum seq, Cycle when)
{
    completions.emplace(when, std::make_pair(seq, rob(seq).replayGen));
}

std::uint64_t
Core::atomicModify(const MicroOp &op, std::uint64_t old) const
{
    switch (op.aop) {
      case AtomicOp::FetchAdd:
        return old + op.value;
      case AtomicOp::Swap:
        return op.value;
      case AtomicOp::CompareSwap:
        // The expected value is the current content unless the workload
        // injects a deliberate mismatch; a failed CAS writes nothing
        // (modelled as rewriting the old value).
        return op.casExpectMismatch ? old : op.value;
    }
    return old;
}

// ---------------------------------------------------------------------
// MemClient interface
// ---------------------------------------------------------------------

bool
Core::lineLocked(Addr line) const
{
    return aq.lineLocked(line);
}

void
Core::externalRequestSnoop(Addr line, Cycle now)
{
    (void)now;
    const ContentionDetector det = params.row.detector;
    aq.forEachMatching(line, [det](AqEntry &e) {
        if (det == ContentionDetector::EW) {
            if (e.locked)
                e.contended = true; // execution window only (§IV-A)
        } else {
            e.contended = true; // ready window (§IV-B)
        }
    });
}

void
Core::oracleContentionHint(Addr line, Cycle now)
{
    (void)now;
    aq.forEachMatching(line, [](AqEntry &e) { e.oracleContended = true; });
}

void
Core::accessDone(const MemResult &r)
{
    if (r.token & sbWriteToken) {
        // A store-buffer write completed. Post-commit, so it must not
        // touch the ROB (the slot may have been reused): the token
        // carries the SQ index directly.
        const auto idx = static_cast<unsigned>(r.token & ~sbWriteToken);
        SqEntry &s = sq.entry(idx);
        ROWSIM_ASSERT(s.valid && s.committed && s.writeInFlight,
                      "store write completion mismatch (sq idx %u)", idx);
        s.written = true;
        s.writeInFlight = false;
        storeWrites_++;
        storeWritten(s.seq, r.doneCycle);
        return;
    }

    const SeqNum seq = r.token & 0xffffffffffffULL;
    const auto gen = static_cast<std::uint16_t>(r.token >> 48);
    if (!inFlight(seq))
        return; // long gone
    RobEntry &e = rob(seq);
    if (e.seq != seq || e.replayGen != gen)
        return; // stale completion from a replayed access

    ROWSIM_ASSERT(e.op.cls == OpClass::Load, "unexpected accessDone class");
    e.result = r.value;
    (r.source == FillSource::L1Hit ? loadL1Hits_ : loadL1Misses_)++;
    completeOp(seq, r.doneCycle);
}

void
Core::acquireLock(RobEntry &e, FillSource source, Cycle now)
{
    AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
    a.locked = true;
    a.lockCycle = now;
    a.lockSource = source;
    if (obs_)
        obs_->atomicLocked(coreId, e.seq, a, source, cache, now);

    // Directory latency detector (§IV-C): a fill from a remote private
    // cache whose 14-bit-wrapped latency exceeds the threshold means the
    // line was contended.
    // Directory-notification extension: the directory saw concurrent
    // interest in this transaction.
    if (params.row.detector == ContentionDetector::RWDirNotify &&
        e.fillContentionHint) {
        a.contended = true;
    }
    if (params.row.detector == ContentionDetector::RWDir &&
        source == FillSource::RemoteCache && a.timestampValid) {
        const std::uint16_t mask =
            static_cast<std::uint16_t>((1u << params.row.timestampBits) - 1);
        const std::uint16_t lat =
            static_cast<std::uint16_t>((now - a.issuedCycle14) & mask);
        atomicRemoteFillLatency_.sample(lat);
        if (lat > params.row.latencyThreshold)
            a.contended = true;
    }

    // Read under the lock, compute the modify result.
    e.result = fmem->read64(a.addr);
    e.atomicNewValue = atomicModify(e.op, e.result);
    e.astate = AState::Locked;
    SqEntry &stu = sq.entry(static_cast<unsigned>(e.sqIdx));
    stu.value = e.atomicNewValue;
    stu.valueReady = true;

    Cycle read_latency;
    switch (source) {
      case FillSource::L1Hit:
        read_latency = 5;
        break;
      case FillSource::L2Hit:
        read_latency = 12;
        break;
      default:
        read_latency = 2; // fill-to-use after a miss
        break;
    }
    scheduleCompletion(e.seq, now + read_latency + 1);
    pokeWaitingLocks(now);
}

void
Core::pokeWaitingLocks(Cycle now)
{
    // Locks engage in AQ order; after every lock/unlock event, the next
    // WaitLock atomic may proceed (if its line survived unlocked).
    aq.forEach([this, now](AqEntry &a) {
        if (!a.valid || a.locked)
            return;
        if (!inFlight(a.seq))
            return;
        RobEntry &e = rob(a.seq);
        if (e.astate != AState::WaitLock || !aq.olderAllLocked(a.seq))
            return;
        if (cache->lineState(a.line()) == CacheState::Modified) {
            acquireLock(e, FillSource::L1Hit, now);
        } else {
            // The line was stolen while waiting its turn: refetch.
            e.astate = AState::MemIssued;
            if (obs_ && a.spanId)
                obs_->atomicPhase(a.spanId, SpanSeg::Execute, now);
            MemAccess m;
            m.addr = a.addr;
            m.token = token(e);
            m.needExclusive = true;
            m.isAtomic = true;
            m.spanId = a.spanId;
            lockWaitRefetches_++;
            cache->access(m, now);
        }
    });
}

void
Core::atomicLineReady(std::uint64_t tok, Addr line, FillSource source,
                      Cycle netIssueCycle, bool contentionHint, Cycle now)
{
    (void)netIssueCycle;
    const SeqNum seq = tok & 0xffffffffffffULL;
    const auto gen = static_cast<std::uint16_t>(tok >> 48);
    RobEntry &e = rob(seq);
    ROWSIM_ASSERT(e.seq == seq && e.replayGen == gen,
                  "stale atomicLineReady (seq %llu)",
                  static_cast<unsigned long long>(seq));
    ROWSIM_ASSERT(e.astate == AState::MemIssued,
                  "atomicLineReady in state %d", static_cast<int>(e.astate));

    AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
    ROWSIM_ASSERT(a.seq == seq && a.line() == line, "AQ mismatch at lock");
    e.fillContentionHint = contentionHint;

    if (!aq.olderAllLocked(seq)) {
        // An older atomic has not engaged its lock yet. Locking now would
        // stall other cores for the older atomic's entire (possibly
        // contended) acquisition — and can deadlock across cores. The
        // line stays unlocked in M; we lock when our turn comes, or
        // refetch if it gets stolen meanwhile.
        e.astate = AState::WaitLock;
        if (obs_ && a.spanId)
            obs_->atomicPhase(a.spanId, SpanSeg::UnblockWait, now);
        lockWaits_++;
        return;
    }

    acquireLock(e, source, now);
}

bool
Core::tryForceUnlock(Addr line, Cycle now)
{
    SeqNum seq = 0; // the locked entry; sequence numbers start at 1
    aq.forEachMatching(line, [&seq](AqEntry &a) {
        if (a.locked)
            seq = a.seq;
    });
    if (seq <= commitSeq)
        return false; // none, or committed: the unlock is imminent

    RobEntry &e = rob(seq);
    AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
    a.locked = false;
    a.contended = true; // someone waited long enough to steal: contended
    a.timestampValid = false;
    a.lockCycle = invalidCycle;

    e.replayGen++; // invalidate any in-flight completion events
    setCompleted(e, false);
    setIssued(e, false);
    e.forwardedAtomic = false;
    e.lazySelected = true; // replay lazily: the line is contended
    e.astate = AState::WaitOperands;
    e.reissueReadyAt = invalidCycle;
    iqOccupancy++; // back into the issue queue for the replay
    LqEntry &l = lq.entry(static_cast<unsigned>(e.lqIdx));
    l.issued = false;
    l.completed = false;
    park(e, WakeList::Retry);
    parkTail_.push_back(seq);
    forcedUnlocks_++;
    if (obs_)
        obs_->atomicForcedUnlock(coreId, seq, a.spanId, lineAlign(line), now);
    return true;
}

// ---------------------------------------------------------------------
// Completion / wakeup
// ---------------------------------------------------------------------

void
Core::completeOp(SeqNum seq, Cycle now)
{
    RobEntry &e = rob(seq);
    if (completed(e))
        return;
    setCompleted(e, true);

    if (e.lqIdx >= 0) {
        LqEntry &l = lq.entry(static_cast<unsigned>(e.lqIdx));
        if (l.seq == seq)
            l.completed = true;
    }
    if (e.astate == AState::Locked)
        e.astate = AState::Done;
    if (e.op.cls == OpClass::Fence)
        retireBarrier(seq);

    if (!e.wokeDependents) {
        e.wokeDependents = true;
        for (SeqNum d : e.dependents) {
            if (!inFlight(d))
                continue;
            RobEntry &dep = rob(d);
            ROWSIM_ASSERT(dep.depsPending > 0, "dependent underflow");
            if (--dep.depsPending == 0)
                pushReady(d, now);
        }
    }

    if (seq == fetchBlockedBy) {
        fetchBlockedBy = 0;
        fetchBlockedUntil = now + params.mispredictPenalty;
    }
}

void
Core::processCompletions(Cycle now)
{
    while (!completions.empty() && completions.begin()->first <= now) {
        auto [seq, gen] = completions.begin()->second;
        completions.erase(completions.begin());
        if (!inFlight(seq))
            continue;
        RobEntry &e = rob(seq);
        if (e.seq != seq || e.replayGen != gen)
            continue; // stale (replay)
        completeOp(seq, now);
    }
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

void
Core::commitAtomic(RobEntry &e, Cycle now)
{
    AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
    ROWSIM_ASSERT(a.locked, "committing an unlocked atomic");
    SqEntry &s = sq.entry(static_cast<unsigned>(e.sqIdx));
    s.committed = true;
    s.addressReady = true;
    s.addr = a.addr;
    s.value = e.atomicNewValue;
    // The ROB slot may be reused before the unlock event fires; stash
    // everything atomicUnlock needs in the AQ entry.
    a.newValue = e.atomicNewValue;
    a.sqIdx = e.sqIdx;
    if (obs_ && a.spanId) {
        obs_->atomicCommitted(a.spanId, now);
        a.spanId = 0; // post-commit unlock traffic is outside the span
    }
    pendingUnlocks.emplace(now + 1, e.seq);
}

void
Core::atomicUnlock(SeqNum seq, Cycle now)
{
    AqEntry &a = aq.head();
    ROWSIM_ASSERT(a.seq == seq, "unlock out of AQ order");
    // Checked, traced and profiled before the STU write, while the
    // line is still locked in M.
    if (obs_ && obs_->atomicUnlocked(coreId, seq, a, cache, now)) {
        // Per-PC profile: the Fig. 6 latency distributions.
        atomicDispatchToIssueHist_.sample(
            static_cast<double>(a.issueCycle - a.dispatchCycle));
        atomicIssueToLockHist_.sample(
            static_cast<double>(a.lockCycle - a.issueCycle));
        atomicLockToUnlockHist_.sample(static_cast<double>(now - a.lockCycle));
    }

    // STU write: the line is locked and Modified in the L1D, so the
    // write happens immediately and atomically releases the lock.
    fmem->write64(a.addr, a.newValue);
    SqEntry &s = sq.entry(static_cast<unsigned>(a.sqIdx));
    ROWSIM_ASSERT(s.seq == seq && s.isAtomic, "STU slot mismatch at unlock");
    s.written = true;

    const Addr line = a.line();
    const bool contended = a.contended;

    // Statistics: Fig. 5 / Fig. 6 / Fig. 12 inputs.
    atomicsUnlocked_++;
    if (contended)
        atomicsDetectedContended_++;
    if (a.oracleContended)
        atomicsOracleContended_++;
    if (a.issueCycle != invalidCycle && a.lockCycle != invalidCycle) {
        atomicDispatchToIssue_.sample(
            static_cast<double>(a.issueCycle - a.dispatchCycle));
        atomicIssueToLock_.sample(
            static_cast<double>(a.lockCycle - a.issueCycle));
        atomicLockToUnlock_.sample(static_cast<double>(now - a.lockCycle));
        atomicDispatchToUnlock_.sample(
            static_cast<double>(now - a.dispatchCycle));
    }

    if (params.atomicPolicy == AtomicPolicy::RoW)
        rowPredictor.update(a.pc, contended, now, obs_);
    if (params.atomicPolicy == AtomicPolicy::Fenced)
        retireBarrier(seq);

    a.locked = false;
    aq.freeHead(seq, now, obs_);
    storeWritten(seq, now);
    cache->unlockNotify(line, now);
}

void
Core::commitStage(Cycle now)
{
    for (unsigned i = 0; i < params.commitWidth; i++) {
        const SeqNum seq = commitSeq + 1;
        if (!inFlight(seq))
            break;
        RobEntry &e = rob(seq);
        if (!completed(e))
            break;

        if (e.op.cls == OpClass::AtomicRMW) {
            const AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
            // Free Atomics commit rule: SB drained, lock held.
            if (!a.locked || !sq.sbEmpty())
                break;
            commitAtomic(e, now);
            committedAtomicCount++;
        }

        if (e.lqIdx >= 0) {
            lq.freeHead(seq, now, obs_);
            wakeLazyHead();
        }
        if (e.op.cls == OpClass::Store) {
            SqEntry &s = sq.entry(static_cast<unsigned>(e.sqIdx));
            ROWSIM_ASSERT(s.addressReady, "committing unresolved store");
            s.committed = true;
        }

        commitSeq = seq;
        committedInsts++;
        if (e.op.endOfIteration)
            iterations++;
        e.busy = false;
    }
}

CpiBucket
Core::classifyCommitStall() const
{
    const SeqNum head_seq = commitSeq + 1;
    if (!inFlight(head_seq)) {
        // ROB empty: either the core is done (halted, draining) or the
        // front end could not supply instructions.
        return halted ? CpiBucket::Idle : CpiBucket::FrontendStall;
    }
    const RobEntry &e = rob(head_seq);

    if (e.op.cls == OpClass::AtomicRMW && e.aqIdx >= 0) {
        const AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
        if (completed(e)) {
            // Free Atomics commit rule: lock held AND SB drained. A
            // completed-but-blocked head is waiting for the SB (or, for
            // a forwarded atomic, for its store's write to engage the
            // lock — also an SB-drain dependency).
            if (!a.locked || !sq.sbEmpty())
                return CpiBucket::SqDrainWait;
            return CpiBucket::AtomicExecute;
        }
        switch (e.astate) {
          case AState::WaitOperands:
            return e.lazySelected ? CpiBucket::AtomicLazyWait
                                  : CpiBucket::AtomicExecute;
          case AState::WaitLazy:
            return CpiBucket::AtomicLazyWait;
          case AState::WaitStore:
            return CpiBucket::SqDrainWait;
          case AState::MemIssued:
            // A live MSHR for the target line means the acquisition is
            // out in the coherence fabric; otherwise the atomic is in
            // its local execute/lock path.
            return a.addr != invalidAddr &&
                           cache->hasMshr(lineAlign(a.addr))
                       ? CpiBucket::CoherenceMiss
                       : CpiBucket::AtomicExecute;
          default:
            return CpiBucket::AtomicExecute;
        }
    }

    if (!completed(e)) {
        if (e.op.cls == OpClass::Load && issued(e) &&
            cache->hasMshr(lineAlign(e.op.addr)))
            return CpiBucket::CoherenceMiss;
        return robCount() >= params.robEntries ? CpiBucket::RobFull
                                               : CpiBucket::Exec;
    }
    // Completed non-atomic heads always commit, so this is unreachable
    // for stall slots (only hit when retired == commitWidth).
    return CpiBucket::Exec;
}

// ---------------------------------------------------------------------
// Store drain (SB -> L1D)
// ---------------------------------------------------------------------

void
Core::storeWritten(SeqNum store_seq, Cycle now)
{
    // Same-word WaitStore atomics re-try once their store has written.
    auto waiters = storeWaiters_.equal_range(store_seq);
    for (auto it = waiters.first; it != waiters.second; ++it)
        park(rob(it->second), WakeList::Retry);
    storeWaiters_.erase(waiters.first, waiters.second);

    // Forwarded atomics lock the line the instant their forwarding store
    // writes (§IV-E / Free Atomics forwarding guarantee).
    auto range = fwdLockWaiters.equal_range(store_seq);
    std::vector<SeqNum> to_lock;
    for (auto it = range.first; it != range.second; ++it)
        to_lock.push_back(it->second);
    fwdLockWaiters.erase(range.first, range.second);
    for (SeqNum aseq : to_lock) {
        if (!inFlight(aseq))
            continue;
        RobEntry &e = rob(aseq);
        if (e.seq != aseq || e.astate != AState::ExecDoneFwd)
            continue;
        // The forwarding store just wrote, so it (and everything older)
        // has committed: older atomics have unlocked and the lock can
        // engage immediately, preserving atomic locality.
        if (aq.olderAllLocked(aseq)) {
            acquireLock(e, FillSource::Forwarded, now);
        } else {
            e.astate = AState::WaitLock;
            const AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
            if (obs_ && a.spanId)
                obs_->atomicPhase(a.spanId, SpanSeg::UnblockWait, now);
            lockWaits_++;
        }
    }
}

void
Core::drainStores(Cycle now)
{
    // Retire written heads.
    while (SqEntry *h = sq.headEntry()) {
        if (!h->written)
            break;
        sq.freeHead(h->seq, now, obs_);
        wakeLazyHead();
    }
    SqEntry *h = sq.headEntry();
    if (h && h->committed && !h->written && !h->writeInFlight &&
        !h->isAtomic) {
        h->writeInFlight = true;
        ROWSIM_TRACE(obs_, TraceCategory::Pipeline, now,
                     "core%u sb-drain seq=%llu addr=%#llx occ=%u",
                     coreId, static_cast<unsigned long long>(h->seq),
                     static_cast<unsigned long long>(h->addr),
                     sq.size());
        MemAccess a;
        a.addr = h->addr;
        a.token = sbWriteToken | sq.indexOf(h);
        a.needExclusive = true;
        a.isWrite = true;
        a.writeValue = h->value;
        cache->access(a, now);
    }
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

bool
Core::blockedByBarrier(SeqNum seq) const
{
    return !memBarriers.empty() && *memBarriers.begin() < seq;
}

bool
Core::lazyConditionMet(const RobEntry &e) const
{
    return lq.isOldest(e.seq) && sq.noneOlderThan(e.seq);
}

bool
Core::atomicSelectLazy(const MicroOp &op)
{
    switch (params.atomicPolicy) {
      case AtomicPolicy::Eager:
        return false;
      case AtomicPolicy::Lazy:
      case AtomicPolicy::Fenced:
        return true;
      case AtomicPolicy::RoW:
        return rowPredictor.predictContended(op.pc);
    }
    return false;
}

void
Core::sampleIndependentInsts(const RobEntry &e)
{
    // Fig. 4: how much independent work surrounds the atomic at issue?
    // Both walks read only the dense per-slot bytes, stepping the slot
    // index with a wrap.
    const std::size_t n = robSlots.size();
    std::uint64_t older_unexecuted = 0;
    std::size_t i = static_cast<std::size_t>((commitSeq + 1) % n);
    for (SeqNum s = commitSeq + 1; s < e.seq; s++) {
        older_unexecuted += !robCompleted_[i];
        if (++i == n)
            i = 0;
    }
    std::uint64_t younger_started = 0;
    i = slotOf(e);
    for (SeqNum s = e.seq + 1; s < nextSeq; s++) {
        if (++i == n)
            i = 0;
        younger_started += robIssued_[i];
    }
    olderUnexecutedAtIssue_.sample(static_cast<double>(older_unexecuted));
    youngerStartedAtIssue_.sample(static_cast<double>(younger_started));
}

bool
Core::atomicExecute(RobEntry &e, Cycle now)
{
    AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
    if (a.addr == invalidAddr)
        a.addr = e.op.addr; // address calculation (lazy without RW)

    // The STU's address is known from here on: younger loads/atomics must
    // not treat it as an unresolved store (that would serialise every
    // atomic behind every older one).
    SqEntry &stu = sq.entry(static_cast<unsigned>(e.sqIdx));
    stu.addressReady = true;
    stu.addr = a.addr;

    // Atomics never speculate on memory dependences: a store between
    // the youngest match and the atomic that is still unresolved could
    // target our word, so wait for every older store address (cheap in
    // practice; store addresses resolve at issue). An unwritten
    // same-word store forwards its value (§IV-E: only older *regular*
    // stores; atomic-to-atomic chains extend lock windows and can
    // livelock) or is waited for: atomicity needs the post-store value
    // from the cache.
    bool unknown_older = false;
    SqEntry *src = sq.forwardSource(e.seq, a.addr, unknown_older);
    if (src && src->written)
        src = nullptr;
    if (unknown_older ||
        (src && (!params.forwardToAtomics || src->isAtomic))) {
        e.astate = AState::WaitStore;
        e.waitStoreSeq = unknown_older ? 0 : src->seq;
        e.reissueReadyAt = invalidCycle;
        if (obs_ && a.spanId)
            obs_->atomicPhase(a.spanId, SpanSeg::SbDrain, now);
        return false;
    }
    if (src) {
        // Forwarded execution (§IV-E): consume the store's value now;
        // the lock engages when the store writes.
        if (a.issueCycle == invalidCycle) {
            a.issueCycle = now;
            sampleIndependentInsts(e);
        }
        e.forwardedAtomic = true;
        e.waitStoreSeq = src->seq;
        e.result = src->value;
        e.atomicNewValue = atomicModify(e.op, e.result);
        stu.value = e.atomicNewValue;
        stu.valueReady = true;
        e.astate = AState::ExecDoneFwd;
        setIssued(e, true);
        fwdLockWaiters.emplace(src->seq, e.seq);
        LqEntry &l = lq.entry(static_cast<unsigned>(e.lqIdx));
        l.issued = true;
        l.addr = a.addr;
        l.fwdFrom = src->seq;
        scheduleCompletion(e.seq, now + 2);
        iqOccupancy--;
        atomicsForwarded_++;
        if (obs_) {
            obs_->atomicForwarded(coreId, e.seq, a.spanId, a.line(),
                                  src->seq, now);
        }
        return true;
    }
    if (a.issueCycle == invalidCycle) {
        a.issueCycle = now;
        sampleIndependentInsts(e);
    }
    (e.lazySelected ? atomicsIssuedLazy_ : atomicsIssuedEager_)++;
    if (obs_) {
        obs_->atomicIssued(coreId, e.seq, a.spanId, a.line(),
                           e.lazySelected, now);
    }

    a.issuedCycle14 = static_cast<std::uint16_t>(
        now & ((1u << params.row.timestampBits) - 1));
    a.timestampValid = true;
    e.astate = AState::MemIssued;
    setIssued(e, true);
    LqEntry &l = lq.entry(static_cast<unsigned>(e.lqIdx));
    l.issued = true;
    l.addr = a.addr;

    MemAccess m;
    m.addr = a.addr;
    m.token = token(e);
    m.needExclusive = true;
    m.isAtomic = true;
    m.spanId = a.spanId;
    cache->access(m, now);
    iqOccupancy--;
    return true;
}

bool
Core::tryIssueAtomic(RobEntry &e, Cycle now)
{
    if (blockedByBarrier(e.seq))
        return false;

    AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));

    if (e.astate == AState::WaitOperands) {
        if (!e.lazySelected) {
            e.astate = AState::WaitLazy; // transient; atomicExecute decides
            return atomicExecute(e, now);
        }
        // Predicted/forced lazy. Under RoW with RW/RW+Dir detection the
        // atomic issues once now to compute its address (§IV-B),
        // extending the contention-tracking window; it stays in the IQ.
        const bool early_addr =
            params.atomicPolicy == AtomicPolicy::RoW &&
            params.row.detector != ContentionDetector::EW;
        if (early_addr && a.addr == invalidAddr) {
            a.addr = e.op.addr;
            a.onlyCalcAddr = true;
            SqEntry &stu = sq.entry(static_cast<unsigned>(e.sqIdx));
            stu.addressReady = true;
            stu.addr = a.addr;
            onlyCalcAddrIssues_++;
            // Atomic locality (§IV-E): a matching older store in the SB
            // promotes the atomic to eager execution.
            if (params.forwardToAtomics && params.row.localityPromotion &&
                sq.olderSameLineUnwritten(e.seq, a.line())) {
                a.onlyCalcAddr = false;
                e.lazySelected = false;
                atomicsPromotedEager_++;
                return atomicExecute(e, now);
            }
        }
        e.astate = AState::WaitLazy;
        if (obs_ && a.spanId)
            obs_->atomicPhase(a.spanId, SpanSeg::AqWait, now);
        return false;
    }

    // WaitLazy / WaitStore: once the wait condition holds, pay the
    // wakeup/select/issue pipeline delay before the memory request goes
    // out.
    bool met = true;
    if (e.astate == AState::WaitLazy) {
        met = lazyConditionMet(e);
        // Refine the wait: once the atomic is the oldest memory op, the
        // remaining wait is purely the SB drain.
        if (!met && obs_ && a.spanId && lq.isOldest(e.seq))
            obs_->atomicPhase(a.spanId, SpanSeg::SbDrain, now);
    } else {
        ROWSIM_ASSERT(e.astate == AState::WaitStore,
                      "atomic issue in unexpected state %d",
                      static_cast<int>(e.astate));
        // Wait for store waitStoreSeq to write. 0 (an unresolved older
        // address) matches no entry: that wait re-stamps every re-try.
        sq.forEach([&](SqEntry &s) {
            if (s.seq == e.waitStoreSeq && !s.written)
                met = false;
        });
    }
    if (!met) {
        e.reissueReadyAt = invalidCycle;
        return false;
    }
    if (e.reissueReadyAt == invalidCycle)
        e.reissueReadyAt = now + params.atomicReissueDelay;
    if (now < e.reissueReadyAt)
        return false;
    a.onlyCalcAddr = false;
    return atomicExecute(e, now);
}

bool
Core::tryIssueLoad(RobEntry &e, Cycle now)
{
    if (blockedByBarrier(e.seq))
        return false;

    bool unknown_older = false;
    SqEntry *src = sq.forwardSource(e.seq, e.op.addr, unknown_older);
    LqEntry &l = lq.entry(static_cast<unsigned>(e.lqIdx));

    // unknown_older means a store BETWEEN the match (if any) and this
    // load has not resolved its address yet: whatever the load consumes
    // (forwarded value or cache data) is speculative, so the StoreSet
    // decision comes first.
    if (unknown_older) {
        // StoreSet prediction, captured at dispatch (the LFST may have
        // moved on to younger stores by now).
        const SeqNum dep = e.waitStoreSeq;
        if (dep != 0 && dep < e.seq && inFlight(dep)) {
            const RobEntry &st = rob(dep);
            if (st.op.cls == OpClass::Store && st.seq == dep &&
                !issued(st)) {
                loadsPredictedDependent_++;
                return false; // predicted dependent: wait
            }
        }
        // Speculate past the unresolved store(s); the violation scan at
        // store resolution replays us if the speculation was wrong.
        loadsSpeculated_++;
    }

    if (src && !src->written) {
        if (params.storeToLoadForwarding && src->valueReady) {
            e.result = src->value;
            l.issued = true;
            l.addr = e.op.addr;
            l.fwdFrom = src->seq;
            setIssued(e, true);
            scheduleCompletion(e.seq, now + 2);
            loadsForwarded_++;
            iqOccupancy--;
            return true;
        }
        return false; // wait for the store to write, then read the cache
    }

    l.issued = true;
    l.addr = e.op.addr;
    l.fwdFrom = 0;
    setIssued(e, true);
    MemAccess m;
    m.addr = e.op.addr;
    m.token = token(e);
    cache->access(m, now);
    iqOccupancy--;
    return true;
}

void
Core::replayLoad(RobEntry &load, Addr store_pc, Cycle now)
{
    storeSet.violation(load.op.pc, store_pc);
    loadReplays_++;
    load.replayGen++;
    setCompleted(load, false);
    setIssued(load, false);
    LqEntry &l = lq.entry(static_cast<unsigned>(load.lqIdx));
    l.issued = false;
    l.completed = false;
    l.fwdFrom = 0;
    iqOccupancy++; // back into the issue queue
    pushReady(load.seq, now);
}

bool
Core::tryIssueStore(RobEntry &e, Cycle now)
{
    if (blockedByBarrier(e.seq))
        return false;

    SqEntry &s = sq.entry(static_cast<unsigned>(e.sqIdx));
    s.addressReady = true;
    s.addr = e.op.addr;
    s.value = e.op.value;
    s.valueReady = true;
    setIssued(e, true);
    storeSet.storeExecuted(e.ssSet, e.seq);

    // Memory-order violation scan: younger loads to the same word that
    // issued before this store resolved its address must replay unless
    // they forwarded from an even younger store.
    const Addr word = wordAlign(e.op.addr);
    std::vector<SeqNum> to_replay;
    lq.forEach([&](LqEntry &l) {
        if (l.seq > e.seq && l.issued && !l.isAtomic &&
            l.addr != invalidAddr && wordAlign(l.addr) == word &&
            (l.fwdFrom == 0 || l.fwdFrom < e.seq)) {
            to_replay.push_back(l.seq);
        }
    });
    for (SeqNum ls : to_replay)
        replayLoad(rob(ls), e.op.pc, now);

    scheduleCompletion(e.seq, now + 1);
    iqOccupancy--;
    return true;
}

bool
Core::tryIssueFence(RobEntry &e, Cycle now)
{
    // Every older load has completed and every older store written.
    bool ready = true;
    lq.forEach([&](LqEntry &l) { ready &= l.seq >= e.seq || l.completed; });
    sq.forEach([&](SqEntry &s) { ready &= s.seq >= e.seq || s.written; });
    if (!ready)
        return false;
    setIssued(e, true);
    scheduleCompletion(e.seq, now + 1);
    iqOccupancy--;
    return true;
}

bool
Core::tryIssue(SeqNum seq, Cycle now)
{
    RobEntry &e = rob(seq);
    ROWSIM_ASSERT(e.busy && !issued(e), "tryIssue on bad entry");

    switch (e.op.cls) {
      case OpClass::IntAlu:
      case OpClass::FpAlu:
      case OpClass::Branch:
      case OpClass::Nop:
        setIssued(e, true);
        scheduleCompletion(seq, now + std::max<unsigned>(1,
                                                         e.op.execLatency));
        iqOccupancy--;
        return true;
      case OpClass::Load:
        return tryIssueLoad(e, now);
      case OpClass::Store:
        return tryIssueStore(e, now);
      case OpClass::Fence:
        return tryIssueFence(e, now);
      case OpClass::AtomicRMW:
        return tryIssueAtomic(e, now);
    }
    return false;
}

void
Core::park(RobEntry &e, WakeList w)
{
    e.wake = w;
    switch (w) {
      case WakeList::Retry:
        retry_.push_back(e.seq);
        break;
      case WakeList::Timer:
        reissueTimers_.emplace(e.reissueReadyAt, e.seq);
        break;
      case WakeList::StoreWrite:
        storeWaiters_.emplace(e.waitStoreSeq, e.seq);
        break;
      case WakeList::Barrier:
        barrierWaiters_.push_back(e.seq);
        break;
      default:
        break; // LqHead / SbDrain: found through the LQ head
    }
}

void
Core::sleep(RobEntry &e)
{
    // A failed re-try changes nothing but idempotent state (a cleared
    // stamp, a repeated span segment), so until one of these events the
    // op's next re-try would fail the same way. Fences ignore barriers.
    // An unblocked load counts stats per re-try and a fence's condition
    // can revert (load replay): those keep re-trying every pass.
    WakeList w = WakeList::Retry;
    if (e.op.cls != OpClass::Fence && blockedByBarrier(e.seq))
        w = WakeList::Barrier;
    else if (e.op.cls != OpClass::AtomicRMW)
        w = WakeList::Retry;
    else if (e.reissueReadyAt != invalidCycle)
        w = WakeList::Timer;
    else if (e.astate == AState::WaitLazy && !lazyConditionMet(e))
        w = lq.isOldest(e.seq) ? WakeList::SbDrain : WakeList::LqHead;
    else if (e.astate == AState::WaitStore && e.waitStoreSeq != 0)
        w = WakeList::StoreWrite; // atomicExecute saw it unwritten
    // else: an unresolved older store address (it resolves during an
    // issue pass), or a lazy condition met before the first stamp.
    park(e, w);
}

void
Core::wakeLazyHead()
{
    const SeqNum head = lq.oldestSeq();
    if (head == 0)
        return;
    RobEntry &e = rob(head);
    if (e.wake == WakeList::LqHead ||
        (e.wake == WakeList::SbDrain && sq.noneOlderThan(head)))
        park(e, WakeList::Retry);
}

void
Core::retireBarrier(SeqNum seq)
{
    memBarriers.erase(seq);
    auto keep = barrierWaiters_.begin();
    for (SeqNum w : barrierWaiters_) {
        if (blockedByBarrier(w))
            *keep++ = w;
        else
            park(rob(w), WakeList::Retry);
    }
    barrierWaiters_.erase(keep, barrierWaiters_.end());
}

void
Core::issueStage(Cycle now)
{
    unsigned slots = params.issueWidth;
    issueTruncated_ = false;
    parkTail_.clear();

    // Re-try woken and due ops, oldest first, before the newly-ready
    // ones. Sleepers are skipped: their re-try would fail without
    // effect, so the slots and stamps of this pass match re-trying every
    // parked op.
    while (!reissueTimers_.empty() && reissueTimers_.top().first <= now) {
        park(rob(reissueTimers_.top().second), WakeList::Retry);
        reissueTimers_.pop();
    }
    if (!retry_.empty()) {
        issuePass_.swap(retry_);
        std::sort(issuePass_.begin(), issuePass_.end());
        for (SeqNum seq : issuePass_) {
            RobEntry &e = rob(seq);
            if (slots == 0) {
                retry_.push_back(seq); // stays woken
            } else if (!tryIssue(seq, now)) {
                sleep(e);
            } else {
                e.wake = WakeList::None;
                if (--slots == 0) {
                    // Truncated iff a younger op is parked at all.
                    for (SeqNum y = seq + 1; y < nextSeq && !issueTruncated_;
                         y++)
                        issueTruncated_ = rob(y).wake != WakeList::None;
                }
            }
        }
        issuePass_.clear();
    }

    while (slots > 0 && !readyQueue.empty()) {
        SeqNum seq = readyQueue.top();
        readyQueue.pop();
        if (!inFlight(seq) || issued(rob(seq)) || !rob(seq).busy)
            continue;
        if (tryIssue(seq, now)) {
            slots--;
        } else {
            park(rob(seq), WakeList::Retry); // one re-try next pass
            parkTail_.push_back(seq);
        }
    }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

bool
Core::dispatchRoom(const MicroOp *op) const
{
    if (robCount() >= params.robEntries || iqOccupancy >= params.iqEntries)
        return false;
    switch (op ? op->cls : OpClass::Nop) {
      case OpClass::Load:
        return !lq.full();
      case OpClass::Store:
        return !sq.full();
      case OpClass::AtomicRMW:
        return !lq.full() && !sq.full() && !aq.full();
      default:
        return true;
    }
}

void
Core::dispatchStage(Cycle now)
{
    if (fetchBlockedBy != 0 || now < fetchBlockedUntil)
        return;

    for (unsigned i = 0; i < params.fetchWidth; i++) {
        if (fetchBuffer.empty()) {
            if (halted)
                return;
            fetchBuffer.push_back(stream->next());
        }
        const MicroOp &op = fetchBuffer.front();
        if (!dispatchRoom(&op))
            return;

        const SeqNum seq = nextSeq++;
        RobEntry &e = rob(seq);
        ROWSIM_ASSERT(!e.busy, "ROB slot reuse while busy");
        e = RobEntry{};
        setIssued(e, false);
        setCompleted(e, false);
        e.op = op;
        e.seq = seq;
        e.busy = true;
        e.dispatchCycle = now;
        fetchBuffer.pop_front();

        for (std::uint32_t dist : {e.op.src0, e.op.src1}) {
            if (dist == 0 || dist >= seq)
                continue;
            const SeqNum pseq = seq - dist;
            if (pseq <= commitSeq)
                continue;
            RobEntry &prod = rob(pseq);
            if (prod.busy && !completed(prod)) {
                prod.dependents.push_back(seq);
                e.depsPending++;
            }
        }

        switch (e.op.cls) {
          case OpClass::Load:
            e.lqIdx = static_cast<int>(lq.allocate(seq, false, now, obs_));
            // Record the StoreSet-predicted dependence now; the LFST is
            // only meaningful at dispatch time.
            e.waitStoreSeq = storeSet.dependence(e.op.pc);
            if (e.waitStoreSeq != 0)
                loadsDispatchedWithDep_++;
            break;
          case OpClass::Store: {
            e.sqIdx = static_cast<int>(sq.allocate(seq, false, now, obs_));
            e.ssSet = storeSet.setOf(e.op.pc);
            storeSet.storeFetched(e.ssSet, seq);
            break;
          }
          case OpClass::AtomicRMW: {
            e.lqIdx = static_cast<int>(lq.allocate(seq, true, now, obs_));
            e.sqIdx = static_cast<int>(sq.allocate(seq, true, now, obs_));
            e.aqIdx =
                static_cast<int>(aq.allocate(seq, e.op.pc, now, obs_));
            e.astate = AState::WaitOperands;
            e.lazySelected = atomicSelectLazy(e.op);
            aq.entry(static_cast<unsigned>(e.aqIdx)).predictedContended =
                e.lazySelected;
            if (obs_) {
                aq.entry(static_cast<unsigned>(e.aqIdx)).spanId =
                    obs_->atomicDispatched(coreId, seq, e.op.pc,
                                           e.lazySelected, now);
            }
            if (params.atomicPolicy == AtomicPolicy::Fenced)
                memBarriers.insert(seq);
            atomicsDispatched_++;
            if (e.lazySelected)
                atomicsPredictedContended_++;
            break;
          }
          case OpClass::Fence:
            memBarriers.insert(seq);
            break;
          case OpClass::Branch: {
            const bool correct = branchPred.update(e.op.pc,
                                                   e.op.takenBranch);
            if (!correct) {
                fetchBlockedBy = seq;
                branchMispredicts_++;
            }
            break;
          }
          default:
            break;
        }

        iqOccupancy++;
        dispatched_++;
        if (e.depsPending == 0)
            pushReady(seq, now);

        if (fetchBlockedBy == seq)
            return; // stop fetching past a mispredicted branch
    }
}

// ---------------------------------------------------------------------
// Tick
// ---------------------------------------------------------------------

void
Core::tick(Cycle now)
{
    processCompletions(now);

    while (!pendingUnlocks.empty() && pendingUnlocks.begin()->first <= now) {
        SeqNum seq = pendingUnlocks.begin()->second;
        pendingUnlocks.erase(pendingUnlocks.begin());
        atomicUnlock(seq, now);
    }

    const std::uint64_t before = committedInsts;
    commitStage(now);
    if (obs_) {
        obs_->commitSlots(coreId,
                          static_cast<unsigned>(committedInsts - before),
                          [this] { return classifyCommitStall(); });
    }
    drainStores(now);
    issueStage(now);
    dispatchStage(now);
}

bool
Core::drained() const
{
    return robCount() == 0 && sq.empty() && lq.empty() && aq.empty() &&
           completions.empty() && pendingUnlocks.empty();
}

Cycle
Core::nextEventCycle(Cycle now) const
{
    const Cycle next_tick = now + 1;

    // Work that would proceed on the very next tick: ready ops, parked
    // ops due for a re-try, a committable ROB head, a drainable or
    // freeable SB head.
    if (!readyQueue.empty() || !retry_.empty())
        return next_tick;

    const SeqNum head_seq = commitSeq + 1;
    if (inFlight(head_seq)) {
        const RobEntry &e = rob(head_seq);
        if (e.busy && e.seq == head_seq && completed(e)) {
            if (e.op.cls != OpClass::AtomicRMW)
                return next_tick;
            // Free Atomics commit rule: both conditions change only via
            // events (fills, unlocks, SB writes), so a blocked atomic
            // head contributes nothing here.
            const AqEntry &a = aq.entry(static_cast<unsigned>(e.aqIdx));
            if (a.locked && sq.sbEmpty())
                return next_tick;
        }
    }

    if (const SqEntry *h = sq.headEntry()) {
        if (h->written ||
            (h->committed && !h->writeInFlight && !h->isAtomic))
            return next_tick;
    }

    Cycle next = invalidCycle;
    auto consider = [&](Cycle c) {
        if (c != invalidCycle)
            next = std::min(next, std::max(c, next_tick));
    };

    if (!completions.empty())
        consider(completions.begin()->first);
    if (!pendingUnlocks.empty())
        consider(pendingUnlocks.begin()->first);
    // A stamped atomic wakes at its stamp. Sleepers wait for a commit,
    // SB drain, store write or barrier retire, all bounded by the terms
    // above or the memory system's.
    if (!reissueTimers_.empty())
        consider(reissueTimers_.top().first);
    // Dispatch: when fetch is unblocked and resources are free, the core
    // fetches/dispatches next tick (or when the redirect penalty ends).
    // With resources full, dispatch resumes only after a commit (event).
    if (fetchBlockedBy == 0 && !(halted && fetchBuffer.empty()) &&
        dispatchRoom(fetchBuffer.empty() ? nullptr : &fetchBuffer.front()))
        consider(std::max(fetchBlockedUntil, next_tick));
    return next;
}

bool
Core::hasPendingUnlock(SeqNum seq) const
{
    for (const auto &kv : pendingUnlocks) {
        if (kv.second == seq)
            return true;
    }
    return false;
}

void
Core::dumpDiag(std::FILE *out, Cycle now) const
{
    std::fprintf(out,
                 "{\"core\":%u,\"halted\":%d,\"drained\":%d,"
                 "\"commitSeq\":%llu,\"nextSeq\":%llu,\"rob\":%u,"
                 "\"iq\":%u,\"lq\":%u,\"sq\":%u,\"aq\":%u,"
                 "\"memBarriers\":%zu,\"pendingUnlocks\":%zu,"
                 "\"completions\":%zu,\"aqEntries\":[",
                 coreId, halted ? 1 : 0, drained() ? 1 : 0,
                 static_cast<unsigned long long>(commitSeq),
                 static_cast<unsigned long long>(nextSeq), robCount(),
                 iqOccupancy, lq.size(), sq.size(), aq.size(),
                 memBarriers.size(), pendingUnlocks.size(),
                 completions.size());
    bool first = true;
    aq.forEach([&](const AqEntry &a) {
        std::fprintf(out,
                     "%s{\"seq\":%llu,\"line\":\"%#llx\",\"locked\":%d,"
                     "\"contended\":%d,\"heldFor\":%llu}",
                     first ? "" : ",",
                     static_cast<unsigned long long>(a.seq),
                     static_cast<unsigned long long>(a.line()),
                     a.locked ? 1 : 0, a.contended ? 1 : 0,
                     static_cast<unsigned long long>(
                         a.locked && a.lockCycle != invalidCycle &&
                                 now >= a.lockCycle
                             ? now - a.lockCycle
                             : 0));
        first = false;
    });
    // Parked ops and the list each sleeps on: a lost wakeup shows up
    // here as an op stuck on a list whose event already happened.
    static const char *const astateNames[] = {
        "None", "WaitOperands", "WaitLazy", "WaitStore", "MemIssued",
        "WaitLock", "Locked", "ExecDoneFwd", "Done"};
    static const char *const wakeNames[] = {
        "none", "retry", "lqHead", "sbDrain", "storeWrite", "barrier",
        "timer"};
    std::fprintf(out, "],\"parked\":[");
    first = true;
    for (SeqNum seq = commitSeq + 1; seq < nextSeq; seq++) {
        const RobEntry &e = rob(seq);
        if (e.wake == WakeList::None)
            continue;
        std::fprintf(out,
                     "%s{\"seq\":%llu,\"op\":\"%s\",\"astate\":\"%s\","
                     "\"wake\":\"%s\"}",
                     first ? "" : ",", static_cast<unsigned long long>(seq),
                     opClassName(e.op.cls),
                     astateNames[static_cast<int>(e.astate)],
                     wakeNames[static_cast<int>(e.wake)]);
        first = false;
    }
    std::fprintf(out, "]}");
}

void
Core::save(Ser &s) const
{
    s.section("core");
    s.u32(coreId);

    // Every ROB slot is serialized, stale entries included: restored slot
    // garbage then matches an uninterrupted run's, so any later image of
    // the two executions stays bit-identical.
    s.u64(robSlots.size());
    for (const RobEntry &e : robSlots) {
        saveOp(s, e.op);
        s.u64(e.seq);
        s.b(e.busy);
        s.b(issued(e));
        s.b(completed(e));
        s.b(e.wokeDependents);
        s.u8(e.depsPending);
        s.u16(e.replayGen);
        s.u64(e.dispatchCycle);
        s.u64(e.readyCycle);
        s.u64(static_cast<std::uint64_t>(e.lqIdx));
        s.u64(static_cast<std::uint64_t>(e.sqIdx));
        s.u64(static_cast<std::uint64_t>(e.aqIdx));
        s.u32(e.ssSet);
        s.u8(static_cast<std::uint8_t>(e.astate));
        s.b(e.lazySelected);
        s.b(e.forwardedAtomic);
        s.u64(e.waitStoreSeq);
        s.u64(e.reissueReadyAt);
        s.b(e.fillContentionHint);
        s.u64(e.result);
        s.u64(e.atomicNewValue);
        s.u64(e.dependents.size());
        for (SeqNum dep : e.dependents)
            s.u64(dep);
    }

    lq.save(s);
    sq.save(s);
    aq.save(s);
    branchPred.save(s);
    storeSet.save(s);
    rowPredictor.save(s);

    s.u64(nextSeq);
    s.u64(commitSeq);

    // priority_queue has no iterators; copy-drain in pop order (ascending
    // SeqNum), which is also exactly the order restore re-pushes in.
    auto readyCopy = readyQueue;
    s.u64(readyCopy.size());
    while (!readyCopy.empty()) {
        s.u64(readyCopy.top());
        readyCopy.pop();
    }

    // Parked ops in the order a re-try-everything issue stage kept
    // them: the last pass's survivors ascending, then later parks.
    std::vector<SeqNum> parked;
    for (SeqNum seq = commitSeq + 1; seq < nextSeq; seq++) {
        if (rob(seq).wake != WakeList::None &&
            std::find(parkTail_.begin(), parkTail_.end(), seq) ==
                parkTail_.end())
            parked.push_back(seq);
    }
    parked.insert(parked.end(), parkTail_.begin(), parkTail_.end());
    s.u64(parked.size());
    for (SeqNum w : parked)
        s.u64(w);

    s.u64(completions.size());
    for (const auto &[cycle, ev] : completions) {
        s.u64(cycle);
        s.u64(ev.first);
        s.u16(ev.second);
    }

    s.u64(pendingUnlocks.size());
    for (const auto &[cycle, seq] : pendingUnlocks) {
        s.u64(cycle);
        s.u64(seq);
    }

    s.u64(memBarriers.size());
    for (SeqNum b : memBarriers)
        s.u64(b);

    s.u64(fwdLockWaiters.size());
    for (const auto &[storeSeq, atomicSeq] : fwdLockWaiters) {
        s.u64(storeSeq);
        s.u64(atomicSeq);
    }

    s.u64(fetchBuffer.size());
    for (const MicroOp &op : fetchBuffer)
        saveOp(s, op);
    s.u64(fetchBlockedBy);
    s.u64(fetchBlockedUntil);
    s.u32(iqOccupancy);
    s.b(halted);
    s.b(issueTruncated_);

    s.u64(committedInsts);
    s.u64(committedAtomicCount);
    s.u64(iterations);

    stream->save(s);
}

void
Core::restore(Deser &d)
{
    d.section("core");
    const CoreId id = d.u32();
    if (id != coreId) {
        throw SnapshotError(strprintf(
            "core id mismatch: image core %u restored into core %u", id,
            coreId));
    }

    const std::uint64_t nRob = d.u64();
    if (nRob != robSlots.size()) {
        throw SnapshotError(strprintf(
            "ROB size mismatch: image %llu entries, configured %zu",
            static_cast<unsigned long long>(nRob), robSlots.size()));
    }
    for (RobEntry &e : robSlots) {
        restoreOp(d, e.op);
        e.seq = d.u64();
        e.busy = d.b();
        setIssued(e, d.b());
        setCompleted(e, d.b());
        e.wokeDependents = d.b();
        e.depsPending = d.u8();
        e.replayGen = d.u16();
        e.dispatchCycle = d.u64();
        e.readyCycle = d.u64();
        e.lqIdx = static_cast<int>(d.u64());
        e.sqIdx = static_cast<int>(d.u64());
        e.aqIdx = static_cast<int>(d.u64());
        e.ssSet = d.u32();
        e.astate = static_cast<AState>(d.u8());
        e.lazySelected = d.b();
        e.forwardedAtomic = d.b();
        e.waitStoreSeq = d.u64();
        e.reissueReadyAt = d.u64();
        e.fillContentionHint = d.b();
        e.result = d.u64();
        e.atomicNewValue = d.u64();
        e.dependents.resize(d.u64());
        for (SeqNum &dep : e.dependents)
            dep = d.u64();
        e.wake = WakeList::None;
    }

    lq.restore(d);
    sq.restore(d);
    aq.restore(d);
    branchPred.restore(d);
    storeSet.restore(d);
    rowPredictor.restore(d);

    nextSeq = d.u64();
    commitSeq = d.u64();

    readyQueue = {};
    const std::uint64_t nReady = d.u64();
    for (std::uint64_t i = 0; i < nReady; i++)
        readyQueue.push(d.u64());

    // Every parked op re-tries on the first pass, which puts each back
    // on its wake list; a sleeper's re-try fails without effect.
    retry_.clear();
    reissueTimers_ = {};
    storeWaiters_.clear();
    barrierWaiters_.clear();
    parkTail_.resize(d.u64());
    for (SeqNum &w : parkTail_) {
        w = d.u64();
        park(rob(w), WakeList::Retry);
    }

    completions.clear();
    const std::uint64_t nCompl = d.u64();
    for (std::uint64_t i = 0; i < nCompl; i++) {
        const Cycle cycle = d.u64();
        const SeqNum seq = d.u64();
        const std::uint16_t gen = d.u16();
        completions.emplace_hint(completions.end(), cycle,
                                 std::make_pair(seq, gen));
    }

    pendingUnlocks.clear();
    const std::uint64_t nUnlocks = d.u64();
    for (std::uint64_t i = 0; i < nUnlocks; i++) {
        const Cycle cycle = d.u64();
        const SeqNum seq = d.u64();
        pendingUnlocks.emplace_hint(pendingUnlocks.end(), cycle, seq);
    }

    memBarriers.clear();
    const std::uint64_t nBarriers = d.u64();
    for (std::uint64_t i = 0; i < nBarriers; i++)
        memBarriers.insert(memBarriers.end(), d.u64());

    fwdLockWaiters.clear();
    const std::uint64_t nFwd = d.u64();
    for (std::uint64_t i = 0; i < nFwd; i++) {
        const SeqNum storeSeq = d.u64();
        const SeqNum atomicSeq = d.u64();
        fwdLockWaiters.emplace_hint(fwdLockWaiters.end(), storeSeq,
                                    atomicSeq);
    }

    fetchBuffer.resize(d.u64());
    for (MicroOp &op : fetchBuffer)
        restoreOp(d, op);
    fetchBlockedBy = d.u64();
    fetchBlockedUntil = d.u64();
    iqOccupancy = d.u32();
    halted = d.b();
    issueTruncated_ = d.b();

    committedInsts = d.u64();
    committedAtomicCount = d.u64();
    iterations = d.u64();

    stream->restore(d);
}

} // namespace rowsim
