/**
 * @file
 * Targeted tests for the core's less-travelled paths: memory-dependence
 * violations and load replay, in-order lock acquisition (WaitLock) and
 * its refetch, the lock-steal replay of a pre-commit atomic, MSHR
 * backpressure, the stats dump, and the issue stage's wake sources (the
 * cycle a parked atomic issues after the event that releases it).
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

MicroOp
mkop(OpClass cls, Addr addr = invalidAddr, std::uint64_t value = 0,
     std::uint32_t src0 = 0)
{
    MicroOp op;
    op.cls = cls;
    op.addr = addr;
    op.value = value;
    op.src0 = src0;
    if (cls == OpClass::AtomicRMW) {
        op.aop = AtomicOp::FetchAdd;
        op.value = value ? value : 1;
        op.pc = 0x9000;
    }
    return op;
}

std::unique_ptr<System>
single(std::vector<MicroOp> body, AtomicPolicy policy = AtomicPolicy::Eager)
{
    body.back().endOfIteration = true;
    SystemParams sp;
    sp.numCores = 1;
    sp.core.atomicPolicy = policy;
    std::vector<std::unique_ptr<InstStream>> streams;
    streams.push_back(std::make_unique<LoopStream>(std::move(body)));
    return std::make_unique<System>(sp, std::move(streams));
}

/** Emits a fixed program once, then Nops. */
class ScriptStream : public InstStream
{
  public:
    explicit ScriptStream(std::vector<MicroOp> script)
        : script_(std::move(script))
    {
    }

    MicroOp
    next() override
    {
        return idx_ < script_.size() ? script_[idx_++] : mkop(OpClass::Nop);
    }

  private:
    std::vector<MicroOp> script_;
    std::size_t idx_ = 0;
};

std::unique_ptr<System>
scripted(std::vector<MicroOp> script, const CoreParams &core)
{
    SystemParams sp;
    sp.numCores = 1;
    sp.core = core;
    std::vector<std::unique_ptr<InstStream>> streams;
    streams.push_back(std::make_unique<ScriptStream>(std::move(script)));
    return std::make_unique<System>(sp, std::move(streams));
}

struct WakeTiming
{
    Cycle event = invalidCycle; ///< first cycle @p event held
    Cycle issue = invalidCycle; ///< the atomic's memory issue cycle
    Cycle dispatch = invalidCycle;
};

/** Tick core 0 one cycle at a time until the atomic @p seq issues,
 *  noting the first cycle (after its dispatch) at which @p event holds
 *  at the end of the tick. */
WakeTiming
runUntilIssued(System &sys, SeqNum seq,
               const std::function<bool(Core &)> &event)
{
    WakeTiming t;
    while (t.issue == invalidCycle && sys.now() < 20000) {
        sys.runCycles(1);
        Core &c = sys.core(0);
        c.atomicQueue().forEach([&](const AqEntry &a) {
            if (a.seq == seq) {
                t.dispatch = a.dispatchCycle;
                t.issue = a.issueCycle;
            }
        });
        if (t.event == invalidCycle && c.seqInFlight(seq) && event(c))
            t.event = sys.now();
    }
    return t;
}

/** Store @p seq has written (or already left the store queue). */
bool
storeDone(const Core &c, SeqNum seq)
{
    bool done = true;
    c.storeQueue().forEach([&](const SqEntry &s) {
        if (s.seq == seq && !s.written)
            done = false;
    });
    return done;
}

} // namespace

TEST(CorePaths, StoreSetLearnsFromViolations)
{
    // A slow ALU chain delays the store's address resolution; the
    // dependent-by-address load speculates past it, gets replayed, and
    // the StoreSet learns to make it wait.
    std::vector<MicroOp> body;
    MicroOp slow = mkop(OpClass::IntAlu);
    slow.execLatency = 24;
    body.push_back(slow);                                // 0
    MicroOp st = mkop(OpClass::Store, 0x8000, 42);
    st.src0 = 1; // store waits for the slow op
    st.pc = 0x7100;
    body.push_back(st);                                  // 1
    MicroOp ld = mkop(OpClass::Load, 0x8000);
    ld.pc = 0x7200;
    body.push_back(ld);                                  // 2
    body.push_back(mkop(OpClass::IntAlu));               // 3

    auto sys = single(body);
    sys->run(60);
    EXPECT_GT(sys->core(0).stats().counterValue("loadReplays"), 0u);
    EXPECT_GT(sys->core(0).storeSets().stats().counterValue("violations"),
              0u);
    // After training, replays stop: the warmup burst (in-flight loads
    // dispatched before the first violation trained the SSIT) is bounded
    // regardless of run length.
    EXPECT_LT(sys->core(0).stats().counterValue("loadReplays"), 300u);
    EXPECT_GT(sys->core(0).stats().counterValue("loadsPredictedDependent"),
              sys->core(0).stats().counterValue("loadReplays"));
    sys->drain();
    EXPECT_EQ(sys->mem().functional().read64(0x8000), 42u);
}

TEST(CorePaths, InOrderLockAcquisition)
{
    // Two atomics per iteration: a slow (cold) one then a fast (hot)
    // one. The fast atomic's fill often arrives first and must wait its
    // turn (WaitLock) instead of locking out of order.
    class TwoAtomics : public InstStream
    {
      public:
        MicroOp
        next() override
        {
            switch (idx++ % 3) {
              case 0:
                return mkop(OpClass::AtomicRMW,
                            0x40000000 + (idx / 3) * 0x1000); // cold
              case 1:
                return mkop(OpClass::AtomicRMW, 0x1000); // hot
              default: {
                MicroOp op = mkop(OpClass::IntAlu);
                op.endOfIteration = true;
                return op;
              }
            }
        }

      private:
        std::uint64_t idx = 0;
    };

    SystemParams sp;
    sp.numCores = 1;
    sp.core.atomicPolicy = AtomicPolicy::Eager;
    std::vector<std::unique_ptr<InstStream>> streams;
    streams.push_back(std::make_unique<TwoAtomics>());
    System sys(sp, std::move(streams));
    sys.run(50);
    EXPECT_GT(sys.core(0).stats().counterValue("lockWaits"), 0u);
    sys.drain();
    // The hot counter accumulated one increment per iteration.
    EXPECT_EQ(sys.mem().functional().read64(0x1000),
              sys.core(0).committedAtomics() / 2);
}

TEST(CorePaths, LockStealReplaysPreCommitAtomic)
{
    // Core 0: a long serial ALU chain precedes each FAA on a hot word,
    // so the eagerly-acquired lock is held pre-commit while the chain
    // drains. Core 1 hammers the same line with stores. With a small
    // steal threshold, a stalled forward steals the lock, the atomic
    // replays — and the count stays exact.
    SystemParams sp;
    sp.numCores = 2;
    sp.core.atomicPolicy = AtomicPolicy::Eager;
    sp.mem.lockStealThreshold = 25;

    std::vector<std::unique_ptr<InstStream>> streams;
    {
        std::vector<MicroOp> body;
        for (int i = 0; i < 60; i++) {
            MicroOp op = mkop(OpClass::IntAlu);
            op.execLatency = 5;
            op.src0 = i == 0 ? 0 : 1; // serial chain
            body.push_back(op);
        }
        body.push_back(mkop(OpClass::AtomicRMW, 0x2000));
        body.push_back(mkop(OpClass::IntAlu));
        body.back().endOfIteration = true;
        streams.push_back(std::make_unique<LoopStream>(std::move(body)));
    }
    {
        std::vector<MicroOp> body = {mkop(OpClass::Store, 0x2008, 7),
                                     mkop(OpClass::IntAlu)};
        body.back().endOfIteration = true;
        streams.push_back(std::make_unique<LoopStream>(std::move(body)));
    }
    System sys(sp, std::move(streams));
    sys.run(20);
    sys.drain();
    EXPECT_GT(sys.totalCounter("forcedUnlocks"), 0u);
    EXPECT_EQ(sys.mem().functional().read64(0x2000),
              sys.core(0).committedAtomics());
}

TEST(CorePaths, MshrBackpressureDoesNotLoseAccesses)
{
    // Far more independent cold loads per iteration than MSHRs: the
    // overflow queues inside the cache and everything still completes.
    class Flood : public InstStream
    {
      public:
        MicroOp
        next() override
        {
            MicroOp op = mkop(OpClass::Load,
                              0x60000000 + idx * lineBytes);
            idx++;
            op.endOfIteration = idx % 64 == 0;
            return op;
        }

      private:
        std::uint64_t idx = 0;
    };

    SystemParams sp;
    sp.numCores = 1;
    sp.mem.mshrs = 8;
    std::vector<std::unique_ptr<InstStream>> streams;
    streams.push_back(std::make_unique<Flood>());
    System sys(sp, std::move(streams));
    sys.run(20);
    sys.drain();
    EXPECT_GT(sys.mem().cache(0).stats().counterValue("mshrFull"), 0u);
    EXPECT_GE(sys.core(0).committedInstructions(), 20u * 64u);
}

TEST(CorePaths, FencedAtomicBlocksYoungerMemoryIssue)
{
    // Under the Fenced policy a younger load may not issue until the
    // atomic unlocks; with Eager it runs ahead. Compare the younger-
    // started statistic.
    std::vector<MicroOp> body = {mkop(OpClass::Load, 0x70000000),
                                 mkop(OpClass::AtomicRMW, 0x3000),
                                 mkop(OpClass::Load, 0x71000000),
                                 mkop(OpClass::IntAlu)};
    auto fenced = single(body, AtomicPolicy::Fenced);
    auto eager = single(body, AtomicPolicy::Eager);
    Cycle cf = fenced->run(60);
    Cycle ce = eager->run(60);
    EXPECT_GT(cf, ce); // serialisation must cost cycles
}

TEST(CorePaths, DumpStatsEmitsEveryGroup)
{
    auto sys = single({mkop(OpClass::Load, 0x1000),
                       mkop(OpClass::AtomicRMW, 0x2000),
                       mkop(OpClass::IntAlu)});
    sys->run(10);

    // The stats JSON prints each group object on its own line.
    const std::string json = sys->statsJson();
    auto group = [&](const std::string &name) {
        const std::size_t at = json.find("\n    \"" + name + "\": {");
        if (at == std::string::npos)
            return std::string();
        return json.substr(at + 1, json.find('\n', at + 1) - at - 1);
    };
    EXPECT_NE(json.find("\"cycles\": "), std::string::npos);
    EXPECT_NE(group("sim"), "");
    EXPECT_NE(group("core0").find("\"atomicsUnlocked\": "),
              std::string::npos);
    EXPECT_NE(group("l1d0").find("\"accesses\": "), std::string::npos);
    EXPECT_NE(group("network").find("\"messages\": "), std::string::npos);
}

TEST(CorePaths, PrefetcherOffStillCorrect)
{
    SystemParams sp;
    sp.numCores = 1;
    sp.mem.prefetcher = false;
    std::vector<MicroOp> body = {mkop(OpClass::Load, 0x1000),
                                 mkop(OpClass::AtomicRMW, 0x2000),
                                 mkop(OpClass::IntAlu)};
    body.back().endOfIteration = true;
    std::vector<std::unique_ptr<InstStream>> streams;
    streams.push_back(std::make_unique<LoopStream>(std::move(body)));
    System sys(sp, std::move(streams));
    sys.run(30);
    sys.drain();
    EXPECT_EQ(sys.mem().cache(0).stats().counterValue("prefetchRequests"),
              0u);
    // In-flight iterations keep committing during drain, so compare
    // against the committed count, not the quota.
    EXPECT_EQ(sys.mem().functional().read64(0x2000),
              sys.core(0).committedAtomics());
}

// ---- wake sources: issue cycle == releasing event's tick + delay ----

TEST(CorePaths, LazyAtomicWakesOnLqHeadAdvance)
{
    // A cold load ahead of a lazy atomic: the atomic becomes the oldest
    // memory op when the load commits (SB already empty).
    CoreParams core;
    core.atomicPolicy = AtomicPolicy::Lazy;
    auto sys = scripted({mkop(OpClass::Load, 0x40000000),   // seq 1
                         mkop(OpClass::AtomicRMW, 0x1000)}, // seq 2
                        core);
    const WakeTiming t = runUntilIssued(*sys, 2, [](Core &c) {
        return c.loadQueue().isOldest(2);
    });
    ASSERT_NE(t.event, invalidCycle);
    EXPECT_GT(t.event, t.dispatch + 100); // it waited on the miss
    EXPECT_EQ(t.issue, t.event + core.atomicReissueDelay);
}

TEST(CorePaths, LazyAtomicWakesOnSbDrain)
{
    // No older load, but an older store to a cold line: the atomic is the
    // LQ head at once and waits for the SB to drain.
    CoreParams core;
    core.atomicPolicy = AtomicPolicy::Lazy;
    auto sys = scripted({mkop(OpClass::Store, 0x50000000, 5),  // seq 1
                         mkop(OpClass::IntAlu),                // seq 2
                         mkop(OpClass::AtomicRMW, 0x1000)},    // seq 3
                        core);
    const WakeTiming t = runUntilIssued(*sys, 3, [](Core &c) {
        return c.storeQueue().noneOlderThan(3);
    });
    ASSERT_NE(t.event, invalidCycle);
    EXPECT_GT(t.event, t.dispatch + 100);
    EXPECT_EQ(t.issue, t.event + core.atomicReissueDelay);
}

TEST(CorePaths, StoreWaitAtomicWakesOnItsStoreWrite)
{
    // Eager, no forwarding to atomics: the atomic must read the value an
    // older same-word store writes, so it waits for that store's write.
    CoreParams core;
    auto sys = scripted({mkop(OpClass::Store, 0x60000000, 5),  // seq 1
                         mkop(OpClass::AtomicRMW, 0x60000000)}, // seq 2
                        core);
    const WakeTiming t = runUntilIssued(
        *sys, 2, [](Core &c) { return storeDone(c, 1); });
    ASSERT_NE(t.event, invalidCycle);
    EXPECT_GT(t.event, t.dispatch + 100);
    EXPECT_EQ(t.issue, t.event + core.atomicReissueDelay);
    sys->drain();
    EXPECT_EQ(sys->mem().functional().read64(0x60000000), 6u);
}

TEST(CorePaths, StoreWaitOnUnresolvedAddressRestampsEveryRetry)
{
    // An older store's address waits on a slow ALU op. Each re-try finds
    // it unresolved and re-stamps on the next tick, so attempts fall on
    // t0 + k * (delay + 1); the first one after the store resolves
    // issues.
    CoreParams core;
    MicroOp slow = mkop(OpClass::IntAlu);
    slow.execLatency = 30;
    MicroOp st = mkop(OpClass::Store, 0x70000000, 5);
    st.src0 = 1;
    auto sys = scripted({slow,                               // seq 1
                         st,                                 // seq 2
                         mkop(OpClass::AtomicRMW, 0x2000)},  // seq 3
                        core);
    const WakeTiming t = runUntilIssued(*sys, 3, [](Core &c) {
        bool resolved = false;
        c.storeQueue().forEach([&](const SqEntry &s) {
            if (s.seq == 2)
                resolved = s.addressReady;
        });
        return resolved;
    });
    ASSERT_NE(t.event, invalidCycle);
    const Cycle period = core.atomicReissueDelay + 1;
    const Cycle first_try = t.dispatch + 1;
    const Cycle k = (t.event - first_try) / period + 1;
    EXPECT_GT(k, 1u); // it re-stamped at least once
    EXPECT_EQ(t.issue, first_try + k * period);
}

TEST(CorePaths, TruncatedPassLeavesWokenAtomicForNextTick)
{
    // One issue slot. A load and an atomic both wait on the same older
    // store (no store-to-load forwarding); its write wakes both, the
    // older load takes the slot, and the atomic re-tries a tick later.
    CoreParams core;
    core.issueWidth = 1;
    core.storeToLoadForwarding = false;
    auto sys = scripted({mkop(OpClass::Store, 0x80000000, 5),   // seq 1
                         mkop(OpClass::Load, 0x80000000),       // seq 2
                         mkop(OpClass::AtomicRMW, 0x80000000)}, // seq 3
                        core);
    bool load_issued_at_event = false;
    const WakeTiming t = runUntilIssued(*sys, 3, [&](Core &c) {
        if (!storeDone(c, 1))
            return false;
        c.loadQueue().forEach([&](const LqEntry &l) {
            if (l.seq == 2)
                load_issued_at_event = l.issued;
        });
        return true;
    });
    ASSERT_NE(t.event, invalidCycle);
    EXPECT_TRUE(load_issued_at_event);
    EXPECT_EQ(t.issue, t.event + 1 + core.atomicReissueDelay);
}
