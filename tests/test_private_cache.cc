/**
 * @file
 * Tests for the private cache unit wired to real directory banks over a
 * real network, with a scriptable MemClient standing in for the core:
 * hit/miss latencies, upgrades, evictions, cache locking (stalled
 * externals), and the lock-steal timeout.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "mem/flat_tables.hh"
#include "mem/memsystem.hh"

using namespace rowsim;

namespace
{

struct ScriptClient : MemClient
{
    std::vector<MemResult> done;
    std::vector<std::pair<std::uint64_t, FillSource>> atomicReady;
    std::set<Addr> lockedLines;
    std::vector<Addr> snoops;
    bool allowForceUnlock = false;
    int forceUnlocks = 0;

    void
    accessDone(const MemResult &r) override
    {
        done.push_back(r);
    }
    void
    atomicLineReady(std::uint64_t token, Addr line, FillSource source,
                    Cycle, bool, Cycle) override
    {
        atomicReady.emplace_back(token, source);
        lockedLines.insert(lineAlign(line));
    }
    bool
    lineLocked(Addr line) const override
    {
        return lockedLines.count(lineAlign(line)) > 0;
    }
    bool
    anyLineLocked() const override
    {
        return !lockedLines.empty();
    }
    void
    externalRequestSnoop(Addr line, Cycle) override
    {
        snoops.push_back(lineAlign(line));
    }
    bool
    tryForceUnlock(Addr line, Cycle) override
    {
        if (!allowForceUnlock)
            return false;
        forceUnlocks++;
        lockedLines.erase(lineAlign(line));
        return true;
    }
};

} // namespace

class PrivateCacheTest : public ::testing::Test
{
  protected:
    PrivateCacheTest()
    {
        params.numCores = 2;
        mem = std::make_unique<MemSystem>(params);
        mem->cache(0).setClient(&client0);
        mem->cache(1).setClient(&client1);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle end = now + cycles; now < end;) {
            now++;
            mem->tick(now);
        }
    }

    MemAccess
    load(Addr a, std::uint64_t token)
    {
        MemAccess m;
        m.addr = a;
        m.token = token;
        return m;
    }

    MemAccess
    store(Addr a, std::uint64_t v, std::uint64_t token)
    {
        MemAccess m;
        m.addr = a;
        m.token = token;
        m.needExclusive = true;
        m.isWrite = true;
        m.writeValue = v;
        return m;
    }

    MemAccess
    atomic(Addr a, std::uint64_t token)
    {
        MemAccess m;
        m.addr = a;
        m.token = token;
        m.needExclusive = true;
        m.isAtomic = true;
        return m;
    }

    SystemParams params;
    std::unique_ptr<MemSystem> mem;
    ScriptClient client0, client1;
    Cycle now = 0;
};

TEST_F(PrivateCacheTest, ColdLoadMissesToMemory)
{
    mem->cache(0).access(load(0x10000, 1), now);
    run(600);
    ASSERT_EQ(client0.done.size(), 1u);
    EXPECT_EQ(client0.done[0].source, FillSource::Memory);
    EXPECT_GT(client0.done[0].doneCycle - client0.done[0].requestCycle,
              params.mem.memoryLatency);
    EXPECT_EQ(mem->cache(0).lineState(0x10000), CacheState::Shared);
}

TEST_F(PrivateCacheTest, WarmLoadHitsInL1)
{
    mem->cache(0).access(load(0x10000, 1), now);
    run(600);
    client0.done.clear();
    mem->cache(0).access(load(0x10008, 2), now);
    run(20);
    ASSERT_EQ(client0.done.size(), 1u);
    EXPECT_EQ(client0.done[0].source, FillSource::L1Hit);
    EXPECT_EQ(client0.done[0].doneCycle - client0.done[0].requestCycle,
              params.mem.l1HitLatency);
}

TEST_F(PrivateCacheTest, StoreUpgradesSharedLine)
{
    mem->cache(0).access(load(0x10000, 1), now);
    run(600);
    EXPECT_EQ(mem->cache(0).lineState(0x10000), CacheState::Shared);
    mem->cache(0).access(store(0x10000, 42, 2), now);
    run(600);
    EXPECT_EQ(mem->cache(0).lineState(0x10000), CacheState::Modified);
    EXPECT_EQ(mem->functional().read64(0x10000), 42u);
}

TEST_F(PrivateCacheTest, RemoteDirtyLineForwardedFromOwner)
{
    mem->cache(0).access(store(0x10000, 7, 1), now);
    run(600);
    mem->cache(1).access(load(0x10000, 2), now);
    run(600);
    ASSERT_EQ(client1.done.size(), 1u);
    EXPECT_EQ(client1.done[0].source, FillSource::RemoteCache);
    EXPECT_EQ(client1.done[0].value, 7u);
    // Owner downgraded to Shared by the FwdGetS.
    EXPECT_EQ(mem->cache(0).lineState(0x10000), CacheState::Shared);
}

TEST_F(PrivateCacheTest, RemoteStoreInvalidatesOwner)
{
    mem->cache(0).access(store(0x10000, 7, 1), now);
    run(600);
    mem->cache(1).access(store(0x10000, 9, 2), now);
    run(600);
    EXPECT_EQ(mem->cache(0).lineState(0x10000), CacheState::Invalid);
    EXPECT_EQ(mem->cache(1).lineState(0x10000), CacheState::Modified);
    EXPECT_EQ(mem->functional().read64(0x10000), 9u);
}

TEST_F(PrivateCacheTest, AtomicLocksOnFill)
{
    mem->cache(0).access(atomic(0x10000, 1), now);
    run(600);
    ASSERT_EQ(client0.atomicReady.size(), 1u);
    EXPECT_TRUE(client0.lineLocked(0x10000));
    EXPECT_EQ(mem->cache(0).lineState(0x10000), CacheState::Modified);
}

TEST_F(PrivateCacheTest, LockedLineStallsExternalRequest)
{
    mem->cache(0).access(atomic(0x10000, 1), now);
    run(600);
    ASSERT_TRUE(client0.lineLocked(0x10000));

    // Core 1 wants the locked line: the forward must stall at core 0.
    mem->cache(1).access(store(0x10000, 5, 2), now);
    run(1000);
    EXPECT_TRUE(client1.done.empty());
    EXPECT_FALSE(client0.snoops.empty()); // RW/EW hook fired
    EXPECT_GT(mem->cache(0).stats().counterValue("lockStalledExternals"),
              0u);

    // Unlock: the stalled forward is serviced and core 1 completes.
    client0.lockedLines.clear();
    mem->cache(0).unlockNotify(0x10000, now);
    run(600);
    EXPECT_EQ(client1.done.size(), 1u);
    EXPECT_EQ(mem->cache(1).lineState(0x10000), CacheState::Modified);
}

TEST_F(PrivateCacheTest, LockStealAfterTimeout)
{
    mem->cache(0).lockStealThreshold = 200;
    mem->cache(0).access(atomic(0x10000, 1), now);
    run(600);
    client0.allowForceUnlock = true;
    mem->cache(1).access(store(0x10000, 5, 2), now);
    run(2000);
    EXPECT_GT(client0.forceUnlocks, 0);
    EXPECT_EQ(client1.done.size(), 1u);
    EXPECT_GT(mem->cache(0).stats().counterValue("lockSteals"), 0u);
}

TEST_F(PrivateCacheTest, MshrCoalescesSameLine)
{
    mem->cache(0).access(load(0x10000, 1), now);
    mem->cache(0).access(load(0x10008, 2), now);
    run(600);
    EXPECT_EQ(client0.done.size(), 2u);
    EXPECT_EQ(mem->cache(0).stats().counterValue("mshrCoalesced"), 1u);
    // Only one demand request went out (plus possibly a prefetch).
    EXPECT_LE(mem->cache(0).stats().counterValue("demandRequests"), 1u);
}

TEST_F(PrivateCacheTest, GetSFillUpgradesForExclusiveWaiter)
{
    // A load and a store to the same cold line: the GetS fill satisfies
    // the load; the store triggers a follow-up GetX.
    mem->cache(0).access(load(0x10000, 1), now);
    mem->cache(0).access(store(0x10000, 3, 2), now);
    run(1200);
    EXPECT_EQ(client0.done.size(), 2u);
    EXPECT_EQ(mem->cache(0).lineState(0x10000), CacheState::Modified);
    EXPECT_EQ(mem->functional().read64(0x10000), 3u);
}

TEST_F(PrivateCacheTest, DirtyEvictionWritesBack)
{
    // Fill way more M lines into one set than its associativity.
    const unsigned sets = params.mem.l2Sets;
    for (unsigned i = 0; i < params.mem.l2Ways + 2; i++) {
        Addr a = 0x10000 + static_cast<Addr>(i) * sets * lineBytes;
        mem->cache(0).access(store(a, i, 100 + i), now);
        run(600);
    }
    EXPECT_GT(mem->cache(0).stats().counterValue("writebacks"), 0u);
    // Values survive eviction through the functional memory + LLC.
    EXPECT_EQ(mem->functional().read64(0x10000), 0u);
    run(2000);
    EXPECT_TRUE(mem->idle());
}

TEST_F(PrivateCacheTest, PrefetcherFetchesNextLine)
{
    mem->cache(0).access(load(0x10000, 1), now);
    run(800);
    EXPECT_GT(mem->cache(0).stats().counterValue("prefetchRequests"), 0u);
    // The next line is now present without a demand access.
    EXPECT_NE(mem->cache(0).lineState(0x10000 + lineBytes),
              CacheState::Invalid);
}

TEST_F(PrivateCacheTest, SystemQuiescesAfterTraffic)
{
    for (int i = 0; i < 8; i++) {
        mem->cache(0).access(load(0x20000 + i * 0x1000, i), now);
        mem->cache(1).access(store(0x20000 + i * 0x1000, i, 100 + i), now);
        run(50);
    }
    run(3000);
    EXPECT_TRUE(mem->idle());
}

TEST_F(PrivateCacheTest, MshrTableFillsCoalescesAndDrains)
{
    // Cold store misses to consecutive lines (homed at different banks,
    // so fills return out of order and free MSHRs from the middle).
    const unsigned n = params.mem.mshrs;
    std::set<Addr> lines;
    for (unsigned i = 0; i < n; i++) {
        const Addr a = 0x40000 + static_cast<Addr>(i) * lineBytes;
        lines.insert(a);
        mem->cache(0).access(store(a, i, i), now);
    }
    PrivateCache &pc = mem->cache(0);
    EXPECT_EQ(pc.mshrCount(), n);
    // Table full: the next distinct miss waits for a free MSHR.
    pc.access(store(0x90000, 1, 1000), now);
    EXPECT_EQ(pc.mshrCount(), n);
    EXPECT_EQ(pc.stats().counterValue("mshrFull"), 1u);
    EXPECT_FALSE(pc.hasMshr(0x90000));
    // A second access to an outstanding line coalesces.
    pc.access(store(0x40000 + 8, 2, 1001), now);
    EXPECT_EQ(pc.mshrCount(), n);
    EXPECT_EQ(pc.stats().counterValue("mshrCoalesced"), 1u);

    std::set<Addr> seen;
    pc.forEachMshr([&](Addr line, const Mshr &m) {
        EXPECT_EQ(m.line, line);
        seen.insert(line);
    });
    EXPECT_EQ(seen, lines);

    // Drain part way: some MSHRs have freed, the parked miss took one.
    bool sawPartial = false;
    for (int i = 0; i < 3000 && pc.mshrCount() > 0; i++) {
        run(1);
        const std::size_t c = pc.mshrCount();
        if (c > 0 && c < n) {
            sawPartial = true;
            std::size_t walked = 0;
            pc.forEachMshr([&](Addr line, const Mshr &) {
                EXPECT_TRUE(pc.hasMshr(line));
                walked++;
            });
            EXPECT_EQ(walked, c);
        }
    }
    EXPECT_TRUE(sawPartial);
    run(2000);
    EXPECT_EQ(pc.mshrCount(), 0u);
    EXPECT_EQ(client0.done.size(), n + 2);
    EXPECT_EQ(mem->functional().read64(0x90000), 1u);
    EXPECT_TRUE(mem->idle());
}

TEST_F(PrivateCacheTest, WritebackBufferTracksEachPutMUntilAcked)
{
    std::vector<Addr> lines;
    for (unsigned i = 0; i < 6; i++)
        lines.push_back(0x80000 + static_cast<Addr>(i) * 3 * lineBytes);
    for (unsigned i = 0; i < lines.size(); i++)
        mem->cache(0).access(store(lines[i], i, i), now);
    run(1500);
    PrivateCache &pc = mem->cache(0);
    for (Addr l : lines)
        ASSERT_TRUE(pc.forceEvict(l, now));
    std::vector<Addr> seen;
    pc.forEachEvicting([&](Addr line, Cycle since) {
        EXPECT_EQ(since, now);
        seen.push_back(line);
    });
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, lines);
    for (Addr l : lines)
        EXPECT_TRUE(pc.isEvicting(l));
    EXPECT_FALSE(pc.isEvicting(0x80000 + lineBytes));

    run(1500);
    for (Addr l : lines)
        EXPECT_FALSE(pc.isEvicting(l));
    std::size_t left = 0;
    pc.forEachEvicting([&](Addr, Cycle) { left++; });
    EXPECT_EQ(left, 0u);
    EXPECT_TRUE(mem->idle());
}

TEST_F(PrivateCacheTest, EqualCycleResultsCompleteInIssueOrder)
{
    mem->cache(0).access(load(0x10000, 1), now);
    run(600);
    client0.done.clear();
    // Eight L1 hits issued on one cycle fall due on one cycle.
    for (std::uint64_t t = 10; t < 18; t++)
        mem->cache(0).access(load(0x10000 + (t % 8) * 8, t), now);
    run(20);
    ASSERT_EQ(client0.done.size(), 8u);
    for (std::size_t i = 0; i < 8; i++) {
        EXPECT_EQ(client0.done[i].token, 10 + i);
        EXPECT_EQ(client0.done[i].doneCycle, client0.done[0].doneCycle);
    }
}

TEST(LineSlots, EraseFromTheMiddleMovesNothing)
{
    LineSlots<Mshr> t(8);
    std::vector<const Mshr *> at;
    for (Addr i = 0; i < 8; i++) {
        Mshr m;
        m.line = i * lineBytes;
        at.push_back(&t.insert(i * lineBytes, m));
    }
    EXPECT_EQ(t.size(), 8u);
    t.erase(3 * lineBytes);
    EXPECT_FALSE(t.contains(3 * lineBytes));
    EXPECT_EQ(t.find(3 * lineBytes), nullptr);
    EXPECT_EQ(t.size(), 7u);
    for (Addr i = 0; i < 8; i++) {
        if (i != 3) {
            EXPECT_EQ(t.find(i * lineBytes), at[i]);
        }
    }
    // A new line takes the freed slot; nothing else moves.
    EXPECT_EQ(&t.insert(100 * lineBytes, Mshr{}), at[3]);
    for (Addr i = 0; i < 8; i++) {
        if (i != 3) {
            EXPECT_EQ(t.find(i * lineBytes), at[i]);
        }
    }
    std::vector<Addr> slotOrder;
    t.forEach([&](Addr line, const Mshr &) { slotOrder.push_back(line); });
    EXPECT_EQ(slotOrder, (std::vector<Addr>{0, 64, 128, 6400, 256, 320,
                                            384, 448}));
    std::vector<Addr> sorted;
    for (const auto &[line, m] : t.sorted()) {
        EXPECT_EQ(m, t.find(line));
        sorted.push_back(line);
    }
    EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
    EXPECT_EQ(sorted.size(), 8u);

    // Overwriting keeps the slot; erasing the tail then refilling does
    // not reallocate.
    t.insert(0, Mshr{});
    EXPECT_EQ(t.find(0), at[0]);
    t.erase(7 * lineBytes);
    t.erase(6 * lineBytes);
    EXPECT_EQ(t.size(), 6u);
    EXPECT_EQ(&t.insert(200 * lineBytes, Mshr{}), at[6]);
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_FALSE(t.contains(0));
}

TEST(EventHeap, EqualCyclesPopFirstInFirstOut)
{
    EventHeap<int> h;
    std::vector<std::pair<Cycle, int>> pushed;
    for (int i = 0; i < 60; i++) {
        const Cycle c = 3 + static_cast<Cycle>((i * 7) % 4);
        h.push(c, i);
        pushed.emplace_back(c, i);
    }
    std::stable_sort(pushed.begin(), pushed.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<std::pair<Cycle, int>> walked;
    h.forEachInOrder([&](Cycle c, int v) { walked.emplace_back(c, v); });
    EXPECT_EQ(walked, pushed);

    // Pop half, push more on an already-populated cycle: they queue
    // behind the events already due then.
    std::vector<std::pair<Cycle, int>> popped;
    for (int i = 0; i < 30; i++) {
        const Cycle c = h.topCycle();
        popped.emplace_back(c, h.pop());
    }
    for (int i = 100; i < 105; i++)
        h.push(6, i);
    while (!h.empty()) {
        const Cycle c = h.topCycle();
        popped.emplace_back(c, h.pop());
    }
    std::vector<std::pair<Cycle, int>> want = pushed;
    for (int i = 100; i < 105; i++)
        want.emplace_back(6, i);
    std::stable_sort(want.begin(), want.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(popped, want);
}
