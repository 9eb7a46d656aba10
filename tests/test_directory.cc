/**
 * @file
 * Protocol unit tests for a directory bank: state transitions, the
 * Blocked window, request queueing, invalidation collection, and the
 * PutM crossing races.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.hh"
#include "mem/directory.hh"
#include "net/network.hh"
#include "sim/snapshot.hh"

using namespace rowsim;

namespace
{

struct CoreStub : MsgHandler
{
    std::vector<Msg> inbox;
    void
    deliver(const Msg &msg, Cycle) override
    {
        inbox.push_back(msg);
    }
    bool
    got(MsgType t) const
    {
        for (const auto &m : inbox)
            if (m.type == t)
                return true;
        return false;
    }
    const Msg *
    last(MsgType t) const
    {
        for (auto it = inbox.rbegin(); it != inbox.rend(); ++it)
            if (it->type == t)
                return &*it;
        return nullptr;
    }
};

} // namespace

class DirectoryTest : public ::testing::Test
{
  protected:
    static constexpr unsigned cores = 4;

    DirectoryTest()
        : net(cores, NetParams{}), dir(0, cores, MemParams{}, &net)
    {
        for (CoreId c = 0; c < cores; c++)
            net.attach(c, &stubs[c]);
        net.attach(cores + 0, &dir);
        // Pick a line homed at bank 0.
        line = 0;
        EXPECT_EQ(net.homeBank(line), cores + 0);
    }

    /** Advance enough cycles for all latencies to elapse. */
    void
    settle(Cycle upto = 600)
    {
        for (; now <= upto; now++) {
            net.tick(now);
            dir.tick(now);
        }
    }

    void
    sendToDir(MsgType t, CoreId c)
    {
        Msg m;
        m.type = t;
        m.line = line;
        m.src = c;
        m.dst = cores + 0;
        m.requester = c;
        net.send(m, now);
    }

    Network net;
    Directory dir;
    CoreStub stubs[cores];
    Addr line;
    Cycle now = 1;
};

TEST_F(DirectoryTest, GetSFromInvalidDeliversSharedData)
{
    sendToDir(MsgType::GetS, 0);
    settle();
    ASSERT_TRUE(stubs[0].got(MsgType::Data));
    const Msg *d = stubs[0].last(MsgType::Data);
    EXPECT_FALSE(d->excl);
    EXPECT_TRUE(d->fromMemory); // cold LLC
    EXPECT_FALSE(d->fromPrivateCache);
    // Blocked until the Unblock arrives.
    EXPECT_EQ(dir.lineState(line), DirState::Blocked);
    sendToDir(MsgType::Unblock, 0);
    settle(1200);
    EXPECT_EQ(dir.lineState(line), DirState::Shared);
}

TEST_F(DirectoryTest, SecondGetSHitsLlc)
{
    sendToDir(MsgType::GetS, 0);
    settle();
    sendToDir(MsgType::Unblock, 0);
    settle(1200);
    sendToDir(MsgType::GetS, 1);
    settle(1800);
    const Msg *d = stubs[1].last(MsgType::Data);
    ASSERT_NE(d, nullptr);
    EXPECT_FALSE(d->fromMemory); // LLC now has it
}

TEST_F(DirectoryTest, GetXFromInvalidGrantsExclusive)
{
    sendToDir(MsgType::GetX, 2);
    settle();
    ASSERT_TRUE(stubs[2].got(MsgType::DataExcl));
    sendToDir(MsgType::Unblock, 2);
    settle(1200);
    EXPECT_EQ(dir.lineState(line), DirState::Modified);
    EXPECT_EQ(dir.lineOwner(line), 2u);
}

TEST_F(DirectoryTest, GetXOnSharedInvalidatesSharers)
{
    // Cores 0 and 1 take shared copies.
    for (CoreId c : {0u, 1u}) {
        sendToDir(MsgType::GetS, c);
        settle(now + 600);
        sendToDir(MsgType::Unblock, c);
        settle(now + 600);
    }
    // Core 2 wants exclusive: both sharers must be invalidated.
    sendToDir(MsgType::GetX, 2);
    settle(now + 600);
    EXPECT_TRUE(stubs[0].got(MsgType::Inv));
    EXPECT_TRUE(stubs[1].got(MsgType::Inv));
    // Data is withheld until both InvAcks arrive.
    EXPECT_FALSE(stubs[2].got(MsgType::DataExcl));
    sendToDir(MsgType::InvAck, 0);
    settle(now + 600);
    EXPECT_FALSE(stubs[2].got(MsgType::DataExcl));
    sendToDir(MsgType::InvAck, 1);
    settle(now + 600);
    EXPECT_TRUE(stubs[2].got(MsgType::DataExcl));
}

TEST_F(DirectoryTest, GetXOnModifiedForwardsToOwner)
{
    sendToDir(MsgType::GetX, 0);
    settle(now + 600);
    sendToDir(MsgType::Unblock, 0);
    settle(now + 600);

    sendToDir(MsgType::GetX, 1);
    settle(now + 600);
    ASSERT_TRUE(stubs[0].got(MsgType::FwdGetX));
    EXPECT_EQ(stubs[0].last(MsgType::FwdGetX)->requester, 1u);
    // Ownership transfers at the Unblock.
    sendToDir(MsgType::Unblock, 1);
    settle(now + 600);
    EXPECT_EQ(dir.lineOwner(line), 1u);
}

TEST_F(DirectoryTest, RequestsQueueBehindBlockedLine)
{
    sendToDir(MsgType::GetX, 0);
    settle(now + 600);
    // Line is Blocked (no Unblock yet); core 1's request must wait.
    sendToDir(MsgType::GetX, 1);
    settle(now + 600);
    EXPECT_FALSE(stubs[0].got(MsgType::FwdGetX));
    EXPECT_EQ(dir.stats().counterValue("queuedRequests"), 1u);
    // Unblock releases the queue: core 0 becomes owner, then gets the
    // forward for core 1.
    sendToDir(MsgType::Unblock, 0);
    settle(now + 600);
    EXPECT_TRUE(stubs[0].got(MsgType::FwdGetX));
}

TEST_F(DirectoryTest, PutMFromOwnerWritesBack)
{
    sendToDir(MsgType::GetX, 0);
    settle(now + 600);
    sendToDir(MsgType::Unblock, 0);
    settle(now + 600);
    sendToDir(MsgType::PutM, 0);
    settle(now + 600);
    EXPECT_TRUE(stubs[0].got(MsgType::WBAck));
    EXPECT_EQ(dir.lineState(line), DirState::Invalid);
    EXPECT_EQ(dir.stats().counterValue("writebacks"), 1u);
}

TEST_F(DirectoryTest, StalePutMIsAckedWithoutStateChange)
{
    // Core 0 owns; core 1's GetX is in flight (Blocked, fwd sent); core
    // 0's crossing PutM must be acked as stale.
    sendToDir(MsgType::GetX, 0);
    settle(now + 600);
    sendToDir(MsgType::Unblock, 0);
    settle(now + 600);
    sendToDir(MsgType::GetX, 1);
    settle(now + 600);
    ASSERT_EQ(dir.lineState(line), DirState::Blocked);
    sendToDir(MsgType::PutM, 0);
    settle(now + 600);
    EXPECT_TRUE(stubs[0].got(MsgType::WBAck));
    EXPECT_EQ(dir.stats().counterValue("staleWritebacks"), 1u);
    sendToDir(MsgType::Unblock, 1);
    settle(now + 600);
    EXPECT_EQ(dir.lineOwner(line), 1u);
}

TEST_F(DirectoryTest, OracleFiresOnConcurrentInterest)
{
    int overlap_calls = 0, holder_calls = 0;
    dir.setOracleHook([&](Addr, CoreId, CoreId, bool overlap, Cycle) {
        (overlap ? overlap_calls : holder_calls)++;
    });
    sendToDir(MsgType::GetX, 0);
    settle(now + 600);
    // Queued request while blocked: definite overlap.
    sendToDir(MsgType::GetX, 1);
    settle(now + 600);
    EXPECT_GT(overlap_calls, 0);
    sendToDir(MsgType::Unblock, 0);
    settle(now + 600);
    // The queued GetX is now processed against M-owner 0: holder hint.
    EXPECT_GT(holder_calls, 0);
}

TEST_F(DirectoryTest, IdleReflectsOutstandingTransactions)
{
    EXPECT_TRUE(dir.idle());
    sendToDir(MsgType::GetX, 0);
    settle(now + 600);
    EXPECT_FALSE(dir.idle());
    sendToDir(MsgType::Unblock, 0);
    settle(now + 600);
    EXPECT_TRUE(dir.idle());
}

TEST_F(DirectoryTest, EqualCycleWakesSendDataFirstInFirstOut)
{
    // Sixteen cold GetS to distinct lines, all sent in one cycle from
    // one core: every reply waits the same memory latency, so all the
    // wakes fall due on one cycle. They must fire in request order
    // (network order between one pair of nodes is FIFO, so the core's
    // inbox shows the order the bank sent them in).
    std::vector<Addr> lines;
    for (Addr l = 0; lines.size() < 16; l += lineBytes) {
        if (net.homeBank(l) == cores + 0)
            lines.push_back(l);
    }
    for (Addr l : lines) {
        line = l;
        sendToDir(MsgType::GetS, 0);
    }
    settle();
    std::vector<Addr> replies;
    for (const Msg &m : stubs[0].inbox) {
        if (m.type == MsgType::Data)
            replies.push_back(m.line);
    }
    EXPECT_EQ(replies, lines);
}

TEST(DirectoryTable, GrowsAcrossResizesAndSavesInKeyOrder)
{
    // Well over ten thousand lines in one bank: the entry index doubles
    // many times. Probes must agree with a std::map model throughout,
    // and the image must not depend on the order lines arrived in.
    const unsigned cores = 8;
    Network net(cores, NetParams{});
    Directory a(0, cores, MemParams{}, &net);
    Directory b(0, cores, MemParams{}, &net);
    struct Want
    {
        DirState state;
        CoreId owner;
        std::uint64_t sharers;
    };
    std::map<Addr, Want> model;
    Rng rng(11);
    std::vector<Addr> order;
    while (model.size() < 12000) {
        const Addr line = lineAlign(rng.next() & 0xffffffffffULL);
        const unsigned pick = static_cast<unsigned>(rng.next() % 3);
        Want w{DirState::Invalid, invalidCore, 0};
        if (pick == 1) {
            w.state = DirState::Shared;
            w.sharers = (rng.next() & 0xff) | 1;
        } else if (pick == 2) {
            w.state = DirState::Modified;
            w.owner = static_cast<CoreId>(rng.next() % cores);
        }
        if (!model.count(line))
            order.push_back(line);
        model[line] = w;
        a.funcSetLine(line, w.state, w.owner, w.sharers);
        if (model.size() % 1000 == 0) {
            // Spot-check mid-growth.
            const auto &[l, want] = *model.begin();
            EXPECT_EQ(a.lineState(l), want.state);
        }
    }
    // Same final contents into the second bank, in reverse arrival order.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const Want &w = model.at(*it);
        b.funcSetLine(*it, w.state, w.owner, w.sharers);
    }

    for (const auto &[l, w] : model) {
        ASSERT_EQ(a.lineState(l), w.state);
        ASSERT_EQ(a.lineOwner(l), w.owner);
        ASSERT_EQ(a.lineSharers(l), w.sharers);
    }
    EXPECT_EQ(a.lineState(lineAlign(0xffffffffffffULL)), DirState::Invalid);
    EXPECT_EQ(a.lineOwner(lineAlign(0xffffffffffffULL)), invalidCore);

    std::map<Addr, Want> seen;
    a.forEachLine([&](const Directory::LineInfo &i) {
        EXPECT_TRUE(seen.emplace(i.line, Want{i.state, i.owner, i.sharers})
                        .second)
            << "line visited twice";
    });
    ASSERT_EQ(seen.size(), model.size());
    for (const auto &[l, w] : model) {
        const Want &got = seen.at(l);
        EXPECT_EQ(got.state, w.state);
        EXPECT_EQ(got.owner, w.owner);
        EXPECT_EQ(got.sharers, w.sharers);
    }

    Ser sa, sb;
    a.save(sa);
    b.save(sb);
    EXPECT_EQ(sa.bytes(), sb.bytes());

    // And the image restores into a third bank that saves it back.
    Directory c(0, cores, MemParams{}, &net);
    Deser d(sa.bytes());
    c.restore(d);
    Ser sc;
    c.save(sc);
    EXPECT_EQ(sc.bytes(), sa.bytes());
    EXPECT_EQ(c.lineOwner(order.front()), model.at(order.front()).owner);
}
