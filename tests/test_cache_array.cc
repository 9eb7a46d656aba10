/**
 * @file
 * Unit tests for the set-associative tag array.
 */

#include <gtest/gtest.h>

#include <string>

#include "mem/cache_array.hh"
#include "sim/snapshot.hh"

using namespace rowsim;

namespace
{
Addr
lineAt(unsigned set, unsigned tag_mult, unsigned sets)
{
    return (static_cast<Addr>(tag_mult) * sets + set) * lineBytes;
}
} // namespace

TEST(CacheArray, MissOnEmpty)
{
    CacheArray c(16, 4);
    EXPECT_EQ(c.lookup(0x1000, 1), nullptr);
    EXPECT_EQ(c.peek(0x1000), nullptr);
}

TEST(CacheArray, FillThenHit)
{
    CacheArray c(16, 4);
    auto *way = c.victim(0x1000);
    ASSERT_NE(way, nullptr);
    c.fill(way, 0x1000, CacheState::Shared, 1);
    auto *hit = c.lookup(0x1003, 2); // same line, different offset
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->tag, lineAlign(0x1000));
    EXPECT_EQ(hit->state, CacheState::Shared);
}

TEST(CacheArray, VictimPrefersInvalidWays)
{
    CacheArray c(4, 2);
    auto *w0 = c.victim(lineAt(0, 0, 4));
    c.fill(w0, lineAt(0, 0, 4), CacheState::Modified, 1);
    auto *w1 = c.victim(lineAt(0, 1, 4));
    EXPECT_FALSE(w1->valid()); // second way still free
}

TEST(CacheArray, LruEviction)
{
    CacheArray c(4, 2);
    c.fill(c.victim(lineAt(0, 0, 4)), lineAt(0, 0, 4),
           CacheState::Shared, 1);
    c.fill(c.victim(lineAt(0, 1, 4)), lineAt(0, 1, 4),
           CacheState::Shared, 2);
    // Touch line 0 so line 1 becomes LRU.
    c.lookup(lineAt(0, 0, 4), 3);
    auto *victim = c.victim(lineAt(0, 2, 4));
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->tag, lineAt(0, 1, 4));
}

TEST(CacheArray, PinnedLinesNeverVictims)
{
    CacheArray c(4, 2);
    Addr pinned_line = lineAt(0, 0, 4);
    c.fill(c.victim(pinned_line), pinned_line,
           CacheState::Modified, 1);
    c.fill(c.victim(lineAt(0, 1, 4)), lineAt(0, 1, 4),
           CacheState::Shared, 2);
    // Make the pinned line LRU.
    c.lookup(lineAt(0, 1, 4), 3);
    auto pinned = [pinned_line](Addr t) { return t == pinned_line; };
    auto *victim = c.victim(lineAt(0, 2, 4), pinned);
    ASSERT_NE(victim, nullptr);
    EXPECT_NE(victim->tag, pinned_line);
}

TEST(CacheArray, AllWaysPinnedReturnsNull)
{
    CacheArray c(4, 2);
    c.fill(c.victim(lineAt(1, 0, 4)), lineAt(1, 0, 4),
           CacheState::Modified, 1);
    c.fill(c.victim(lineAt(1, 1, 4)), lineAt(1, 1, 4),
           CacheState::Modified, 2);
    auto pinned = [](Addr) { return true; };
    EXPECT_EQ(c.victim(lineAt(1, 2, 4), pinned), nullptr);
}

TEST(CacheArray, InvalidateRemovesLine)
{
    CacheArray c(16, 4);
    c.fill(c.victim(0x2000), 0x2000, CacheState::Modified, 1);
    EXPECT_TRUE(c.invalidate(0x2000));
    EXPECT_EQ(c.peek(0x2000), nullptr);
    EXPECT_FALSE(c.invalidate(0x2000)); // already gone
}

TEST(CacheArray, SetIndexUsesLineNumber)
{
    CacheArray c(16, 4);
    EXPECT_EQ(c.setIndex(0), 0u);
    EXPECT_EQ(c.setIndex(lineBytes), 1u);
    EXPECT_EQ(c.setIndex(16 * lineBytes), 0u); // wraps at numSets
    EXPECT_EQ(c.setIndex(17 * lineBytes + 5), 1u);
}

TEST(CacheArray, DifferentSetsDoNotConflict)
{
    CacheArray c(4, 1); // direct-mapped, 4 sets
    for (unsigned s = 0; s < 4; s++) {
        Addr a = lineAt(s, 0, 4);
        c.fill(c.victim(a), a, CacheState::Shared, s);
    }
    for (unsigned s = 0; s < 4; s++)
        EXPECT_NE(c.peek(lineAt(s, 0, 4)), nullptr);
}

TEST(CacheArray, RejectsNonPowerOfTwoSets)
{
    EXPECT_THROW(CacheArray(3, 2), std::logic_error);
    EXPECT_THROW(CacheArray(4, 0), std::logic_error);
}

TEST(CacheArray, PeekDoesNotPerturbLru)
{
    CacheArray c(4, 2);
    c.fill(c.victim(lineAt(0, 0, 4)), lineAt(0, 0, 4),
           CacheState::Shared, 1);
    c.fill(c.victim(lineAt(0, 1, 4)), lineAt(0, 1, 4),
           CacheState::Shared, 2);
    // Peek at line 0 (older); LRU order must be unchanged, so line 0 is
    // still the victim.
    c.peek(lineAt(0, 0, 4));
    auto *victim = c.victim(lineAt(0, 2, 4));
    EXPECT_EQ(victim->tag, lineAt(0, 0, 4));
}

TEST(CacheArray, LineStateAndStampShareOneWord)
{
    CacheArray c(4, 2);
    const Cycle big = (Cycle{1} << CacheArray::lruBits) - 1;
    auto *way = c.victim(lineAt(2, 0, 4));
    c.fill(way, lineAt(2, 0, 4), CacheState::Modified, big);
    EXPECT_EQ(way->state, CacheState::Modified);
    EXPECT_EQ(static_cast<Cycle>(way->lastUse), big);
    way->state = CacheState::Shared;
    EXPECT_EQ(static_cast<Cycle>(way->lastUse), big);
    CacheArray::clear(way);
    EXPECT_FALSE(way->valid());
    EXPECT_EQ(way->tag, invalidAddr);
    EXPECT_EQ(static_cast<Cycle>(way->lastUse), 0u);
}

TEST(CacheArray, SaveRestoreKeepsSlotsAndStamps)
{
    CacheArray a(4, 2);
    a.fill(a.victim(lineAt(1, 0, 4)), lineAt(1, 0, 4), CacheState::Shared,
           7);
    a.fill(a.victim(lineAt(1, 1, 4)), lineAt(1, 1, 4),
           CacheState::Modified, 9);
    Ser s;
    a.save(s);
    CacheArray b(4, 2);
    Deser d(s.bytes());
    b.restore(d);
    Ser again;
    b.save(again);
    EXPECT_EQ(again.bytes(), s.bytes());
    // The older line is still the LRU victim after the round trip.
    EXPECT_EQ(b.victim(lineAt(1, 2, 4))->tag, lineAt(1, 0, 4));
}

TEST(CacheArray, RestoreRejectsStampWiderThanTheField)
{
    // A hand-built image: one valid line whose LRU stamp needs 57 bits.
    Ser s;
    s.section("cachearray");
    s.u32(4);
    s.u32(2);
    s.u64(1);
    s.vu64(0);                                 // slot 0
    s.vu64(lineAt(0, 3, 4) >> 6);              // tag
    s.u8(static_cast<std::uint8_t>(CacheState::Shared));
    s.vu64(Cycle{1} << CacheArray::lruBits);   // stamp
    CacheArray c(4, 2);
    Deser d(s.bytes());
    try {
        c.restore(d);
        ADD_FAILURE() << "expected a SnapshotError";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("LRU stamp"),
                  std::string::npos)
            << e.what();
    }
}
