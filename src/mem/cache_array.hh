/**
 * @file
 * Generic set-associative tag array with LRU replacement and support for
 * pinning (locked lines are never chosen as victims).
 */

#ifndef ROWSIM_MEM_CACHE_ARRAY_HH
#define ROWSIM_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/coherence.hh"

namespace rowsim
{

class Ser;
class Deser;

/**
 * A set-associative array of cacheline tags. Holds coherence state per
 * line; data values live in the system-wide functional memory, so the
 * array only answers presence/permission questions.
 */
class CacheArray
{
  public:
    /** Bits of the LRU stamp. The stamp and the state share one word,
     *  so a line is 16 bytes (an 8-way set spans two host cache lines).
     *  Stamps are cycles, which stay far below 2^56. */
    static constexpr unsigned lruBits = 56;

    struct Line
    {
        Addr tag = invalidAddr;                     ///< line-aligned address
        std::uint64_t lastUse : lruBits = 0;        ///< LRU timestamp
        CacheState state : 8 = CacheState::Invalid;
        bool valid() const { return state != CacheState::Invalid; }
    };

    CacheArray(unsigned sets, unsigned ways);

    /** Look up a line; nullptr on miss. Touches LRU state on hit. */
    Line *lookup(Addr line_addr, Cycle now);
    /** Look up without perturbing replacement state. */
    const Line *peek(Addr line_addr) const;

    /**
     * Choose a victim way in the set of @p line_addr. Lines for which
     * @p pinned(tag) returns true are skipped (AQ-locked lines). Returns
     * nullptr when every way is pinned (caller must retry later).
     * Prefers invalid ways, then LRU.
     */
    template <typename Pinned>
    Line *
    victim(Addr line_addr, Pinned &&pinned)
    {
        Line *set = &lines[static_cast<std::size_t>(setIndex(line_addr)) *
                           numWays];
        Line *best = nullptr;
        for (unsigned w = 0; w < numWays; w++) {
            Line &l = set[w];
            if (!l.valid())
                return &l;
            if (pinned(static_cast<Addr>(l.tag)))
                continue;
            if (!best || l.lastUse < best->lastUse)
                best = &l;
        }
        return best;
    }

    /** Victim with nothing pinned (never nullptr). */
    Line *
    victim(Addr line_addr)
    {
        return victim(line_addr, [](Addr) { return false; });
    }

    /** Install @p line_addr into @p way (previously chosen by victim()). */
    void fill(Line *way, Addr line_addr, CacheState state, Cycle now);

    /** Invalidate the line if present. Returns true if it was present. */
    bool invalidate(Addr line_addr);

    /** Reset @p way to the canonical invalid slot (snapshots serialize
     *  valid lines only, so an invalid slot must hold no stale stamp). */
    static void clear(Line *way) { *way = Line{}; }

    unsigned sets() const { return numSets; }
    unsigned ways() const { return numWays; }

    /** Set index for an address (exposed for AQ set/way annotations). */
    unsigned
    setIndex(Addr line_addr) const
    {
        return static_cast<unsigned>(lineNum(line_addr)) & (numSets - 1);
    }

    /** Apply @p fn(tag, state) to every valid line (invariant checkers,
     *  diagnostics; does not touch replacement state). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const Line &l : lines) {
            if (l.valid())
                fn(l.tag, l.state);
        }
    }

    /** Serialize the valid lines (sparse, with their slot indices and
     *  LRU stamps) so restored victim choices replay exactly. Invalid
     *  slots are canonical and need no bytes. */
    void save(Ser &s) const;
    void restore(Deser &d);

  private:
    unsigned numSets;
    unsigned numWays;
    std::vector<Line> lines; ///< numSets x numWays, row-major
};

static_assert(sizeof(CacheArray::Line) == 16,
              "a tag line packs into 16 bytes");

} // namespace rowsim

#endif // ROWSIM_MEM_CACHE_ARRAY_HH
