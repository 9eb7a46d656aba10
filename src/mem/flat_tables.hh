/**
 * @file
 * Flat containers for the memory side's per-line state: an
 * open-addressed line table over chunked storage (directory entries), a
 * small slot map (MSHRs, the writeback buffer), and a (cycle, seq)
 * min-heap for timed events. None allocates a node per element.
 *
 * Reference stability (DESIGN.md §9): a LineTable element never moves
 * once created, and a LineSlots element never moves while it is live
 * and the table stays within the capacity it was built with. Callers
 * may hold an element reference across re-entrant calls that insert.
 */

#ifndef ROWSIM_MEM_FLAT_TABLES_HH
#define ROWSIM_MEM_FLAT_TABLES_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace rowsim
{

/**
 * Map from a line address to a T. Elements live in fixed-size chunks
 * that are never reallocated, so a T& stays valid across later
 * inserts; lookups go through an open-addressed (linear probing) index
 * of line -> element number. Elements are only ever added (clear()
 * drops them all). Iteration runs in insertion order.
 */
template <typename T>
class LineTable
{
  public:
    T *
    find(Addr line)
    {
        const std::uint32_t i = indexOf(line);
        return i == npos ? nullptr : &at(i);
    }

    const T *
    find(Addr line) const
    {
        const std::uint32_t i = indexOf(line);
        return i == npos ? nullptr : &at(i);
    }

    /** The element for @p line, default-constructed on first use. */
    T &
    operator[](Addr line)
    {
        const std::uint32_t found = indexOf(line);
        if (found != npos)
            return at(found);
        if ((lines_.size() + 1) * 2 > slots_.size())
            grow();
        const auto i = static_cast<std::uint32_t>(lines_.size());
        if ((i & (chunkSize - 1)) == 0)
            chunks_.push_back(std::make_unique<T[]>(chunkSize));
        lines_.push_back(line);
        place(line, i);
        return at(i);
    }

    std::size_t size() const { return lines_.size(); }

    void
    clear()
    {
        slots_.clear();
        lines_.clear();
        chunks_.clear();
        shift_ = 64;
    }

    /** Apply @p fn(line, const T &) to every element, insertion order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < lines_.size(); i++)
            fn(lines_[i], at(static_cast<std::uint32_t>(i)));
    }

  private:
    static constexpr std::uint32_t chunkSize = 256;
    static constexpr std::uint32_t npos = ~0u;

    /** One index slot; line == invalidAddr marks it empty. */
    struct Slot
    {
        Addr line = invalidAddr;
        std::uint32_t index = 0;
    };

    std::size_t
    home(Addr line) const
    {
        // Fibonacci hashing of the line number (offset bits are zero).
        return static_cast<std::size_t>(
            (lineNum(line) * 0x9E3779B97F4A7C15ULL) >> shift_);
    }

    std::uint32_t
    indexOf(Addr line) const
    {
        if (slots_.empty())
            return npos;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t s = home(line);; s = (s + 1) & mask) {
            if (slots_[s].line == line)
                return slots_[s].index;
            if (slots_[s].line == invalidAddr)
                return npos;
        }
    }

    void
    place(Addr line, std::uint32_t index)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t s = home(line);
        while (slots_[s].line != invalidAddr)
            s = (s + 1) & mask;
        slots_[s] = Slot{line, index};
    }

    /** Double the index (load factor stays at or below 1/2). */
    void
    grow()
    {
        const std::size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
        slots_.assign(cap, Slot{});
        shift_ = 64;
        for (std::size_t c = cap; c > 1; c >>= 1)
            shift_--;
        for (std::size_t i = 0; i < lines_.size(); i++)
            place(lines_[i], static_cast<std::uint32_t>(i));
    }

    T &at(std::uint32_t i) { return chunks_[i / chunkSize][i % chunkSize]; }
    const T &
    at(std::uint32_t i) const
    {
        return chunks_[i / chunkSize][i % chunkSize];
    }

    std::vector<Slot> slots_;
    unsigned shift_ = 64;       ///< 64 - log2(slots_.size())
    std::vector<Addr> lines_;   ///< element number -> line
    std::vector<std::unique_ptr<T[]>> chunks_;
};

/**
 * A handful of line-keyed values in flat slots, found by a linear scan
 * of the keys. Erase frees a slot in place (later inserts reuse it), so
 * a live element never moves unless an insert outgrows the capacity
 * reserved at construction. Iteration runs in slot order.
 */
template <typename V>
class LineSlots
{
  public:
    explicit LineSlots(std::size_t capacity)
    {
        keys_.reserve(capacity);
        vals_.reserve(capacity);
    }

    V *
    find(Addr line)
    {
        const std::size_t i = slotOf(line);
        return i == keys_.size() ? nullptr : &vals_[i];
    }

    const V *
    find(Addr line) const
    {
        const std::size_t i = slotOf(line);
        return i == keys_.size() ? nullptr : &vals_[i];
    }

    bool contains(Addr line) const { return slotOf(line) != keys_.size(); }

    /** Insert @p v under @p line, or overwrite the value already there. */
    V &
    insert(Addr line, V v)
    {
        std::size_t i = slotOf(line);
        if (i == keys_.size()) {
            i = slotOf(invalidAddr);
            if (i == keys_.size()) {
                keys_.push_back(invalidAddr);
                vals_.emplace_back();
            }
            keys_[i] = line;
            count_++;
        }
        vals_[i] = std::move(v);
        return vals_[i];
    }

    /** Remove @p line if present. Trailing free slots are dropped so
     *  scans stay as short as the live high-water mark. */
    void
    erase(Addr line)
    {
        const std::size_t i = slotOf(line);
        if (i == keys_.size())
            return;
        keys_[i] = invalidAddr;
        count_--;
        while (!keys_.empty() && keys_.back() == invalidAddr) {
            keys_.pop_back();
            vals_.pop_back();
        }
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    void
    clear()
    {
        keys_.clear();
        vals_.clear();
        count_ = 0;
    }

    /** Apply @p fn(line, const V &) to every live slot, slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < keys_.size(); i++) {
            if (keys_[i] != invalidAddr)
                fn(keys_[i], vals_[i]);
        }
    }

    /** The live (line, value) pairs in ascending line order (snapshots
     *  must not depend on slot order). */
    std::vector<std::pair<Addr, const V *>>
    sorted() const
    {
        std::vector<std::pair<Addr, const V *>> out;
        out.reserve(count_);
        forEach([&](Addr line, const V &v) { out.emplace_back(line, &v); });
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    std::size_t
    slotOf(Addr line) const
    {
        return static_cast<std::size_t>(
            std::find(keys_.begin(), keys_.end(), line) - keys_.begin());
    }

    std::vector<Addr> keys_; ///< invalidAddr marks a free slot
    std::vector<V> vals_;
    std::size_t count_ = 0;
};

/**
 * Min-heap of timed events ordered by (cycle, insertion sequence):
 * events due on the same cycle come out first-in first-out, the order a
 * std::multimap keyed on the cycle gives.
 */
template <typename T>
class EventHeap
{
  public:
    void
    push(Cycle cycle, T value)
    {
        heap_.push_back(Event{cycle, nextSeq_++, std::move(value)});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    /** Cycle of the earliest event. @pre !empty() */
    Cycle topCycle() const { return heap_.front().cycle; }

    /** Remove and return the earliest event's value. @pre !empty() */
    T
    pop()
    {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        T value = std::move(heap_.back().value);
        heap_.pop_back();
        return value;
    }

    void
    clear()
    {
        heap_.clear();
        nextSeq_ = 0;
    }

    /** Apply @p fn(cycle, const T &) to every event in pop order
     *  (snapshots; restoring by push() in this order rebuilds it). */
    template <typename Fn>
    void
    forEachInOrder(Fn &&fn) const
    {
        std::vector<const Event *> order;
        order.reserve(heap_.size());
        for (const Event &e : heap_)
            order.push_back(&e);
        std::sort(order.begin(), order.end(),
                  [](const Event *a, const Event *b) { return later(*b, *a); });
        for (const Event *e : order)
            fn(e->cycle, e->value);
    }

  private:
    struct Event
    {
        Cycle cycle;
        std::uint64_t seq;
        T value;
    };

    /** Heap order: std::*_heap keep the "largest" on top, so an event
     *  ranks larger when it is due earlier. */
    static bool
    later(const Event &a, const Event &b)
    {
        return a.cycle != b.cycle ? a.cycle > b.cycle : a.seq > b.seq;
    }

    std::vector<Event> heap_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace rowsim

#endif // ROWSIM_MEM_FLAT_TABLES_HH
