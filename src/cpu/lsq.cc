#include "cpu/lsq.hh"

#include "common/log.hh"
#include "sim/observer.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

LoadQueue::LoadQueue(unsigned entries) : capacity(entries), slots(entries)
{
    ROWSIM_ASSERT(entries > 0, "LQ needs at least one entry");
}

unsigned
LoadQueue::allocate(SeqNum seq, bool is_atomic, Cycle now, Observer *obs)
{
    ROWSIM_ASSERT(!full(), "LQ allocate when full");
    unsigned idx = tailIdx;
    LqEntry &e = slots[idx];
    e = LqEntry{};
    e.valid = true;
    e.seq = seq;
    e.isAtomic = is_atomic;
    tailIdx = (tailIdx + 1) % capacity;
    count++;
    ROWSIM_TRACE(obs, TraceCategory::Queue, now,
                 "lq alloc seq=%llu occ=%u/%u",
                 static_cast<unsigned long long>(seq), count, capacity);
    return idx;
}

void
LoadQueue::freeHead(SeqNum seq, Cycle now, Observer *obs)
{
    ROWSIM_ASSERT(!empty(), "LQ freeHead on empty queue");
    LqEntry &e = slots[headIdx];
    ROWSIM_ASSERT(e.seq == seq, "LQ dealloc out of order");
    e.valid = false;
    headIdx = (headIdx + 1) % capacity;
    count--;
    ROWSIM_TRACE(obs, TraceCategory::Queue, now,
                 "lq free seq=%llu occ=%u/%u",
                 static_cast<unsigned long long>(seq), count, capacity);
}

SeqNum
LoadQueue::oldestSeq() const
{
    return count == 0 ? 0 : slots[headIdx].seq;
}

bool
LoadQueue::isOldest(SeqNum seq) const
{
    return count > 0 && slots[headIdx].seq == seq;
}

StoreQueue::StoreQueue(unsigned entries) : capacity(entries), slots(entries)
{
    ROWSIM_ASSERT(entries > 0, "SQ needs at least one entry");
}

unsigned
StoreQueue::allocate(SeqNum seq, bool is_atomic, Cycle now,
                     Observer *obs)
{
    ROWSIM_ASSERT(!full(), "SQ allocate when full");
    unsigned idx = tailIdx;
    SqEntry &e = slots[idx];
    e = SqEntry{};
    e.valid = true;
    e.seq = seq;
    e.isAtomic = is_atomic;
    tailIdx = (tailIdx + 1) % capacity;
    count++;
    ROWSIM_TRACE(obs, TraceCategory::Queue, now,
                 "sq alloc seq=%llu occ=%u/%u",
                 static_cast<unsigned long long>(seq), count, capacity);
    return idx;
}

void
StoreQueue::freeHead(SeqNum seq, Cycle now, Observer *obs)
{
    ROWSIM_ASSERT(!empty(), "SQ freeHead on empty queue");
    SqEntry &e = slots[headIdx];
    ROWSIM_ASSERT(e.seq == seq, "SQ dealloc out of order");
    e.valid = false;
    headIdx = (headIdx + 1) % capacity;
    count--;
    ROWSIM_TRACE(obs, TraceCategory::Queue, now,
                 "sq free seq=%llu occ=%u/%u",
                 static_cast<unsigned long long>(seq), count, capacity);
}

SqEntry *
StoreQueue::headEntry()
{
    return count == 0 ? nullptr : &slots[headIdx];
}

SqEntry *
StoreQueue::forwardSource(SeqNum seq, Addr addr, bool &unknown_older)
{
    unknown_older = false;
    const Addr word = wordAlign(addr);
    // Scan youngest -> oldest, stopping at the first (youngest) match.
    for (unsigned i = 0, idx = (tailIdx + capacity - 1) % capacity;
         i < count; i++, idx = (idx + capacity - 1) % capacity) {
        SqEntry &e = slots[idx];
        if (!e.valid || e.seq >= seq)
            continue;
        if (!e.addressReady) {
            unknown_older = true;
            continue;
        }
        if (wordAlign(e.addr) == word)
            return &e;
    }
    return nullptr;
}

SqEntry *
StoreQueue::olderSameLineUnwritten(SeqNum seq, Addr line)
{
    const Addr aligned = lineAlign(line);
    for (unsigned i = 0, idx = (tailIdx + capacity - 1) % capacity;
         i < count; i++, idx = (idx + capacity - 1) % capacity) {
        SqEntry &e = slots[idx];
        if (!e.valid || e.seq >= seq || e.written || e.isAtomic)
            continue;
        if (e.addressReady && lineAlign(e.addr) == aligned)
            return &e;
    }
    return nullptr;
}

bool
StoreQueue::noneOlderThan(SeqNum seq) const
{
    return count == 0 || slots[headIdx].seq >= seq;
}

bool
StoreQueue::sbEmpty() const
{
    for (unsigned i = 0, idx = headIdx; i < count;
         i++, idx = (idx + 1) % capacity) {
        const SqEntry &e = slots[idx];
        if (e.committed && !e.written)
            return false;
    }
    return true;
}

// All slots are serialized, invalid ones included: restored slot garbage
// then matches an uninterrupted run's, keeping later images bit-identical.

void
LoadQueue::save(Ser &s) const
{
    s.section("lq");
    s.u32(capacity);
    s.u32(headIdx);
    s.u32(tailIdx);
    s.u32(count);
    for (const LqEntry &e : slots) {
        s.b(e.valid);
        s.u64(e.seq);
        s.u64(e.addr);
        s.b(e.issued);
        s.b(e.completed);
        s.b(e.isAtomic);
        s.u64(e.fwdFrom);
    }
}

void
LoadQueue::restore(Deser &d)
{
    d.section("lq");
    const std::uint32_t cap = d.u32();
    if (cap != capacity) {
        throw SnapshotError(strprintf(
            "LQ capacity mismatch: image %u, configured %u", cap,
            capacity));
    }
    headIdx = d.u32();
    tailIdx = d.u32();
    count = d.u32();
    for (LqEntry &e : slots) {
        e.valid = d.b();
        e.seq = d.u64();
        e.addr = d.u64();
        e.issued = d.b();
        e.completed = d.b();
        e.isAtomic = d.b();
        e.fwdFrom = d.u64();
    }
}

void
StoreQueue::save(Ser &s) const
{
    s.section("sq");
    s.u32(capacity);
    s.u32(headIdx);
    s.u32(tailIdx);
    s.u32(count);
    for (const SqEntry &e : slots) {
        s.b(e.valid);
        s.u64(e.seq);
        s.u64(e.addr);
        s.u64(e.value);
        s.b(e.addressReady);
        s.b(e.valueReady);
        s.b(e.committed);
        s.b(e.writeInFlight);
        s.b(e.written);
        s.b(e.isAtomic);
    }
}

void
StoreQueue::restore(Deser &d)
{
    d.section("sq");
    const std::uint32_t cap = d.u32();
    if (cap != capacity) {
        throw SnapshotError(strprintf(
            "SQ capacity mismatch: image %u, configured %u", cap,
            capacity));
    }
    headIdx = d.u32();
    tailIdx = d.u32();
    count = d.u32();
    for (SqEntry &e : slots) {
        e.valid = d.b();
        e.seq = d.u64();
        e.addr = d.u64();
        e.value = d.u64();
        e.addressReady = d.b();
        e.valueReady = d.b();
        e.committed = d.b();
        e.writeInFlight = d.b();
        e.written = d.b();
        e.isAtomic = d.b();
    }
}

} // namespace rowsim
