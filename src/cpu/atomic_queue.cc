#include "cpu/atomic_queue.hh"

#include "common/log.hh"
#include "sim/observer.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

AtomicQueue::AtomicQueue(unsigned entries)
    : capacity(entries), slots(entries)
{
    ROWSIM_ASSERT(entries > 0, "AQ needs at least one entry");
}

unsigned
AtomicQueue::allocate(SeqNum seq, Addr pc, Cycle now, Observer *obs)
{
    ROWSIM_ASSERT(!full(), "AQ allocate when full");
    unsigned idx = tailIdx;
    AqEntry &e = slots[idx];
    e = AqEntry{};
    e.valid = true;
    e.seq = seq;
    e.pc = pc;
    e.dispatchCycle = now;
    tailIdx = (tailIdx + 1) % capacity;
    count++;
    ROWSIM_TRACE(obs, TraceCategory::Queue, now,
                 "aq alloc seq=%llu pc=%#llx occ=%u/%u",
                 static_cast<unsigned long long>(seq),
                 static_cast<unsigned long long>(pc), count, capacity);
    return idx;
}

AqEntry &
AtomicQueue::head()
{
    ROWSIM_ASSERT(!empty(), "AQ head on empty queue");
    return slots[headIdx];
}

void
AtomicQueue::freeHead(SeqNum seq, Cycle now, Observer *obs)
{
    ROWSIM_ASSERT(!empty(), "AQ freeHead on empty queue");
    AqEntry &e = slots[headIdx];
    ROWSIM_ASSERT(e.seq == seq,
                  "AQ unlock out of order: head seq %llu, unlocking %llu",
                  static_cast<unsigned long long>(e.seq),
                  static_cast<unsigned long long>(seq));
    e.valid = false;
    headIdx = (headIdx + 1) % capacity;
    count--;
    ROWSIM_TRACE(obs, TraceCategory::Queue, now,
                 "aq free seq=%llu occ=%u/%u",
                 static_cast<unsigned long long>(seq), count, capacity);
}

bool
AtomicQueue::olderAllLocked(SeqNum seq) const
{
    for (unsigned i = 0; i < capacity; i++) {
        const AqEntry &e = slots[i];
        if (e.valid && e.seq < seq && !e.locked)
            return false;
    }
    return true;
}

bool
AtomicQueue::lineLocked(Addr line) const
{
    for (unsigned i = 0; i < capacity; i++) {
        const AqEntry &e = slots[i];
        if (e.valid && e.locked && e.line() == lineAlign(line))
            return true;
    }
    return false;
}

bool
AtomicQueue::anyLocked() const
{
    for (unsigned i = 0; i < capacity; i++) {
        if (slots[i].valid && slots[i].locked)
            return true;
    }
    return false;
}

int
AtomicQueue::find(SeqNum seq) const
{
    for (unsigned i = 0; i < capacity; i++) {
        if (slots[i].valid && slots[i].seq == seq)
            return static_cast<int>(i);
    }
    return -1;
}

void
AtomicQueue::save(Ser &s) const
{
    s.section("aq");
    s.u32(capacity);
    s.u32(headIdx);
    s.u32(tailIdx);
    s.u32(count);
    for (const AqEntry &e : slots) {
        s.b(e.valid);
        s.u64(e.seq);
        s.u64(e.pc);
        s.u64(e.addr);
        s.b(e.locked);
        s.b(e.contended);
        s.b(e.oracleContended);
        s.b(e.onlyCalcAddr);
        s.b(e.predictedContended);
        s.u16(e.issuedCycle14);
        s.b(e.timestampValid);
        s.u8(static_cast<std::uint8_t>(e.lockSource));
        s.u64(e.newValue);
        s.u64(static_cast<std::uint64_t>(e.sqIdx));
        s.u64(e.dispatchCycle);
        s.u64(e.readyCycle);
        s.u64(e.issueCycle);
        s.u64(e.lockCycle);
    }
}

void
AtomicQueue::restore(Deser &d)
{
    d.section("aq");
    const std::uint32_t cap = d.u32();
    if (cap != capacity) {
        throw SnapshotError(strprintf(
            "AQ capacity mismatch: image %u, configured %u", cap,
            capacity));
    }
    headIdx = d.u32();
    tailIdx = d.u32();
    count = d.u32();
    for (AqEntry &e : slots) {
        e.valid = d.b();
        e.seq = d.u64();
        e.pc = d.u64();
        e.addr = d.u64();
        e.locked = d.b();
        e.contended = d.b();
        e.oracleContended = d.b();
        e.onlyCalcAddr = d.b();
        e.predictedContended = d.b();
        e.issuedCycle14 = d.u16();
        e.timestampValid = d.b();
        e.lockSource = static_cast<FillSource>(d.u8());
        e.newValue = d.u64();
        e.sqIdx = static_cast<int>(d.u64());
        e.dispatchCycle = d.u64();
        e.readyCycle = d.u64();
        e.issueCycle = d.u64();
        e.lockCycle = d.u64();
        // Span IDs are observability state, never serialized: a restored
        // in-flight atomic is untraced (counted as spansTruncated).
        e.spanId = 0;
    }
}

} // namespace rowsim
