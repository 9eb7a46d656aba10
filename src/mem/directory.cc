#include "mem/directory.hh"

#include <algorithm>
#include <vector>

#include "common/log.hh"
#include "sim/observer.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

namespace
{
std::uint64_t
coreBit(CoreId c)
{
    return 1ULL << c;
}
} // namespace

Directory::Directory(unsigned bank_index, unsigned num_cores,
                     const MemParams &p, Network *network)
    : bankIndex(bank_index), numCores(num_cores),
      myNode(num_cores + bank_index), params(p), net(network),
      llcArray(p.l3SetsPerBank, p.l3Ways),
      stats_(strprintf("dir%u", bank_index))
{
    ROWSIM_ASSERT(num_cores <= 64, "sharer bitmask supports <= 64 cores");
}

void
Directory::sendToCore(MsgType t, Addr line, CoreId core, CoreId requester,
                      Cycle now, bool excl, bool from_memory,
                      bool contention_hint, std::uint64_t span_id)
{
    Msg m;
    m.type = t;
    m.line = line;
    m.src = myNode;
    m.dst = core;
    m.requester = requester;
    m.excl = excl;
    m.fromMemory = from_memory;
    m.contentionHint = contention_hint;
    m.fromPrivateCache = false;
    m.spanId = span_id;
    net->send(m, now);
}

Cycle
Directory::dataLatency(Addr line, Cycle now, bool &from_memory)
{
    if (llcArray.lookup(line, now)) {
        from_memory = false;
        return params.l3HitLatency;
    }
    from_memory = true;
    // Fetch from memory and install the presence bit. LLC evictions only
    // drop presence (data always reachable in functional memory).
    auto *way = llcArray.victim(line);
    llcArray.fill(way, line, CacheState::Shared, now);
    llcMisses_++;
    return params.l3HitLatency + params.memoryLatency;
}

void
Directory::maybeSendData(Entry &e, Cycle now)
{
    if (!e.dataPending || e.pendingAcks > 0)
        return;
    if (e.dataReady > now) {
        wake.push(e.dataReady, e.dataMsg.line);
        return;
    }
    net->send(e.dataMsg, now);
    e.dataPending = false;
}

void
Directory::processRequest(Entry &e, const Msg &msg, Cycle now,
                          bool was_queued)
{
    ROWSIM_ASSERT(e.state != DirState::Blocked,
                  "processRequest on blocked entry");
    const Addr line = msg.line;
    const CoreId req = msg.requester;
    // Directory-notification extension: a request that had to queue, or
    // that leaves others queued behind it, observed contention.
    const bool hint = was_queued || !e.queued.empty();

    switch (msg.type) {
      case MsgType::GetS:
        getS_++;
        if (e.state == DirState::Invalid || e.state == DirState::Shared) {
            bool from_mem = false;
            Cycle lat = dataLatency(line, now, from_mem);
            e.nextState = DirState::Shared;
            e.nextSharers = e.sharers | coreBit(req);
            e.nextOwner = invalidCore;
            e.dataMsg = Msg{};
            e.dataMsg.type = MsgType::Data;
            e.dataMsg.line = line;
            e.dataMsg.src = myNode;
            e.dataMsg.dst = req;
            e.dataMsg.requester = req;
            e.dataMsg.excl = false;
            e.dataMsg.fromMemory = from_mem;
            e.dataMsg.contentionHint = hint;
            e.dataMsg.spanId = msg.spanId;
            e.dataPending = true;
            e.dataReady = now + lat;
            e.pendingAcks = 0;
        } else { // Modified: forward to owner
            if (oracle)
                oracle(line, req, e.owner, false, now);
            fwdGetS_++;
            sendToCore(MsgType::FwdGetS, line, e.owner, req, now, false,
                       false, hint, msg.spanId);
            e.nextState = DirState::Shared;
            e.nextSharers = coreBit(e.owner) | coreBit(req);
            e.nextOwner = invalidCore;
            e.dataPending = false;
        }
        break;

      case MsgType::GetX:
        getX_++;
        if (e.state == DirState::Modified) {
            ROWSIM_ASSERT(e.owner != req,
                          "GetX from current owner, line %#lx",
                          static_cast<unsigned long>(line));
            if (oracle)
                oracle(line, req, e.owner, false, now);
            fwdGetX_++;
            // Exclusive ownership moving between private caches: the
            // ping-pong transfer the contention profile counts.
            if (obs_)
                obs_->ownershipMoved(line);
            sendToCore(MsgType::FwdGetX, line, e.owner, req, now, false,
                       false, hint, msg.spanId);
            e.nextState = DirState::Modified;
            e.nextOwner = req;
            e.nextSharers = 0;
            e.dataPending = false;
        } else {
            bool from_mem = false;
            Cycle lat = dataLatency(line, now, from_mem);
            unsigned acks = 0;
            if (e.state == DirState::Shared) {
                for (CoreId c = 0; c < numCores; c++) {
                    if (c != req && (e.sharers & coreBit(c))) {
                        if (oracle)
                            oracle(line, req, c, false, now);
                        sendToCore(MsgType::Inv, line, c, req, now, false,
                                   false, false, msg.spanId);
                        acks++;
                    }
                }
            }
            e.nextState = DirState::Modified;
            e.nextOwner = req;
            e.nextSharers = 0;
            e.dataMsg = Msg{};
            e.dataMsg.type = MsgType::DataExcl;
            e.dataMsg.line = line;
            e.dataMsg.src = myNode;
            e.dataMsg.dst = req;
            e.dataMsg.requester = req;
            e.dataMsg.excl = true;
            e.dataMsg.fromMemory = from_mem;
            e.dataMsg.contentionHint = hint || acks > 0;
            e.dataMsg.spanId = msg.spanId;
            e.dataPending = true;
            e.dataReady = now + lat;
            e.pendingAcks = acks;
        }
        break;

      default:
        ROWSIM_PANIC("unexpected request %s at directory",
                     msgTypeName(msg.type));
    }

    e.state = DirState::Blocked;
    e.txnRequester = req;
    e.txnSpanId = msg.spanId;
    e.blockedSince = now;
    blockedLines++;
    ROWSIM_TRACE(obs_, TraceCategory::Directory, now,
                 "dir%u block line=%#llx %s from core%u queued=%zu",
                 bankIndex, static_cast<unsigned long long>(line),
                 msgTypeName(msg.type), req, e.queued.size());
    maybeSendData(e, now);
}

void
Directory::finishTxn(Entry &e, Addr line, Cycle now)
{
    ROWSIM_ASSERT(e.state == DirState::Blocked,
                  "Unblock on unblocked line %#lx",
                  static_cast<unsigned long>(line));
    if (e.blockedSince != invalidCycle) {
        if (obs_) {
            obs_->blockedWindowClosed(bankIndex, line, e.txnSpanId,
                                      e.txnRequester, e.queued.size(),
                                      e.blockedSince, now);
        }
        e.blockedSince = invalidCycle;
    }
    e.state = e.nextState;
    e.owner = e.nextOwner;
    e.sharers = e.nextSharers;
    e.txnRequester = invalidCore;
    e.txnSpanId = 0;
    ROWSIM_ASSERT(blockedLines > 0, "blockedLines underflow");
    blockedLines--;

    while (!e.queued.empty() && e.state != DirState::Blocked) {
        Msg next = e.queued.front();
        e.queued.erase(e.queued.begin());
        if (obs_ && next.spanId)
            obs_->requestDequeued(next.spanId, now);
        if (next.type == MsgType::PutM) {
            // Crossed eviction: handle with the now-current state.
            deliver(next, now);
        } else {
            processRequest(e, next, now, true);
        }
    }
}

void
Directory::deliver(const Msg &msg, Cycle now)
{
    // Fault injection: a stalled bank buffers every delivery. The buffer
    // also intercepts new arrivals while a drain is in progress so that
    // arrival order (and thus point-to-point ordering) is preserved.
    if (now < stalledUntil || !stallBuffer.empty()) {
        stallBuffer.push_back(msg);
        return;
    }

    Entry &e = entries[msg.line];

    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
        if (e.state == DirState::Blocked) {
            // Definite concurrent interest: oracle sees both the pending
            // requester/owner and the newcomer.
            if (oracle) {
                oracle(msg.line, msg.requester, e.txnRequester, true, now);
                if (e.owner != invalidCore && e.owner != msg.requester)
                    oracle(msg.line, msg.requester, e.owner, true, now);
            }
            // Notify the in-flight transaction's requester (extension):
            // the newcomer proves concurrent interest.
            if (e.dataPending)
                e.dataMsg.contentionHint = true;
            e.queued.push_back(msg);
            queuedRequests_++;
            queueDepth_.sample(static_cast<double>(e.queued.size()));
            if (obs_)
                obs_->requestQueued(bankIndex, msg, e.queued.size(), now);
        } else {
            processRequest(e, msg, now);
        }
        break;

      case MsgType::PutM: {
        CoreId evictor = static_cast<CoreId>(msg.src);
        if (e.state == DirState::Modified && e.owner == evictor) {
            // Clean writeback: data now lives in the LLC.
            auto *way = llcArray.victim(msg.line);
            llcArray.fill(way, msg.line, CacheState::Shared, now);
            e.state = DirState::Invalid;
            e.owner = invalidCore;
            e.sharers = 0;
            writebacks_++;
        } else {
            // Crossed with an in-flight transaction; ownership already
            // moved (or is moving). Ack without touching state.
            staleWritebacks_++;
        }
        sendToCore(MsgType::WBAck, msg.line, evictor, evictor, now);
        break;
      }

      case MsgType::InvAck:
        ROWSIM_ASSERT(e.state == DirState::Blocked && e.pendingAcks > 0,
                      "stray InvAck for line %#lx",
                      static_cast<unsigned long>(msg.line));
        e.pendingAcks--;
        maybeSendData(e, now);
        break;

      case MsgType::Unblock:
        finishTxn(e, msg.line, now);
        break;

      default:
        ROWSIM_PANIC("directory cannot handle %s", msgTypeName(msg.type));
    }
}

void
Directory::service(Cycle now)
{
    if (stalledUntil != 0 && now >= stalledUntil) {
        // Swap to a local queue first: deliver() re-buffers while the
        // member buffer is non-empty (ordering), which would recurse.
        std::deque<Msg> drain;
        drain.swap(stallBuffer);
        stalledUntil = 0;
        for (const Msg &m : drain)
            deliver(m, now);
    }

    while (!wake.empty() && wake.topCycle() <= now) {
        Entry *e = entries.find(wake.pop());
        if (e && e->state == DirState::Blocked)
            maybeSendData(*e, now);
    }
}

bool
Directory::idle() const
{
    return blockedLines == 0 && wake.empty() && stallBuffer.empty();
}

Cycle
Directory::nextEventCycle(Cycle now) const
{
    Cycle next = invalidCycle;
    if (stalledUntil != 0)
        next = std::max(stalledUntil, now + 1);
    if (!wake.empty())
        next = std::min(next, std::max(wake.topCycle(), now + 1));
    return next;
}

void
Directory::injectStall(Cycle until)
{
    if (until > stalledUntil)
        stalledUntil = until;
    injectedStalls_++;
}

void
Directory::testSetLine(Addr line, DirState state, CoreId owner,
                       std::uint64_t sharers)
{
    line = lineAlign(line);
    Entry &e = entries[line];
    if (e.state == DirState::Blocked && state != DirState::Blocked) {
        ROWSIM_ASSERT(blockedLines > 0, "blockedLines underflow");
        blockedLines--;
    } else if (e.state != DirState::Blocked && state == DirState::Blocked) {
        blockedLines++;
    }
    e.state = state;
    e.owner = owner;
    e.sharers = sharers;
}

std::uint64_t
Directory::lineSharers(Addr line) const
{
    const Entry *e = entries.find(lineAlign(line));
    return e ? e->sharers : 0;
}

void
Directory::funcSetLine(Addr line, DirState state, CoreId owner,
                       std::uint64_t sharers)
{
    line = lineAlign(line);
    Entry &e = entries[line];
    ROWSIM_ASSERT(e.state != DirState::Blocked,
                  "funcSetLine on in-flight line %#lx",
                  static_cast<unsigned long>(line));
    e.state = state;
    e.owner = owner;
    e.sharers = sharers;
}

void
Directory::funcWriteback(Addr line, CoreId evictor, Cycle now)
{
    line = lineAlign(line);
    Entry &e = entries[line];
    ROWSIM_ASSERT(e.state != DirState::Blocked,
                  "funcWriteback on in-flight line %#lx",
                  static_cast<unsigned long>(line));
    if (e.state == DirState::Modified && e.owner == evictor) {
        auto *way = llcArray.victim(line);
        llcArray.fill(way, line, CacheState::Shared, now);
        e.state = DirState::Invalid;
        e.owner = invalidCore;
        e.sharers = 0;
    }
}

void
Directory::funcTouchLlc(Addr line, Cycle now)
{
    line = lineAlign(line);
    if (llcArray.lookup(line, now))
        return;
    auto *way = llcArray.victim(line);
    llcArray.fill(way, line, CacheState::Shared, now);
}

void
Directory::dumpDiag(std::FILE *out, Cycle now) const
{
    std::fprintf(out,
                 "{\"dir\":\"dir%u\",\"blocked\":%u,\"stallBuffer\":%zu,"
                 "\"blockedLines\":[",
                 bankIndex, blockedLines, stallBuffer.size());
    bool first = true;
    entries.forEach([&](Addr line, const Entry &e) {
        if (e.state != DirState::Blocked)
            return;
        std::fprintf(out,
                     "%s{\"line\":\"%#llx\",\"requester\":%u,"
                     "\"pendingAcks\":%u,\"dataPending\":%d,"
                     "\"queued\":%zu,\"blockedFor\":%llu}",
                     first ? "" : ",", static_cast<unsigned long long>(line),
                     e.txnRequester, e.pendingAcks, e.dataPending ? 1 : 0,
                     e.queued.size(),
                     static_cast<unsigned long long>(
                         e.blockedSince == invalidCycle
                             ? 0
                             : now - e.blockedSince));
        first = false;
    });
    std::fprintf(out, "],\"wake\":%zu}", wake.size());
}

DirState
Directory::lineState(Addr line) const
{
    const Entry *e = entries.find(lineAlign(line));
    return e ? e->state : DirState::Invalid;
}

CoreId
Directory::lineOwner(Addr line) const
{
    const Entry *e = entries.find(lineAlign(line));
    return e ? e->owner : invalidCore;
}

void
Directory::save(Ser &s) const
{
    s.section("directory");
    s.u32(bankIndex);

    // A dataMsg still holding its default-constructed field values —
    // the state on any line that never carried an in-flight data reply,
    // notably every line a functional run touched.
    const auto msgIsDefault = [](const Msg &m) {
        return m.type == MsgType::GetS && m.line == invalidAddr &&
               m.src == 0 && m.dst == 0 && m.requester == invalidCore &&
               !m.fromPrivateCache && !m.excl && !m.fromMemory &&
               !m.contentionHint && m.sent == 0;
    };
    // An entry with every transaction-in-flight field at its default
    // serializes as a 1-byte flag plus owner/sharers instead of the
    // full ~100-byte transaction record. The directory's full-map
    // entries are the bulk of a long run's checkpoint (one per line
    // ever touched, and almost all of them idle), so this fast path —
    // not fmem — is what keeps images small.
    const auto entryQuiescent = [&](const Entry &e) {
        return e.txnRequester == invalidCore &&
               e.nextState == DirState::Invalid &&
               e.nextOwner == invalidCore && e.nextSharers == 0 &&
               e.pendingAcks == 0 && e.dataReady == invalidCycle &&
               !e.dataPending && msgIsDefault(e.dataMsg) &&
               e.blockedSince == invalidCycle && e.queued.empty();
    };

    // Sorted key order: images must not depend on insertion order.
    // Flat copy + sort, not std::map — a node allocation per line is
    // measurable at checkpoint cadence on full-map directories.
    std::vector<std::pair<Addr, const Entry *>> sorted;
    sorted.reserve(entries.size());
    entries.forEach(
        [&](Addr line, const Entry &e) { sorted.emplace_back(line, &e); });
    std::sort(sorted.begin(), sorted.end());
    s.u64(sorted.size());
    Addr prevLine = 0;
    for (const auto &[line, e] : sorted) {
        s.vu64(line - prevLine);
        prevLine = line;
        // Flag byte: stable-state number, top bit = quiescent (no
        // transaction record follows). Owner travels +1 so invalidCore
        // (u32 max) encodes as a single zero byte.
        const bool quiet = entryQuiescent(*e);
        s.u8(static_cast<std::uint8_t>(e->state) |
             (quiet ? 0x80 : 0));
        s.vu64(e->sharers);
        s.vu64(e->owner == invalidCore ? 0 : e->owner + 1ULL);
        if (quiet)
            continue;
        s.u32(e->txnRequester);
        s.u8(static_cast<std::uint8_t>(e->nextState));
        s.u32(e->nextOwner);
        s.u64(e->nextSharers);
        s.u32(e->pendingAcks);
        s.u64(e->dataReady);
        s.b(e->dataPending);
        saveMsg(s, e->dataMsg);
        s.u64(e->blockedSince);
        s.u64(e->queued.size());
        for (const Msg &m : e->queued)
            saveMsg(s, m);
    }

    s.u64(wake.size());
    wake.forEachInOrder([&](Cycle cycle, Addr line) {
        s.u64(cycle);
        s.u64(line);
    });

    s.u64(stallBuffer.size());
    for (const Msg &m : stallBuffer)
        saveMsg(s, m);
    s.u64(stalledUntil);

    llcArray.save(s);
    s.u32(blockedLines);
}

void
Directory::restore(Deser &d)
{
    d.section("directory");
    const std::uint32_t bank = d.u32();
    if (bank != bankIndex) {
        throw SnapshotError(strprintf(
            "directory bank mismatch: image bank %u restored into bank "
            "%u",
            bank, bankIndex));
    }

    entries.clear();
    const std::uint64_t nEntries = d.u64();
    Addr prevLine = 0;
    for (std::uint64_t i = 0; i < nEntries; i++) {
        const Addr line = prevLine + d.vu64();
        prevLine = line;
        if (line == invalidAddr)
            throw SnapshotError("directory entry at the invalid address");
        Entry &e = entries[line];
        // Flag byte from save(): low bits = stable state, top bit =
        // quiescent (transaction fields stay default-constructed).
        const std::uint8_t flag = d.u8();
        e.state = static_cast<DirState>(flag & 0x7f);
        e.sharers = d.vu64();
        const std::uint64_t owner = d.vu64();
        e.owner = owner == 0 ? invalidCore
                             : static_cast<CoreId>(owner - 1);
        if (flag & 0x80)
            continue;
        e.txnRequester = d.u32();
        e.nextState = static_cast<DirState>(d.u8());
        e.nextOwner = d.u32();
        e.nextSharers = d.u64();
        e.pendingAcks = d.u32();
        e.dataReady = d.u64();
        e.dataPending = d.b();
        restoreMsg(d, e.dataMsg);
        e.blockedSince = d.u64();
        const std::uint64_t nQueued = d.u64();
        for (std::uint64_t q = 0; q < nQueued; q++) {
            Msg m;
            restoreMsg(d, m);
            e.queued.push_back(m);
        }
    }

    wake.clear();
    const std::uint64_t nWake = d.u64();
    for (std::uint64_t i = 0; i < nWake; i++) {
        const Cycle cycle = d.u64();
        const Addr line = d.u64();
        wake.push(cycle, line);
    }

    stallBuffer.clear();
    const std::uint64_t nStalled = d.u64();
    for (std::uint64_t i = 0; i < nStalled; i++) {
        Msg m;
        restoreMsg(d, m);
        stallBuffer.push_back(m);
    }
    stalledUntil = d.u64();

    llcArray.restore(d);
    blockedLines = d.u32();
}

} // namespace rowsim
