#include "net/network.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "sim/observer.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::GetS: return "GetS";
      case MsgType::GetX: return "GetX";
      case MsgType::PutM: return "PutM";
      case MsgType::Data: return "Data";
      case MsgType::DataExcl: return "DataExcl";
      case MsgType::Inv: return "Inv";
      case MsgType::FwdGetS: return "FwdGetS";
      case MsgType::FwdGetX: return "FwdGetX";
      case MsgType::WBAck: return "WBAck";
      case MsgType::DataOwner: return "DataOwner";
      case MsgType::InvAck: return "InvAck";
      case MsgType::Unblock: return "Unblock";
    }
    return "?";
}

std::string
Msg::toString() const
{
    return strprintf("%s line=%#lx %u->%u req=%u priv=%d",
                     msgTypeName(type), static_cast<unsigned long>(line),
                     src, dst, requester, fromPrivateCache);
}

Network::Network(unsigned num_cores, const NetParams &p)
    : numCores(num_cores), numNodes(2 * num_cores), params(p),
      handlers(2 * static_cast<std::size_t>(num_cores), nullptr),
      stats_("network")
{
    // Square-ish mesh of tiles; each tile has a core and a bank, so the
    // mesh holds numCores tiles.
    meshX = static_cast<unsigned>(std::ceil(std::sqrt(num_cores)));
    meshY = (num_cores + meshX - 1) / meshX;

    for (unsigned t = 0; t <= static_cast<unsigned>(MsgType::Unblock); t++)
        typeLatency_.emplace_back(
            stats_, std::string("lat") + msgTypeName(MsgType(t)), 0, 128, 64);

    // Precompute the per-pair hop/latency tables and the point-to-point
    // ordering fences once; the hot send() path then indexes flat arrays
    // instead of walking a map and redoing Manhattan math per message.
    const std::size_t pairs =
        static_cast<std::size_t>(numNodes) * numNodes;
    lastDelivery.assign(pairs, 0);
    pairHops.resize(pairs);
    pairLatency.resize(pairs);
    for (NodeId s = 0; s < numNodes; s++) {
        unsigned sx, sy;
        coords(s, sx, sy);
        for (NodeId d = 0; d < numNodes; d++) {
            unsigned dx, dy;
            coords(d, dx, dy);
            auto dist = [](unsigned a, unsigned b) {
                return a > b ? a - b : b - a;
            };
            const unsigned h = dist(sx, dx) + dist(sy, dy);
            const std::size_t idx =
                static_cast<std::size_t>(s) * numNodes + d;
            pairHops[idx] = h;
            // Same-tile messages still pay one router traversal.
            pairLatency[idx] = params.hopLatency * (h + 1);
        }
    }
}

void
Network::attach(NodeId node, MsgHandler *handler)
{
    ROWSIM_ASSERT(node < handlers.size(), "node id %u out of range", node);
    handlers[node] = handler;
}

void
Network::coords(NodeId node, unsigned &x, unsigned &y) const
{
    // Core i and bank i live on the same tile.
    unsigned tile = node % numCores;
    x = tile % meshX;
    y = tile / meshX;
}

unsigned
Network::hops(NodeId a, NodeId b) const
{
    ROWSIM_ASSERT(a < numNodes && b < numNodes,
                  "hops(%u, %u): node beyond the %u-node mesh", a, b,
                  numNodes);
    return pairHops[static_cast<std::size_t>(a) * numNodes + b];
}

Cycle
Network::latency(NodeId a, NodeId b) const
{
    ROWSIM_ASSERT(a < numNodes && b < numNodes,
                  "latency(%u, %u): node beyond the %u-node mesh", a, b,
                  numNodes);
    return pairLatency[static_cast<std::size_t>(a) * numNodes + b];
}

NodeId
Network::homeBank(Addr line) const
{
    return numCores + static_cast<NodeId>(lineNum(line) % numCores);
}

void
Network::send(Msg msg, Cycle now)
{
    // A misrouted message (unattached / out-of-range node) must die with
    // a clean panic here, not UB-index the flat tables below.
    ROWSIM_ASSERT(msg.src < numNodes && msg.dst < numNodes,
                  "misrouted message %s: node beyond the %u-node mesh",
                  msg.toString().c_str(), numNodes);
    msg.sent = now;
    const std::size_t pair =
        static_cast<std::size_t>(msg.src) * numNodes + msg.dst;
    Cycle due = now + pairLatency[pair];
    if (delayHook)
        due += delayHook(msg, now);
    if (due < lastDelivery[pair])
        due = lastDelivery[pair]; // preserve point-to-point ordering
    lastDelivery[pair] = due;
    inFlight.push_back({due, nextOrder++, msg});
    std::push_heap(inFlight.begin(), inFlight.end(),
                   std::greater<Pending>());
    messages_++;
    hops_.sample(pairHops[pair]);
    ROWSIM_TRACE(obs_, TraceCategory::Network, now, "inject %s due=%llu",
                 msg.toString().c_str(),
                 static_cast<unsigned long long>(due));
}

void
Network::tick(Cycle now)
{
    while (!inFlight.empty() && inFlight.front().due <= now) {
        std::pop_heap(inFlight.begin(), inFlight.end(),
                      std::greater<Pending>());
        Pending p = inFlight.back();
        inFlight.pop_back();
        MsgHandler *h = handlers[p.msg.dst];
        ROWSIM_ASSERT(h != nullptr, "no handler attached at node %u",
                      p.msg.dst);
        if (obs_)
            obs_->messageDelivered(p.msg, p.order, now);
        delivered_++;
        const Cycle lat = now >= p.msg.sent ? now - p.msg.sent : 0;
        typeLatency_[static_cast<std::size_t>(p.msg.type)].sample(
            static_cast<double>(lat));
        h->deliver(p.msg, now);
    }
}

void
Network::dumpDiag(std::FILE *out, Cycle now) const
{
    std::fprintf(out, "{\"inFlight\":%zu,\"messages\":[",
                 inFlight.size());
    // Sort pointers to the oldest 64 entries instead of copying (and
    // re-heapifying) every in-flight message on the crash path.
    std::vector<const Pending *> byDue;
    byDue.reserve(inFlight.size());
    for (const Pending &p : inFlight)
        byDue.push_back(&p);
    const std::size_t listed = std::min<std::size_t>(byDue.size(), 64);
    std::partial_sort(byDue.begin(), byDue.begin() + listed, byDue.end(),
                      [](const Pending *a, const Pending *b) {
                          return *b > *a;
                      });
    for (std::size_t i = 0; i < listed; i++) {
        const Pending &p = *byDue[i];
        std::fprintf(out,
                     "%s{\"type\":\"%s\",\"line\":\"%#llx\",\"src\":%u,"
                     "\"dst\":%u,\"sent\":%llu,\"due\":%llu,\"age\":%llu}",
                     i ? "," : "", msgTypeName(p.msg.type),
                     static_cast<unsigned long long>(p.msg.line),
                     p.msg.src, p.msg.dst,
                     static_cast<unsigned long long>(p.msg.sent),
                     static_cast<unsigned long long>(p.due),
                     static_cast<unsigned long long>(
                         now >= p.msg.sent ? now - p.msg.sent : 0));
    }
    std::fprintf(out, "]%s}",
                 inFlight.size() > 64 ? ",\"truncated\":true" : "");
}

void
Network::save(Ser &s) const
{
    s.section("network");
    s.u32(numNodes);

    // Serialize in full (due, order) order, not heap layout: pop order is
    // entirely comparator-determined (order is unique), so the physical
    // heap arrangement is unobservable and must not affect the image.
    std::vector<Pending> sorted(inFlight);
    std::sort(sorted.begin(), sorted.end(),
              [](const Pending &a, const Pending &b) { return b > a; });
    s.u64(sorted.size());
    for (const Pending &p : sorted) {
        s.u64(p.due);
        s.u64(p.order);
        saveMsg(s, p.msg);
    }

    for (Cycle c : lastDelivery)
        s.u64(c);
    s.u64(nextOrder);
}

void
Network::restore(Deser &d)
{
    d.section("network");
    const std::uint32_t nodes = d.u32();
    if (nodes != numNodes) {
        throw SnapshotError(strprintf(
            "network size mismatch: image has %u nodes, configured %u",
            nodes, numNodes));
    }

    inFlight.clear();
    const std::uint64_t nInFlight = d.u64();
    for (std::uint64_t i = 0; i < nInFlight; i++) {
        Pending p;
        p.due = d.u64();
        p.order = d.u64();
        restoreMsg(d, p.msg);
        inFlight.push_back(p);
    }
    std::make_heap(inFlight.begin(), inFlight.end(),
                   std::greater<Pending>());

    for (Cycle &c : lastDelivery)
        c = d.u64();
    nextOrder = d.u64();
}

} // namespace rowsim
