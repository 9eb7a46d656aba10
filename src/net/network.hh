/**
 * @file
 * Latency-accurate 2D-mesh interconnect model (GARNET substitute).
 *
 * Each tile holds one core and one directory/LLC bank. Messages pay a
 * Manhattan-distance hop latency and are delivered in order per
 * (source, destination) pair, matching the in-order virtual-network
 * delivery that directory protocols rely on.
 */

#ifndef ROWSIM_NET_NETWORK_HH
#define ROWSIM_NET_NETWORK_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "net/message.hh"

namespace rowsim
{

class Ser;
class Deser;
class Observer;

/**
 * The on-chip network. Endpoints register themselves by NodeId; send()
 * computes the delivery cycle from mesh distance and enqueues; tick()
 * delivers everything due at the current cycle.
 */
class Network
{
  public:
    Network(unsigned num_cores, const NetParams &params);

    /** Attach the handler for @p node (cores first, then banks). */
    void attach(NodeId node, MsgHandler *handler);

    /** Inject a message at cycle @p now. */
    void send(Msg msg, Cycle now);

    /** Deliver all messages due at @p now. */
    void tick(Cycle now);

    /** True when no messages are in flight. */
    bool idle() const { return inFlight.empty(); }

    /** Messages currently in flight (conservation checks). */
    std::size_t inFlightCount() const { return inFlight.size(); }
    /** Delivery cycle of the earliest in-flight message; invalidCycle
     *  when the network is idle. */
    Cycle
    nextDue() const
    {
        return inFlight.empty() ? invalidCycle : inFlight.front().due;
    }

    /**
     * Fault injection: extra per-message delay, added on top of the mesh
     * latency before the point-to-point ordering adjustment (so ordering
     * still holds). Return 0 for no fault.
     */
    using DelayHook = std::function<Cycle(const Msg &msg, Cycle now)>;
    void setDelayHook(DelayHook hook) { delayHook = std::move(hook); }

    /** Attach the owning System's observer (null: observability off). */
    void setObserver(Observer *obs) { obs_ = obs; }

    /** Crash diagnostics: one JSON object listing in-flight messages. */
    void dumpDiag(std::FILE *out, Cycle now) const;

    /** NodeId of the directory bank homing @p line. */
    NodeId homeBank(Addr line) const;

    /** Hop count between two nodes (exposed for tests). */
    unsigned hops(NodeId a, NodeId b) const;

    /** One-way latency between two nodes (exposed for tests). */
    Cycle latency(NodeId a, NodeId b) const;

    StatGroup &stats() { return stats_; }

    /** Architectural state: in-flight messages (serialized in (due,
     *  order) order so the heap layout never leaks into the image),
     *  point-to-point ordering floors, injection counter. */
    void save(Ser &s) const;
    void restore(Deser &d);

  private:
    struct Pending
    {
        Cycle due;
        std::uint64_t order; ///< global injection order, tie-breaker
        Msg msg;
        bool operator>(const Pending &o) const
        {
            return due != o.due ? due > o.due : order > o.order;
        }
    };

    /** Tile coordinates of a node in the mesh. */
    void coords(NodeId node, unsigned &x, unsigned &y) const;

    unsigned numCores;
    unsigned numNodes;   ///< 2 * numCores: cores then banks
    unsigned meshX, meshY;
    NetParams params;

    std::vector<MsgHandler *> handlers;
    /** Min-heap on (due, order) kept via std::push_heap/pop_heap; a raw
     *  vector (unlike std::priority_queue) lets dumpDiag walk it without
     *  copying every in-flight message on the crash path. */
    std::vector<Pending> inFlight;
    /** Last delivery cycle per (src,dst), flat-indexed src*numNodes+dst,
     *  enforcing point-to-point order. 0 (never delivered) is a no-op
     *  lower bound, so no occupancy map is needed. */
    std::vector<Cycle> lastDelivery;
    /** Precomputed one-way latency per (src,dst), same flat indexing, so
     *  send() does no Manhattan math. */
    std::vector<Cycle> pairLatency;
    /** Precomputed hop count per (src,dst) for the hops stat. */
    std::vector<unsigned> pairHops;
    std::uint64_t nextOrder = 0;
    DelayHook delayHook;
    Observer *obs_ = nullptr;

    StatGroup stats_;
    CounterRef messages_{stats_, "messages"};
    CounterRef delivered_{stats_, "delivered"};
    AverageRef hops_{stats_, "hops"};
    /** Delivery latency per message type ("lat<Type>"), by MsgType. */
    std::vector<HistogramRef> typeLatency_;
};

} // namespace rowsim

#endif // ROWSIM_NET_NETWORK_HH
