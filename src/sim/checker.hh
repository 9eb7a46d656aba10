/**
 * @file
 * Runtime-gated protocol invariant checker.
 *
 * Every check point is one branch on the owning System's category
 * bitmask, so leaving checking off costs one predictable branch per
 * tick. With categories enabled (ROWSIM_CHECK env var or
 * SystemParams::checkCategories) the checker sweeps the whole system
 * every N cycles and validates the protocol invariants DESIGN.md
 * promises:
 *
 *  - swmr:      at most one Modified copy of any line; the directory's
 *               sharer/owner records agree with actual L1/L2 contents.
 *  - locks:     every locked line maps to a live in-flight atomic and is
 *               held in M; no lock is held past the deadlock bound.
 *  - leaks:     MSHRs, writeback-buffer entries and directory Blocked
 *               entries do not outlive the deadlock bound; queue depths
 *               stay sane.
 *  - messages:  mesh message conservation (injected == delivered +
 *               in flight), no overdue deliveries, InvAck counts within
 *               range — every request eventually produces a response.
 *  - occupancy: ROB / LQ / SQ / AQ / IQ occupancy within configured
 *               capacity.
 *
 * A violation panics with a message naming the offending core / cache /
 * bank / line; the System's panic hook then emits a crash-diagnostics
 * dump (see System::dumpCrashDiagnostics) before the panic propagates.
 */

#ifndef ROWSIM_SIM_CHECKER_HH
#define ROWSIM_SIM_CHECKER_HH

#include <cstdint>
#include <string>

#include "common/log.hh"
#include "common/types.hh"

namespace rowsim
{

class System;

/** One bit per invariant family; combined into the runtime check mask. */
enum class CheckCategory : std::uint32_t
{
    Swmr      = 1u << 0, ///< single-writer / directory agreement
    Locks     = 1u << 1, ///< locked-line accounting
    Leaks     = 1u << 2, ///< MSHR / Blocked-entry / writeback leaks
    Messages  = 1u << 3, ///< mesh message conservation + request TTL
    Occupancy = 1u << 4, ///< ROB / LQ / SQ / AQ / IQ bounds
};

constexpr std::uint32_t checkCategoryAll = (1u << 5) - 1;

const char *checkCategoryName(CheckCategory c);

/**
 * Parse a ROWSIM_CHECK category list ("swmr,locks", "all",
 * "none", "off") into a bitmask; see parseCategoryList.
 */
std::uint32_t parseCheckCategories(const std::string &spec);

/**
 * The whole-system checker. One per System, holding that System's
 * category mask, so two Systems on one thread check independently.
 */
class Checker
{
  public:
    Checker(System *sys, Cycle interval, std::uint32_t mask);

    std::uint32_t mask() const { return mask_; }
    bool
    on(CheckCategory c) const
    {
        return (mask_ & static_cast<std::uint32_t>(c)) != 0;
    }

    /** Called every tick when any category is enabled; runs a sweep
     *  every `interval` cycles. */
    void
    tick(Cycle now)
    {
        if (now - lastSweep_ >= interval_)
            sweep(now);
    }

    /** Run every enabled invariant sweep immediately (tests call this
     *  directly; panics on the first violation found). */
    void sweep(Cycle now);

    std::uint64_t sweepsRun() const { return sweeps_; }
    Cycle interval() const { return interval_; }
    /** First cycle at which tick() would sweep again (service hoist). */
    Cycle nextSweepAt() const { return lastSweep_ + interval_; }

    /** Snapshot support: sweep schedule position (System aux pass). */
    Cycle lastSweepAt() const { return lastSweep_; }
    void
    restoreSweepState(Cycle last_sweep, std::uint64_t sweeps)
    {
        lastSweep_ = last_sweep;
        sweeps_ = sweeps;
    }

  private:
    void checkSwmr(Cycle now);
    void checkLocks(Cycle now);
    void checkLeaks(Cycle now);
    void checkMessages(Cycle now);
    void checkOccupancy(Cycle now);

    System *sys;
    Cycle interval_;
    std::uint32_t mask_;
    Cycle lastSweep_ = 0;
    std::uint64_t sweeps_ = 0;
};

/**
 * Event-level check point for protocol components, gated on @p mask, the
 * owning System's check mask (one branch when the category is off; the
 * condition and message arguments are only evaluated when it is on).
 * Panics — and thus triggers the crash dump — when @p cond is false.
 */
#define ROWSIM_CHECK_EVENT(mask, cat, cond, ...)                           \
    do {                                                                   \
        if (((mask) & static_cast<std::uint32_t>(cat)) && !(cond)) {      \
            ::rowsim::panicImpl(                                           \
                __FILE__, __LINE__,                                        \
                ::rowsim::strprintf("[check:%s] violated: %s — ",          \
                                    ::rowsim::checkCategoryName(cat),      \
                                    #cond) +                               \
                    ::rowsim::strprintf(__VA_ARGS__));                     \
        }                                                                  \
    } while (0)

} // namespace rowsim

#endif // ROWSIM_SIM_CHECKER_HH
