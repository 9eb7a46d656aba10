/**
 * @file
 * Host-performance benchmark program for RoWSim (see perfbench/README.md).
 *
 * One process simulates one workload as a Fig. 9 bar triple — eager,
 * lazy and RoW (RW+Dir detector, saturate-on-contention update) on 32
 * cores — back to back on the calling thread, repeatedly for the given
 * number of seconds, and prints medians. Every System is built directly
 * from makeParams + makeStreams + the System constructor, never through
 * runExperiment, so no result-store, sampling or checkpoint path is
 * ever timed. Host times are scaled to a nominal host speed with a fixed
 * reference kernel timed after every run (ReferenceKernel).
 *
 * --trace 1 adds a traced run: it assembles the same machine from the
 * public MemSystem / Core constructors, re-attaches every network
 * endpoint to a timing wrapper, and drives the components' tick calls in
 * System::tick's order, timing each call group from outside the program.
 *
 * Usage:
 *   rowsim_perfbench --workload W --seed N --seconds S --trace 0|1
 *                    --reference FILE [--commit SHA]
 *   rowsim_perfbench --record-reference
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cpu/core.hh"
#include "mem/memsystem.hh"
#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

extern char **environ;

using namespace rowsim;

namespace
{

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

constexpr unsigned kCores = 32;
/** Seed at which perfbench/reference.txt pins every outcome. */
constexpr std::uint64_t kReferenceSeed = 1;

struct Workload
{
    const char *name;
    const char *profile;
    /** Per-core iteration quota of each run. */
    std::uint64_t quota;
    /** FetchAdd-only kernel: the final memory image does not depend on
     *  the interleaving, so a functional replay must reproduce it. */
    bool funcCheck;
};

const Workload kWorkloads[] = {
    {"contended-counter", "counter", 40, true},
    {"uncontended-misses", "canneal", 100, false},
    {"high-ipc-private", "freqmine", 150, true},
};

struct Policy
{
    const char *name;
    ExpConfig cfg;
};

std::vector<Policy>
policies()
{
    return {{"eager", eagerConfig()},
            {"lazy", lazyConfig()},
            {"row", rowConfig(ContentionDetector::RWDir,
                              PredictorUpdate::SaturateOnContention)}};
}

using Clock = std::chrono::steady_clock;

double
secs(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
threadCpu()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/**
 * Host-speed reference: a small, fixed coherence kernel that is timed
 * next to every timed simulation, so that host seconds can be scaled to
 * one nominal host speed (README.md, "Calibration").
 *
 * On a shared host, neighbours on the same core and caches slow the
 * simulator by up to 2x, at time scales from milliseconds to minutes; a
 * pointer chase or a plain compute loop slows down by much less. This
 * kernel does what the simulator does, at a much smaller scale: per-core
 * set-associative tag lookups with LRU fills, a hashed directory of
 * sharer masks, invalidations and a message queue. So it slows down about
 * as much as the simulator does. Its code and the constants below are
 * part of the benchmark's definition: changing them changes every scaled
 * figure.
 */
class ReferenceKernel
{
  public:
    struct Reading
    {
        double cpu = 0;  ///< thread CPU seconds of one timed slice
        double wall = 0; ///< wall seconds of the same slice
    };

    /** Timed slice length, and the CPU and wall seconds a slice is
     *  scaled to: about its median on the host the README's noise
     *  figures come from. They set the unit of every scaled figure. */
    static constexpr std::uint64_t kSteps = 400000;
    static constexpr double kRefCpu = 0.040;
    static constexpr double kRefWall = 0.040;

    ReferenceKernel()
    {
        // Every line the kernel can touch has a directory entry from
        // the start, so a timed slice never allocates or rehashes.
        dir_.reserve(2 * (kSharedLines + kCores * kPrivateLines));
        for (std::uint64_t l = 0; l < kSharedLines; l++)
            dir_[l] = 0;
        for (std::uint64_t c = 0; c < kCores; c++) {
            for (std::uint64_t l = 0; l < kPrivateLines; l++)
                dir_[privateLine(c, l)] = 0;
        }
        run(20 * kWarmSteps);
    }

    /** One timed slice, after an untimed one that reloads the kernel's
     *  working set after whatever ran before it. */
    Reading
    measure()
    {
        run(kWarmSteps);
        const auto wall0 = Clock::now();
        const double cpu0 = threadCpu();
        run(kSteps);
        return {threadCpu() - cpu0, secs(Clock::now() - wall0)};
    }

    /** Folds the kernel's state into a value, so no slice is dead code. */
    std::uint64_t checksum() const { return hits_ * 31 + misses_; }

  private:
    static constexpr unsigned kSets = 64, kWays = 8, kQueue = 64;
    static constexpr std::uint64_t kWarmSteps = 40000;
    static constexpr std::uint64_t kSharedLines = 1u << 17;
    static constexpr std::uint64_t kPrivateLines = 1u << 10;

    struct Line
    {
        std::uint64_t tag = ~0ull;
        std::uint32_t lru = 0;
        bool owned = false;
    };

    struct Msg
    {
        std::uint64_t line;
        unsigned src;
        bool write;
    };

    static std::uint64_t
    privateLine(std::uint64_t core, std::uint64_t l)
    {
        return kSharedLines + core * kPrivateLines + l;
    }

    Line *
    set(unsigned core, std::uint64_t line)
    {
        return &l1_[(core * kSets + line % kSets) * kWays];
    }

    Line *
    lookup(unsigned core, std::uint64_t line)
    {
        Line *s = set(core, line);
        for (unsigned w = 0; w < kWays; w++) {
            if (s[w].tag == line)
                return &s[w];
        }
        return nullptr;
    }

    void
    fill(unsigned core, std::uint64_t line, bool owned)
    {
        Line *s = set(core, line);
        Line *victim = s;
        for (unsigned w = 1; w < kWays; w++) {
            if (s[w].lru < victim->lru)
                victim = &s[w];
        }
        *victim = {line, static_cast<std::uint32_t>(tick_), owned};
    }

    void
    deliver(const Msg &m)
    {
        std::uint64_t &sharers = dir_.find(m.line)->second;
        if (m.write) {
            for (unsigned c = 0; c < kCores; c++) {
                if ((sharers >> c & 1) && c != m.src) {
                    if (Line *l = lookup(c, m.line))
                        l->tag = ~0ull;
                }
            }
            sharers = 1ull << m.src;
        } else {
            sharers |= 1ull << m.src;
        }
        fill(m.src, m.line, m.write);
    }

    void
    run(std::uint64_t steps)
    {
        for (std::uint64_t s = 0; s < steps; s++) {
            tick_++;
            rng_ ^= rng_ << 13;
            rng_ ^= rng_ >> 7;
            rng_ ^= rng_ << 17;
            const unsigned core = static_cast<unsigned>(tick_ % kCores);
            const std::uint64_t line =
                (rng_ & 3) ? privateLine(core, rng_ >> 8 & (kPrivateLines - 1))
                           : (rng_ >> 16) % kSharedLines;
            const bool write = (rng_ >> 4 & 7) == 0;
            Line *l = lookup(core, line);
            if (l && (!write || l->owned)) {
                l->lru = static_cast<std::uint32_t>(tick_);
                hits_++;
            } else {
                misses_++;
                queue_[queued_++] = {line, core, write};
            }
            if (queued_ == kQueue || (tick_ & 3) == 0) {
                for (unsigned i = 0; i < queued_; i++)
                    deliver(queue_[i]);
                queued_ = 0;
            }
        }
    }

    std::vector<Line> l1_ = std::vector<Line>(kCores * kSets * kWays);
    std::unordered_map<std::uint64_t, std::uint64_t> dir_;
    Msg queue_[kQueue]{};
    unsigned queued_ = 0;
    std::uint64_t rng_ = 0x9E3779B97F4A7C15ull, tick_ = 0, hits_ = 0,
                  misses_ = 0;
};

/** Scales host seconds to the reference host speed. Each timed span is
 *  bracketed by two kernel readings; the span is scaled by the reference
 *  time over the mean of the two. */
class HostSpeed
{
  public:
    struct Scale
    {
        double cpu = 1;
        double wall = 1;
    };

    HostSpeed() : last_(kernel_.measure()) {}

    /** Reads the kernel; returns the scale for the span since the
     *  previous reading. */
    Scale
    next()
    {
        const ReferenceKernel::Reading now = kernel_.measure();
        readings_.push_back(now.cpu);
        const Scale s{
            ReferenceKernel::kRefCpu / (0.5 * (last_.cpu + now.cpu)),
            ReferenceKernel::kRefWall / (0.5 * (last_.wall + now.wall))};
        last_ = now;
        return s;
    }

    /** Thread CPU seconds of every reading taken by next(). */
    const std::vector<double> &readings() const { return readings_; }

    std::uint64_t checksum() const { return kernel_.checksum(); }

  private:
    ReferenceKernel kernel_;
    ReferenceKernel::Reading last_;
    std::vector<double> readings_;
};

/** The simulated facts two runs of one seed must agree on. */
struct Outcome
{
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t atomics = 0;
    /** System::stateDigest(); empty for traced runs, which have no
     *  System to digest. */
    std::string digest;
};

std::string
describe(const Outcome &o)
{
    return strprintf("sim_cycles=%llu insts=%llu atomics=%llu digest=%s",
                     static_cast<unsigned long long>(o.cycles),
                     static_cast<unsigned long long>(o.insts),
                     static_cast<unsigned long long>(o.atomics),
                     o.digest.empty() ? "-" : o.digest.c_str());
}

/** Model statistics behind the per-layer count metrics. */
struct ModelStats
{
    double waitSum = 0; ///< atomicDispatchToIssue, pooled over cores
    std::uint64_t waitCount = 0;
    std::uint64_t predUpdates = 0, predCorrect = 0;
    std::uint64_t lazyIssued = 0, eagerIssued = 0;
    std::uint64_t l1Misses = 0, mshrFull = 0;
    double lockStallCycles = 0;
};

ModelStats
modelStats(System &sys)
{
    ModelStats s;
    for (CoreId c = 0; c < sys.numCores(); c++) {
        Core &core = sys.core(c);
        if (const Average *a =
                core.stats().findAverage("atomicDispatchToIssue")) {
            s.waitSum += a->sum();
            s.waitCount += a->count();
        }
        s.predUpdates += core.predictor().stats().counterValue("updates");
        s.predCorrect += core.predictor().stats().counterValue("correct");
        s.lazyIssued += core.stats().counterValue("atomicsIssuedLazy");
        s.eagerIssued += core.stats().counterValue("atomicsIssuedEager");
        StatGroup &l1 = sys.mem().cache(c).stats();
        s.l1Misses += l1.counterValue("l1Misses");
        s.mshrFull += l1.counterValue("mshrFull");
        if (const Average *a = l1.findAverage("lockStallCycles"))
            s.lockStallCycles += a->sum();
    }
    return s;
}

/** One untraced run of one policy. */
struct Untraced
{
    Outcome out;
    double streamsCpu = 0; ///< profileFor + makeStreams
    double systemCpu = 0;  ///< makeParams + System constructor
    double runCpu = 0;     ///< System::run
    double wall = 0;       ///< setup through teardown, checks excluded
    Cycle ffSkipped = 0;
    ModelStats stats;
    /** Filled when the run is drained for a functional replay: per-core
     *  committed instructions and funcStateDigest() after the drain. */
    std::vector<std::uint64_t> drainedInsts;
    std::string funcDigest;
};

Untraced
runUntraced(const Workload &w, const ExpConfig &cfg, std::uint64_t seed,
            bool drain)
{
    Untraced r;
    const auto wall0 = Clock::now();
    const double cpu0 = threadCpu();
    auto streams = makeStreams(profileFor(w.profile), kCores, seed);
    const double cpu1 = threadCpu();
    auto sys = std::make_unique<System>(makeParams(cfg, kCores, seed),
                                        std::move(streams));
    const double cpu2 = threadCpu();
    r.out.cycles = sys->run(w.quota);
    const double cpu3 = threadCpu();
    const auto wall1 = Clock::now();

    r.out.insts = sys->totalInstructions();
    r.out.atomics = sys->totalAtomics();
    r.out.digest = sys->stateDigest();
    r.ffSkipped = sys->fastForwardedCycles();
    r.stats = modelStats(*sys);
    if (drain) {
        // As tools/state_digest --func-check does: drain so every store
        // has reached functional memory before digesting it.
        sys->drain();
        for (CoreId c = 0; c < kCores; c++)
            r.drainedInsts.push_back(sys->core(c).committedInstructions());
        r.funcDigest = sys->funcStateDigest();
    }

    const auto wall2 = Clock::now();
    sys.reset();
    const auto wall3 = Clock::now();
    r.streamsCpu = cpu1 - cpu0;
    r.systemCpu = cpu2 - cpu1;
    r.runCpu = cpu3 - cpu2;
    r.wall = secs(wall1 - wall0) + secs(wall3 - wall2);
    return r;
}

/** funcStateDigest() of a functional run to @p insts per core. */
std::string
funcReplayDigest(const Workload &w, const ExpConfig &cfg, std::uint64_t seed,
                 const std::vector<std::uint64_t> &insts)
{
    System func(makeParams(cfg, kCores, seed),
                makeStreams(profileFor(w.profile), kCores, seed));
    func.runFunctionalToInstCounts(insts);
    return func.funcStateDigest();
}

/** Network endpoint that forwards to the real cache or directory bank
 *  and accumulates the time spent in its deliver(). */
class TimedEndpoint : public MsgHandler
{
  public:
    TimedEndpoint(MsgHandler &inner, Clock::duration &busy,
                  std::uint64_t &count)
        : inner_(inner), busy_(busy), count_(count)
    {
    }

    void
    deliver(const Msg &msg, Cycle now) override
    {
        const auto t0 = Clock::now();
        inner_.deliver(msg, now);
        busy_ += Clock::now() - t0;
        count_++;
    }

  private:
    MsgHandler &inner_;
    Clock::duration &busy_;
    std::uint64_t &count_;
};

/** One traced run of one policy. The loop is tiled into consecutive
 *  spans (network, directory banks, private caches, cores, the loop's
 *  own bookkeeping, fast-forward probes); deliveries nest inside the
 *  network span. */
struct Traced
{
    Outcome out;
    Clock::duration total{}, net{}, dir{}, l1{}, core{}, loopSelf{},
        ffProbe{}, l1Deliver{}, dirDeliver{};
    std::uint64_t l1Msgs = 0, dirMsgs = 0;
    double cpu = 0; ///< thread CPU of the traced loop

    /** Accumulate another run's times and counts (triple totals). */
    void
    add(const Traced &o)
    {
        out.insts += o.out.insts;
        out.atomics += o.out.atomics;
        total += o.total;
        net += o.net;
        dir += o.dir;
        l1 += o.l1;
        core += o.core;
        loopSelf += o.loopSelf;
        ffProbe += o.ffProbe;
        l1Deliver += o.l1Deliver;
        dirDeliver += o.dirDeliver;
        l1Msgs += o.l1Msgs;
        dirMsgs += o.dirMsgs;
        cpu += o.cpu;
    }
};

Traced
runTraced(const Workload &w, const ExpConfig &cfg, std::uint64_t seed)
{
    Traced r;
    const SystemParams sp = makeParams(cfg, kCores, seed);
    auto streams = makeStreams(profileFor(w.profile), kCores, seed);
    MemSystem mem(sp);
    std::vector<std::unique_ptr<Core>> cores;
    for (CoreId c = 0; c < kCores; c++) {
        cores.push_back(std::make_unique<Core>(
            c, sp.core, &mem.cache(c), &mem.functional(),
            streams[c].get()));
    }
    // The directory contention oracle, wired as System's constructor
    // wires it.
    for (unsigned b = 0; b < mem.numBanks(); b++) {
        mem.directory(b).setOracleHook(
            [&cores](Addr line, CoreId requester, CoreId holder,
                     bool overlap, Cycle now) {
                if (overlap && requester < cores.size())
                    cores[requester]->oracleContentionHint(line, now);
                if (holder != invalidCore && holder < cores.size())
                    cores[holder]->oracleContentionHint(line, now);
            });
    }
    Network &net = mem.network();
    std::vector<std::unique_ptr<TimedEndpoint>> endpoints;
    for (CoreId c = 0; c < kCores; c++) {
        endpoints.push_back(std::make_unique<TimedEndpoint>(
            mem.cache(c), r.l1Deliver, r.l1Msgs));
        net.attach(c, endpoints.back().get());
    }
    for (unsigned b = 0; b < mem.numBanks(); b++) {
        endpoints.push_back(std::make_unique<TimedEndpoint>(
            mem.directory(b), r.dirDeliver, r.dirMsgs));
        net.attach(kCores + b, endpoints.back().get());
    }

    // System's rare-service deadline: the watchdog grid, which also
    // bounds every fast-forward skip.
    const Cycle watchdog =
        std::clamp<Cycle>(sp.deadlockCycles / 8, Cycle{32}, Cycle{4096});
    Cycle now = 0, nextService = 0, lastScan = 0;
    Cycle backoff = 0, backoffLen = 0;

    const double cpu0 = threadCpu();
    const auto start = Clock::now();
    while (true) {
        const auto t0 = Clock::now();
        now++;
        net.tick(now);
        const auto t1 = Clock::now();
        for (unsigned b = 0; b < mem.numBanks(); b++)
            mem.directory(b).tick(now);
        const auto t2 = Clock::now();
        for (CoreId c = 0; c < kCores; c++)
            mem.cache(c).tick(now);
        const auto t3 = Clock::now();
        for (auto &c : cores)
            c->tick(now);
        const auto t4 = Clock::now();
        r.net += t1 - t0;
        r.dir += t2 - t1;
        r.l1 += t3 - t2;
        r.core += t4 - t3;

        if (now >= nextService) {
            if (now - lastScan >= watchdog)
                lastScan = now;
            nextService = lastScan + watchdog;
        }
        bool allDone = true;
        for (auto &c : cores) {
            if (c->committedIterations() >= w.quota) {
                if (!c->isHalted())
                    c->halt();
            } else {
                allDone = false;
            }
        }
        if (allDone || backoff > 0) {
            r.loopSelf += Clock::now() - t4;
            if (allDone)
                break;
            backoff--;
            continue;
        }
        const auto t5 = Clock::now();
        r.loopSelf += t5 - t4;
        // System::nextEventCycle: cores first, bailing as soon as the
        // next tick is busy, then the memory side.
        Cycle next = nextService;
        bool busy = false;
        for (const auto &c : cores) {
            next = std::min(next, c->nextEventCycle(now));
            if (next <= now + 1) {
                busy = true;
                break;
            }
        }
        if (!busy)
            next = std::min(next, mem.nextEventCycle(now));
        r.ffProbe += Clock::now() - t5;
        if (next == invalidCycle || next <= now + 1) {
            backoffLen = std::min<Cycle>(backoffLen ? backoffLen * 2 : 4,
                                         64);
            backoff = backoffLen;
        } else {
            backoffLen = 0;
            now = next - 1;
        }
    }
    r.total = Clock::now() - start;
    r.cpu = threadCpu() - cpu0;

    r.out.cycles = now;
    for (const auto &c : cores) {
        r.out.insts += c->committedInstructions();
        r.out.atomics += c->committedAtomics();
    }
    return r;
}

using Reference = std::map<std::string, Outcome>;

std::string
refKey(const std::string &workload, const std::string &policy)
{
    return workload + " " + policy;
}

/** Read perfbench/reference.txt: "workload policy cycles insts atomics
 *  digest" per line, '#' comments. */
Reference
loadReference(const std::string &path)
{
    Reference ref;
    std::ifstream in(path);
    if (!in)
        ROWSIM_FATAL("cannot read reference file '%s'", path.c_str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        char workload[64], policy[16], digest[80];
        unsigned long long cycles, insts, atomics;
        if (std::sscanf(line.c_str(), "%63s %15s %llu %llu %llu %79s",
                        workload, policy, &cycles, &insts, &atomics,
                        digest) != 6) {
            ROWSIM_FATAL("bad reference line '%s'", line.c_str());
        }
        ref[refKey(workload, policy)] = {cycles, insts, atomics, digest};
    }
    return ref;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Samples of every metric one process reports, in report order. */
class Metrics
{
  public:
    void
    add(const std::string &name, const std::string &unit, double v)
    {
        auto it = std::find_if(rows_.begin(), rows_.end(),
                               [&](const Row &r) { return r.name == name; });
        if (it == rows_.end())
            it = rows_.insert(rows_.end(), Row{name, unit, {}});
        it->samples.push_back(v);
    }

    /** One human-readable line per metric: median, unit, sample count
     *  and range. */
    void
    print() const
    {
        for (const Row &r : rows_) {
            const auto [lo, hi] =
                std::minmax_element(r.samples.begin(), r.samples.end());
            std::printf("  %-26s %14.6g %-6s n=%zu  min %.6g  max %.6g\n",
                        r.name.c_str(), median(r.samples), r.unit.c_str(),
                        r.samples.size(), *lo, *hi);
        }
    }

    std::string
    json() const
    {
        std::string s = "{";
        for (const Row &r : rows_) {
            s += strprintf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                           s.size() > 1 ? ", " : "", r.name.c_str(),
                           median(r.samples), r.unit.c_str());
        }
        return s + "}";
    }

  private:
    struct Row
    {
        std::string name;
        std::string unit;
        std::vector<double> samples;
    };
    std::vector<Row> rows_;
};

/** Runs one simulation and counts it against the attempts; an exception
 *  or a failed check counts it as failed. */
class Tally
{
  public:
    void
    attempt(const std::string &what, const std::function<bool()> &run)
    {
        attempted_++;
        bool ok = false;
        try {
            ok = run();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: %s threw: %s\n", what.c_str(),
                         e.what());
        }
        if (!ok) {
            failed_++;
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
        }
    }

    unsigned attempted() const { return attempted_; }
    unsigned failed() const { return failed_; }

  private:
    unsigned attempted_ = 0;
    unsigned failed_ = 0;
};

/** True when @p got matches @p want (and its digest, when asked);
 *  reports the mismatch otherwise. */
bool
expect(const char *what, const Outcome &got, const Outcome &want,
       bool digest)
{
    if (got.cycles == want.cycles && got.insts == want.insts &&
        got.atomics == want.atomics &&
        (!digest || got.digest == want.digest)) {
        return true;
    }
    std::fprintf(stderr, "perfbench: %s mismatch\n  got  %s\n  want %s\n",
                 what, describe(got).c_str(), describe(want).c_str());
    return false;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

void
printHost(const std::string &commit)
{
    std::printf("{\"host\": {\"cpu_model\": \"%s\", \"nproc\": %ld, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"ndebug\": %s, \"optimized\": %s, \"commit\": \"%s\"}}\n",
                jsonEscape(cpuModel()).c_str(),
                sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
                "true",
#else
                "false",
#endif
                kOptimized ? "true" : "false",
                jsonEscape(commit).c_str());
}

/** Name of the first ROWSIM_* environment variable, or empty. */
std::string
rowsimEnvSet()
{
    for (char **e = environ; *e; e++) {
        if (std::strncmp(*e, "ROWSIM_", 7) == 0) {
            const char *eq = std::strchr(*e, '=');
            return eq ? std::string(*e, static_cast<std::size_t>(eq - *e))
                      : std::string(*e);
        }
    }
    return {};
}

/** Layer times of one traced run or triple, in report order. Each is a
 *  self time: the spans tile the loop and deliveries nest inside the
 *  network span, so together with the unattributed remainder they sum
 *  to the traced total. */
std::vector<std::pair<const char *, double>>
layerTimes(const Traced &t)
{
    const double deliver = secs(t.l1Deliver + t.dirDeliver);
    const double spans = secs(t.net + t.dir + t.l1 + t.core + t.loopSelf +
                              t.ffProbe);
    return {{"sim.ff_probe_s", secs(t.ffProbe)},
            {"sim.loop_self_s", secs(t.loopSelf)},
            {"cpu.tick_s", secs(t.core)},
            {"mem.l1_tick_s", secs(t.l1)},
            {"mem.l1_deliver_s", secs(t.l1Deliver)},
            {"mem.dir_tick_s", secs(t.dir)},
            {"mem.dir_deliver_s", secs(t.dirDeliver)},
            {"net.tick_self_s", secs(t.net) - deliver},
            {"trace.unattributed_s", secs(t.total) - spans}};
}

void
printConservation(const Traced &t)
{
    double sum = 0;
    std::printf("  trace conservation (median-total traced triple):\n");
    for (const auto &[name, s] : layerTimes(t)) {
        std::printf("    %-22s %10.6f s  %5.1f%%\n", name, s,
                    100.0 * s / secs(t.total));
        sum += s;
    }
    std::printf("    %-22s %10.6f s  = traced total %.6f s\n", "sum", sum,
                secs(t.total));
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

int
runBenchmark(const Workload &w, std::uint64_t seed, double seconds,
             bool trace, const Reference &ref)
{
    const std::vector<Policy> pols = policies();
    Tally tally;
    Metrics e2e;
    Metrics layers;

    // Check pass, which is also the warm-up (the first System built in
    // a process sets up markedly slower): outcomes every later run must
    // reproduce, checked against the recorded reference at its seed and
    // against a functional replay for FetchAdd-only kernels.
    std::vector<Untraced> base(pols.size());
    for (std::size_t p = 0; p < pols.size(); p++) {
        const std::string what =
            strprintf("%s/%s check run", w.name, pols[p].name);
        tally.attempt(what, [&] {
            base[p] = runUntraced(w, pols[p].cfg, seed, w.funcCheck);
            std::printf("  %-5s %s\n", pols[p].name,
                        describe(base[p].out).c_str());
            if (seed != kReferenceSeed)
                return true;
            auto it = ref.find(refKey(w.name, pols[p].name));
            if (it == ref.end()) {
                std::fprintf(stderr, "perfbench: no reference for %s\n",
                             what.c_str());
                return false;
            }
            return expect("reference", base[p].out, it->second, true);
        });
        if (w.funcCheck) {
            // The functional replay is a simulated run of its own.
            tally.attempt(what + " functional replay", [&] {
                const std::string replayed = funcReplayDigest(
                    w, pols[p].cfg, seed, base[p].drainedInsts);
                if (!base[p].funcDigest.empty() &&
                    replayed == base[p].funcDigest) {
                    return true;
                }
                std::fprintf(stderr, "perfbench: funcStateDigest detail "
                             "'%s' vs functional '%s'\n",
                             base[p].funcDigest.c_str(), replayed.c_str());
                return false;
            });
        }
    }

    // Host times from here on are scaled to the reference host speed;
    // `raw` keeps them unscaled for the printed report.
    HostSpeed speed;
    Metrics raw;

    // One untraced triple; returns its scaled System::run thread CPU.
    auto untracedTriple = [&] {
        double streams = 0, system = 0, cpu = 0, wall = 0, kcycles = 0;
        double rawSetup = 0, rawCpu = 0, rawWall = 0;
        for (std::size_t p = 0; p < pols.size(); p++) {
            tally.attempt(strprintf("%s/%s", w.name, pols[p].name), [&] {
                const Untraced r =
                    runUntraced(w, pols[p].cfg, seed, false);
                const HostSpeed::Scale s = speed.next();
                streams += r.streamsCpu * s.cpu;
                system += r.systemCpu * s.cpu;
                cpu += r.runCpu * s.cpu;
                wall += r.wall * s.wall;
                rawSetup += r.streamsCpu + r.systemCpu;
                rawCpu += r.runCpu;
                rawWall += r.wall;
                kcycles += static_cast<double>(r.out.cycles) / 1e3;
                return expect("repeat run", r.out, base[p].out, true);
            });
        }
        e2e.add("setup_s", "s", streams + system);
        e2e.add("sim_kcycles_per_s", "kcyc/s", ratio(kcycles, cpu));
        e2e.add("wall_s", "s", wall);
        raw.add("raw setup_s", "s", rawSetup);
        raw.add("raw sim_kcycles_per_s", "kcyc/s", ratio(kcycles, rawCpu));
        raw.add("raw wall_s", "s", rawWall);
        layers.add("setup.streams_s", "s", streams);
        layers.add("setup.system_s", "s", system);
        return cpu;
    };

    // One traced triple; returns its traced-loop thread CPU.
    std::vector<Traced> tracedTriples;
    auto tracedTriple = [&] {
        Traced sum;
        for (std::size_t p = 0; p < pols.size(); p++) {
            tally.attempt(strprintf("%s/%s traced", w.name, pols[p].name),
                          [&] {
                Traced r = runTraced(w, pols[p].cfg, seed);
                r.cpu *= speed.next().cpu;
                sum.add(r);
                for (const auto &[name, s] : layerTimes(r)) {
                    if (s < 0) {
                        std::fprintf(stderr, "perfbench: negative self "
                                     "time %s = %g s\n", name, s);
                        return false;
                    }
                }
                return expect("traced vs untraced", r.out, base[p].out,
                              false);
            });
        }
        for (const auto &[name, s] : layerTimes(sum))
            layers.add(name, "s", s);
        const double insts = static_cast<double>(sum.out.insts);
        const double msgs = static_cast<double>(sum.l1Msgs + sum.dirMsgs);
        layers.add("cpu.tick_ns_per_inst", "ns",
                   1e9 * ratio(secs(sum.core), insts));
        layers.add("mem.l1_deliver_ns_per_msg", "ns",
                   1e9 * ratio(secs(sum.l1Deliver),
                               static_cast<double>(sum.l1Msgs)));
        layers.add("mem.dir_deliver_ns_per_msg", "ns",
                   1e9 * ratio(secs(sum.dirDeliver),
                               static_cast<double>(sum.dirMsgs)));
        layers.add("net.messages", "count", msgs);
        layers.add("net.ns_per_msg", "ns",
                   1e9 * ratio(secs(sum.net - sum.l1Deliver -
                                    sum.dirDeliver),
                               msgs));
        tracedTriples.push_back(sum);
        return sum.cpu;
    };

    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (unsigned rep = 0; rep == 0 || Clock::now() < deadline; rep++) {
        if (!trace) {
            untracedTriple();
            continue;
        }
        // Alternate the order so neither run always goes first.
        const bool tracedFirst = rep % 2;
        const double tracedCpu = tracedFirst ? tracedTriple() : 0.0;
        const double untracedCpu = untracedTriple();
        const double cpu = tracedFirst ? tracedCpu : tracedTriple();
        layers.add("trace.overhead_frac", "frac",
                   ratio(cpu, untracedCpu) - 1.0);
    }

    std::printf("workload %s (profile %s, quota %llu, seed %llu, %u "
                "cores)\n", w.name, w.profile,
                static_cast<unsigned long long>(w.quota),
                static_cast<unsigned long long>(seed), kCores);
    const Cycle eager = base[0].out.cycles, lazy = base[1].out.cycles,
                row = base[2].out.cycles;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    e2e.add("peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024);
    e2e.add("row_speedup", "ratio",
            ratio(static_cast<double>(std::min(eager, lazy)),
                  static_cast<double>(row)));
    e2e.print();
    std::printf("  unscaled host times, and the reference kernel's "
                "reading (reference %.1f ms, checksum %llx):\n",
                1e3 * ReferenceKernel::kRefCpu,
                static_cast<unsigned long long>(speed.checksum()));
    for (double r : speed.readings())
        raw.add("kernel_ms", "ms", 1e3 * r);
    raw.print();

    if (trace) {
        // Counts from the untraced check pass, summed over the triple;
        // the RoW predictor metrics come from the RoW run alone.
        double cycles = 0, ff = 0, insts = 0, atomics = 0, waitSum = 0,
               waitCount = 0, misses = 0, mshrFull = 0, lockStall = 0;
        for (const Untraced &b : base) {
            cycles += static_cast<double>(b.out.cycles);
            ff += static_cast<double>(b.ffSkipped);
            insts += static_cast<double>(b.out.insts);
            atomics += static_cast<double>(b.out.atomics);
            waitSum += b.stats.waitSum;
            waitCount += static_cast<double>(b.stats.waitCount);
            misses += static_cast<double>(b.stats.l1Misses);
            mshrFull += static_cast<double>(b.stats.mshrFull);
            lockStall += b.stats.lockStallCycles;
        }
        const ModelStats &rs = base[2].stats;
        layers.add("sim.ticked_cycles", "cycles", cycles - ff);
        layers.add("sim.ff_skip_frac", "frac", ratio(ff, cycles));
        layers.add("cpu.insts", "count", insts);
        layers.add("cpu.atomics", "count", atomics);
        layers.add("cpu.atomic_wait_cycles", "cycles",
                   ratio(waitSum, waitCount));
        layers.add("row.accuracy", "frac",
                   ratio(static_cast<double>(rs.predCorrect),
                         static_cast<double>(rs.predUpdates)));
        layers.add("row.lazy_frac", "frac",
                   ratio(static_cast<double>(rs.lazyIssued),
                         static_cast<double>(rs.lazyIssued +
                                             rs.eagerIssued)));
        layers.add("mem.l1_misses", "count", misses);
        layers.add("mem.mshr_full", "count", mshrFull);
        layers.add("mem.lock_stall_cycles", "cycles", lockStall);

        std::sort(tracedTriples.begin(), tracedTriples.end(),
                  [](const Traced &a, const Traced &b) {
                      return a.total < b.total;
                  });
        printConservation(tracedTriples[tracedTriples.size() / 2]);
        layers.print();
    }

    std::printf("runs: %u attempted, %u failed\n", tally.attempted(),
                tally.failed());
    std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
                "\"metrics\": %s}\n",
                tally.failed() == 0 ? "true" : "false", tally.attempted(),
                tally.failed(), (trace ? layers : e2e).json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, reference, commit = "unknown";
    std::uint64_t seed = kReferenceSeed;
    double seconds = 10;
    int trace = 0;
    bool record = false;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--record-reference") {
            record = true;
            continue;
        }
        if (!val) {
            std::fprintf(stderr, "perfbench: %s needs a value\n", argv[i]);
            return 2;
        }
        i++;
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(val, nullptr);
        else if (arg == "--trace")
            trace = std::atoi(val);
        else if (arg == "--reference")
            reference = val;
        else if (arg == "--commit")
            commit = val;
        else {
            std::fprintf(stderr, "perfbench: unknown argument %s\n",
                         arg.c_str());
            return 2;
        }
    }

    if (const std::string var = rowsimEnvSet(); !var.empty()) {
        std::fprintf(stderr, "perfbench: refusing to start: %s is set "
                     "(ROWSIM_* variables change what gets timed)\n",
                     var.c_str());
        return 2;
    }
    if (!kOptimized) {
        std::fprintf(stderr, "perfbench: refusing to run an unoptimised "
                     "build (%s); configure with -DCMAKE_BUILD_TYPE="
                     "Release\n", PERFBENCH_BUILD_TYPE);
        return 2;
    }

    try {
        if (record) {
            std::printf("# workload policy sim_cycles instructions atomics "
                        "state_digest (seed %llu, %u cores, quotas as in "
                        "perfbench.cc)\n",
                        static_cast<unsigned long long>(kReferenceSeed),
                        kCores);
            for (const Workload &w : kWorkloads) {
                for (const Policy &p : policies()) {
                    const Untraced r =
                        runUntraced(w, p.cfg, kReferenceSeed, false);
                    std::printf("%s %s %llu %llu %llu %s\n", w.name, p.name,
                                static_cast<unsigned long long>(r.out.cycles),
                                static_cast<unsigned long long>(r.out.insts),
                                static_cast<unsigned long long>(
                                    r.out.atomics),
                                r.out.digest.c_str());
                }
            }
            return 0;
        }
        for (const Workload &w : kWorkloads) {
            if (workload == w.name) {
                printHost(commit);
                return runBenchmark(w, seed, seconds, trace != 0,
                                    loadReference(reference));
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "perfbench: unknown workload '%s' (valid: "
                 "contended-counter, uncontended-misses, "
                 "high-ipc-private)\n", workload.c_str());
    return 2;
}
