/**
 * @file
 * Tests for the observability outputs of one System: the bytes every
 * sink produces with everything on are pinned, so a change to how the
 * model reports its events cannot silently change a trace, a profile,
 * a span dump or a crash dump.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <regex>
#include <string>

#include "common/sha256.hh"
#include "common/trace.hh"
#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

struct ScopedEnv
{
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }
    const char *name_;
};

std::string
slurp(std::FILE *f)
{
    std::string out;
    std::rewind(f);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    return out;
}

std::string
slurpFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return {};
    std::string out = slurp(f);
    std::fclose(f);
    return out;
}

std::string
sha(const std::string &s)
{
    return Sha256::hashHex(s.data(), s.size());
}

/** Everything on: every trace category into both sinks, every profiler
 *  category, spans and every checker category. */
SystemParams
observedParams(const ExpConfig &cfg, const std::string &json_path)
{
    SystemParams sp = makeParams(cfg, /*num_cores=*/4, /*seed=*/1);
    sp.traceCategories = "all";
    sp.traceJsonPath = json_path;
    sp.profileCategories = "all";
    sp.spans = "on";
    sp.checkCategories = "all";
    return sp;
}

/** The SHA-256 of each sink of one fully observed run. */
struct Digests
{
    std::string text, chrome, profile, spans, crash;
    /** Trace categories that reached a sink. */
    std::uint32_t seen = 0;
};

Digests
observedRun(const ExpConfig &cfg)
{
    const std::string json = "rowsim_test_observer_pin.json";
    const std::string crash = "rowsim_test_observer_pin.crash.json";
    ScopedEnv crashEnv("ROWSIM_CRASH_JSON", crash);
    std::FILE *text = std::tmpfile();
    EXPECT_NE(text, nullptr);
    Trace::instance().setTextSink(text, false);

    Digests d;
    {
        System sys(observedParams(cfg, json),
                   makeStreams(profileFor("pc"), 4, 1));
        sys.run(/*iter_quota=*/12);
        EXPECT_GT(sys.totalAtomics(), 0u);
        d.profile = sha(sys.profiler()->toJson());
        d.spans = sha(sys.spans()->toJson());
        sys.dumpCrashDiagnostics("pinned");
    }
    Trace::instance().closeJson();
    Trace::instance().setTextSink(nullptr, false);
    const std::string lines = slurp(text);
    std::fclose(text);
    const std::string events = slurpFile(json);
    for (std::uint32_t bit = 1; bit <= traceCategoryAll; bit <<= 1) {
        const std::string name =
            traceCategoryName(static_cast<TraceCategory>(bit));
        if (lines.find("[" + name + "]") != std::string::npos ||
            events.find("\"cat\":\"" + name + "\"") != std::string::npos)
            d.seen |= bit;
    }
    d.text = sha(lines);
    d.chrome = sha(events);
    std::string dump = slurpFile(crash);
    std::remove(json.c_str());
    std::remove(crash.c_str());
    // The retroactive ring is the one part a crash dump may change.
    const std::size_t ring = dump.find(",\"recentTrace\":[");
    EXPECT_NE(ring, std::string::npos);
    d.crash = sha(dump.substr(0, ring));
    return d;
}

} // namespace

TEST(ObserverPin, EveryOutputOfAFullyObservedRunIsPinned)
{
    struct Case
    {
        ExpConfig cfg;
        Digests want;
    };
    const Case cases[] = {
        {eagerConfig(),
         {"2e3f72868c6c04287f45b88dc9010b1792ab5c6a0997a84aaaebe76e5b5ff901",
          "8de6bddfd7c815c78bce5137702838add179c6ea15d2d801c9179e0696b9ec3c",
          "4c5167e50372025ba473914dd1ce66355fe1ae62c90d8bdd525ae6b53a53a02e",
          "2491a23bb6988b45768750e27f63ea554908ad00d9411e5fb8d217cffd4d4fca",
          "ecbe32a2f098677accd09bda3daa8343281d38b32b1765e39cffa8e041ece8d4"}},
        {rowConfig(ContentionDetector::RWDir,
                   PredictorUpdate::SaturateOnContention),
         {"0236a7680830a3d3296553f7143d2433355da5cf60594ff036677c7b8a74fbc7",
          "e323741bad519ceadab1f3b0bc5c1ae54b4c46ff2f3dd1de622d90e119efa87b",
          "f7d1ba6aa6db7337c99c051c90f61e0f5473c54244293fb4df86ca6641d7af0c",
          "6bae8293d4a7797527093de8a61572c913c5dfae0af255f67b8d9db9f076b41e",
          "fd36e5db6ee9809c0e6404b2f1ca3aff762e6c39dc2c2e9507fac1c2d376291f"}},
    };
    std::uint32_t seen = 0;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.cfg.label);
        const Digests got = observedRun(c.cfg);
        seen |= got.seen;
        EXPECT_EQ(got.text, c.want.text);
        EXPECT_EQ(got.chrome, c.want.chrome);
        EXPECT_EQ(got.profile, c.want.profile);
        EXPECT_EQ(got.spans, c.want.spans);
        EXPECT_EQ(got.crash, c.want.crash);
    }
    // Every category reached a sink (predictor lines need RoW; span
    // segments are Chrome-only).
    EXPECT_EQ(seen, traceCategoryAll);
}

TEST(ObserverRing, CrashDumpReplaysOnlyItsOwnSystemsEvents)
{
    const std::string crash = "rowsim_test_observer_ring.crash.json";
    ScopedEnv crashEnv("ROWSIM_CRASH_JSON", crash);
    auto build = [](unsigned cores) {
        SystemParams sp = makeParams(eagerConfig(), cores, /*seed=*/1);
        sp.checkCategories = "all"; // implies a 256-event ring
        return std::make_unique<System>(
            sp, makeStreams(profileFor("pc"), cores, 1));
    };
    auto a = build(2);
    auto b = build(8);
    b->run(20);
    a->runCycles(1);
    a->dumpCrashDiagnostics("ring owner");
    const std::string dump = slurpFile(crash);
    std::remove(crash.c_str());

    const std::size_t ring = dump.find("\"recentTrace\":[");
    ASSERT_NE(ring, std::string::npos);
    const std::string recent = dump.substr(ring);
    const std::regex event("\"\\s*([0-9]+) \\[[a-z]+\\] ([^\"]*)\"");
    const std::regex foreign("(core|l1d)[2-7]\\b");
    unsigned events = 0;
    for (auto it = std::sregex_iterator(recent.begin(), recent.end(), event);
         it != std::sregex_iterator(); ++it) {
        events++;
        const std::string line = (*it)[2];
        EXPECT_LE(std::stoull((*it)[1]), a->now()) << line;
        EXPECT_FALSE(std::regex_search(line, foreign)) << line;
    }
    EXPECT_GT(events, 0u);
}

TEST(ObserverCheck, UnlockOfALineLostWhileHeldPanicsNamingTheCore)
{
    // Event checks only: the periodic sweep, which would catch the same
    // state later, never runs.
    SystemParams sp = makeParams(eagerConfig(), /*num_cores=*/2, 1);
    sp.checkCategories = "locks";
    sp.checkInterval = Cycle{1} << 40;
    System sys(sp, makeStreams(profileFor("counter"), 2, 1));
    CoreId holder = invalidCore;
    Addr line = invalidAddr;
    while (holder == invalidCore && sys.now() < 100000) {
        sys.runCycles(1);
        for (CoreId c = 0; c < sys.numCores(); c++) {
            sys.core(c).atomicQueue().forEach([&](const AqEntry &a) {
                if (a.locked && holder == invalidCore) {
                    holder = c;
                    line = a.line();
                }
            });
        }
    }
    ASSERT_NE(holder, invalidCore);
    sys.mem().cache(holder).testSetLineState(line, CacheState::Shared,
                                             sys.now());
    try {
        sys.runCycles(1000);
        FAIL() << "the unlock of a line no longer in M did not panic";
    } catch (const std::exception &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("[check:locks]"), std::string::npos) << msg;
        EXPECT_NE(msg.find(strprintf("core%u", holder)), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("no longer in M"), std::string::npos) << msg;
    }
}
