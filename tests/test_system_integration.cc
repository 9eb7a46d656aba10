/**
 * @file
 * Whole-system integration tests: multicore runs over the real workload
 * profiles, determinism, scaling sanity, statistics plumbing, and the
 * experiment harness itself.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "common/trace.hh"
#include "sim/checker.hh"
#include "sim/experiment.hh"
#include "sim/profile.hh"
#include "sim/profiles.hh"
#include "sim/span.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    RunResult a = runExperiment("sps", eagerConfig(), 8, 30, 5);
    RunResult b = runExperiment("sps", eagerConfig(), 8, 30, 5);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.atomicsCommitted, b.atomicsCommitted);
}

TEST(SystemIntegration, SeedChangesExecution)
{
    RunResult a = runExperiment("sps", eagerConfig(), 8, 30, 5);
    RunResult b = runExperiment("sps", eagerConfig(), 8, 30, 6);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(SystemIntegration, EveryCoreReachesQuota)
{
    SystemParams sp;
    sp.numCores = 8;
    System sys(sp, makeStreams(profileFor("barnes"), 8, 1));
    sys.run(20);
    for (CoreId c = 0; c < 8; c++)
        EXPECT_GE(sys.core(c).committedIterations(), 20u);
}

TEST(SystemIntegration, MoreCoresMoreContention)
{
    // Same per-core quota on a single hot counter: 16 cores must take
    // disproportionately longer than 4 (serialisation).
    RunResult small = runExperiment("pc", eagerConfig(), 4, 40);
    RunResult big = runExperiment("pc", eagerConfig(), 16, 40);
    EXPECT_GT(big.cycles, small.cycles);
    EXPECT_GT(big.contendedPct, 50.0);
}

TEST(SystemIntegration, AtomicsPer10kMatchesProfileIntent)
{
    RunResult r = runExperiment("sps", eagerConfig(), 8, 40);
    EXPECT_GT(r.atomicsPer10k, 50.0);
    RunResult quiet = runExperiment("blackscholes", eagerConfig(), 8, 10);
    EXPECT_LT(quiet.atomicsPer10k, 1.0);
}

TEST(SystemIntegration, NonAtomicWorkloadInsensitiveToPolicy)
{
    RunResult e = runExperiment("blackscholes", eagerConfig(), 8, 15);
    RunResult l = runExperiment("blackscholes", lazyConfig(), 8, 15);
    double ratio = static_cast<double>(l.cycles) / e.cycles;
    EXPECT_NEAR(ratio, 1.0, 0.02);
}

TEST(SystemIntegration, StatsAggregationSumsAcrossCores)
{
    SystemParams sp;
    sp.numCores = 4;
    System sys(sp, makeStreams(profileFor("pc"), 4, 1));
    sys.run(20);
    std::uint64_t manual = 0;
    for (CoreId c = 0; c < 4; c++)
        manual += sys.core(c).stats().counterValue("atomicsUnlocked");
    EXPECT_EQ(sys.totalCounter("atomicsUnlocked"), manual);
    EXPECT_GT(sys.totalInstructions(), 0u);
    EXPECT_GT(sys.totalAtomics(), 0u);
}

TEST(SystemIntegration, LatencyBreakdownIsConsistent)
{
    RunResult r = runExperiment("tpcc", eagerConfig(), 8, 30);
    // Segments are non-negative and the breakdown is populated.
    EXPECT_GE(r.dispatchToIssue, 0.0);
    EXPECT_GE(r.issueToLock, 0.0);
    EXPECT_GT(r.lockToUnlock, 0.0);
}

TEST(SystemIntegration, RunCyclesAdvancesExactly)
{
    SystemParams sp;
    sp.numCores = 2;
    System sys(sp, makeStreams(profileFor("fft"), 2, 1));
    sys.runCycles(1234);
    EXPECT_EQ(sys.now(), 1234u);
}

TEST(SystemIntegration, MakeParamsAppliesConfig)
{
    auto cfg = rowConfig(ContentionDetector::RW, PredictorUpdate::UpDown,
                         true);
    cfg.latencyThreshold = 777;
    SystemParams sp = makeParams(cfg, 8, 3);
    EXPECT_EQ(sp.numCores, 8u);
    EXPECT_EQ(sp.seed, 3u);
    EXPECT_EQ(sp.core.atomicPolicy, AtomicPolicy::RoW);
    EXPECT_EQ(sp.core.row.detector, ContentionDetector::RW);
    EXPECT_EQ(sp.core.row.update, PredictorUpdate::UpDown);
    EXPECT_TRUE(sp.core.forwardToAtomics);
    EXPECT_EQ(sp.core.row.latencyThreshold, 777u);
}

TEST(SystemIntegration, ThirtyTwoCoreTableOneConfigRuns)
{
    // The full paper-scale configuration (Table I): a short run must
    // work end to end and stay deadlock-free.
    RunResult r = runExperiment("tpcc", eagerConfig(), 32, 10);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GE(r.atomicsCommitted, 32u * 10u);
}

TEST(SystemIntegration, DrainQuiescesDeepPipelines)
{
    SystemParams sp;
    sp.numCores = 8;
    System sys(sp, makeStreams(profileFor("pc"), 8, 1));
    sys.run(10);
    sys.drain();
    EXPECT_TRUE(sys.mem().idle());
    for (CoreId c = 0; c < 8; c++)
        EXPECT_TRUE(sys.core(c).drained());
}

TEST(SystemIntegration, NetworkAndDirectoryStatsPopulated)
{
    SystemParams sp;
    sp.numCores = 4;
    System sys(sp, makeStreams(profileFor("pc"), 4, 1));
    sys.run(20);
    EXPECT_GT(sys.mem().network().stats().counterValue("messages"), 100u);
    std::uint64_t getx = 0;
    for (unsigned b = 0; b < sys.mem().numBanks(); b++)
        getx += sys.mem().directory(b).stats().counterValue("getX");
    EXPECT_GT(getx, 0u);
}

TEST(SystemIntegration, ObservabilityGatesBelongToEachSystem)
{
    // Spans, profiling and checking are gated per System: building a
    // second System with all three off on the same thread must leave
    // the first one's observers exactly as they are when it runs alone.
    auto build = [](bool on) {
        SystemParams sp = makeParams(eagerConfig(), 8, 1);
        sp.spans = on ? "on" : "off";
        sp.profileCategories = on ? "all" : "none";
        sp.checkCategories = on ? "all" : "none";
        return std::make_unique<System>(sp,
                                        makeStreams(profileFor("pc"), 8, 1));
    };
    std::string soloProfile;
    {
        auto solo = build(true);
        solo->run(60);
        soloProfile = solo->profiler()->toJson();
    }

    auto first = build(true);
    auto second = build(false);
    first->run(60);
    ASSERT_NE(first->spans(), nullptr);
    ASSERT_NE(first->profiler(), nullptr);
    EXPECT_GT(first->totalAtomics(), 0u);
    EXPECT_EQ(first->spans()->closed(), first->totalAtomics());
    EXPECT_EQ(first->profiler()->toJson(), soloProfile);
    EXPECT_GT(first->checker().sweepsRun(), 0u);

    EXPECT_EQ(second->spans(), nullptr);
    EXPECT_EQ(second->profiler(), nullptr);
    EXPECT_EQ(second->checker().mask(), 0u);

    // The trace gate too: a System that asks for no tracing must not
    // inherit the categories of the tracing System built before it.
    {
        SystemParams sp = makeParams(eagerConfig(), 8, 1);
        sp.traceCategories = "atomic";
        System tracing(sp, makeStreams(profileFor("pc"), 8, 1));
        ASSERT_NE(tracing.observer(), nullptr);
        EXPECT_TRUE(tracing.observer()->tracing(TraceCategory::Atomic));
    }
    System plain(makeParams(eagerConfig(), 8, 1),
                 makeStreams(profileFor("pc"), 8, 1));
    const Observer *quiet = plain.observer();
    EXPECT_FALSE(quiet && quiet->tracing(TraceCategory::Atomic));
    EXPECT_EQ(quiet, nullptr); // no gate of any category

    // ... nor may a System built later take the gate from one still
    // alive: A traces when it runs after a plain B was built, and B's
    // own run stays silent.
    const std::string path = "rowsim_test_trace_gates.json";
    SystemParams sa = makeParams(eagerConfig(), 8, 1);
    sa.traceCategories = "atomic";
    sa.traceJsonPath = path;
    System a(sa, makeStreams(profileFor("pc"), 8, 1));
    System b(makeParams(eagerConfig(), 8, 1),
             makeStreams(profileFor("pc"), 8, 1));
    EXPECT_EQ(b.observer(), nullptr);
    ASSERT_NE(a.observer(), nullptr);
    EXPECT_TRUE(a.observer()->tracing(TraceCategory::Atomic));
    std::FILE *text = std::tmpfile();
    ASSERT_NE(text, nullptr);
    Trace &t = Trace::instance();
    t.setTextSink(text, false);
    const std::uint64_t eventsBefore = t.eventsEmitted();
    a.run(20);
    const std::uint64_t eventsAfterA = t.eventsEmitted();
    const long textAfterA = std::ftell(text);
    b.run(20);
    const std::uint64_t eventsAfterB = t.eventsEmitted();
    const long textAfterB = std::ftell(text);
    t.closeJson();
    t.setTextSink(nullptr, false);
    std::fclose(text);
    std::remove(path.c_str());

    EXPECT_GT(a.totalAtomics(), 0u);
    EXPECT_GT(eventsAfterA, eventsBefore);
    EXPECT_GT(textAfterA, 0);
    EXPECT_GT(b.totalAtomics(), 0u);
    EXPECT_EQ(eventsAfterB, eventsAfterA);
    EXPECT_EQ(textAfterB, textAfterA);
}
