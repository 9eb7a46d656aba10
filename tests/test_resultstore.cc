/**
 * @file
 * Result-store tests: codec round trips, cold→warm byte identity
 * through the experiment layer, every damage mode (torn write, bit
 * flip, truncation, misplaced entry, schema skew) detected and
 * recovered without ever being fatal, concurrent writers, key
 * sensitivity, and the job-suffixed crash-dump sinks.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/io.hh"
#include "common/log.hh"
#include "common/sha256.hh"
#include "common/trace.hh"
#include "sim/experiment.hh"
#include "sim/profiles.hh"
#include "sim/resultstore.hh"
#include "sim/runspec.hh"
#include "sim/snapshot.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

/** Fresh per-test store directory under /tmp. */
std::string
testDir(const char *name)
{
    const std::string dir = strprintf("/tmp/rowsim-resultstore-%ld-%s",
                                      static_cast<long>(::getpid()), name);
    std::filesystem::remove_all(dir);
    return dir;
}

/** A RunResult with every field populated, each metric a distinct
 *  non-zero value, so a codec that drops or swaps a field fails. */
RunResult
sampleResult()
{
    RunResult r;
    r.workload = "pc";
    r.config = "eager";
    r.cycles = 123456;
    r.instructions = 789012;
    r.atomicsCommitted = 345;
    r.atomicsPer10k = 4.375;
    r.atomicsUnlocked = 340;
    r.detectedContended = 12;
    r.oracleContended = 17;
    r.contendedPct = 5.0;
    r.missLatency = 41.25;
    r.dispatchToIssue = 3.5;
    r.issueToLock = 88.875;
    r.lockToUnlock = 12.125;
    r.dispatchToIssueP50 = 1.5;
    r.dispatchToIssueP90 = 9.25;
    r.dispatchToIssueP99 = 17.5;
    r.issueToLockP50 = 60.0;
    r.issueToLockP90 = 70.5;
    r.issueToLockP99 = 99.75;
    r.lockToUnlockP50 = 21.0625;
    r.lockToUnlockP90 = 44.0;
    r.lockToUnlockP99 = 58.5;
    r.olderUnexecuted = 2.25;
    r.youngerStarted = 6.5;
    r.predAccuracy = 93.75;
    r.atomicsForwarded = 7;
    r.atomicsPromoted = 3;
    r.forcedUnlocks = 1;
    r.eagerIssued = 200;
    r.lazyIssued = 140;
    r.statsJson = "{\"sim\":{\"cycles\":123456}}\n";
    r.profileJson = "{\"cpi\":[]}";
    r.spanJson = "{\"count\":0}";
    r.tsJson = "{\"period\": 2048, \"metrics\": {}}";
    r.samplingJson = "{\"quota\":80}";
    r.convergeMetric = "instructions";
    r.convergeTarget = 0.02;
    r.convergeConfidence = 0.95;
    r.convergeAchieved = 0.0175;
    r.converged = true;
    return r;
}

/** sampleResult() as a failed run. */
RunResult
failedResult()
{
    RunResult r = sampleResult();
    r.status = RunStatus::TimedOut;
    r.error = "exceeded 500 ms \"budget\"";
    r.attempts = 3;
    return r;
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.attempts, b.attempts);
    for (const RunMetric &m : runMetrics())
        EXPECT_EQ(m.get(a), m.get(b)) << m.name;
    EXPECT_EQ(a.statsJson, b.statsJson);
    EXPECT_EQ(a.profileJson, b.profileJson);
    EXPECT_EQ(a.spanJson, b.spanJson);
    EXPECT_EQ(a.tsJson, b.tsJson);
    EXPECT_EQ(a.samplingJson, b.samplingJson);
    EXPECT_EQ(a.convergeMetric, b.convergeMetric);
    EXPECT_EQ(a.convergeTarget, b.convergeTarget);
    EXPECT_EQ(a.convergeConfidence, b.convergeConfidence);
    EXPECT_EQ(a.convergeAchieved, b.convergeAchieved);
    EXPECT_EQ(a.converged, b.converged);
}

/** Hex SHA-256 of @p r's store payload. */
std::string
encodedSha(const RunResult &r)
{
    const std::vector<std::uint8_t> payload = encodeResult(r);
    return Sha256::hashHex(payload.data(), payload.size());
}

/** The store key a run of @p sp would use. */
ResultKey
keyOf(const SystemParams &sp, const std::string &workload = "pc",
      const std::string &label = "eager", std::uint64_t quota = 100)
{
    return ResultStore::keyFor(resolveRunSpec(sp), sp, workload, label,
                               quota);
}

ResultKey
sampleKey(std::uint64_t quota = 100)
{
    return keyOf(makeParams(eagerConfig(), 8, 1), "pc", "eager", quota);
}

} // namespace

TEST(ResultCodec, RoundTripsEveryField)
{
    // Each metric of the sample is distinct, so a swap cannot cancel.
    std::set<double> values;
    for (const RunMetric &m : runMetrics()) {
        EXPECT_NE(m.get(sampleResult()), 0.0) << m.name;
        values.insert(m.get(sampleResult()));
    }
    EXPECT_EQ(values.size(), runMetrics().size());

    const RunResult r = sampleResult();
    expectSameResult(r, decodeResult(encodeResult(r)));
    const RunResult failed = failedResult();
    expectSameResult(failed, decodeResult(encodeResult(failed)));
}

// The run-report line and the store payload are external formats:
// figure scripts parse the former, and entries written by earlier
// builds (same resultSchemaVersion) must stay loadable.
TEST(ResultCodec, ByteLayoutsArePinned)
{
    const std::string ok =
        R"({"workload":"pc","config":"eager","cycles":123456,)"
        R"("instructions":789012,"atomicsCommitted":345,)"
        R"("atomicsPer10k":4.3750,"atomicsUnlocked":340,)"
        R"("detectedContended":12,"oracleContended":17,)"
        R"("contendedPct":5.0000,"missLatency":41.2500,)"
        R"("dispatchToIssue":3.5000,"issueToLock":88.8750,)"
        R"("lockToUnlock":12.1250,"dispatchToIssueP50":1.5000,)"
        R"("dispatchToIssueP90":9.2500,"dispatchToIssueP99":17.5000,)"
        R"("issueToLockP50":60.0000,"issueToLockP90":70.5000,)"
        R"("issueToLockP99":99.7500,"lockToUnlockP50":21.0625,)"
        R"("lockToUnlockP90":44.0000,"lockToUnlockP99":58.5000,)"
        R"("olderUnexecuted":2.2500,"youngerStarted":6.5000,)"
        R"("predAccuracy":93.7500,"atomicsForwarded":7,)"
        R"("atomicsPromoted":3,"forcedUnlocks":1,"eagerIssued":200,)"
        R"("lazyIssued":140,"spans":{"count":0},)"
        R"("timeseries":{"period": 2048, "metrics": {}},)"
        R"("sampling":{"quota":80},"converge":{"metric":"instructions",)"
        R"("target":0.02,"confidence":0.95,"achieved":0.0175,)"
        R"("converged":true})";
    EXPECT_EQ(sampleResult().toJson(), ok + "}");
    EXPECT_EQ(failedResult().toJson(),
              ok + R"(,"status":"timeout",)"
                   R"("error":"exceeded 500 ms \"budget\"","attempts":3})");

    EXPECT_EQ(encodedSha(sampleResult()),
              "a43365c980a1661f84c31cf6685fe8b7"
              "f7d61dc0545d693443c1cdee268be95b");
    EXPECT_EQ(encodedSha(failedResult()),
              "abaae94da2bbe6c54eefad6954f4d153"
              "2c83af3ef0cd1518791c0c70bf29dc11");
}

TEST(ResultCodec, RejectsDamage)
{
    std::vector<std::uint8_t> payload = encodeResult(sampleResult());
    EXPECT_THROW(decodeResult(std::vector<std::uint8_t>(
                     payload.begin(), payload.begin() + 10)),
                 SnapshotError);
    std::vector<std::uint8_t> trailing = payload;
    trailing.push_back(0);
    EXPECT_THROW(decodeResult(trailing), SnapshotError);
}

TEST(ResultStoreSuite, StoreLoadHitAndCounters)
{
    ResultStore store(testDir("hit"));
    const ResultKey key = sampleKey();
    RunResult out;
    EXPECT_FALSE(store.load(key, out)); // empty store: clean miss
    EXPECT_EQ(store.misses(), 1u);

    store.store(key, sampleResult());
    EXPECT_EQ(store.stores(), 1u);
    ASSERT_TRUE(store.load(key, out));
    expectSameResult(sampleResult(), out);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.quarantined(), 0u);
}

TEST(ResultStoreSuite, KeyReactsToEveryInput)
{
    // Run identity: workload, label, quota, and every architectural
    // parameter (through the config fingerprint). Knob sensitivity is
    // walked from the knob table in test_runspec.cc.
    const SystemParams base = makeParams(eagerConfig(), 8, 1);
    const ResultKey k = keyOf(base);
    EXPECT_NE(k, keyOf(base, "cq"));
    EXPECT_NE(k, keyOf(base, "pc", "lazy-label"));
    EXPECT_NE(k, keyOf(base, "pc", "eager", 101));
    EXPECT_NE(k, keyOf(makeParams(eagerConfig(), 16, 1)));
    EXPECT_NE(k, keyOf(makeParams(eagerConfig(), 8, 2)));
    EXPECT_NE(k, keyOf(makeParams(lazyConfig(), 8, 1)));

    // The params route reaches the key like the environment does: the
    // profiler mask and the time-series engine shape the RunResult, and
    // a convergence bound changes the simulated stop cycle, with every
    // component of its spec (metric, bound, confidence) significant.
    std::vector<ResultKey> keys{k};
    auto add = [&](void (*edit)(ExpConfig &)) {
        ExpConfig cfg = eagerConfig();
        edit(cfg);
        const ResultKey key = keyOf(makeParams(cfg, 8, 1));
        for (const ResultKey &other : keys)
            EXPECT_NE(key, other);
        keys.push_back(key);
    };
    add([](ExpConfig &c) { c.profile = "pcs"; });
    add([](ExpConfig &c) { c.timeseries = "on"; });
    add([](ExpConfig &c) { c.converge = "instructions:0.05"; });
    add([](ExpConfig &c) { c.converge = "atomics:0.05"; });
    add([](ExpConfig &c) { c.converge = "instructions:0.01"; });
    add([](ExpConfig &c) { c.converge = "instructions:0.05:0.99"; });
    add([](ExpConfig &c) { c.spans = "on"; });
    add([](ExpConfig &c) { c.mode = "func"; });

    // Deterministic: same inputs, same key.
    EXPECT_EQ(k, keyOf(makeParams(eagerConfig(), 8, 1)));
}

TEST(ResultStoreSuite, BitFlipIsQuarantinedThenRecomputed)
{
    ResultStore store(testDir("bitflip"));
    const ResultKey key = sampleKey();
    store.store(key, sampleResult());

    const std::string path = store.pathFor(key);
    std::vector<std::uint8_t> raw;
    ASSERT_TRUE(readFileBytes(path, raw));
    raw[raw.size() / 2] ^= 0x40; // flip one payload bit
    atomicWriteFile(path, raw);

    RunResult out;
    EXPECT_FALSE(store.load(key, out));
    EXPECT_EQ(store.quarantined(), 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
    EXPECT_FALSE(std::filesystem::exists(path));

    // Recompute path: a fresh store() fills the slot again, and the
    // reread is byte-identical to the original.
    store.store(key, sampleResult());
    ASSERT_TRUE(store.load(key, out));
    expectSameResult(sampleResult(), out);
}

TEST(ResultStoreSuite, TruncationIsQuarantined)
{
    ResultStore store(testDir("trunc"));
    const ResultKey key = sampleKey();
    store.store(key, sampleResult());

    const std::string path = store.pathFor(key);
    std::vector<std::uint8_t> raw;
    ASSERT_TRUE(readFileBytes(path, raw));

    for (const std::size_t keep :
         {std::size_t{6}, std::size_t{40}, raw.size() - 7}) {
        atomicWriteFile(path, std::vector<std::uint8_t>(
                                  raw.begin(),
                                  raw.begin() +
                                      static_cast<std::ptrdiff_t>(keep)));
        RunResult out;
        EXPECT_FALSE(store.load(key, out)) << keep;
        std::filesystem::remove(path + ".quarantined");
    }
    EXPECT_EQ(store.quarantined(), 3u);
}

TEST(ResultStoreSuite, MisplacedEntryIsQuarantined)
{
    ResultStore store(testDir("misplaced"));
    const ResultKey key = sampleKey();
    const ResultKey other = sampleKey(999);
    store.store(key, sampleResult());

    // Simulate a mis-renamed entry: the bytes are valid, but they sit
    // under another key's path. The embedded key catches it.
    std::vector<std::uint8_t> raw;
    ASSERT_TRUE(readFileBytes(store.pathFor(key), raw));
    atomicWriteFile(store.pathFor(other), raw);

    RunResult out;
    EXPECT_FALSE(store.load(other, out));
    EXPECT_EQ(store.quarantined(), 1u);
    ASSERT_TRUE(store.load(key, out)); // the rightful entry is untouched
}

TEST(ResultStoreSuite, SchemaVersionSkewIsCleanMissNotQuarantine)
{
    ResultStore store(testDir("schema"));
    const ResultKey key = sampleKey();
    store.store(key, sampleResult());

    // Patch the schema-version field (offset 8, little-endian u32).
    const std::string path = store.pathFor(key);
    std::vector<std::uint8_t> raw;
    ASSERT_TRUE(readFileBytes(path, raw));
    raw[8] = static_cast<std::uint8_t>(resultSchemaVersion + 1);
    atomicWriteFile(path, raw);

    RunResult out;
    EXPECT_FALSE(store.load(key, out));
    EXPECT_EQ(store.quarantined(), 0u); // stale, not damaged
    EXPECT_TRUE(std::filesystem::exists(path)); // left for inspection

    // A current-schema store() overwrites the stale slot in place.
    store.store(key, sampleResult());
    ASSERT_TRUE(store.load(key, out));
}

TEST(ResultStoreSuite, TornWriteLeavesNoPartialEntry)
{
    ResultStore store(testDir("torn"));
    const ResultKey key = sampleKey();

    // Kill a writer mid-write (in a forked child, as the process sweep
    // would): the entry path must stay absent — all-or-nothing.
    ::fflush(nullptr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        setAtomicWriteKillAfter(24);
        ResultStore child(store.dir());
        child.store(key, sampleResult()); // _Exit(9)s inside the write
        std::_Exit(0);                    // not reached
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), 9);

    EXPECT_FALSE(std::filesystem::exists(store.pathFor(key)));
    RunResult out;
    EXPECT_FALSE(store.load(key, out)); // clean miss, nothing quarantined
    EXPECT_EQ(store.quarantined(), 0u);

    // The slot still works after the torn write.
    store.store(key, sampleResult());
    EXPECT_TRUE(store.load(key, out));
}

TEST(ResultStoreSuite, ConcurrentWritersOnOneKeyStaySafe)
{
    const std::string dir = testDir("race");
    const ResultKey key = sampleKey();
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < 4; t++) {
        writers.emplace_back([&dir, &key]() {
            ResultStore s(dir);
            for (unsigned i = 0; i < 8; i++)
                s.store(key, sampleResult());
        });
    }
    for (auto &t : writers)
        t.join();

    ResultStore store(dir);
    RunResult out;
    ASSERT_TRUE(store.load(key, out));
    expectSameResult(sampleResult(), out);
    // No stray temporaries survive the race.
    unsigned leftovers = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().string().find(".tmp.") != std::string::npos)
            leftovers++;
    }
    EXPECT_EQ(leftovers, 0u);
}

TEST(ResultStoreSuite, FromEnvGating)
{
    auto fromEnv = [] {
        return ResultStore::forRun(resolveRunSpec(SystemParams{}));
    };
    ::unsetenv("ROWSIM_RESULTS");
    EXPECT_EQ(fromEnv(), nullptr);
    ::setenv("ROWSIM_RESULTS", "off", 1);
    EXPECT_EQ(fromEnv(), nullptr);
    ::setenv("ROWSIM_RESULTS", "on", 1);
    ::setenv("ROWSIM_RESULTS_DIR", "/tmp/rowsim-res-env", 1);
    auto store = fromEnv();
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->dir(), "/tmp/rowsim-res-env");
    ::unsetenv("ROWSIM_RESULTS_DIR");
    ASSERT_NE(fromEnv(), nullptr);
    EXPECT_EQ(fromEnv()->dir(), "rowsim-results");
    ::setenv("ROWSIM_RESULTS", "sideways", 1);
    EXPECT_THROW(fromEnv(), std::runtime_error);
    ::unsetenv("ROWSIM_RESULTS");
}

TEST(ResultStoreSuite, WarmRerunByteIdenticalThroughExperimentLayer)
{
    const std::string dir = testDir("warm");
    ::setenv("ROWSIM_RESULTS", "on", 1);
    ::setenv("ROWSIM_RESULTS_DIR", dir.c_str(), 1);

    const RunResult cold =
        runExperiment("pc", eagerConfig(), 8, 30, 1, true);
    EXPECT_FALSE(cold.fromCache);
    ASSERT_FALSE(cold.statsJson.empty());

    const RunResult warm =
        runExperiment("pc", eagerConfig(), 8, 30, 1, true);
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(warm.cycles, cold.cycles);
    EXPECT_EQ(warm.statsJson, cold.statsJson); // byte-identical
    expectSameResult(cold, warm);

    // A caller that does not want statsJson gets none, even though the
    // entry carries it — warm results must match what a cold run with
    // the same arguments would have returned.
    const RunResult lean =
        runExperiment("pc", eagerConfig(), 8, 30, 1, false);
    EXPECT_TRUE(lean.fromCache);
    EXPECT_TRUE(lean.statsJson.empty());

    // Different quota: a different key, recomputed.
    const RunResult other =
        runExperiment("pc", eagerConfig(), 8, 31, 1, false);
    EXPECT_FALSE(other.fromCache);

    ::unsetenv("ROWSIM_RESULTS");
    ::unsetenv("ROWSIM_RESULTS_DIR");
}

TEST(ResultStoreSuite, StatsOnlyEntryUpgradedWhenStatsWanted)
{
    const std::string dir = testDir("upgrade");
    ::setenv("ROWSIM_RESULTS", "on", 1);
    ::setenv("ROWSIM_RESULTS_DIR", dir.c_str(), 1);

    // Cold run without stats capture stores a lean entry...
    const RunResult lean =
        runExperiment("pc", eagerConfig(), 8, 30, 1, false);
    EXPECT_FALSE(lean.fromCache);

    // ...which cannot serve a capture_stats caller: that run recomputes
    // and upgrades the entry in place.
    const RunResult full =
        runExperiment("pc", eagerConfig(), 8, 30, 1, true);
    EXPECT_FALSE(full.fromCache);
    ASSERT_FALSE(full.statsJson.empty());

    const RunResult warm =
        runExperiment("pc", eagerConfig(), 8, 30, 1, true);
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(warm.statsJson, full.statsJson);

    ::unsetenv("ROWSIM_RESULTS");
    ::unsetenv("ROWSIM_RESULTS_DIR");
}

TEST(ResultStoreSuite, TracedRunsBypassTheStore)
{
    const std::string dir = testDir("bypass");
    const std::string sink = dir + "-trace.log";
    ::setenv("ROWSIM_RESULTS", "on", 1);
    ::setenv("ROWSIM_RESULTS_DIR", dir.c_str(), 1);
    ::setenv("ROWSIM_TRACE", "atomic", 1);
    ::setenv("ROWSIM_TRACE_FILE", sink.c_str(), 1);
    Trace::scopeToJob(""); // re-parse the trace env on this thread

    // A traced run must neither store (its entry would shadow the
    // trace side effects)...
    const RunResult first = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(first.fromCache);
    EXPECT_FALSE(std::filesystem::exists(dir)); // no entry was written

    // ...nor load: even against a populated store, a traced rerun
    // simulates so the trace actually happens.
    ::unsetenv("ROWSIM_TRACE");
    ::unsetenv("ROWSIM_TRACE_FILE");
    Trace::scopeToJob("");
    const RunResult stored = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(stored.fromCache);
    EXPECT_TRUE(std::filesystem::exists(dir));
    ::setenv("ROWSIM_TRACE", "atomic", 1);
    ::setenv("ROWSIM_TRACE_FILE", sink.c_str(), 1);
    Trace::scopeToJob("");
    const RunResult traced = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(traced.fromCache);
    EXPECT_EQ(traced.cycles, stored.cycles);

    ::unsetenv("ROWSIM_TRACE");
    ::unsetenv("ROWSIM_TRACE_FILE");
    ::unsetenv("ROWSIM_RESULTS");
    ::unsetenv("ROWSIM_RESULTS_DIR");
    Trace::scopeToJob("");
    std::filesystem::remove(sink);
}

TEST(ResultStoreSuite, HeartbeatRunsBypassTheStore)
{
    // The heartbeat is live telemetry: a stored result replayed from
    // disk would emit no progress events, so — exactly like
    // ROWSIM_TRACE — an instrumented run neither loads nor stores.
    const std::string dir = testDir("hb-bypass");
    const std::string sink = dir + "-hb.jsonl";
    ::setenv("ROWSIM_RESULTS", "on", 1);
    ::setenv("ROWSIM_RESULTS_DIR", dir.c_str(), 1);
    ::setenv("ROWSIM_HEARTBEAT", sink.c_str(), 1);

    const RunResult first = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(first.fromCache);
    EXPECT_FALSE(std::filesystem::exists(dir)); // no entry was written

    // Populate the store without the heartbeat, then rerun with it:
    // the run must simulate (so events flow), not serve the cache.
    ::unsetenv("ROWSIM_HEARTBEAT");
    const RunResult stored = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(stored.fromCache);
    EXPECT_TRUE(std::filesystem::exists(dir));
    ::setenv("ROWSIM_HEARTBEAT", sink.c_str(), 1);
    const RunResult live = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(live.fromCache);
    EXPECT_EQ(live.cycles, stored.cycles);

    ::unsetenv("ROWSIM_HEARTBEAT");
    ::unsetenv("ROWSIM_RESULTS");
    ::unsetenv("ROWSIM_RESULTS_DIR");
    std::filesystem::remove(sink);
}

TEST(ResultStoreSuite, ConvergeMissesThePlainEntryAndCachesItsOwn)
{
    const std::string dir = testDir("converge");
    ::setenv("ROWSIM_RESULTS", "on", 1);
    ::setenv("ROWSIM_RESULTS_DIR", dir.c_str(), 1);
    ::setenv("ROWSIM_STATS_INTERVAL", "1024", 1);

    // Warm the plain entry.
    const RunResult plain =
        runExperiment("pc", eagerConfig(), 8, 4000, 1, false);
    EXPECT_FALSE(plain.fromCache);

    // A convergence-bounded run stops at a different cycle, so serving
    // the plain entry would be wrong: it must miss, recompute, and
    // store under its own key.
    ExpConfig conv = eagerConfig();
    conv.converge = "instructions:0.2";
    const RunResult cold =
        runExperiment("pc", conv, 8, 4000, 1, false);
    EXPECT_FALSE(cold.fromCache);
    ASSERT_TRUE(cold.converged);
    EXPECT_LT(cold.cycles, plain.cycles);

    const RunResult warm = runExperiment("pc", conv, 8, 4000, 1, false);
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(warm.cycles, cold.cycles);
    EXPECT_EQ(warm.tsJson, cold.tsJson);
    EXPECT_EQ(warm.converged, cold.converged);
    EXPECT_EQ(warm.convergeAchieved, cold.convergeAchieved);

    // And the plain entry still serves plain reruns.
    const RunResult plainWarm =
        runExperiment("pc", eagerConfig(), 8, 4000, 1, false);
    EXPECT_TRUE(plainWarm.fromCache);
    EXPECT_EQ(plainWarm.cycles, plain.cycles);

    ::unsetenv("ROWSIM_STATS_INTERVAL");
    ::unsetenv("ROWSIM_RESULTS");
    ::unsetenv("ROWSIM_RESULTS_DIR");
}

TEST(ResultStoreSuite, CrashDumpsCarryTheJobSuffix)
{
    const std::string base = strprintf("/tmp/rowsim-crash-%ld.json",
                                       static_cast<long>(::getpid()));
    const std::string suffixed = strprintf("/tmp/rowsim-crash-%ld.j7.json",
                                           static_cast<long>(::getpid()));
    std::filesystem::remove(base);
    std::filesystem::remove(suffixed);
    ::setenv("ROWSIM_CRASH_JSON", base.c_str(), 1);

    Trace::scopeToJob("j7");
    SystemParams sp = makeParams(eagerConfig(), 2, 1);
    System sys(sp, makeStreams(profileFor("pc"), 2, 1));
    sys.dumpCrashDiagnostics("suffix test");
    Trace::scopeToJob("");
    ::unsetenv("ROWSIM_CRASH_JSON");

    // The dump landed at the job-suffixed path, not the shared one.
    EXPECT_TRUE(std::filesystem::exists(suffixed));
    EXPECT_FALSE(std::filesystem::exists(base));
    std::filesystem::remove(suffixed);
}
