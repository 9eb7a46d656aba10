/**
 * @file
 * RunSpec tests: the knob table drives the store key (every
 * result-affecting knob perturbs it, no other knob does), params
 * override the environment, unknown ROWSIM_* names warn once, and two
 * store regressions: span top-K was not keyed, and a checkpoint restore
 * of a span-traced run leaked into plain span-traced runs.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/resultstore.hh"
#include "sim/runspec.hh"

using namespace rowsim;

namespace
{

/** Set (or unset, for nullopt) one variable for a scope, restoring the
 *  previous value — the suite may run under an ambient ROWSIM_* setup. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, std::optional<std::string> value)
        : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        set(value);
    }
    ~ScopedEnv() { set(old_); }

  private:
    void
    set(const std::optional<std::string> &v)
    {
        if (v)
            ::setenv(name_, v->c_str(), 1);
        else
            ::unsetenv(name_);
    }

    const char *name_;
    std::optional<std::string> old_;
};

std::string
testDir(const char *name)
{
    const std::string dir = strprintf("/tmp/rowsim-runspec-%ld-%s",
                                      static_cast<long>(::getpid()), name);
    std::filesystem::remove_all(dir);
    return dir;
}

std::size_t
countOf(const std::string &haystack, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = haystack.find(needle); at != std::string::npos;
         at = haystack.find(needle, at + 1))
        n++;
    return n;
}

} // namespace

TEST(RunSpec, KnobTableNamesEachKnobOnce)
{
    std::set<std::string> names;
    for (const RunSpecKnob &k : runSpecKnobs()) {
        EXPECT_EQ(std::string(k.name).rfind("ROWSIM_", 0), 0u) << k.name;
        EXPECT_TRUE(names.insert(k.name).second) << k.name;
    }
    // The knob budget: configuration surface only shrinks.
    EXPECT_LE(names.size(), 39u);
}

TEST(RunSpec, KeyReactsExactlyToResultKnobs)
{
    const SystemParams sp = makeParams(eagerConfig(), 8, 1);
    auto key = [&] {
        return ResultStore::keyFor(resolveRunSpec(sp), sp, "pc", "eager",
                                   100);
    };
    // Baseline with every table knob unset, then one knob at a time.
    std::vector<std::unique_ptr<ScopedEnv>> cleared;
    for (const RunSpecKnob &k : runSpecKnobs())
        cleared.push_back(
            std::make_unique<ScopedEnv>(k.name, std::nullopt));
    const ResultKey base = key();
    for (const RunSpecKnob &k : runSpecKnobs()) {
        ScopedEnv probe(k.name, std::string(k.example));
        EXPECT_EQ(resolveRunSpec(sp).envText(k.name), k.example);
        EXPECT_EQ(key() != base, k.affectsResult())
            << k.name << "=" << k.example
            << (k.affectsResult() ? " must change the store key"
                                  : " must not change the store key");
    }
}

TEST(RunSpec, ParamsOverrideTheEnvironment)
{
    ScopedEnv spans("ROWSIM_SPANS", std::string("on"));
    ScopedEnv mode("ROWSIM_MODE", std::string("func"));
    SystemParams sp = makeParams(eagerConfig(), 4, 1);
    EXPECT_TRUE(resolveRunSpec(sp).spans);
    EXPECT_TRUE(resolveRunSpec(sp).funcMode);
    sp.spans = "off";
    sp.mode = "detail";
    EXPECT_FALSE(resolveRunSpec(sp).spans);
    EXPECT_FALSE(resolveRunSpec(sp).funcMode);

    // ROWSIM_FF is the exception: it overrides idleFastForward.
    {
        ScopedEnv ff("ROWSIM_FF", std::string("0"));
        sp.idleFastForward = true;
        EXPECT_EQ(resolveRunSpec(sp).ff, FastForwardMode::Off);
    }
    sp.idleFastForward = false;
    EXPECT_EQ(resolveRunSpec(sp).ff, FastForwardMode::Off);
    sp.idleFastForward = true;
    EXPECT_EQ(resolveRunSpec(sp).ff, FastForwardMode::On);
    // Fault injection forces fast-forward off.
    sp.faultCategories = "netdelay";
    EXPECT_EQ(resolveRunSpec(sp).ff, FastForwardMode::Off);
}

TEST(RunSpec, CheckpointsResolveOffWhereARestoreWouldDiffer)
{
    ScopedEnv ckpt("ROWSIM_CKPT", std::string("auto"));
    SystemParams sp = makeParams(eagerConfig(), 4, 1);
    EXPECT_EQ(resolveRunSpec(sp).ckpt, CkptMode::Auto);
    EXPECT_EQ(resolveRunSpec(sp).ckptIgnored, nullptr);
    for (const char *field : {"profile", "converge", "spans"}) {
        SystemParams p = sp;
        if (std::string(field) == "profile")
            p.profileCategories = "cpi";
        else if (std::string(field) == "converge")
            p.converge = "instructions:0.05";
        else
            p.spans = "on";
        const RunSpec s = resolveRunSpec(p);
        EXPECT_EQ(s.ckpt, CkptMode::Off) << field;
        EXPECT_NE(s.ckptIgnored, nullptr) << field;
    }
}

TEST(RunSpec, UnknownKnobsWarnOncePerProcess)
{
    // A fresh process (threadsafe style re-executes the binary), so the
    // once-per-process check has not run yet.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            ::setenv("ROWSIM_SPNAS", "on", 1); // a typo of ROWSIM_SPANS
            ::setenv("ROWSIM_TORTURE_SEEDS", "4", 1); // read by a test
            ::testing::internal::CaptureStderr();
            resolveRunSpec(SystemParams{});
            resolveRunSpec(SystemParams{});
            const std::string err =
                ::testing::internal::GetCapturedStderr();
            const bool ok = countOf(err, "ROWSIM_SPNAS") == 1 &&
                            countOf(err, "ROWSIM_TORTURE_SEEDS") == 0;
            std::fprintf(stderr, "%s", err.c_str());
            std::_Exit(ok ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "unknown environment variable");

    ScopedEnv typo("ROWSIM_SPNAS", std::string("on"));
    ScopedEnv torture("ROWSIM_TORTURE_SEEDS", std::string("4"));
    const std::vector<std::string> unknown = unknownRunSpecKnobs();
    EXPECT_NE(std::find(unknown.begin(), unknown.end(), "ROWSIM_SPNAS"),
              unknown.end());
    EXPECT_EQ(std::find(unknown.begin(), unknown.end(),
                        "ROWSIM_TORTURE_SEEDS"),
              unknown.end());
}

TEST(RunSpec, SpansTopKKeysTheStore)
{
    // Regression: ROWSIM_SPANS_TOPK was not keyed, so a TOPK=32 rerun
    // was served the TOPK=4 entry's span records.
    ScopedEnv spans("ROWSIM_SPANS", std::string("on"));
    ScopedEnv topk("ROWSIM_SPANS_TOPK", std::string("32"));
    const RunResult cold = runExperiment("pc", eagerConfig(), 8, 30, 1);
    ASSERT_GT(countOf(cold.spanJson, "{\"id\":"), 4u);

    const std::string dir = testDir("topk");
    ScopedEnv results("ROWSIM_RESULTS", std::string("on"));
    ScopedEnv where("ROWSIM_RESULTS_DIR", dir);
    {
        ScopedEnv four("ROWSIM_SPANS_TOPK", std::string("4"));
        const RunResult small =
            runExperiment("pc", eagerConfig(), 8, 30, 1);
        EXPECT_EQ(countOf(small.spanJson, "{\"id\":"), 4u);
    }
    const RunResult warm = runExperiment("pc", eagerConfig(), 8, 30, 1);
    EXPECT_FALSE(warm.fromCache);
    EXPECT_EQ(warm.spanJson, cold.spanJson);
    EXPECT_TRUE(runExperiment("pc", eagerConfig(), 8, 30, 1).fromCache);
    std::filesystem::remove_all(dir);
}

TEST(RunSpec, CheckpointRestoreNeverLeaksIntoSpanRuns)
{
    // Regression: a restored span-traced run truncates the spans in
    // flight at the image, its entry keyed like a plain run, and a
    // later plain run was served it. Checkpoints now resolve off under
    // span tracing, so no step below saves, restores, or fails.
    ScopedEnv spans("ROWSIM_SPANS", std::string("on"));
    const std::string ckptDir = testDir("ckpt");
    const std::string storeDir = testDir("ckpt-store");
    ScopedEnv where("ROWSIM_CKPT_DIR", ckptDir);
    const RunResult cold = runExperiment("pc", eagerConfig(), 8, 40, 1);

    {
        ScopedEnv save("ROWSIM_CKPT", std::string("save"));
        runExperiment("pc", eagerConfig(), 8, 40, 1);
    }
    EXPECT_FALSE(std::filesystem::exists(ckptDir));

    ScopedEnv results("ROWSIM_RESULTS", std::string("on"));
    ScopedEnv store("ROWSIM_RESULTS_DIR", storeDir);
    {
        ScopedEnv restore("ROWSIM_CKPT", std::string("restore"));
        const RunResult r = runExperiment("pc", eagerConfig(), 8, 40, 1);
        EXPECT_EQ(r.spanJson, cold.spanJson);
    }
    const RunResult plain = runExperiment("pc", eagerConfig(), 8, 40, 1);
    EXPECT_TRUE(plain.fromCache);
    EXPECT_EQ(plain.spanJson, cold.spanJson);
    EXPECT_EQ(plain.toJson(), cold.toJson());
    std::filesystem::remove_all(storeDir);
}

TEST(RunSpec, CategoryKnobsAcceptTheirDocumentedOff)
{
    // The knob table documents "off" as the default of the four
    // category-list knobs; spelling it out must equal leaving it unset.
    const SystemParams sp = makeParams(eagerConfig(), 8, 1);
    std::vector<std::unique_ptr<ScopedEnv>> cleared;
    for (const RunSpecKnob &k : runSpecKnobs())
        cleared.push_back(
            std::make_unique<ScopedEnv>(k.name, std::nullopt));
    auto masks = [](const RunSpec &s) {
        return std::vector<std::uint32_t>{s.checkMask, s.faultMask,
                                          s.profileMask, s.trace.mask};
    };
    const RunSpec unset = resolveRunSpec(sp);
    const ResultKey unsetKey =
        ResultStore::keyFor(unset, sp, "pc", "eager", 100);
    for (const char *knob : {"ROWSIM_CHECK", "ROWSIM_FAULTS",
                             "ROWSIM_PROFILE", "ROWSIM_TRACE"}) {
        ScopedEnv off(knob, std::string("off"));
        const RunSpec s = resolveRunSpec(sp);
        EXPECT_EQ(masks(s), masks(unset)) << knob;
        EXPECT_EQ(s.ff, unset.ff) << knob;
        EXPECT_EQ(ResultStore::keyFor(s, sp, "pc", "eager", 100), unsetKey)
            << knob;
    }
}
