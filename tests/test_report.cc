/**
 * @file
 * rowsim_report tests: each subcommand renders what the simulator
 * writes (profile with folded stacks, ts on a stats report, top --once
 * on a heartbeat stream), and the exit codes hold: 1 when no record is
 * found or the input is missing, 2 on bad usage. The span subcommand's
 * round trip lives with the span tests.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "sim/experiment.hh"

using namespace rowsim;

#ifdef ROWSIM_REPORT_PATH

namespace
{

namespace fs = std::filesystem;

/** A scratch directory removed at scope exit. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &name) : path(name)
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
    std::string file(const std::string &n) const { return path + "/" + n; }
    std::string path;
};

/** Exit status of `rowsim_report ARGS` (stdout/stderr redirected). */
int
report(const std::string &args, const std::string &out = "/dev/null")
{
    const std::string cmd = std::string(ROWSIM_REPORT_PATH) + " " + args +
                            " > " + out + " 2>/dev/null";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::string &text)
{
    std::ofstream(path) << text;
}

} // namespace

TEST(RowsimReport, ProfileRendersAndWritesFoldedStacks)
{
    ScratchDir dir("report-scratch-profile");
    ExpConfig cfg = eagerConfig();
    cfg.profile = "all";
    const RunResult r = runExperiment("pc", cfg, 4, 30, 1, false);
    ASSERT_FALSE(r.profileJson.empty());
    spit(dir.file("profile.jsonl"),
         "{\"workload\":\"pc\",\"config\":\"eager\",\"profile\":" +
             r.profileJson + "}\n");

    ASSERT_EQ(report("profile --collapsed " + dir.file("profile.folded") +
                         " " + dir.file("profile.jsonl"),
                     dir.file("out.txt")),
              0);
    const std::string text = slurp(dir.file("out.txt"));
    EXPECT_NE(text.find("=== pc/eager (categories: "), std::string::npos);
    EXPECT_NE(text.find("CPI stack"), std::string::npos);
    EXPECT_NE(text.find("Contended lines"), std::string::npos);
    EXPECT_NE(text.find("Atomic latency by PC"), std::string::npos);
    const std::string folded = slurp(dir.file("profile.folded"));
    ASSERT_FALSE(folded.empty());
    EXPECT_EQ(folded.rfind("pc/eager;core0;", 0), 0u) << folded;
}

TEST(RowsimReport, TsRendersAStatsReport)
{
    ScratchDir dir("report-scratch-ts");
    ExpConfig cfg = eagerConfig();
    cfg.timeseries = "on";
    const RunResult r = runExperiment("pc", cfg, 4, 60, 1, true);
    ASSERT_NE(r.statsJson.find("\"timeseries\""), std::string::npos);
    spit(dir.file("stats.json"), r.statsJson);

    ASSERT_EQ(report("ts " + dir.file("stats.json"), dir.file("out.txt")),
              0);
    const std::string text = slurp(dir.file("out.txt"));
    EXPECT_NE(text.find("=== run0 (interval "), std::string::npos) << text;
    EXPECT_NE(text.find("instructions"), std::string::npos);
    EXPECT_NE(text.find("Sparklines"), std::string::npos);
}

TEST(RowsimReport, TopOnceRendersAHeartbeatStream)
{
    ScratchDir dir("report-scratch-top");
    spit(dir.file("hb.jsonl"),
         "{\"ev\":\"sweep\",\"wall\":1,\"state\":\"start\",\"jobs\":2,"
         "\"isolation\":\"thread\"}\n"
         "{\"ev\":\"job\",\"wall\":2,\"job\":\"j0\",\"state\":\"finished\","
         "\"attempt\":1,\"workload\":\"pc\",\"config\":\"eager\","
         "\"status\":\"ok\"}\n"
         "{\"ev\":\"job\",\"wall\":3,\"job\":\"j1\",\"state\":\"started\","
         "\"attempt\":1,\"workload\":\"cq\",\"config\":\"lazy\"}\n"
         "{\"ev\":\"run\",\"wall\":4,\"job\":\"j1\",\"cycle\":4096,"
         "\"iters\":5,\"quota\":10,\"frac\":0.5,\"kcps\":12.5,"
         "\"etaMs\":1500,\"rssKb\":2048}\n"
         // A worker mid-write: the torn tail must be left alone.
         "{\"ev\":\"sweep\",\"wall\":5,\"state\":\"end\"");

    ASSERT_EQ(report("top --once " + dir.file("hb.jsonl"),
                     dir.file("out.txt")),
              0);
    const std::string text = slurp(dir.file("out.txt"));
    EXPECT_NE(text.find("rowsim sweep: 2 jobs (thread isolation)"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("running 1"), std::string::npos);
    EXPECT_NE(text.find("done 1"), std::string::npos);
    EXPECT_NE(text.find("    0 pc           eager          finished"),
              std::string::npos);
    EXPECT_NE(text.find("  50.0%      12.5     1.5s       2.0"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("COMPLETE"), std::string::npos);
    EXPECT_EQ(text.find("\x1b["), std::string::npos);
}

TEST(RowsimReport, ExitCodes)
{
    ScratchDir dir("report-scratch-exit");
    spit(dir.file("empty.jsonl"), "{\"workload\":\"pc\",\"cycles\":1}\n");
    spit(dir.file("nothing.jsonl"), "");
    const std::string missing = dir.file("missing.jsonl");

    // No records, or no input at all: 1.
    EXPECT_EQ(report("profile " + dir.file("empty.jsonl")), 1);
    EXPECT_EQ(report("span " + dir.file("empty.jsonl")), 1);
    EXPECT_EQ(report("ts " + dir.file("empty.jsonl")), 1);
    EXPECT_EQ(report("top --once " + dir.file("nothing.jsonl")), 1);
    EXPECT_EQ(report("span " + missing), 1);
    EXPECT_EQ(report("top --once " + missing), 1);

    // Bad usage: 2.
    EXPECT_EQ(report(""), 2);
    EXPECT_EQ(report("flame " + dir.file("empty.jsonl")), 2);
    EXPECT_EQ(report("span"), 2);
    EXPECT_EQ(report("ts a b"), 2);
    EXPECT_EQ(report("profile --collapsed"), 2);
    EXPECT_EQ(report("profile a b"), 2);
    EXPECT_EQ(report("top --once"), 2);
}

#endif
