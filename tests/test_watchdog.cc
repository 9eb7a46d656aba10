/**
 * @file
 * Forward-progress watchdog and drain-failure death tests: a genuinely
 * wedged system (directory banks stalled forever via fault injection)
 * must panic naming the stuck component and emit the crash-diagnostics
 * dump — from run(), from runCycles(), and from drain().
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace rowsim;

namespace
{

constexpr Cycle kDeadlock = 3000;
constexpr Cycle kForever = 10'000'000;

/** Two cores issuing loads that can never complete: every directory
 *  bank is stalled far beyond the deadlock bound. A lazy atomic behind
 *  each load waits forever to become the oldest memory op. */
std::unique_ptr<System>
makeStuckSystem()
{
    SystemParams sp;
    sp.numCores = 2;
    sp.deadlockCycles = kDeadlock;
    // Isolate the watchdog: with checkers on (e.g. ROWSIM_CHECK=all in
    // the environment), the leak checker would catch the stuck MSHR
    // first — legitimately, but these tests target the watchdog path.
    sp.checkCategories = "none";
    sp.core.atomicPolicy = AtomicPolicy::Lazy;
    std::vector<std::unique_ptr<InstStream>> streams;
    for (CoreId c = 0; c < 2; c++) {
        std::vector<MicroOp> body;
        MicroOp ld;
        ld.cls = OpClass::Load;
        ld.addr = addrmap::sharedDataLine(c);
        body.push_back(ld);
        MicroOp rmw;
        rmw.cls = OpClass::AtomicRMW;
        rmw.addr = addrmap::sharedDataLine(c) + 8;
        rmw.value = 1;
        rmw.endOfIteration = true;
        body.push_back(rmw);
        streams.push_back(std::make_unique<LoopStream>(std::move(body)));
    }
    auto sys = std::make_unique<System>(sp, std::move(streams));
    for (unsigned b = 0; b < sys->mem().numBanks(); b++)
        sys->mem().directory(b).injectStall(kForever);
    return sys;
}

} // namespace

TEST(Watchdog, RunPanicsNamingTheStuckCoreAndDumps)
{
    auto sys = makeStuckSystem();
    ::testing::internal::CaptureStderr();
    std::string what;
    try {
        sys->run(5);
        FAIL() << "wedged system did not trip the watchdog";
    } catch (const std::logic_error &e) {
        what = e.what();
    }
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(what.find("[watchdog]"), std::string::npos) << what;
    EXPECT_NE(what.find("core"), std::string::npos) << what;
    EXPECT_NE(err.find("=== ROWSIM CRASH DUMP BEGIN ==="),
              std::string::npos);
    EXPECT_NE(err.find("\"cores\":"), std::string::npos);
    EXPECT_NE(err.find("\"caches\":"), std::string::npos);
    EXPECT_NE(err.find("\"network\":"), std::string::npos);
    // Parked ops name the wake list they sleep on.
    EXPECT_NE(err.find("\"astate\":\"WaitLazy\",\"wake\":\"lqHead\""),
              std::string::npos);
}

TEST(Watchdog, RunCyclesIsCoveredToo)
{
    auto sys = makeStuckSystem();
    ::testing::internal::CaptureStderr();
    EXPECT_THROW(sys->runCycles(4 * kDeadlock), std::logic_error);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("ROWSIM CRASH DUMP"), std::string::npos);
}

TEST(Watchdog, DrainFailureReportsStuckComponents)
{
    auto sys = makeStuckSystem();
    sys->runCycles(10); // issue the loads into the stalled banks
    ::testing::internal::CaptureStderr();
    std::string what;
    try {
        sys->drain();
        FAIL() << "drain of a wedged system did not panic";
    } catch (const std::logic_error &e) {
        what = e.what();
    }
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(what.find("drain did not quiesce"), std::string::npos)
        << what;
    // The summary names the components that failed to quiesce.
    EXPECT_NE(what.find("core0("), std::string::npos) << what;
    EXPECT_NE(what.find("l1d0("), std::string::npos) << what;
    EXPECT_NE(err.find("ROWSIM CRASH DUMP"), std::string::npos);
    EXPECT_NE(err.find("\"drained\":0"), std::string::npos);
}

TEST(Watchdog, CrashJsonFileIsWrittenWhenRequested)
{
    const char *path = "watchdog_crash_dump.json";
    std::remove(path);
    setenv("ROWSIM_CRASH_JSON", path, 1);
    auto sys = makeStuckSystem();
    ::testing::internal::CaptureStderr();
    EXPECT_THROW(sys->run(5), std::logic_error);
    ::testing::internal::GetCapturedStderr();
    unsetenv("ROWSIM_CRASH_JSON");

    std::FILE *f = std::fopen(path, "r");
    ASSERT_NE(f, nullptr) << "crash JSON file was not written";
    char first = 0;
    ASSERT_EQ(std::fread(&first, 1, 1, f), 1u);
    EXPECT_EQ(first, '{');
    std::fclose(f);
    std::remove(path);
}

TEST(Watchdog, HealthySystemNeverFires)
{
    SystemParams sp;
    sp.numCores = 4;
    std::vector<std::unique_ptr<InstStream>> streams;
    for (CoreId c = 0; c < 4; c++) {
        std::vector<MicroOp> body;
        MicroOp at;
        at.cls = OpClass::AtomicRMW;
        at.aop = AtomicOp::FetchAdd;
        at.addr = addrmap::sharedAtomicWord(0);
        at.value = 1;
        at.endOfIteration = true;
        body.push_back(at);
        streams.push_back(std::make_unique<LoopStream>(std::move(body)));
    }
    System sys(sp, std::move(streams));
    EXPECT_NO_THROW(sys.run(30));
    EXPECT_NO_THROW(sys.drain());
}
