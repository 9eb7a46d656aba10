/**
 * @file
 * Unit tests for common infrastructure: address helpers, logging,
 * micro-op classification, and configuration defaults (Table I).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/config.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "cpu/microop.hh"
#include "sim/microbench.hh"
#include "sim/sweep.hh"

using namespace rowsim;

TEST(AddressHelpers, LineAlignment)
{
    EXPECT_EQ(lineAlign(0x1000), 0x1000u);
    EXPECT_EQ(lineAlign(0x103F), 0x1000u);
    EXPECT_EQ(lineAlign(0x1040), 0x1040u);
    EXPECT_EQ(lineNum(0x1040), 0x41u);
    EXPECT_TRUE(sameLine(0x1000, 0x103F));
    EXPECT_FALSE(sameLine(0x1000, 0x1040));
}

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 7, "abc"), "x=7 y=abc");
    EXPECT_EQ(strprintf("%s", ""), "");
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(ROWSIM_PANIC("boom %d", 42), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(ROWSIM_FATAL("bad config"), std::runtime_error);
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(ROWSIM_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(ROWSIM_ASSERT(1 + 1 == 3, "not fine"), std::logic_error);
}

TEST(Logging, ParseEnvU64AcceptsOnlyFullDecimalStrings)
{
    EXPECT_EQ(parseEnvU64("X", "0"), 0u);
    EXPECT_EQ(parseEnvU64("X", "5000"), 5000u);
    // "10k" used to silently parse as 10; now the whole string must be
    // a decimal number.
    EXPECT_THROW(parseEnvU64("ROWSIM_STATS_INTERVAL", "10k"),
                 std::runtime_error);
    EXPECT_THROW(parseEnvU64("X", "garbage"), std::runtime_error);
    EXPECT_THROW(parseEnvU64("X", ""), std::runtime_error);
    EXPECT_THROW(parseEnvU64("X", " 10"), std::runtime_error);
    EXPECT_THROW(parseEnvU64("X", "-1"), std::runtime_error);
    EXPECT_THROW(parseEnvU64("X", "99999999999999999999999"),
                 std::runtime_error);
    // ROWSIM_SWEEP_THREADS used a bare strtoul: "8x" became 8 and
    // "four" became the serial fallback of 1.
    for (const char *bad : {"8x", "four"}) {
        ::setenv("ROWSIM_SWEEP_THREADS", bad, 1);
        EXPECT_THROW(SweepEngine::defaultThreads(), std::runtime_error)
            << bad;
    }
    ::setenv("ROWSIM_SWEEP_THREADS", "8", 1);
    EXPECT_EQ(SweepEngine::defaultThreads(), 8u);
    ::unsetenv("ROWSIM_SWEEP_THREADS");
}

TEST(MicroOp, ClassificationHelpers)
{
    MicroOp op;
    op.cls = OpClass::Load;
    EXPECT_TRUE(op.isMem());
    op.cls = OpClass::AtomicRMW;
    EXPECT_TRUE(op.isMem());
    op.cls = OpClass::IntAlu;
    EXPECT_FALSE(op.isMem());
    op.cls = OpClass::Fence;
    EXPECT_FALSE(op.isMem());
}

TEST(MicroOp, NamesRoundTrip)
{
    EXPECT_STREQ(opClassName(OpClass::AtomicRMW), "AtomicRMW");
    EXPECT_STREQ(opClassName(OpClass::Fence), "Fence");
    EXPECT_STREQ(atomicOpName(AtomicOp::CompareSwap), "CompareSwap");
    EXPECT_STREQ(rmwKindName(RmwKind::SWAP), "SWAP");
}

TEST(Config, TableOneDefaults)
{
    SystemParams sp;
    EXPECT_EQ(sp.numCores, 32u);
    EXPECT_EQ(sp.core.fetchWidth, 6u);
    EXPECT_EQ(sp.core.issueWidth, 12u);
    EXPECT_EQ(sp.core.commitWidth, 12u);
    EXPECT_EQ(sp.core.robEntries, 512u);
    EXPECT_EQ(sp.core.lqEntries, 192u);
    EXPECT_EQ(sp.core.sbEntries, 128u);
    EXPECT_EQ(sp.core.aqEntries, 16u);
    // 48KB, 12-way, 64B lines -> 64 sets.
    EXPECT_EQ(sp.mem.l1Sets * sp.mem.l1Ways * lineBytes, 48u * 1024);
    EXPECT_EQ(sp.mem.l1HitLatency, 5u);
    // 1MB, 8-way private L2.
    EXPECT_EQ(sp.mem.l2Sets * sp.mem.l2Ways * lineBytes, 1024u * 1024);
    EXPECT_EQ(sp.mem.l2HitLatency, 12u);
    // 4MB per bank, 16-way L3.
    EXPECT_EQ(sp.mem.l3SetsPerBank * sp.mem.l3Ways * lineBytes,
              4u * 1024 * 1024);
    EXPECT_EQ(sp.mem.l3HitLatency, 35u);
    EXPECT_EQ(sp.mem.memoryLatency, 160u);
}

TEST(Config, RowDefaultsMatchPaper)
{
    RowConfig rc;
    EXPECT_EQ(rc.predictorEntries, 64u);
    EXPECT_EQ(rc.counterBits, 4u);
    EXPECT_EQ(rc.latencyThreshold, 400u);
    EXPECT_EQ(rc.timestampBits, 14u);
    // §IV-F: total RoW storage = 64 bytes = predictor (256 bits) + AQ
    // augmentation (16 x 16 bits = 256 bits).
    unsigned total_bits =
        rc.predictorEntries * rc.counterBits + 16 * (1 + 1 + 14);
    EXPECT_EQ(total_bits, 64u * 8);
}
