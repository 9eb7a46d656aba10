/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "sim/snapshot.hh"

using namespace rowsim;

TEST(Counter, StartsAtZeroAndIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c++;
    c++;
    EXPECT_EQ(c.value(), 2u);
    c += 40;
    EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, Reset)
{
    Counter c;
    c += 7;
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Average, MeanMinMax)
{
    Average a;
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);
}

TEST(Average, EmptyMeanIsZero)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.count(), 0u);
}

TEST(Average, SingleSampleIsMinAndMax)
{
    Average a;
    a.sample(-3.5);
    EXPECT_DOUBLE_EQ(a.min(), -3.5);
    EXPECT_DOUBLE_EQ(a.max(), -3.5);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0, 100, 10);
    h.sample(5);    // bucket 0
    h.sample(95);   // bucket 9
    h.sample(100);  // overflow (hi is exclusive)
    h.sample(-1);   // underflow
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[9], 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.summary().count(), 4u);
}

TEST(Histogram, RejectsBadBounds)
{
    EXPECT_THROW(Histogram(10, 10, 4), std::logic_error);
    EXPECT_THROW(Histogram(0, 10, 0), std::logic_error);
}

TEST(Histogram, RoundingNearHiStaysInTopBucket)
{
    // Regression: (v - lo) can round up to exactly (hi - lo) in double
    // arithmetic even though v < hi, making the raw bucket index equal
    // to the bucket count (an out-of-bounds write before the clamp).
    // At lo = -1e16 the spacing between doubles is 2, so -0.001 - lo
    // rounds to exactly 1e16.
    Histogram h(-1e16, 0, 4);
    h.sample(-0.001);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(Formula, EvaluatesLazily)
{
    StatGroup g("test");
    g.counter("n") += 4;
    g.formula("rate") = [&g] {
        return static_cast<double>(g.counterValue("n")) / 2.0;
    };
    EXPECT_DOUBLE_EQ(g.formulaValue("rate"), 2.0);
    g.counter("n") += 4; // formulas see the *current* counter values
    EXPECT_DOUBLE_EQ(g.formulaValue("rate"), 4.0);
    EXPECT_DOUBLE_EQ(g.formulaValue("missing"), 0.0);
}

TEST(IntervalStats, DisabledByDefault)
{
    IntervalStats is;
    EXPECT_FALSE(is.enabled());
    is.tick(1000); // no-op
    EXPECT_TRUE(is.sampleCycles().empty());
}

TEST(IntervalStats, SamplesAbsoluteAndDeltaProbes)
{
    IntervalStats is;
    std::uint64_t counter = 0;
    double level = 1.5;
    is.addProbe("count", [&] { return static_cast<double>(counter); },
                /*delta=*/true);
    is.addProbe("level", [&] { return level; });
    is.configure(100);
    ASSERT_TRUE(is.enabled());
    EXPECT_EQ(is.period(), 100u);

    counter = 10;
    is.tick(99); // before the first boundary: nothing
    EXPECT_TRUE(is.sampleCycles().empty());
    is.tick(100);
    counter = 25;
    level = 2.5;
    is.tick(200);

    ASSERT_EQ(is.sampleCycles().size(), 2u);
    EXPECT_EQ(is.sampleCycles()[0], 100u);
    EXPECT_EQ(is.sampleCycles()[1], 200u);
    ASSERT_EQ(is.series().size(), 2u);
    // Delta probe: 10 in the first interval, 15 in the second.
    EXPECT_DOUBLE_EQ(is.series()[0][0], 10.0);
    EXPECT_DOUBLE_EQ(is.series()[0][1], 15.0);
    // Absolute probe: the value at each boundary.
    EXPECT_DOUBLE_EQ(is.series()[1][0], 1.5);
    EXPECT_DOUBLE_EQ(is.series()[1][1], 2.5);
}

TEST(IntervalStats, ResetClearsSeries)
{
    IntervalStats is;
    is.addProbe("x", [] { return 1.0; });
    is.configure(10);
    is.tick(10);
    ASSERT_EQ(is.sampleCycles().size(), 1u);
    is.reset();
    EXPECT_TRUE(is.sampleCycles().empty());
    EXPECT_TRUE(is.series()[0].empty());
}

TEST(StatGroup, CountersAreNamedAndPersistent)
{
    StatGroup g("test");
    g.counter("a")++;
    g.counter("a")++;
    g.counter("b") += 5;
    EXPECT_EQ(g.counterValue("a"), 2u);
    EXPECT_EQ(g.counterValue("b"), 5u);
    EXPECT_EQ(g.counterValue("missing"), 0u);
}

TEST(StatGroup, AveragesByName)
{
    StatGroup g("test");
    g.average("lat").sample(10);
    g.average("lat").sample(20);
    const Average *a = g.findAverage("lat");
    ASSERT_NE(a, nullptr);
    EXPECT_DOUBLE_EQ(a->mean(), 15.0);
    EXPECT_EQ(g.findAverage("missing"), nullptr);
}

TEST(StatGroup, ResetClearsEverything)
{
    StatGroup g("test");
    g.counter("a") += 3;
    g.average("x").sample(1.0);
    g.reset();
    EXPECT_EQ(g.counterValue("a"), 0u);
    EXPECT_EQ(g.findAverage("x")->count(), 0u);
}

namespace
{

std::vector<std::uint8_t>
saveBytes(const StatGroup &g)
{
    Ser s;
    g.save(s);
    return s.bytes();
}

void
restoreBytes(StatGroup &g, const std::vector<std::uint8_t> &bytes)
{
    Deser d(bytes);
    g.restore(d);
}

} // namespace

TEST(StatHandle, UpdatesTheNamedStatistic)
{
    StatGroup g("test");
    CounterRef hits(g, "hits");
    AverageRef lat(g, "lat");
    HistogramRef dist(g, "dist", 0, 100, 10);
    hits++;
    hits += 4;
    g.counter("hits")++; // by-name and handle updates meet in one stat
    lat.sample(10);
    lat.sample(20);
    dist.sample(55);
    EXPECT_EQ(g.counterValue("hits"), 6u);
    EXPECT_DOUBLE_EQ(g.findAverage("lat")->mean(), 15.0);
    ASSERT_NE(g.findHistogram("dist"), nullptr);
    EXPECT_EQ(g.findHistogram("dist")->buckets()[5], 1u);
}

TEST(StatHandle, UntouchedHandleLeavesNoName)
{
    StatGroup bound("test");
    CounterRef c(bound, "c");
    AverageRef a(bound, "a");
    HistogramRef h(bound, "h", 0, 10, 5);
    EXPECT_TRUE(bound.counters().empty());
    EXPECT_TRUE(bound.averages().empty());
    EXPECT_TRUE(bound.histograms().empty());

    // Same bytes as a group that never had a handle, with or without
    // other statistics beside the untouched ones.
    StatGroup plain("test");
    EXPECT_EQ(saveBytes(bound), saveBytes(plain));
    bound.counter("other") += 3;
    plain.counter("other") += 3;
    EXPECT_EQ(saveBytes(bound), saveBytes(plain));
}

TEST(StatHandle, RebindsAfterRestore)
{
    StatGroup g("test");
    CounterRef c(g, "c");
    AverageRef a(g, "a");
    HistogramRef h(g, "h", 0, 10, 5);
    c += 7;
    a.sample(1);
    h.sample(1);

    // An image without the names: restore drops them (and frees the
    // storage the handles pointed at); the next bump recreates each.
    StatGroup other("test");
    other.counter("b") += 2;
    restoreBytes(g, saveBytes(other));
    EXPECT_EQ(g.counters().count("c"), 0u);
    EXPECT_TRUE(g.averages().empty());
    EXPECT_TRUE(g.histograms().empty());
    c++;
    a.sample(3);
    h.sample(3);
    EXPECT_EQ(g.counterValue("c"), 1u);
    EXPECT_EQ(g.counterValue("b"), 2u);
    EXPECT_EQ(g.findAverage("a")->count(), 1u);
    EXPECT_EQ(g.findHistogram("h")->summary().count(), 1u);

    // An image with the names: bumps continue from the restored values.
    StatGroup saved("test");
    saved.counter("c") += 10;
    saved.average("a").sample(5);
    saved.histogram("h", 0, 10, 5).sample(5);
    restoreBytes(g, saveBytes(saved));
    c++;
    a.sample(7);
    h.sample(7);
    EXPECT_EQ(g.counterValue("c"), 11u);
    EXPECT_EQ(g.counters().count("b"), 0u);
    EXPECT_DOUBLE_EQ(g.findAverage("a")->mean(), 6.0);
    EXPECT_EQ(g.findHistogram("h")->summary().count(), 2u);
}

TEST(StatHandle, ResetKeepsHandleValid)
{
    StatGroup g("test");
    CounterRef c(g, "c");
    AverageRef a(g, "a");
    c += 5;
    a.sample(4);
    g.reset();
    c++;
    a.sample(2);
    EXPECT_EQ(g.counterValue("c"), 1u);
    EXPECT_DOUBLE_EQ(g.findAverage("a")->mean(), 2.0);
}
