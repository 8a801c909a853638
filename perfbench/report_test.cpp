/**
 * @file
 * Unit tests of the benchmark's metric arithmetic: the tail-percentile
 * rule, speed-scaled window medians, failures and mismatches counting against
 * attempts, and the layer-coverage and trace-overhead ratios.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "report.h"

namespace mdes::perfbench {
namespace {

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i)
        v.push_back(double(i)); // descending: the helpers must sort
    return v;
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v = oneTo(100);
    EXPECT_EQ(percentile(v, 50).value, 50);
    EXPECT_EQ(percentile(v, 99).value, 99);
    EXPECT_EQ(percentile(v, 100).value, 100);
    std::vector<double> empty;
    EXPECT_EQ(percentile(empty, 50).samples, 0u);
    EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(TailPercentile, UsesP99WhenTenSamplesLieBeyondIt)
{
    std::vector<double> v = oneTo(1000);
    Percentile p = tailPercentile(v, 99);
    EXPECT_EQ(p.value, 990);
    EXPECT_DOUBLE_EQ(p.pct, 99);
    EXPECT_EQ(p.samples, 1000u);
}

TEST(TailPercentile, FallsBackToKeepTenSamplesBeyond)
{
    // p99 of 500 samples would leave only 5 beyond it; the rule moves
    // down to the 490th sample, which leaves exactly 10.
    std::vector<double> v = oneTo(500);
    Percentile p = tailPercentile(v, 99);
    EXPECT_EQ(p.value, 490);
    EXPECT_DOUBLE_EQ(p.pct, 98);
    size_t beyond = 0;
    for (double x : v)
        beyond += x > p.value;
    EXPECT_EQ(beyond, kMinTailSamples);
}

TEST(TailPercentile, TooFewSamplesReportsTheMaximum)
{
    std::vector<double> v = oneTo(10);
    Percentile p = tailPercentile(v, 99);
    EXPECT_EQ(p.value, 10);
    EXPECT_DOUBLE_EQ(p.pct, 100);
    std::vector<double> empty;
    EXPECT_EQ(tailPercentile(empty, 99).samples, 0u);
}

TEST(Windows, MediansOfSpeedScaledWindows)
{
    Windows w;
    // Three one-second windows at 10, 30 and 20 units/s, read at host
    // speeds 1, 1.5 and 0.5: scaled to the reference speed they run at
    // 10, 20 and 40 units/s.
    for (int i = 0; i < 10; ++i)
        w.add(1, 2.0);
    w.close(1.0, 1.0);
    for (int i = 0; i < 30; ++i)
        w.add(1, 1.0);
    w.close(1.0, 1.5);
    for (int i = 0; i < 20; ++i)
        w.add(1, 3.0);
    w.close(1.0, 0.5);
    EXPECT_EQ(w.size(), 3u);
    EXPECT_DOUBLE_EQ(w.medianRate(), 20);
    EXPECT_DOUBLE_EQ(w.medianRequestRate(), 20);
    // Scaled p50s: 2.0, 1.5 and 1.5.
    EXPECT_DOUBLE_EQ(w.medianP50(), 1.5);
    EXPECT_DOUBLE_EQ(w.rawRate(), 20);
    EXPECT_DOUBLE_EQ(w.medianSpeed(), 1.0);
    // Window tails: the maximum 2.0 of the first (too few samples to
    // leave ten beyond any percentile), 1.5 of the others.
    EXPECT_DOUBLE_EQ(w.medianTail().value, 1.5);
}

TEST(Windows, MedianTailIgnoresOneStalledWindow)
{
    Windows w;
    // Five windows of 1000 latencies; one of them stalls on 100 of its
    // requests. Each window's p99 leaves exactly ten samples beyond it.
    for (int k = 0; k < 5; ++k) {
        for (int i = 1; i <= 1000; ++i)
            w.add(1, k == 2 && i > 900 ? 50.0 : i * 0.001 * (k + 1));
        w.close(1.0, 1.0);
    }
    Percentile p = w.medianTail();
    // Window tails 0.99, 1.98, 50, 3.96 and 4.95: the median is 3.96.
    EXPECT_NEAR(p.value, 3.96, 1e-12);
    EXPECT_DOUBLE_EQ(p.pct, 99);
    EXPECT_EQ(p.samples, 1000u);
}

TEST(Windows, StretchesScaleTheirOwnRequests)
{
    Windows w;
    // One window of two half-second stretches: 10 requests at speed 1,
    // then 30 at speed 3. Scaled time is 0.5 + 1.5 = 2 s.
    for (int i = 0; i < 10; ++i)
        w.add(2, 1.0);
    w.stretch(0.5, 1.0);
    for (int i = 0; i < 30; ++i)
        w.add(2, 1.0);
    w.stretch(0.5, 3.0);
    w.close();
    EXPECT_DOUBLE_EQ(w.medianRate(), 40);
    EXPECT_DOUBLE_EQ(w.medianRequestRate(), 20);
    EXPECT_DOUBLE_EQ(w.rawRate(), 80);
    EXPECT_DOUBLE_EQ(w.medianSpeed(), 2);
    EXPECT_DOUBLE_EQ(w.medianP50(), 3.0);
}

TEST(Windows, UnitsAddedAfterTheLastCloseDoNotCount)
{
    Windows w;
    w.add(5, 1.0);
    w.close(1.0, 1.0);
    w.add(1000, 100.0);
    EXPECT_DOUBLE_EQ(w.medianRate(), 5);
    EXPECT_DOUBLE_EQ(w.medianP50(), 1.0);
    EXPECT_EQ(Windows{}.medianRate(), 0);
}

TEST(Tally, FailuresAndMismatchesCountAgainstAttempts)
{
    Tally t;
    t.record(true, true);
    t.record(false, true);  // an error
    t.record(true, false);  // a wrong answer
    t.record(false, false); // an error is not also a mismatch
    EXPECT_EQ(t.attempted, 4u);
    EXPECT_EQ(t.errors, 2u);
    EXPECT_EQ(t.mismatches, 1u);
    EXPECT_EQ(t.failed(), 3u);
    EXPECT_DOUBLE_EQ(t.errorRate(), 0.75);
    EXPECT_DOUBLE_EQ(t.okRate(), 0.25);
    EXPECT_FALSE(t.correct());

    Tally clean;
    clean.check(true);
    EXPECT_TRUE(clean.correct());
    clean.merge(t);
    EXPECT_EQ(clean.attempted, 5u);
    EXPECT_EQ(clean.failed(), 3u);
    EXPECT_FALSE(clean.correct());

    EXPECT_FALSE(Tally{}.correct()); // nothing attempted is not a pass
    EXPECT_EQ(Tally{}.errorRate(), 0);
}

TEST(LayerCoverage, SumOfLayersOverEndToEnd)
{
    EXPECT_DOUBLE_EQ(layerCoverage({1, 2, 3}, 12), 0.5);
    EXPECT_DOUBLE_EQ(layerCoverage({}, 5), 0);
    EXPECT_DOUBLE_EQ(layerCoverage({1}, 0), 0);
    // Overlapping layers are not clipped: coverage above 1 shows it.
    EXPECT_DOUBLE_EQ(layerCoverage({3, 3}, 4), 1.5);
}

TEST(TraceOverhead, PercentSlowerThanPlain)
{
    EXPECT_NEAR(traceOverheadPct(110, 100), 10, 1e-9);
    EXPECT_DOUBLE_EQ(traceOverheadPct(100, 100), 0);
    EXPECT_DOUBLE_EQ(traceOverheadPct(0, 100), 0);
}

TEST(ResultLine, ExactKeysAndFullPrecision)
{
    Tally t;
    t.record(true, true);
    t.record(true, false);
    Metrics m;
    m["latency_ms"] = {1.0 / 3.0, "ms"};
    std::string line = resultLine(t, m);
    EXPECT_EQ(line, "{\"correct\": false, \"attempted\": 2, \"failed\": 1, "
                    "\"metrics\": {\"latency_ms\": {\"value\": "
                    "0.33333333333333331, \"unit\": \"ms\"}}}");
}

} // namespace
} // namespace mdes::perfbench
