/**
 * @file
 * Tests of the benchmark's metric math (metrics.hh) and of the replay's
 * fidelity on one small point.
 */

#include <gtest/gtest.h>

#include "metrics.hh"
#include "replay.hh"
#include "workloads.hh"
#include "wormsim/common/logging.hh"
#include "wormsim/driver/runner.hh"

namespace perfbench
{
namespace
{

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Quantile, NearestRank)
{
    std::vector<int> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    EXPECT_EQ(quantile(v, 0.50), 50);
    EXPECT_EQ(quantile(v, 0.99), 99);
    EXPECT_EQ(quantile(v, 1.0), 100);
    EXPECT_EQ(quantile(v, 0.0), 1);
    EXPECT_EQ(quantile(std::vector<int>{}, 0.5), 0);
}

TEST(TailPercentile, LeavesExactlyTenSamplesBeyond)
{
    std::vector<double> v;
    for (int i = 0; i < 100; ++i)
        v.push_back(static_cast<double>(99 - i)); // 99..0, unsorted
    Tail t = tailPercentile(v);
    EXPECT_EQ(t.samples, 100u);
    EXPECT_DOUBLE_EQ(t.value, 89.0); // 90..99 lie beyond it
    EXPECT_NEAR(t.percentile, 100.0 * 89.0 / 99.0, 1e-12);
    std::size_t beyond = 0;
    for (double x : v)
        beyond += x > t.value;
    EXPECT_EQ(beyond, kTailBeyond);
}

TEST(TailPercentile, ElevenSamplesGiveTheMinimum)
{
    std::vector<double> v{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 4};
    Tail t = tailPercentile(v);
    EXPECT_DOUBLE_EQ(t.value, 4.0);
    EXPECT_DOUBLE_EQ(t.percentile, 0.0);
}

TEST(TailPercentile, TooFewSamplesFallBackToTheMaximum)
{
    Tail t = tailPercentile({1.0, 3.0, 2.0});
    EXPECT_DOUBLE_EQ(t.value, 3.0);
    EXPECT_DOUBLE_EQ(t.percentile, 100.0);
    EXPECT_EQ(t.samples, 3u);
}

TEST(ScanExcess, ScanStepOverItsPlainNeighbours)
{
    // Plain steps ramp by 10 ns; the scan at index 5 costs 500 ns extra.
    std::vector<std::int64_t> ns{100, 110, 120, 130, 140, 650,
                                 160, 170, 180, 190, 200};
    std::vector<bool> scan(ns.size(), false);
    EXPECT_DOUBLE_EQ(scanExcessNs(ns, scan), 0.0); // no scans
    scan[5] = true;
    // Baseline: median of 110..140 and 160..190 = 150.
    EXPECT_DOUBLE_EQ(scanExcessNs(ns, scan), 500.0);
    // A second scan step is not part of the first one's baseline, and an
    // edge step uses the side it has: 1000 - median(110..140) = 875.
    ns[0] = 1000;
    scan[0] = true;
    EXPECT_DOUBLE_EQ(scanExcessNs(ns, scan), 1375.0);
    // A scan step faster than its neighbours is noise: floored at 0.
    ns[5] = 90;
    EXPECT_DOUBLE_EQ(scanExcessNs(ns, scan), 875.0);
}

TEST(ParallelEfficiency, BusyOverReservedWorkerTime)
{
    // Four 1 s points on 4 threads in 1 s wall: perfect.
    EXPECT_DOUBLE_EQ(parallelEfficiency({1, 1, 1, 1}, {{4, 1.0}}), 1.0);
    // One 3 s straggler holds 4 threads for 3 s while 3 s of the other
    // work completes: (3 + 3 x 1) / (4 x 3) = 0.5.
    EXPECT_DOUBLE_EQ(parallelEfficiency({3, 1, 1, 1}, {{4, 3.0}}), 0.5);
    // Two sweeps add their reserved time.
    EXPECT_DOUBLE_EQ(
        parallelEfficiency({1, 1, 1, 1, 1}, {{4, 1.0}, {1, 1.0}}), 1.0);
    EXPECT_DOUBLE_EQ(parallelEfficiency({}, {}), 0.0);
}

TEST(AnchorError, MeanRelativeDistance)
{
    EXPECT_DOUBLE_EQ(anchorError({}), 0.0);
    EXPECT_DOUBLE_EQ(anchorError({{0.5, 0.5}}), 0.0);
    // |0.6 - 0.72| / 0.72 and |25.3 - 23| / 23, averaged.
    double expect = (0.12 / 0.72 + 2.3 / 23.0) / 2.0;
    EXPECT_NEAR(anchorError({{0.72, 0.6}, {23.0, 25.3}}), expect, 1e-12);
    // Over- and under-shoot count alike.
    EXPECT_DOUBLE_EQ(anchorError({{2.0, 1.0}}), anchorError({{2.0, 3.0}}));
}

TEST(Digest, SensitiveToEveryKindOfField)
{
    wormsim::SimulationResult r;
    r.algorithm = "nbc";
    r.samples.resize(2);
    std::uint64_t base = resultDigest(r);
    EXPECT_EQ(resultDigest(r), base);

    auto changed = [&](auto mutate) {
        wormsim::SimulationResult c = r;
        mutate(c);
        return resultDigest(c) != base;
    };
    EXPECT_TRUE(changed([](auto &c) { c.algorithm = "phop"; }));
    EXPECT_TRUE(changed([](auto &c) { c.avgLatency = -0.0; }));
    EXPECT_TRUE(changed([](auto &c) { c.messagesDropped = 1; }));
    EXPECT_TRUE(changed([](auto &c) { c.samples[1].delivered = 1; }));
    EXPECT_TRUE(changed([](auto &c) { c.hopClassLatency.push_back(0.0); }));
    EXPECT_TRUE(changed([](auto &c) { c.resilience.aborted = 1; }));
    EXPECT_TRUE(changed([](auto &c) { c.deadlock.victims = 1; }));
    // Host timing is excluded.
    EXPECT_FALSE(changed([](auto &c) { c.wallSeconds = 12.5; }));
    EXPECT_FALSE(changed([](auto &c) { c.cyclesPerSecond = 1e6; }));
}

TEST(Digest, HexIsFixedWidth)
{
    EXPECT_EQ(hex64(0), "0000000000000000");
    EXPECT_EQ(hex64(0xabcULL), "0000000000000abc");
    EXPECT_EQ(hex64(~0ULL), "ffffffffffffffff");
}

TEST(Workloads, PointsAreSeededLikeTheParallelSweep)
{
    const Workload *w = findWorkload("hotspot_local");
    ASSERT_NE(w, nullptr);
    std::vector<Point> a = expandPoints(*w, 1);
    std::vector<Point> b = expandPoints(*w, 2);
    ASSERT_EQ(a.size(), 36u);
    EXPECT_NE(a[0].cfg.seed, b[0].cfg.seed);
    // Two grids reuse (algorithm, load) indices, hence seeds.
    EXPECT_EQ(a[0].cfg.seed, a[18].cfg.seed);
    EXPECT_NE(a[0].cfg.traffic, a[18].cfg.traffic);
    EXPECT_EQ(findWorkload("nope"), nullptr);
}

TEST(Replay, ReproducesTheRunnerOnAFaultedRecoveryPoint)
{
    wormsim::setLoggingQuiet(true); // one warn: per fault-induced abort
    const Workload *w = findWorkload("faults_recovery");
    ASSERT_NE(w, nullptr);
    Point p = expandPoints(*w, 3).at(3); // faults_uniform/phop@0.30#0
    p.cfg.radices = {8, 8};
    p.cfg.faultRate = 1e-4;
    wormsim::SimulationRunner runner(p.cfg);
    wormsim::SimulationResult u = runner.run();
    Tracer t;
    ReplayResult r = replayPoint(p.cfg, t);
    EXPECT_EQ(r.cyclesSimulated, u.cyclesSimulated);
    EXPECT_EQ(r.numSamples, u.numSamples);
    EXPECT_EQ(r.delivered, u.messagesDelivered);
    EXPECT_EQ(r.dropped, u.messagesDropped);
    EXPECT_EQ(r.avgLatency, u.avgLatency);
    EXPECT_EQ(r.resilience.aborted, u.resilience.aborted);
    EXPECT_GT(t[Layer::FaultEvent].count, 0u);
    EXPECT_EQ(t[Layer::Step].count, r.stepNs.size());
}

} // namespace
} // namespace perfbench
