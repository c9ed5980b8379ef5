/**
 * @file
 * The benchmark's metric math: median and tail selection over per-point
 * times, parallel efficiency, paper-anchor error, and the determinism
 * digest of a SimulationResult. Pure functions, unit-tested in
 * test_metrics.cc.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "wormsim/driver/results.hh"

namespace perfbench
{

/** Points that must lie beyond the reported tail value. */
constexpr std::size_t kTailBeyond = 10;

/** Plain steps on each side of a scan step that form its baseline. */
constexpr std::size_t kScanNeighbours = 4;

/** Median of @p v (mean of the middle two for even sizes; 0 if empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile (@p q in [0, 1]) of @p v; 0 if empty. */
template <typename T>
T
quantile(std::vector<T> v, double q)
{
    if (v.empty())
        return T{};
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    std::size_t idx = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                     v.end());
    return v[idx];
}

/** A tail value with the percentile it sits at and the sample count. */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0; ///< 0..100
    std::size_t samples = 0;
};

/**
 * The highest percentile that still has kTailBeyond samples above it,
 * over one sample per point: the value at sorted index n - 1 -
 * kTailBeyond, whose percentile is 100 * index / (n - 1). With fewer than
 * kTailBeyond + 1 samples no such percentile exists and the maximum is
 * returned at percentile 100.
 */
inline Tail
tailPercentile(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    if (n <= kTailBeyond) {
        t.value = v.back();
        t.percentile = 100.0;
        return t;
    }
    std::size_t idx = n - 1 - kTailBeyond;
    t.value = v[idx];
    t.percentile =
        100.0 * static_cast<double>(idx) / static_cast<double>(n - 1);
    return t;
}

/**
 * Time the deadlock detector's scans added to the steps that ran them.
 * Each scan step is compared with the median of the kScanNeighbours
 * nearest plain steps on each side: neighbouring steps see nearly the
 * same fabric, so the difference is the scan's cost. Each difference is
 * floored at 0 (a scan never saves time; a negative one is timer noise)
 * and the differences are summed.
 * @param step_ns one point's per-step durations, in step order
 * @param scanned whether each step ran a detector scan
 */
inline double
scanExcessNs(const std::vector<std::int64_t> &step_ns,
             const std::vector<bool> &scanned)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < step_ns.size(); ++i) {
        if (!scanned[i])
            continue;
        std::vector<double> near;
        for (std::size_t j = i; j-- > 0 && near.size() < kScanNeighbours;)
            if (!scanned[j])
                near.push_back(static_cast<double>(step_ns[j]));
        std::size_t before = near.size();
        for (std::size_t j = i + 1;
             j < step_ns.size() && near.size() < before + kScanNeighbours;
             ++j)
            if (!scanned[j])
                near.push_back(static_cast<double>(step_ns[j]));
        if (!near.empty())
            sum += std::max(0.0, static_cast<double>(step_ns[i]) -
                                     median(near));
    }
    return sum;
}

/**
 * Share of the reserved worker time a parallel sweep spent simulating:
 * (sum of per-point seconds) / sum over sweeps of (threads x wall).
 * @param point_seconds per-point run times from every sweep
 * @param thread_walls (threads, wall seconds) per sweep
 */
inline double
parallelEfficiency(const std::vector<double> &point_seconds,
                   const std::vector<std::pair<int, double>> &thread_walls)
{
    double busy = 0.0;
    for (double s : point_seconds)
        busy += s;
    double reserved = 0.0;
    for (const auto &[threads, wall] : thread_walls)
        reserved += threads * wall;
    return reserved > 0.0 ? busy / reserved : 0.0;
}

/** One paper reference value and what the simulator measured for it. */
struct AnchorValue
{
    double paper = 0.0;
    double measured = 0.0;
};

/**
 * Mean relative distance from the paper: mean of |measured - paper| /
 * |paper|. Relative, so latency (cycles) and throughput (fraction of
 * capacity) anchors average on one scale. 0 when there are no anchors.
 */
inline double
anchorError(const std::vector<AnchorValue> &anchors)
{
    if (anchors.empty())
        return 0.0;
    double sum = 0.0;
    for (const AnchorValue &a : anchors)
        sum += std::fabs(a.measured - a.paper) / std::fabs(a.paper);
    return sum / static_cast<double>(anchors.size());
}

/** FNV-1a 64 over the bytes of deterministic result fields. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }

    void
    u64(std::uint64_t v)
    {
        bytes(&v, sizeof v);
    }

    /** Bit pattern, so -0.0 vs 0.0 and NaN payloads count as changes. */
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    void
    f64s(const std::vector<double> &v)
    {
        u64(v.size());
        for (double x : v)
            f64(x);
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/**
 * Digest of every deterministic SimulationResult field: everything except
 * the host-timing fields (wallSeconds, cyclesPerSecond). Two runs of one
 * point with one seed must agree on it, whatever the thread count.
 */
inline std::uint64_t
resultDigest(const wormsim::SimulationResult &r)
{
    Digest d;
    d.str(r.algorithm);
    d.str(r.traffic);
    d.str(r.topology);
    d.str(r.stepMode);
    d.str(r.routeCache);
    for (double v : {r.offeredLoad, r.injectionRate, r.meanMinDistance,
                     r.avgLatency, r.latencyErrorBound,
                     r.achievedUtilization, r.rawChannelUtilization,
                     r.avgThroughput, r.avgHops, r.dropFraction,
                     r.latencyP50, r.latencyP95, r.latencyP99,
                     r.channelLoadCv})
        d.f64(v);
    d.u64(static_cast<std::uint64_t>(r.stopReason));
    d.u64(static_cast<std::uint64_t>(r.numSamples));
    for (std::uint64_t v :
         {std::uint64_t{r.cyclesSimulated}, std::uint64_t{r.idleCycles},
          r.fabricSteps, r.messagesDelivered, r.messagesDropped,
          std::uint64_t{r.deadlockDetected}, r.messagesKilled})
        d.u64(v);
    d.f64s(r.vcClassLoadShare);
    d.f64s(r.hopClassLatency);
    d.u64(r.samples.size());
    for (const wormsim::SampleResult &s : r.samples) {
        for (double v : {s.meanLatency, s.stratifiedLatency,
                         s.stratifiedError, s.utilization,
                         s.rawUtilization, s.throughput, s.meanHops})
            d.f64(v);
        d.u64(s.delivered);
        d.u64(s.dropped);
    }
    const wormsim::ResilienceStats &f = r.resilience;
    d.u64(f.collected);
    for (std::uint64_t v :
         {f.linkFailures, f.linkRepairs, f.generated, f.dropped,
          f.delivered, f.aborted, f.retriesScheduled, f.retriesInjected,
          f.retriesRefused, f.abandoned, std::uint64_t{f.degradedCycles},
          f.degradedDeliveries, f.unattributedAborts})
        d.u64(v);
    for (double v : {f.deliveredFraction, f.degradedP50, f.degradedP95,
                     f.degradedP99})
        d.f64(v);
    d.u64(f.faults.size());
    for (const wormsim::FaultAttribution &a : f.faults) {
        d.u64(static_cast<std::uint64_t>(a.channel));
        d.u64(a.downCycle);
        d.u64(a.repaired);
        d.u64(a.upCycle);
        d.u64(a.aborts);
    }
    const wormsim::DeadlockStats &k = r.deadlock;
    d.u64(k.collected);
    for (std::uint64_t v :
         {k.scans, k.detections, k.largestKnot, k.timeoutSuspects,
          k.timeoutFalsePositives, k.victims, k.victimDelivered,
          k.victimAbandoned, k.victimPending,
          std::uint64_t{k.recoveryLatencySum}, k.generated, k.dropped,
          k.delivered, k.inFlightAtEnd})
        d.u64(v);
    d.f64(k.deliveredFraction);
    return d.value();
}

/** Fixed-width lowercase hex of a digest. */
inline std::string
hex64(std::uint64_t v)
{
    static const char *digits = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i, v >>= 4)
        s[static_cast<std::size_t>(i)] = digits[v & 0xf];
    return s;
}

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
