/**
 * @file
 * The traced run: a replay of SimulationRunner's point loop built from
 * each layer's public functions, with a span recorded around every call
 * into a layer. Spans are aggregated in memory (count, inclusive and self
 * time per layer) and reported once at the end. The replay must
 * reproduce the untraced run's deterministic counts; the benchmark
 * checks that it does.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "wormsim/driver/config.hh"
#include "wormsim/fault/resilience_stats.hh"
#include "wormsim/routing/routing_algorithm.hh"

namespace perfbench
{

/** The layer boundaries the replay records spans at. */
enum class Layer
{
    SimRun,            ///< Simulator::run (self time = event dispatch)
    Arrival,           ///< one arrival event: pick, offer, reschedule
    StreamLookup,      ///< StreamSet::stream
    Geometric,         ///< geometric inter-arrival draw
    PickDest,          ///< TrafficPattern::pickDest
    Offer,             ///< Network::offerMessage
    Step,              ///< Network::step
    Delivery,          ///< delivery-hook statistics
    NetworkBuild,      ///< Network constructor (route cache, VC arena)
    FaultArm,          ///< FaultInjector::arm
    FaultEvent,        ///< one timeline event (takeLinkDown / takeLinkUp)
    FaultRetry,        ///< fault-layer re-offer (Network::offerRetry)
    RecoveryRetry,     ///< deadlock-recovery re-offer
    RoutingInit,       ///< RoutingAlgorithm::initMessage
    RoutingCandidates, ///< RoutingAlgorithm::candidates
    RoutingOnHop,      ///< RoutingAlgorithm::onHop (one VC grant)
    RoutingKey,        ///< RoutingAlgorithm::routeCacheKey
    Count
};

constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::Count);

/** Dotted span name, e.g. "network.step". */
const char *layerName(Layer layer);

/** Aggregated spans of one layer. */
struct LayerTotals
{
    std::uint64_t count = 0;
    std::int64_t totalNs = 0; ///< inclusive
    std::int64_t selfNs = 0;  ///< minus the time child spans cover
};

/**
 * In-memory span recorder. Spans nest (a stack of open spans), so each
 * closed span charges its duration to its parent's child time; only
 * per-layer aggregates are kept. Single-threaded.
 */
class Tracer
{
  public:
    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    void
    begin(Layer layer)
    {
        stack.push_back({layer, nowNs(), 0});
    }

    /** Close the innermost span; returns its duration in ns. */
    std::int64_t
    end()
    {
        Open o = stack.back();
        stack.pop_back();
        std::int64_t dur = nowNs() - o.start;
        LayerTotals &t = totals[static_cast<std::size_t>(o.layer)];
        ++t.count;
        t.totalNs += dur;
        t.selfNs += dur - o.childNs;
        if (!stack.empty())
            stack.back().childNs += dur;
        return dur;
    }

    const LayerTotals &
    operator[](Layer layer) const
    {
        return totals[static_cast<std::size_t>(layer)];
    }

    /** Add @p other's aggregates into this tracer's. */
    void merge(const Tracer &other);

  private:
    struct Open
    {
        Layer layer;
        std::int64_t start;
        std::int64_t childNs;
    };
    std::vector<Open> stack;
    std::array<LayerTotals, kNumLayers> totals{};
};

/** RAII span. */
class Span
{
  public:
    Span(Tracer &tracer, Layer layer) : t(tracer) { t.begin(layer); }
    ~Span() { t.end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &t;
};

/**
 * Forwarding RoutingAlgorithm decorator that records a span around every
 * initMessage / candidates / onHop / routeCacheKey call and forwards
 * everything else untouched, so the Network (and its route cache) behave
 * exactly as with the wrapped algorithm.
 */
class TimedRouting final : public wormsim::RoutingAlgorithm
{
  public:
    TimedRouting(std::unique_ptr<wormsim::RoutingAlgorithm> algorithm,
                 Tracer &tracer)
        : inner(std::move(algorithm)), t(tracer)
    {
    }

    std::string name() const override { return inner->name(); }
    int numVcClasses(const wormsim::Topology &topo) const override;
    void initMessage(const wormsim::Topology &topo,
                     wormsim::Message &msg) const override;
    void candidates(const wormsim::Topology &topo, wormsim::NodeId current,
                    const wormsim::Message &msg,
                    std::vector<wormsim::RouteCandidate> &out) const override;
    void onHop(const wormsim::Topology &topo, wormsim::NodeId current,
               wormsim::NodeId next, wormsim::VcClass used,
               wormsim::Message &msg) const override;
    int numCongestionClasses(const wormsim::Topology &topo) const override;
    int congestionClass(const wormsim::Topology &topo,
                        const wormsim::Message &msg) const override;
    bool torusMinimal(const wormsim::Topology &topo) const override;
    int routeCacheKeySpace(const wormsim::Topology &topo) const override;
    int routeCacheKey(const wormsim::Topology &topo,
                      const wormsim::Message &msg) const override;
    wormsim::RouteCacheExpand routeCacheExpand() const override;
    void routeCacheLanes(const wormsim::Topology &topo, int key,
                         int &first_lane, int &num_lanes) const override;

  private:
    std::unique_ptr<wormsim::RoutingAlgorithm> inner;
    Tracer &t;
};

/** What one replayed point did, beyond the span aggregates. */
struct ReplayResult
{
    // deterministic counts the untraced run must match
    wormsim::Cycle cyclesSimulated = 0;
    int numSamples = 0;
    std::uint64_t delivered = 0; ///< over the sampling periods
    std::uint64_t dropped = 0;
    double avgLatency = 0.0;

    // layer counts
    std::uint64_t offersRefused = 0;
    std::uint64_t flits = 0;           ///< whole run, warmup included
    double activeLinksSum = 0.0;       ///< summed over steps
    double waitingHeadersSum = 0.0;    ///< summed over steps
    std::uint64_t inFlightPeak = 0;
    std::uint64_t simEvents = 0;
    std::uint64_t scans = 0;
    std::uint64_t detections = 0;
    std::uint64_t victims = 0;
    bool faultsCollected = false;
    wormsim::ResilienceStats resilience;

    /**
     * Allocation attempts, when every attempt calls the routing interface
     * (routeCacheKey or candidates): true for the key-dispatched
     * algorithms, false for full-memoized lookups (ecube, nlast).
     */
    bool attemptsVisible = false;
    std::uint64_t allocAttempts = 0;
    std::uint64_t setupInits = 0;      ///< initMessage() during build
    std::vector<std::int64_t> stepNs;  ///< per-step duration
    std::vector<bool> stepScanned;     ///< per step: ran a detector scan
    double wallSeconds = 0.0;          ///< constructor + run
};

/**
 * Replay one point (StepMode::Active or Dense only) with spans recorded
 * into @p tracer, which must start empty: the result's set-up and attempt
 * counts are read from it. Mirrors SimulationRunner's construction and
 * run loop call for call, so RNG consumption and event order are
 * identical.
 */
ReplayResult replayPoint(const wormsim::SimulationConfig &cfg,
                         Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
