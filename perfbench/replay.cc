#include "replay.hh"

#include <algorithm>

#include "wormsim/common/logging.hh"
#include "wormsim/deadlock/recovery.hh"
#include "wormsim/fault/fault_injector.hh"
#include "wormsim/network/network.hh"
#include "wormsim/rng/distributions.hh"
#include "wormsim/rng/stream_set.hh"
#include "wormsim/routing/registry.hh"
#include "wormsim/sim/simulator.hh"
#include "wormsim/stats/accumulator.hh"
#include "wormsim/stats/convergence.hh"
#include "wormsim/stats/histogram.hh"
#include "wormsim/stats/strata.hh"
#include "wormsim/traffic/traffic_pattern.hh"

namespace perfbench
{

using namespace wormsim;

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::SimRun: return "sim.run";
      case Layer::Arrival: return "driver.arrival";
      case Layer::StreamLookup: return "rng.stream_lookup";
      case Layer::Geometric: return "rng.geometric";
      case Layer::PickDest: return "traffic.pick_dest";
      case Layer::Offer: return "network.offer";
      case Layer::Step: return "network.step";
      case Layer::Delivery: return "stats.delivery";
      case Layer::NetworkBuild: return "network.build";
      case Layer::FaultArm: return "fault.arm";
      case Layer::FaultEvent: return "fault.event";
      case Layer::FaultRetry: return "fault.retry";
      case Layer::RecoveryRetry: return "deadlock.retry";
      case Layer::RoutingInit: return "routing.init";
      case Layer::RoutingCandidates: return "routing.candidates";
      case Layer::RoutingOnHop: return "routing.on_hop";
      case Layer::RoutingKey: return "routing.cache_key";
      case Layer::Count: break;
    }
    return "?";
}

void
Tracer::merge(const Tracer &other)
{
    for (std::size_t i = 0; i < kNumLayers; ++i) {
        totals[i].count += other.totals[i].count;
        totals[i].totalNs += other.totals[i].totalNs;
        totals[i].selfNs += other.totals[i].selfNs;
    }
}

// --- TimedRouting -------------------------------------------------------

int
TimedRouting::numVcClasses(const Topology &topo) const
{
    return inner->numVcClasses(topo);
}

void
TimedRouting::initMessage(const Topology &topo, Message &msg) const
{
    Span s(t, Layer::RoutingInit);
    inner->initMessage(topo, msg);
}

void
TimedRouting::candidates(const Topology &topo, NodeId current,
                         const Message &msg,
                         std::vector<RouteCandidate> &out) const
{
    Span s(t, Layer::RoutingCandidates);
    inner->candidates(topo, current, msg, out);
}

void
TimedRouting::onHop(const Topology &topo, NodeId current, NodeId next,
                    VcClass used, Message &msg) const
{
    Span s(t, Layer::RoutingOnHop);
    inner->onHop(topo, current, next, used, msg);
}

int
TimedRouting::numCongestionClasses(const Topology &topo) const
{
    return inner->numCongestionClasses(topo);
}

int
TimedRouting::congestionClass(const Topology &topo, const Message &msg) const
{
    return inner->congestionClass(topo, msg);
}

bool
TimedRouting::torusMinimal(const Topology &topo) const
{
    return inner->torusMinimal(topo);
}

int
TimedRouting::routeCacheKeySpace(const Topology &topo) const
{
    return inner->routeCacheKeySpace(topo);
}

int
TimedRouting::routeCacheKey(const Topology &topo, const Message &msg) const
{
    Span s(t, Layer::RoutingKey);
    return inner->routeCacheKey(topo, msg);
}

RouteCacheExpand
TimedRouting::routeCacheExpand() const
{
    return inner->routeCacheExpand();
}

void
TimedRouting::routeCacheLanes(const Topology &topo, int key, int &first_lane,
                              int &num_lanes) const
{
    inner->routeCacheLanes(topo, key, first_lane, num_lanes);
}

// --- the replay driver --------------------------------------------------

namespace
{

/**
 * SimulationRunner's point loop (driver/runner.cc, non-skip engines),
 * rebuilt from public calls with spans at each layer boundary. Any
 * change to the runner's call order must be mirrored here; the
 * benchmark's fidelity check fails the point when it is not.
 */
class Replay
{
  public:
    Replay(const SimulationConfig &config, Tracer &tracer)
        : cfg(config), t(tracer), streams(cfg.seed)
    {
        cfg.validate();
        if (cfg.stepMode == StepMode::Skip || cfg.trace ||
            cfg.metricsInterval > 0)
            WORMSIM_FATAL("the replay covers the active and dense step "
                          "engines with observability off");
        topo = cfg.makeTopology();
        algo = std::make_unique<TimedRouting>(
            makeRoutingAlgorithm(cfg.algorithm), t);
        traffic = makeTrafficPattern(cfg.traffic, *topo, cfg.trafficParams);
    }

    void run();

    ReplayResult r;

  private:
    void build();
    void armFaults();
    void armRecovery();
    void scheduleArrival(NodeId node);
    void onArrival(NodeId node);
    void armTick();
    void tick();
    void runUntil(Cycle until);
    bool retry(Layer layer, NodeId src, NodeId dst, int length_flits,
               int attempt, Cycle now);

    SimulationConfig cfg;
    Tracer &t;
    std::unique_ptr<Topology> topo;
    std::unique_ptr<RoutingAlgorithm> algo;
    std::unique_ptr<TrafficPattern> traffic;
    StreamSet streams;
    Simulator sim;
    std::unique_ptr<Network> net;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<RecoveryEngine> recovery;

    double lambda = 0.0;
    std::uint64_t setupCandidates = 0; ///< candidates() during build
    bool tickArmed = false;
    bool collecting = false;
    std::unique_ptr<StratifiedEstimator> strata;
    Accumulator latencies;
    Accumulator hops;
    std::unique_ptr<Histogram> latencyHist;
};

void
Replay::scheduleArrival(NodeId node)
{
    Xoshiro256 *rng = nullptr;
    {
        Span s(t, Layer::StreamLookup);
        rng = &streams.stream("arrival-" + std::to_string(node));
    }
    Cycle gap = 0;
    {
        Span s(t, Layer::Geometric);
        gap = geometric(*rng, lambda);
    }
    sim.scheduleIn(gap, EventPriority::PreCycle, [this, node] {
        Span s(t, Layer::Arrival);
        onArrival(node);
        scheduleArrival(node);
    });
}

void
Replay::onArrival(NodeId node)
{
    Xoshiro256 *rng = nullptr;
    {
        Span s(t, Layer::StreamLookup);
        rng = &streams.stream("destination");
    }
    NodeId dst = kInvalidNode;
    {
        Span s(t, Layer::PickDest);
        dst = traffic->pickDest(node, *rng);
    }
    Message *m = nullptr;
    {
        Span s(t, Layer::Offer);
        m = net->offerMessage(node, dst, cfg.messageLength, sim.now());
    }
    if (m == nullptr)
        ++r.offersRefused;
    if (injector)
        injector->noteGenerated(m != nullptr);
    if (recovery)
        recovery->noteGenerated(m != nullptr);
    armTick();
}

void
Replay::armTick()
{
    if (!net->busy() || tickArmed)
        return;
    tickArmed = true;
    sim.scheduleAt(sim.now(), EventPriority::Cycle, [this] { tick(); });
}

void
Replay::tick()
{
    Cycle now = sim.now();
    r.activeLinksSum += static_cast<double>(net->activeLinkCount());
    r.waitingHeadersSum += static_cast<double>(net->messagesAwaitingRoute());
    r.inFlightPeak = std::max<std::uint64_t>(r.inFlightPeak,
                                             net->messagesInFlight());
    std::uint64_t scansBefore = net->deadlockCounters().scans;
    t.begin(Layer::Step);
    net->step(now);
    std::int64_t ns = t.end();
    r.stepNs.push_back(ns);
    r.stepScanned.push_back(net->deadlockCounters().scans != scansBefore);
    if (net->busy())
        sim.scheduleIn(1, EventPriority::Cycle, [this] { tick(); });
    else
        tickArmed = false;
}

void
Replay::runUntil(Cycle until)
{
    {
        Span s(t, Layer::SimRun);
        sim.run(until);
    }
    if (sim.now() < until)
        sim.advanceClock(until);
}

bool
Replay::retry(Layer layer, NodeId src, NodeId dst, int length_flits,
              int attempt, Cycle now)
{
    Span s(t, layer);
    Message *m = net->offerRetry(src, dst, length_flits, attempt, now);
    armTick();
    return m != nullptr;
}

void
Replay::build()
{
    strata = std::make_unique<StratifiedEstimator>(
        traffic->hopClassWeights());
    latencyHist = std::make_unique<Histogram>(
        0.0, 40.0 * (cfg.messageLength + topo->diameter()), 100);
    {
        Span s(t, Layer::NetworkBuild);
        net = std::make_unique<Network>(*topo, *algo, cfg.networkParams(),
                                        streams.stream("vc-select"));
    }
    setupCandidates = t[Layer::RoutingCandidates].count;
    r.setupInits = t[Layer::RoutingInit].count;

    net->setDeliveryHook([this](const Message &m, Cycle now) {
        Span s(t, Layer::Delivery);
        if (injector)
            injector->noteDelivery(m, now);
        if (recovery)
            recovery->noteDelivery(m, now);
        if (!collecting)
            return;
        auto latency = static_cast<double>(now - m.createdAt() + 1);
        latencies.add(latency);
        latencyHist->add(latency);
        hops.add(m.route().hopsTaken);
        int stratum = m.minDistance() - 1;
        strata->add(static_cast<std::size_t>(stratum), latency);
    });
}

void
Replay::armFaults()
{
    injector = std::make_unique<FaultInjector>(
        FaultSchedule::build(cfg.faultSpec(), *topo, cfg.seed,
                             cfg.maxCycles),
        cfg.retryPolicy(), 40.0 * (cfg.messageLength + topo->diameter()));
    {
        Span s(t, Layer::FaultArm);
        injector->arm(sim, *net,
                      [this](NodeId src, NodeId dst, int length_flits,
                             int attempt, Cycle now) {
                          return retry(Layer::FaultRetry, src, dst,
                                       length_flits, attempt, now);
                      });
    }
    // arm() queued the whole timeline and nothing else is queued yet:
    // re-queue each event, in pop order (which keeps same-cycle ties in
    // timeline order), wrapped in a span.
    EventQueue &q = sim.eventQueue();
    std::vector<Event> timeline;
    while (!q.empty())
        timeline.push_back(q.pop());
    q.clear();
    for (Event &e : timeline) {
        sim.scheduleAt(e.when, e.priority,
                       [this, action = std::move(e.action)] {
                           Span s(t, Layer::FaultEvent);
                           action();
                       });
    }
}

void
Replay::armRecovery()
{
    recovery = std::make_unique<RecoveryEngine>(cfg.retryPolicy());
    recovery->arm(sim, *net,
                  [this](NodeId src, NodeId dst, int length_flits,
                         int attempt, Cycle now) {
                      return retry(Layer::RecoveryRetry, src, dst,
                                   length_flits, attempt, now);
                  });
}

void
Replay::run()
{
    lambda = cfg.injectionRate(traffic->meanDistance(), topo->numDims());
    build();
    if (cfg.faultsEnabled())
        armFaults();
    if (cfg.deadlockRecoveryEnabled())
        armRecovery();
    for (NodeId node = 0; node < topo->numNodes(); ++node)
        scheduleArrival(node);

    runUntil(cfg.warmupCycles);

    ConvergenceController ctl(cfg.convergence);
    StopReason reason = StopReason::NotDone;
    while (reason == StopReason::NotDone) {
        r.flits += net->flitsTransferred();
        net->resetCounters();
        strata->reset();
        latencies.reset();
        hops.reset();

        collecting = true;
        runUntil(sim.now() + cfg.samplePeriod);
        collecting = false;

        NetworkCounters c = net->counters();
        r.delivered += c.messagesDelivered;
        r.dropped += c.messagesDropped;
        reason = ctl.addSample(strata->estimate(), latencies.mean());
        if (reason == StopReason::NotDone) {
            if (sim.now() + cfg.sampleGap + cfg.samplePeriod >
                cfg.maxCycles)
                break;
            streams.advanceEpoch();
            runUntil(sim.now() + cfg.sampleGap);
        }
    }
    r.flits += net->flitsTransferred();

    r.cyclesSimulated = sim.now();
    r.numSamples = static_cast<int>(ctl.numSamples());
    r.avgLatency = ctl.grandMean();
    r.simEvents = sim.eventsDispatched();
    const DeadlockDetectionCounters &dd = net->deadlockCounters();
    r.scans = dd.scans;
    r.detections = dd.detections;
    r.victims = dd.victims;
    if (injector) {
        r.faultsCollected = true;
        r.resilience = injector->finish(sim.now());
    }
    if (recovery)
        recovery->finish(sim.now());

    // Which routing call marks one allocation attempt (freeCandidates):
    // the reference path calls candidates() (so do detector scans), and a
    // key-dispatched cache calls routeCacheKey(); a full-memoized cache
    // with a single key calls neither.
    const RouteCache *cache = net->routeCache();
    if (cache == nullptr) {
        r.attemptsVisible = true;
        r.allocAttempts = t[Layer::RoutingCandidates].count - setupCandidates;
    } else if (cache->expandMode() != RouteCacheExpand::Full ||
               cache->keySpace() > 1) {
        r.attemptsVisible = true;
        r.allocAttempts = t[Layer::RoutingKey].count;
    }
}

} // namespace

ReplayResult
replayPoint(const SimulationConfig &cfg, Tracer &tracer)
{
    std::int64_t start = Tracer::nowNs();
    Replay replay(cfg, tracer);
    replay.run();
    replay.r.wallSeconds =
        static_cast<double>(Tracer::nowNs() - start) * 1e-9;
    return std::move(replay.r);
}

} // namespace perfbench
