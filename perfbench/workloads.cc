#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "wormsim/common/logging.hh"
#include "wormsim/common/string_utils.hh"
#include "wormsim/deadlock/detector.hh"
#include "wormsim/driver/parallel_sweep.hh"
#include "wormsim/fault/fault_spec.hh"
#include "wormsim/routing/registry.hh"

namespace perfbench
{

using wormsim::Cycle;
using wormsim::SimulationConfig;

namespace
{

/**
 * Fixed-length measurement: every point runs exactly warmup + samples x
 * (period + gap) cycles (minSamples == maxSamples), so simulated work per
 * point does not depend on when the convergence test happens to pass.
 */
void
setWindows(SimulationConfig &c, Cycle warmup, Cycle period, Cycle gap,
           std::size_t samples)
{
    c.warmupCycles = warmup;
    c.samplePeriod = period;
    c.sampleGap = gap;
    c.convergence.minSamples = samples;
    c.convergence.maxSamples = samples;
    c.maxCycles = warmup + samples * (period + gap);
}

SimulationConfig
paperBase(const std::string &traffic)
{
    SimulationConfig c; // 16x16 torus, 16-flit worms, buffer depth 2
    c.traffic = traffic;
    setWindows(c, 600, 600, 50, 3);
    return c;
}

/** Peak-throughput anchors for the six algorithms, in paper order. */
void
addPeaks(std::vector<Anchor> &out, std::size_t grid,
         const std::vector<std::pair<std::string, double>> &peaks)
{
    for (const auto &[algorithm, paper] : peaks)
        out.push_back({grid, algorithm, AnchorKind::PeakUtilization, 0.0,
                       paper});
}

// Paper anchors as coded in bench/fig3_uniform.cc, fig4_hotspot.cc and
// fig5_local.cc.
const std::vector<std::pair<std::string, double>> kFig3Peaks = {
    {"phop", 0.72}, {"nbc", 0.63},   {"nhop", 0.60},
    {"ecube", 0.34}, {"nlast", 0.25}, {"2pn", 0.30}};
const std::vector<std::pair<std::string, double>> kFig4Peaks = {
    {"ecube", 0.25}, {"phop", 0.51}, {"nbc", 0.52},
    {"nhop", 0.45},  {"nlast", 0.2}, {"2pn", 0.2}};
const std::vector<std::pair<std::string, double>> kFig5Peaks = {
    {"2pn", 0.37},  {"nbc", 0.72},   {"phop", 0.70},
    {"nhop", 0.65}, {"ecube", 0.33}, {"nlast", 0.25}};

Workload
uniformSat()
{
    Workload w;
    w.name = "uniform_sat";
    w.grids.push_back({"fig3_uniform", paperBase("uniform"),
                       wormsim::paperAlgorithms(),
                       {0.5, 0.6, 0.7, 0.8, 0.9}});
    addPeaks(w.anchors, 0, kFig3Peaks);
    w.repSeconds = 4.2;
    return w;
}

Workload
uniformLight()
{
    Workload w;
    w.name = "uniform_light";
    w.grids.push_back({"fig3_uniform", paperBase("uniform"),
                       wormsim::paperAlgorithms(), {0.05, 0.1, 0.2}});
    // fig3's low-load anchors: m_l + dbar - 1 = 23 cycles at rho = 0.1.
    for (const char *a : {"ecube", "nbc"})
        w.anchors.push_back({0, a, AnchorKind::LatencyAt, 0.1, 23.0});
    w.repSeconds = 0.52;
    return w;
}

Workload
hotspotLocal()
{
    Workload w;
    w.name = "hotspot_local";
    SimulationConfig hot = paperBase("hotspot");
    hot.trafficParams.hotspotFraction = 0.04;
    SimulationConfig local = paperBase("local");
    local.trafficParams.localRadius = 3;
    w.grids.push_back({"fig4_hotspot", hot, wormsim::paperAlgorithms(),
                       {0.2, 0.4, 0.6}});
    w.grids.push_back({"fig5_local", local, wormsim::paperAlgorithms(),
                       {0.2, 0.4, 0.6}});
    addPeaks(w.anchors, 0, kFig4Peaks);
    addPeaks(w.anchors, 1, kFig5Peaks);
    w.repSeconds = 3.3;
    return w;
}

Workload
faultsRecovery()
{
    Workload w;
    w.name = "faults_recovery";
    // Transient runtime faults at rho = 0.3 under the exact detector with
    // victim recovery: the only grid where fault/ and deadlock/ work.
    SimulationConfig faults = paperBase("uniform");
    faults.offeredLoad = 0.3;
    faults.faultRate = 5e-6;
    faults.faultKind = wormsim::FaultKind::Transient;
    faults.faultMttr = 300.0;
    faults.deadlockDetector = wormsim::DeadlockDetectorKind::Exact;
    faults.deadlockAction = wormsim::DeadlockAction::Recover;
    faults.watchdogInterval = 64;
    // Three fault-schedule replicas per algorithm average out how hard a
    // single schedule happens to hit.
    w.grids.push_back(
        {"faults_uniform", faults, wormsim::paperAlgorithms(), {0.3}, 3});

    // bench/deadlock_recovery's deadlock-prone point: ffa really wedges
    // here and recovery tears down victims.
    SimulationConfig ring = paperBase("complement");
    ring.radices = {8, 8};
    ring.messageLength = 32;
    ring.flitBufferDepth = 1;
    ring.deadlockDetector = wormsim::DeadlockDetectorKind::Exact;
    ring.deadlockAction = wormsim::DeadlockAction::Recover;
    ring.watchdogInterval = 16;
    ring.watchdogPatience = 512;
    ring.faultRetries = 64;
    setWindows(ring, 2000, 2000, 100, 3);
    w.grids.push_back({"deadlock_recovery", ring, {"ffa"}, {0.28}, 3});

    // No paper figure has faults; score the six algorithms against the
    // fault-free fig. 3 expectation at rho = 0.3: an algorithm delivers
    // the offered load below its paper peak, and its peak above it.
    for (const auto &[algorithm, peak] : kFig3Peaks)
        w.anchors.push_back({0, algorithm, AnchorKind::UtilizationAt, 0.3,
                             std::min(0.3, peak)});
    w.repSeconds = 2.1;
    return w;
}

std::string
jsonList(const std::vector<std::string> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? ", \"" : "\"") + v[i] + "\"";
    return s + "]";
}

std::string
jsonList(const std::vector<double> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? ", " : "") + wormsim::formatFixed(v[i], 3);
    return s + "]";
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        uniformSat(), uniformLight(), hotspotLocal(), faultsRecovery()};
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::vector<Point>
expandPoints(const Workload &w, std::uint64_t seed)
{
    std::vector<Point> points;
    for (std::size_t g = 0; g < w.grids.size(); ++g) {
        const Grid &grid = w.grids[g];
        std::vector<double> loads = sweepLoads(grid);
        for (std::size_t a = 0; a < grid.algorithms.size(); ++a) {
            for (std::size_t l = 0; l < loads.size(); ++l) {
                Point p;
                p.grid = g;
                p.algorithm = a;
                p.load = l;
                p.cfg = grid.base;
                p.cfg.algorithm = grid.algorithms[a];
                p.cfg.offeredLoad = loads[l];
                p.cfg.seed =
                    wormsim::ParallelSweepRunner::pointSeed(seed, a, l);
                p.label = grid.label + "/" + grid.algorithms[a] + "@" +
                          wormsim::formatFixed(loads[l], 2);
                if (grid.replicas > 1)
                    p.label += "#" + std::to_string(l % grid.replicas);
                points.push_back(std::move(p));
            }
        }
    }
    return points;
}

bool
claimsDeadlockFreedom(const std::string &algorithm)
{
    return algorithm != "ffa";
}

std::vector<double>
sweepLoads(const Grid &grid)
{
    std::vector<double> loads;
    for (double load : grid.loads)
        loads.insert(loads.end(), grid.replicas, load);
    return loads;
}

namespace
{

/** Mean of @p field over the replicas of (@p algorithm, @p load). */
template <typename Field>
double
replicaMean(const wormsim::SweepResult &s, const std::string &algorithm,
            double load, Field field)
{
    auto a = static_cast<std::size_t>(
        std::find(s.algorithms.begin(), s.algorithms.end(), algorithm) -
        s.algorithms.begin());
    if (a == s.algorithms.size())
        WORMSIM_PANIC("anchor algorithm ", algorithm, " not in the grid");
    double sum = 0.0;
    int n = 0;
    for (std::size_t l = 0; l < s.loads.size(); ++l) {
        if (std::fabs(s.loads[l] - load) < 1e-9) {
            sum += field(s.results[a][l]);
            ++n;
        }
    }
    if (n == 0)
        WORMSIM_PANIC("anchor load ", load, " not in the grid");
    return sum / n;
}

} // namespace

std::vector<AnchorValue>
evaluateAnchors(const Workload &w,
                const std::vector<wormsim::SweepResult> &sweeps)
{
    auto util = [](const wormsim::SimulationResult &r) {
        return r.achievedUtilization;
    };
    auto latency = [](const wormsim::SimulationResult &r) {
        return r.avgLatency;
    };
    std::vector<AnchorValue> out;
    for (const Anchor &a : w.anchors) {
        const wormsim::SweepResult &s = sweeps.at(a.grid);
        double measured = 0.0;
        switch (a.kind) {
          case AnchorKind::PeakUtilization:
            for (double load : w.grids.at(a.grid).loads)
                measured = std::max(
                    measured, replicaMean(s, a.algorithm, load, util));
            break;
          case AnchorKind::LatencyAt:
            measured = replicaMean(s, a.algorithm, a.load, latency);
            break;
          case AnchorKind::UtilizationAt:
            measured = replicaMean(s, a.algorithm, a.load, util);
            break;
        }
        out.push_back({a.paper, measured});
    }
    return out;
}

std::string
describeJson(const Workload &w)
{
    std::ostringstream os;
    os << "{\"workload\": \"" << w.name << "\", \"grids\": [";
    for (std::size_t g = 0; g < w.grids.size(); ++g) {
        const Grid &grid = w.grids[g];
        const SimulationConfig &c = grid.base;
        std::vector<std::string> radices;
        for (int r : c.radices)
            radices.push_back(std::to_string(r));
        os << (g ? ", " : "") << "{\"label\": \"" << grid.label
           << "\", \"algorithms\": " << jsonList(grid.algorithms)
           << ", \"loads\": " << jsonList(grid.loads)
           << ", \"replicas\": " << grid.replicas
           << ", \"topology\": \"" << (c.mesh ? "mesh" : "torus") << " "
           << wormsim::join(radices, "x") << "\", \"traffic\": \""
           << c.traffic << "\", \"hotspot_fraction\": "
           << c.trafficParams.hotspotFraction
           << ", \"local_radius\": " << c.trafficParams.localRadius
           << ", \"length_flits\": " << c.messageLength
           << ", \"buffer_depth\": " << c.flitBufferDepth
           << ", \"injection_limit\": " << c.injectionLimit
           << ", \"step_mode\": \"" << wormsim::stepModeName(c.stepMode)
           << "\", \"route_cache\": " << (c.routeCache ? "true" : "false")
           << ", \"warmup\": " << c.warmupCycles
           << ", \"sample_period\": " << c.samplePeriod
           << ", \"sample_gap\": " << c.sampleGap
           << ", \"samples\": " << c.convergence.maxSamples
           << ", \"max_cycles\": " << c.maxCycles
           << ", \"fault_rate\": " << c.faultRate
           << ", \"fault_kind\": \"" << wormsim::faultKindName(c.faultKind)
           << "\", \"fault_mttr\": " << c.faultMttr
           << ", \"fault_retries\": " << c.faultRetries
           << ", \"detector\": \""
           << wormsim::deadlockDetectorName(c.deadlockDetector)
           << "\", \"deadlock_action\": \""
           << wormsim::deadlockActionName(c.deadlockAction)
           << "\", \"watchdog_interval\": " << c.watchdogInterval
           << ", \"watchdog_patience\": " << c.watchdogPatience << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace perfbench
