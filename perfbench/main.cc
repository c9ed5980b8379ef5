/**
 * @file
 * The figure-sweep benchmark driver.
 *
 *   perfbench --workload uniform_sat --seed 1 --seconds 20 --trace 0
 *
 * --trace 0 measures the end-to-end metrics with tracing off: set-up
 * time, then repeated serial (SimulationRunner::run) and parallel
 * (ParallelSweepRunner::run) passes over the workload's points.
 * --trace 1 runs one untraced serial pass, one parallel pass and the
 * traced replay (replay.hh), and reports the per-layer metrics.
 *
 * Either way every point is checked: no panic or exception, no deadlock
 * for an algorithm that claims freedom, the configured sample count,
 * deliveries, identical digests across repetitions and between serial
 * and parallel runs, and (traced) a replay that reproduces the untraced
 * counts. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "metrics.hh"
#include "replay.hh"
#include "workloads.hh"
#include "wormsim/common/logging.hh"
#include "wormsim/common/string_utils.hh"
#include "wormsim/driver/parallel_sweep.hh"
#include "wormsim/driver/runner.hh"
#include "wormsim/network/network.hh"
#include "wormsim/rng/stream_set.hh"
#include "wormsim/routing/registry.hh"
#include "wormsim/traffic/registry.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||  \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace
{

using namespace perfbench;
using wormsim::SimulationConfig;
using wormsim::SimulationResult;

/** Held-out seed for confirming a claim made on other seeds. */
constexpr std::uint64_t kHeldOutSeed = 4099;

/** Fewest set-up rounds per run; each point's set-up is its fastest. */
constexpr int kSetupRounds = 15;

/** Fewest serial + parallel repetitions a --trace 0 run makes. */
constexpr int kMinReps = 4;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string commit = "unknown";
    std::string dirty = "unknown";
    std::string sourceSha = "unknown";
    std::string digestTable;
};

void
usage()
{
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "                 [--commit SHA] [--dirty 0|1] "
                 "[--source-sha SHA] [--digest-table FILE]\n"
                 "workloads:";
    for (const Workload &w : workloads())
        std::cerr << " " << w.name;
    std::cerr << "\nheld-out seed for confirming claims: " << kHeldOutSeed
              << "\n";
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string val = argv[i + 1];
        long long n = 0;
        bool ok = true;
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            ok = wormsim::parseInt(val, n) && n >= 0;
        else if (key == "--seconds")
            ok = wormsim::parseDouble(val, a.seconds) && a.seconds > 0;
        else if (key == "--trace")
            ok = val == "0" || val == "1";
        else if (key == "--commit")
            a.commit = val;
        else if (key == "--dirty")
            a.dirty = val;
        else if (key == "--source-sha")
            a.sourceSha = val;
        else if (key == "--digest-table")
            a.digestTable = val;
        else
            ok = false;
        if (!ok)
            return false;
        if (key == "--seed")
            a.seed = static_cast<std::uint64_t>(n);
        if (key == "--trace")
            a.trace = val == "1";
    }
    return argc % 2 == 1 && !a.workload.empty();
}

int
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

double
seconds(std::int64_t from_ns, std::int64_t to_ns)
{
    return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/** Per-point verdict, accumulated across every pass of the run. */
struct PointState
{
    std::uint64_t digest = 0;
    bool haveDigest = false;
    std::vector<std::string> failures;

    void
    fail(const std::string &why)
    {
        failures.push_back(why);
    }

    /** Record @p d from one pass; any disagreement fails the point. */
    void
    noteDigest(std::uint64_t d, const char *pass)
    {
        if (!haveDigest) {
            digest = d;
            haveDigest = true;
        } else if (d != digest) {
            fail(std::string("digest differs in ") + pass + " pass");
        }
    }
};

/** Checks on one point's result that hold whatever the host. */
void
checkResult(const SimulationConfig &cfg, const SimulationResult &r,
            PointState &st)
{
    // Under runtime faults the network books every knot after the first
    // fault as fault-induced and aborts it; only a knot it escalates to
    // the recovery action (a victim) is one the algorithm itself formed.
    bool knot = cfg.faultsEnabled()
                    ? r.deadlock.victims > 0
                    : r.deadlockDetected || r.deadlock.detections > 0;
    if (knot && claimsDeadlockFreedom(cfg.algorithm))
        st.fail("deadlock reported for deadlock-free " + cfg.algorithm);
    if (static_cast<std::size_t>(r.numSamples) !=
        cfg.convergence.maxSamples)
        st.fail("ran " + std::to_string(r.numSamples) + " samples");
    if (r.messagesDelivered == 0)
        st.fail("delivered nothing");
}

struct SerialPass
{
    std::vector<SimulationResult> results;
    std::vector<double> pointSeconds; ///< per point; -1 when it threw
};

/** Run every point once through SimulationRunner, timing each. */
SerialPass
serialPass(const std::vector<Point> &points, std::vector<PointState> &state)
{
    SerialPass out;
    out.results.resize(points.size());
    out.pointSeconds.assign(points.size(), -1.0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::int64_t t0 = Tracer::nowNs();
        try {
            wormsim::SimulationRunner runner(points[i].cfg);
            out.results[i] = runner.run();
        } catch (const std::exception &e) {
            state[i].fail(std::string("threw: ") + e.what());
            continue;
        }
        out.pointSeconds[i] = seconds(t0, Tracer::nowNs());
        checkResult(points[i].cfg, out.results[i], state[i]);
        state[i].noteDigest(resultDigest(out.results[i]), "serial");
    }
    return out;
}

struct ParallelPass
{
    double wall = 0.0;
    std::vector<double> pointSeconds; ///< SimulationResult::wallSeconds
    std::vector<std::pair<int, double>> threadWalls; ///< per sweep
};

/**
 * Run every grid through ParallelSweepRunner at @p threads. Grids with a
 * point that already failed are skipped: a panic inside a worker thread
 * would end the process instead of failing the point.
 */
ParallelPass
parallelPass(const Workload &w, std::uint64_t seed, int threads,
             const std::vector<Point> &points,
             std::vector<PointState> &state)
{
    ParallelPass out;
    std::size_t offset = 0;
    for (const Grid &grid : w.grids) {
        std::vector<double> loads = sweepLoads(grid);
        std::size_t n = grid.algorithms.size() * loads.size();
        bool clean = true;
        for (std::size_t i = offset; i < offset + n; ++i)
            clean = clean && state[i].failures.empty();
        if (clean) {
            SimulationConfig base = grid.base;
            base.seed = seed;
            wormsim::ParallelSweepRunner runner(base, threads);
            runner.setProgress(nullptr);
            wormsim::SweepResult sweep = runner.run(grid.algorithms, loads);
            out.wall += sweep.wallSeconds;
            out.threadWalls.push_back(
                {runner.effectiveThreads(n), sweep.wallSeconds});
            for (std::size_t i = offset; i < offset + n; ++i) {
                const SimulationResult &r =
                    sweep.results[points[i].algorithm][points[i].load];
                out.pointSeconds.push_back(r.wallSeconds);
                state[i].noteDigest(resultDigest(r), "parallel");
            }
        }
        offset += n;
    }
    return out;
}

/**
 * Build every point's topology, routing algorithm, traffic pattern and
 * Network through their constructors; returns the seconds each point took.
 */
std::vector<double>
setupRound(const std::vector<Point> &points)
{
    std::vector<double> out;
    out.reserve(points.size());
    for (const Point &p : points) {
        std::int64_t start = Tracer::nowNs();
        {
            const SimulationConfig &c = p.cfg;
            auto topo = c.makeTopology();
            auto algo = wormsim::makeRoutingAlgorithm(c.algorithm);
            auto traffic = wormsim::makeTrafficPattern(c.traffic, *topo,
                                                       c.trafficParams);
            wormsim::StreamSet streams(c.seed);
            wormsim::Network net(*topo, *algo, c.networkParams(),
                                 streams.stream("vc-select"));
        }
        out.push_back(seconds(start, Tracer::nowNs()));
    }
    return out;
}

/** SweepResults per grid from a flat per-point result list. */
std::vector<wormsim::SweepResult>
toSweeps(const Workload &w, const std::vector<Point> &points,
         const std::vector<SimulationResult> &results)
{
    std::vector<wormsim::SweepResult> sweeps(w.grids.size());
    for (std::size_t g = 0; g < w.grids.size(); ++g) {
        sweeps[g].algorithms = w.grids[g].algorithms;
        sweeps[g].loads = sweepLoads(w.grids[g]);
        sweeps[g].results.assign(
            w.grids[g].algorithms.size(),
            std::vector<SimulationResult>(sweeps[g].loads.size()));
    }
    for (std::size_t i = 0; i < points.size(); ++i)
        sweeps[points[i].grid].results[points[i].algorithm][points[i].load] =
            results[i];
    return sweeps;
}

/**
 * Compare the digests against the seed-1 table (workload, point label,
 * hex digest per line). Informational: returns the count that differ or
 * are missing, or -1 when the table does not apply or cannot be read.
 */
int
digestTableMismatches(const Args &a, const std::vector<Point> &points,
                      const std::vector<PointState> &state)
{
    if (a.seed != 1 || a.digestTable.empty())
        return -1;
    std::ifstream in(a.digestTable);
    if (!in)
        return -1;
    std::map<std::string, std::string> table;
    std::string wl, label, hex;
    while (in >> wl >> label >> hex)
        if (wl == a.workload)
            table[label] = hex;
    int differ = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        auto it = table.find(points[i].label);
        if (it == table.end() || !state[i].haveDigest ||
            it->second != hex64(state[i].digest))
            ++differ;
    }
    return differ;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << number(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

double
peakRssMb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/** The end-to-end run (--trace 0). */
std::vector<Metric>
endToEnd(const Args &a, const Workload &w, const std::vector<Point> &points,
         std::vector<PointState> &state, int threads)
{
    int reps = std::max(
        kMinReps, static_cast<int>(std::floor(a.seconds / w.repSeconds)));
    int setupsPerRep = (kSetupRounds + reps - 1) / reps;
    std::vector<double> setupRounds, parallelWalls;
    std::vector<std::vector<double>> perPoint(points.size()),
        perPointSetup(points.size());
    std::vector<SimulationResult> first;
    // Set-up rounds, serial and parallel passes take turns, so that each
    // statistic samples the whole run rather than one stretch of it: the
    // host's slow spells last from a fraction of a second to seconds.
    for (int rep = 0; rep < reps; ++rep) {
        for (int i = 0; i < setupsPerRep; ++i) {
            std::vector<double> round = setupRound(points);
            double total = 0.0;
            for (std::size_t p = 0; p < points.size(); ++p) {
                perPointSetup[p].push_back(round[p]);
                total += round[p];
            }
            setupRounds.push_back(total);
        }
        SerialPass pass = serialPass(points, state);
        for (std::size_t i = 0; i < points.size(); ++i)
            if (pass.pointSeconds[i] >= 0.0)
                perPoint[i].push_back(pass.pointSeconds[i]);
        if (rep == 0)
            first = std::move(pass.results);
        parallelWalls.push_back(
            parallelPass(w, a.seed, threads, points, state).wall);
    }

    // Contention from other tenants of a shared host only ever adds
    // time. A point's cost, to simulate or to set up, is therefore its
    // fastest timing; the median and the tail are taken over the points'
    // costs, so every point counts once.
    double wallS = 0.0, setupS = 0.0;
    std::vector<double> fastest(points.size(), 0.0), costs;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::vector<double> &s = perPointSetup[i];
        setupS += *std::min_element(s.begin(), s.end());
        const std::vector<double> &t = perPoint[i];
        if (t.empty())
            continue;
        fastest[i] = *std::min_element(t.begin(), t.end());
        wallS += fastest[i];
        costs.push_back(fastest[i]);
    }
    Tail tail = tailPercentile(costs);
    double cycles = 0.0;
    for (const SimulationResult &r : first)
        cycles += static_cast<double>(r.cyclesSimulated);
    std::vector<AnchorValue> anchors =
        evaluateAnchors(w, toSweeps(w, points, first));

    std::cout << "e2e: " << reps << " serial + " << reps
              << " parallel passes at " << threads << " threads, "
              << setupRounds.size() << " set-up rounds\n"
              << "parallel pass walls (s):";
    for (double s : parallelWalls)
        std::cout << " " << wormsim::formatFixed(s, 3);
    std::cout << "\nset-up rounds, all points (s):";
    for (double s : setupRounds)
        std::cout << " " << wormsim::formatFixed(s, 4);
    std::cout << "\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SimulationResult &r = first[i];
        std::cout << "point " << points[i].label << ": fastest_ms "
                  << wormsim::formatFixed(fastest[i] * 1e3, 2)
                  << ", median_ms "
                  << wormsim::formatFixed(median(perPoint[i]) * 1e3, 2)
                  << ", cycles " << r.cyclesSimulated << ", latency "
                  << wormsim::formatFixed(r.avgLatency, 2) << ", util "
                  << wormsim::formatFixed(r.achievedUtilization, 4)
                  << ", aborted " << r.resilience.aborted
                  << ", detections " << r.deadlock.detections << "\n";
    }
    std::cout << "point_ms_tail: p"
              << wormsim::formatFixed(tail.percentile, 1) << " of "
              << tail.samples << " points (fastest timing each), "
              << kTailBeyond << " points beyond it\n"
              << "anchors (paper -> measured):";
    for (std::size_t i = 0; i < anchors.size(); ++i)
        std::cout << " " << w.anchors[i].algorithm << " "
                  << wormsim::formatFixed(anchors[i].paper, 3) << "->"
                  << wormsim::formatFixed(anchors[i].measured, 3);
    std::cout << "\n";

    return {
        {"wall_s", wallS, "s"},
        {"wall_s_par",
         *std::min_element(parallelWalls.begin(), parallelWalls.end()), "s"},
        {"ns_per_cycle", cycles > 0 ? wallS * 1e9 / cycles : 0.0, "ns"},
        {"point_ms_p50", median(costs) * 1e3, "ms"},
        {"point_ms_tail", tail.value * 1e3, "ms"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"anchor_err", anchorError(anchors), "frac"},
    };
}

/** The traced run (--trace 1). */
std::vector<Metric>
traced(const Args &a, const Workload &w, const std::vector<Point> &points,
       std::vector<PointState> &state, int threads)
{
    SerialPass untraced = serialPass(points, state);
    ParallelPass par = parallelPass(w, a.seed, threads, points, state);

    Tracer all;
    std::vector<std::int64_t> stepNs;
    double replayWall = 0.0, untracedWall = 0.0;
    double activeLinks = 0.0, waiting = 0.0, scanNs = 0.0;
    std::uint64_t flits = 0, inFlightPeak = 0, events = 0, refused = 0;
    std::uint64_t scans = 0, detections = 0, victims = 0;
    std::uint64_t aborts = 0, retries = 0, retryOk = 0, retryRefused = 0;
    std::uint64_t keyedAttempts = 0, keyedGrants = 0, initCalls = 0;
    std::uint64_t grants = 0;
    std::set<std::string> hidden;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!state[i].failures.empty())
            continue;
        const SimulationResult &u = untraced.results[i];
        Tracer t;
        ReplayResult r;
        try {
            r = replayPoint(points[i].cfg, t);
        } catch (const std::exception &e) {
            state[i].fail(std::string("replay threw: ") + e.what());
            continue;
        }
        if (r.cyclesSimulated != u.cyclesSimulated ||
            r.numSamples != u.numSamples ||
            r.delivered != u.messagesDelivered ||
            r.dropped != u.messagesDropped || r.avgLatency != u.avgLatency) {
            state[i].fail("traced replay disagrees with the untraced run");
            continue;
        }
        all.merge(t);
        replayWall += r.wallSeconds;
        untracedWall += untraced.pointSeconds[i];
        stepNs.insert(stepNs.end(), r.stepNs.begin(), r.stepNs.end());
        flits += r.flits;
        activeLinks += r.activeLinksSum;
        waiting += r.waitingHeadersSum;
        inFlightPeak = std::max(inFlightPeak, r.inFlightPeak);
        events += r.simEvents;
        refused += r.offersRefused;
        scans += r.scans;
        detections += r.detections;
        victims += r.victims;
        scanNs += scanExcessNs(r.stepNs, r.stepScanned);
        if (r.faultsCollected) {
            aborts += r.resilience.aborted;
            retries += r.resilience.retriesScheduled;
            retryOk += r.resilience.retriesInjected;
            retryRefused += r.resilience.retriesRefused;
        }
        initCalls += t[Layer::RoutingInit].count - r.setupInits;
        grants += t[Layer::RoutingOnHop].count;
        if (r.attemptsVisible) {
            keyedAttempts += r.allocAttempts;
            keyedGrants += t[Layer::RoutingOnHop].count;
        } else {
            hidden.insert(points[i].cfg.algorithm);
        }
    }
    std::cout << "layer spans (traced replay, summed over points):\n";
    for (std::size_t l = 0; l < kNumLayers; ++l) {
        const LayerTotals &t = all[static_cast<Layer>(l)];
        std::cout << "  " << layerName(static_cast<Layer>(l))
                  << ": count " << t.count << ", total_ns " << t.totalNs
                  << ", self_ns " << t.selfNs << "\n";
    }
    std::cout << "routing.alloc_attempts covers the key-dispatched "
                 "algorithms only; not visible through the routing "
                 "interface for:";
    for (const std::string &h : hidden)
        std::cout << " " << h;
    std::cout << "\n";

    auto ns = [&](Layer l) { return static_cast<double>(all[l].totalNs); };
    auto count = [&](Layer l) { return static_cast<double>(all[l].count); };
    double steps = count(Layer::Step);
    double offers = count(Layer::Offer);
    double retryOffers = static_cast<double>(retryOk + retryRefused);
    return {
        {"network.steps", steps, "count"},
        {"network.step_ns", ns(Layer::Step), "ns"},
        {"network.step_ns_p50",
         static_cast<double>(quantile(stepNs, 0.50)), "ns"},
        {"network.step_ns_p99",
         static_cast<double>(quantile(stepNs, 0.99)), "ns"},
        {"network.flits", static_cast<double>(flits), "count"},
        {"network.step_ns_per_flit",
         flits ? ns(Layer::Step) / static_cast<double>(flits) : 0.0,
         "ns/flit"},
        {"network.active_links_mean", steps ? activeLinks / steps : 0.0,
         "links"},
        {"network.waiting_headers_mean", steps ? waiting / steps : 0.0,
         "headers"},
        {"routing.grants", static_cast<double>(grants), "count"},
        {"routing.alloc_attempts", static_cast<double>(keyedAttempts),
         "count"},
        {"routing.attempts_per_grant",
         keyedGrants ? static_cast<double>(keyedAttempts) /
                           static_cast<double>(keyedGrants)
                     : 0.0,
         "ratio"},
        {"driver.arrivals", count(Layer::Arrival), "count"},
        {"driver.arrival_ns", ns(Layer::Arrival), "ns"},
        {"rng.stream_lookup_ns", ns(Layer::StreamLookup), "ns"},
        {"traffic.pick_dest_ns", ns(Layer::PickDest), "ns"},
        {"sim.events", static_cast<double>(events), "count"},
        {"sim.dispatch_ns", static_cast<double>(all[Layer::SimRun].selfNs),
         "ns"},
        {"network.offers", offers, "count"},
        {"network.offer_ns", ns(Layer::Offer), "ns"},
        {"network.refused_frac",
         offers ? static_cast<double>(refused) / offers : 0.0, "frac"},
        {"routing.init_calls", static_cast<double>(initCalls), "count"},
        {"stats.deliveries", count(Layer::Delivery), "count"},
        {"stats.delivery_ns", ns(Layer::Delivery), "ns"},
        {"deadlock.scans", static_cast<double>(scans), "count"},
        {"deadlock.scan_ns", scanNs, "ns"},
        {"deadlock.detections", static_cast<double>(detections), "count"},
        {"deadlock.victims", static_cast<double>(victims), "count"},
        {"fault.events", count(Layer::FaultEvent), "count"},
        {"fault.event_ns", ns(Layer::FaultEvent), "ns"},
        {"fault.aborts", static_cast<double>(aborts), "count"},
        {"fault.retries", static_cast<double>(retries), "count"},
        {"fault.retry_refused_frac",
         retryOffers ? static_cast<double>(retryRefused) / retryOffers
                     : 0.0,
         "frac"},
        {"network.build_ms", ns(Layer::NetworkBuild) * 1e-6, "ms"},
        {"routing.candidates_calls", count(Layer::RoutingCandidates),
         "count"},
        {"network.in_flight_peak", static_cast<double>(inFlightPeak),
         "msgs"},
        {"driver.parallel_efficiency",
         parallelEfficiency(par.pointSeconds, par.threadWalls), "frac"},
        {"obs.trace_overhead_frac",
         untracedWall > 0 ? replayWall / untracedWall - 1.0 : 0.0,
         "frac"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        usage();
        return 2;
    }
    const Workload *w = findWorkload(a.workload);
    if (w == nullptr) {
        std::cerr << "perfbench: unknown workload '" << a.workload << "'\n";
        usage();
        return 2;
    }
    if (PERFBENCH_SANITIZED) {
        std::cerr << "perfbench: refusing to time a sanitizer build; its "
                     "numbers are not comparable\n";
        return 3;
    }
    // No stderr I/O inside timed regions, and a panic fails its point
    // instead of ending the process.
    wormsim::setLoggingQuiet(true);
    wormsim::setLoggingThrows(true);

    int nproc = cpuCount();
    int threads = std::min(4, nproc);
    std::cout << "provenance: {\"commit\": \"" << a.commit
              << "\", \"dirty\": \"" << a.dirty << "\", \"source_sha256\": \""
              << a.sourceSha << "\", \"build_type\": \""
              << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
              << __VERSION__ << "\", \"sanitizer\": false, \"nproc\": "
              << nproc << ", \"threads_par\": " << threads
              << ", \"seed\": " << a.seed << ", \"held_out_seed\": "
              << kHeldOutSeed << ", \"seconds\": " << a.seconds
              << ", \"trace\": " << (a.trace ? 1 : 0)
              << ", \"config\": " << describeJson(*w) << "}\n";

    std::vector<Point> points = expandPoints(*w, a.seed);
    std::vector<PointState> state(points.size());
    std::vector<Metric> metrics;
    try {
        metrics = a.trace ? traced(a, *w, points, state, threads)
                          : endToEnd(a, *w, points, state, threads);
    } catch (const std::exception &e) {
        // Failures outside a point (set-up, anchors) leave no result.
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    std::size_t failed = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::cout << "digest " << w->name << " " << points[i].label << " "
                  << (state[i].haveDigest ? hex64(state[i].digest)
                                          : std::string("-"))
                  << "\n";
        if (!state[i].failures.empty()) {
            ++failed;
            for (const std::string &f : state[i].failures)
                std::cout << "FAILED " << points[i].label << ": " << f
                          << "\n";
        }
    }
    int differ = digestTableMismatches(a, points, state);
    std::cout << "seed-1 digest table: "
              << (differ < 0 ? std::string("not applicable")
                             : std::to_string(differ) + " of " +
                                   std::to_string(points.size()) +
                                   " points differ")
              << "\n"
              << "fail_frac: " << failed << "/" << points.size() << "\n";
    // fail_frac reads 0 on a good run, so it cannot be an end-to-end
    // metric (those are gated as a share of their median); the traced
    // run reports it beside the ungated per-layer metrics.
    if (a.trace)
        metrics.push_back({"fail_frac",
                           static_cast<double>(failed) /
                               static_cast<double>(points.size()),
                           "frac"});
    for (const Metric &m : metrics)
        std::cout << "metric " << m.name << " = " << number(m.value) << " "
                  << m.unit << "\n";
    printResult(failed == 0, points.size(), failed, metrics);
    return 0;
}
