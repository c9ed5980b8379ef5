/**
 * @file
 * The benchmark's named workloads: each is one or more (algorithm x load)
 * grids of simulation points plus the paper anchors its results are
 * scored against. README.md records why each workload exists.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hh"
#include "wormsim/driver/config.hh"
#include "wormsim/driver/sweep.hh"

namespace perfbench
{

/** One (algorithm x load) grid sharing a base configuration. */
struct Grid
{
    std::string label; ///< e.g. "fig3_uniform"
    wormsim::SimulationConfig base;
    std::vector<std::string> algorithms;
    std::vector<double> loads;
    /**
     * Independent runs of each (algorithm, load) point. The sweep repeats
     * each load this many times in a row, so every replica gets its own
     * ParallelSweepRunner seed; anchors average over the replicas.
     */
    std::size_t replicas = 1;
};

/** The grid's load list as swept: each load repeated `replicas` times. */
std::vector<double> sweepLoads(const Grid &grid);

/** What an anchor reads from its grid's results. */
enum class AnchorKind
{
    PeakUtilization, ///< max achieved utilization over the grid's loads
    LatencyAt,       ///< average latency at one load
    UtilizationAt,   ///< achieved utilization at one load
};

/** One paper reference value coded in bench/fig{3,4,5}_*.cc. */
struct Anchor
{
    std::size_t grid = 0;
    std::string algorithm;
    AnchorKind kind = AnchorKind::PeakUtilization;
    double load = 0.0; ///< LatencyAt / UtilizationAt only
    double paper = 0.0;
};

/** A named workload. */
struct Workload
{
    std::string name;
    std::vector<Grid> grids;
    std::vector<Anchor> anchors;
    /**
     * Host seconds one serial + parallel repetition took on the reference
     * 4-core host; --seconds / this sets the repetition count, so a run's
     * work is fixed by --seconds and never by how fast the code runs.
     */
    double repSeconds = 1.0;
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** The workload called @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** One simulation point of a workload, with its derived seed. */
struct Point
{
    std::size_t grid = 0;
    std::size_t algorithm = 0; ///< index into the grid's algorithms
    std::size_t load = 0;      ///< index into sweepLoads(grid)
    wormsim::SimulationConfig cfg;
    std::string label; ///< "grid/algorithm@load", plus "#replica"
};

/**
 * Flatten @p w into points seeded exactly as ParallelSweepRunner seeds
 * them from @p seed, so serial and parallel runs of a point agree.
 */
std::vector<Point> expandPoints(const Workload &w, std::uint64_t seed);

/** Whether @p algorithm claims deadlock freedom (all but ffa). */
bool claimsDeadlockFreedom(const std::string &algorithm);

/**
 * Paper-vs-measured values of @p w's anchors, read from one SweepResult
 * per grid (in grid order).
 */
std::vector<AnchorValue>
evaluateAnchors(const Workload &w,
                const std::vector<wormsim::SweepResult> &sweeps);

/** The workload's grids and windows as one JSON object (provenance). */
std::string describeJson(const Workload &w);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
