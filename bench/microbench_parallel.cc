/**
 * @file
 * Wall-clock benchmark of the parallel experiment engine: runs the
 * quick Figure 1 study (fixed-capacity, traceScale 0.25) serially
 * (jobs=1) and at increasing job counts, reports the wall-clock time,
 * speedup, and memoization counters for each, and cross-checks that
 * every configuration produced identical study results.
 *
 *   microbench_parallel [--jobs N] [--scale S] [--quick]
 *
 * --jobs caps the largest configuration measured (default:
 * defaultJobs(), i.e. NVMCACHE_JOBS or the hardware thread count);
 * --scale overrides the trace scale; --quick drops it to 0.05 for a
 * smoke run.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "core/study.hh"
#include "util/parallel.hh"

using namespace nvmcache;
using namespace nvmcache::bench;

namespace {

struct Measurement
{
    unsigned jobs = 1;
    double seconds = 0.0;
    RunnerStats stats;
    FigureStudy study;
};

Measurement
measure(unsigned jobs, double scale)
{
    // Fresh runner per configuration: an empty memo, so each timing
    // pays for every simulation exactly once.
    Measurement m;
    m.jobs = jobs;
    ExperimentRunner runner;
    runner.setJobs(jobs);
    const auto start = std::chrono::steady_clock::now();
    m.study = runFigureStudy(
        {.mode = CapacityMode::FixedCapacity, .traceScale = scale},
        runner);
    const auto stop = std::chrono::steady_clock::now();
    m.seconds = std::chrono::duration<double>(stop - start).count();
    m.stats = runner.runnerStats();
    return m;
}

bool
sameResults(const std::vector<TechSweep> &a,
            const std::vector<TechSweep> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].results.size() != b[i].results.size())
            return false;
        for (std::size_t j = 0; j < a[i].results.size(); ++j) {
            const RunResult &ra = a[i].results[j];
            const RunResult &rb = b[i].results[j];
            // Bit-identical, not approximately equal: the engine
            // promises jobs has no effect on any result.
            if (ra.speedup != rb.speedup ||
                ra.normEnergy != rb.normEnergy ||
                ra.normEd2p != rb.normEd2p ||
                ra.stats.seconds != rb.stats.seconds ||
                ra.stats.llcEnergy() != rb.stats.llcEnergy())
                return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = -1.0; // unset: --quick picks it
    const auto opts =
        HarnessOptions::parse(argc, argv, [&](ArgParser &parser) {
            scale = parser.num("--scale", scale);
        });
    if (scale < 0.0)
        scale = opts.quick ? 0.05 : 0.25;
    unsigned max_jobs = opts.jobs ? opts.jobs : defaultJobs();

    banner("Parallel experiment engine: quick Fig 1 sweep "
           "(fixed-capacity, traceScale " + std::to_string(scale) +
           ")");
    std::printf("hardware threads: %u, max jobs measured: %u\n\n",
                std::max(1u, std::thread::hardware_concurrency()),
                max_jobs);

    std::vector<unsigned> configs{1};
    for (unsigned j = 2; j < max_jobs; j *= 2)
        configs.push_back(j);
    if (max_jobs > 1)
        configs.push_back(max_jobs);

    std::printf("%-8s %-12s %-10s %-12s %-10s\n", "jobs", "wall[s]",
                "speedup", "simulations", "memo hits");
    Measurement serial;
    bool identical = true;
    for (unsigned jobs : configs) {
        Measurement m = measure(jobs, scale);
        if (jobs == 1)
            serial = m;
        else
            identical = identical &&
                        sameResults(serial.study.singleThreaded,
                                    m.study.singleThreaded) &&
                        sameResults(serial.study.multiThreaded,
                                    m.study.multiThreaded);
        std::printf("%-8u %-12.2f %-10.2f %-12llu %-10llu\n", m.jobs,
                    m.seconds, serial.seconds / m.seconds,
                    (unsigned long long)m.stats.simulations,
                    (unsigned long long)m.stats.memoHits);
    }

    std::printf("\nresults bit-identical across job counts: %s\n",
                identical ? "yes" : "NO — DETERMINISM BUG");
    opts.writeStats();
    return identical ? 0 : 1;
}
