/**
 * @file
 * Tests of the replay kernel (sim/replay.cc): the lane kernel against
 * a live System::run (real L1/L2 walks, per-access scheduling) at 1,
 * 2, 4 and 8 lanes — with unequal lanes, fault injection, every
 * write-timing policy and per-core LLC counters — and through the
 * experiment engine at 1 and 8 jobs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/study.hh"
#include "nvsim/published.hh"
#include "util/metrics.hh"
#include "workload/recorded_trace.hh"
#include "workload/suite.hh"

using namespace nvmcache;

namespace {

/** A trimmed copy of a suite workload to keep runs fast. */
BenchmarkSpec
trimmed(const std::string &name, std::uint64_t accesses)
{
    BenchmarkSpec spec = benchmark(name);
    spec.gen.totalAccesses = accesses;
    return spec;
}

/** Every field of both SimStats exactly equal (== on doubles). */
void
expectSimStatsIdentical(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.llc.demandReads, b.llc.demandReads);
    EXPECT_EQ(a.llc.demandHits, b.llc.demandHits);
    EXPECT_EQ(a.llc.demandMisses, b.llc.demandMisses);
    EXPECT_EQ(a.llc.fills, b.llc.fills);
    EXPECT_EQ(a.llc.writebacksIn, b.llc.writebacksIn);
    EXPECT_EQ(a.llc.dirtyEvictions, b.llc.dirtyEvictions);
    EXPECT_EQ(a.llc.writeBypasses, b.llc.writeBypasses);
    EXPECT_EQ(a.llc.readWaitCycles, b.llc.readWaitCycles);
    EXPECT_EQ(a.llc.writeStallCycles, b.llc.writeStallCycles);
    EXPECT_EQ(a.llc.hitEnergy, b.llc.hitEnergy);
    EXPECT_EQ(a.llc.missEnergy, b.llc.missEnergy);
    EXPECT_EQ(a.llc.writeEnergy, b.llc.writeEnergy);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.dramQueueCycles, b.dramQueueCycles);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.coreCycles, b.coreCycles);
    EXPECT_EQ(a.llcLeakageEnergy, b.llcLeakageEnergy);
    EXPECT_EQ(a.llcDynamicEnergy, b.llcDynamicEnergy);
    EXPECT_TRUE(a.detail == b.detail);
}

/**
 * Replay lanes with their private-level recording. Lane i is the i-th
 * thread across @p traces in order, so lanes may come from different
 * recordings (of different lengths).
 */
struct Recording
{
    std::vector<std::shared_ptr<const RecordedTrace>> traces;
    std::shared_ptr<const PrivateTrace> priv;

    std::vector<TraceCursor>
    cursors() const
    {
        std::vector<TraceCursor> out;
        for (const auto &t : traces)
            for (const TraceCursor &c : t->cursors())
                out.push_back(c);
        return out;
    }

    std::uint32_t lanes() const { return priv->threads(); }
};

Recording
recordLanes(std::vector<std::shared_ptr<const RecordedTrace>> traces,
            const SystemConfig &base)
{
    Recording r;
    r.traces = std::move(traces);
    auto cursors = r.cursors();
    std::vector<BatchSource *> srcs;
    for (TraceCursor &c : cursors)
        srcs.push_back(&c);
    r.priv = PrivateTrace::record(srcs, base.core);
    return r;
}

Recording
makeRecording(const BenchmarkSpec &spec, const SystemConfig &base,
              std::uint32_t threads = 0)
{
    if (threads == 0)
        threads = spec.defaultThreads;
    return recordLanes({RecordedTrace::record(spec.gen, threads)}, base);
}

/** One replay run through System::runReplay. */
SimStats
runReplay(const Recording &rec, const SystemConfig &base,
          const LlcModel &llc)
{
    SystemConfig cfg = base;
    cfg.numCores = rec.lanes();
    System system(cfg, llc);
    auto cursors = rec.cursors();
    std::vector<ReplaySource *> ptrs;
    for (TraceCursor &c : cursors)
        ptrs.push_back(&c);
    return system.runReplay(ptrs, *rec.priv);
}

/**
 * The oracle: a live run of the same lanes, walking the private
 * levels access by access under the per-access scheduler.
 */
SimStats
runLive(const Recording &rec, const SystemConfig &base,
        const LlcModel &llc)
{
    SystemConfig cfg = base;
    cfg.numCores = rec.lanes();
    System system(cfg, llc);
    auto cursors = rec.cursors();
    std::vector<BatchSource *> ptrs;
    for (TraceCursor &c : cursors)
        ptrs.push_back(&c);
    return system.run(ptrs);
}

double
globalCounter(const std::string &name)
{
    return double(MetricsRegistry::global().counter(name).get());
}

double
detailScalar(const SimStats &s, const std::string &path)
{
    auto it = s.detail.entries.find(path);
    return it == s.detail.entries.end() ? -1.0 : it->second.scalar;
}

} // namespace

TEST(LaneReplay, FaultSweepBitIdentical)
{
    // With the fault layer injecting aggressively (retries, scrubs,
    // wear retirements), a single-lane replay must reproduce the
    // live run's per-line draw and wear state: every llc.faults.*
    // counter and distribution rides in the detail tree.
    const BenchmarkSpec spec = trimmed("lbm", 120'000);
    SystemConfig base;
    base.llc.faults.enabled = true;
    base.llc.faults.berScale = 64.0;
    base.llc.faults.wearScale = 1e6;
    const Recording rec = makeRecording(spec, base);
    const LlcModel &jan =
        publishedLlcModel("Jan", CapacityMode::FixedCapacity);

    const SimStats live = runLive(rec, base, jan);
    ASSERT_GT(detailScalar(live, "sim.llc.faults.writeRetries"),
              0.0); // the config actually injects
    expectSimStatsIdentical(live, runReplay(rec, base, jan));
}

TEST(LaneReplay, WritePoliciesAndBypassBitIdentical)
{
    // The non-default write-timing policies exercise accountWrite's
    // order-sensitive bank state, and bypassWritebackMiss exercises
    // the probe-miss forwarding path; a single-lane replay must
    // reproduce all of it.
    const BenchmarkSpec spec = trimmed("lbm", 80'000);
    const LlcModel &jan =
        publishedLlcModel("Jan", CapacityMode::FixedCapacity);

    SystemConfig variants[3];
    variants[0].llc.writePolicy = WritePolicy::BankContention;
    variants[1].llc.writePolicy = WritePolicy::Blocking;
    variants[2].llc.bypassWritebackMiss = true;

    for (const SystemConfig &base : variants) {
        const Recording rec = makeRecording(spec, base);
        expectSimStatsIdentical(runLive(rec, base, jan),
                                runReplay(rec, base, jan));
    }
}

TEST(LaneReplay, RunnerJobsBitIdentical)
{
    // The full experiment engine: a tech sweep of a single-threaded
    // workload at 8 jobs, every result compared against the serial
    // reference. jobs threads run whole simulations concurrently and
    // may not leak into results.
    const BenchmarkSpec spec = trimmed("tonto", 60'000);

    ExperimentRunner reference;
    reference.setJobs(1);
    const TechSweep want =
        reference.sweepTechs(spec, CapacityMode::FixedCapacity);

    ExperimentRunner runner;
    runner.setJobs(8);
    const TechSweep got =
        runner.sweepTechs(spec, CapacityMode::FixedCapacity);
    ASSERT_EQ(want.results.size(), got.results.size());
    for (std::size_t i = 0; i < want.results.size(); ++i) {
        EXPECT_EQ(want.results[i].tech, got.results[i].tech);
        EXPECT_EQ(want.results[i].speedup, got.results[i].speedup);
        EXPECT_EQ(want.results[i].normEnergy,
                  got.results[i].normEnergy);
        EXPECT_EQ(want.results[i].normEd2p, got.results[i].normEd2p);
        expectSimStatsIdentical(want.results[i].stats,
                                got.results[i].stats);
    }
}

TEST(LaneReplay, ReliabilityStudyJobsInvariant)
{
    // The reliability grid drives fault-heavy sweeps through the
    // study layer; its report must not depend on the jobs knob.
    ReliabilityConfig serialCfg;
    serialCfg.workload = "lbm";
    serialCfg.traceScale = 0.02;
    serialCfg.berScales = {64.0};
    serialCfg.wearLevelingFactors = {0.5};
    serialCfg.wearScale = 1e6;
    serialCfg.jobs = 1;
    ReliabilityConfig parallelCfg = serialCfg;
    parallelCfg.jobs = 8;

    const ReliabilityStudy a = runReliabilityStudy(serialCfg);
    const ReliabilityStudy b = runReliabilityStudy(parallelCfg);

    ASSERT_EQ(a.points.size(), b.points.size());
    bool sawFaults = false;
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const ReliabilityPoint &pa = a.points[i];
        const ReliabilityPoint &pb = b.points[i];
        EXPECT_EQ(pa.tech, pb.tech);
        EXPECT_EQ(pa.writeRetries, pb.writeRetries);
        EXPECT_EQ(pa.writeScrubs, pb.writeScrubs);
        EXPECT_EQ(pa.readScrubs, pb.readScrubs);
        EXPECT_EQ(pa.uncorrectable, pb.uncorrectable);
        EXPECT_EQ(pa.retiredLines, pb.retiredLines);
        EXPECT_EQ(pa.speedup, pb.speedup);
        EXPECT_TRUE(pa.stats.detail == pb.stats.detail) << pa.tech;
        sawFaults = sawFaults || pa.writeRetries > 0;
    }
    EXPECT_TRUE(sawFaults);
    EXPECT_TRUE(aggregateSimStats(a) == aggregateSimStats(b));
}

TEST(LaneReplay, MatchesLiveRunAtEveryLaneCount)
{
    // The lane kernel against the live per-access scheduler on the
    // same multi-threaded workload at 1, 2, 4 and 8 lanes: every
    // SimStats field, including the full detail tree, bit for bit.
    const BenchmarkSpec spec = trimmed("vips", 160'000);
    const SystemConfig base;
    const LlcModel &jan =
        publishedLlcModel("Jan", CapacityMode::FixedCapacity);
    for (std::uint32_t lanes : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("lanes=" + std::to_string(lanes));
        const Recording rec = makeRecording(spec, base, lanes);
        ASSERT_EQ(rec.lanes(), lanes);
        expectSimStatsIdentical(runLive(rec, base, jan),
                                runReplay(rec, base, jan));
    }
}

TEST(LaneReplay, UnequalLanesMatchLiveRun)
{
    // Lanes of very different lengths and traffic drain at different
    // times, so the heap retires lanes while others still contend.
    const SystemConfig base;
    std::vector<std::shared_ptr<const RecordedTrace>> traces;
    for (const char *name : {"lbm", "tonto", "milc", "gobmk"}) {
        BenchmarkSpec spec = trimmed(name, 10'000 + 25'000 *
                                               traces.size());
        traces.push_back(RecordedTrace::record(spec.gen, 1));
    }
    const Recording rec = recordLanes(std::move(traces), base);
    ASSERT_EQ(rec.lanes(), 4u);
    const LlcModel &jan =
        publishedLlcModel("Jan", CapacityMode::FixedCapacity);
    const SimStats live = runLive(rec, base, jan);
    EXPECT_LT(live.coreCycles.front(), live.coreCycles.back());
    expectSimStatsIdentical(live, runReplay(rec, base, jan));
}

TEST(LaneReplay, FaultInjectionMatchesLiveRun)
{
    const BenchmarkSpec spec = trimmed("ft", 120'000);
    SystemConfig base;
    base.llc.faults.enabled = true;
    base.llc.faults.berScale = 64.0;
    base.llc.faults.wearScale = 1e6;
    const LlcModel &jan =
        publishedLlcModel("Jan", CapacityMode::FixedCapacity);
    for (std::uint32_t lanes : {2u, 4u}) {
        SCOPED_TRACE("lanes=" + std::to_string(lanes));
        const Recording rec = makeRecording(spec, base, lanes);
        const SimStats live = runLive(rec, base, jan);
        ASSERT_GT(detailScalar(live, "sim.llc.faults.writeRetries"),
                  0.0); // the config actually injects
        expectSimStatsIdentical(live, runReplay(rec, base, jan));
    }
}

TEST(LaneReplay, WritePoliciesAndBypassMatchLiveRun)
{
    const BenchmarkSpec spec = trimmed("vips", 100'000);
    const LlcModel &jan =
        publishedLlcModel("Jan", CapacityMode::FixedCapacity);

    SystemConfig variants[3];
    variants[0].llc.writePolicy = WritePolicy::BankContention;
    variants[1].llc.writePolicy = WritePolicy::Blocking;
    variants[2].llc.bypassWritebackMiss = true;

    for (const SystemConfig &base : variants) {
        const Recording rec = makeRecording(spec, base, 4);
        expectSimStatsIdentical(runLive(rec, base, jan),
                                runReplay(rec, base, jan));
    }
}

TEST(LaneReplay, PerCoreLlcStatsSumToGlobalCounters)
{
    // The sim.tenant<i>.* split: identical to the live run's, and the
    // tenants add up to the global LLC counters — at one lane as
    // well as at four.
    const BenchmarkSpec spec = trimmed("vips", 100'000);
    SystemConfig base;
    base.perCoreLlcStats = true;
    const LlcModel &jan =
        publishedLlcModel("Jan", CapacityMode::FixedCapacity);
    for (std::uint32_t lanes : {1u, 4u}) {
        const Recording rec = makeRecording(spec, base, lanes);
        SCOPED_TRACE("lanes=" + std::to_string(lanes));
        const SimStats got = runReplay(rec, base, jan);
        expectSimStatsIdentical(runLive(rec, base, jan), got);
        double reads = 0, hits = 0, misses = 0, wbs = 0;
        for (std::uint32_t i = 0; i < lanes; ++i) {
            const std::string t =
                "sim.tenant" + std::to_string(i) + ".llc.";
            reads += detailScalar(got, t + "demandReads");
            hits += detailScalar(got, t + "demandHits");
            misses += detailScalar(got, t + "demandMisses");
            wbs += detailScalar(got, t + "writebacks");
        }
        EXPECT_GT(reads, 0.0);
        EXPECT_EQ(reads, double(got.llc.demandReads));
        EXPECT_EQ(hits, double(got.llc.demandHits));
        EXPECT_EQ(misses, double(got.llc.demandMisses));
        EXPECT_EQ(wbs, double(got.llc.writebacksIn));
    }
}

TEST(LaneReplay, CountsEveryRunByLaneCount)
{
    // Single- and multi-source replays alike feed the global replay
    // throughput counters, with runs split by lane count.
    const BenchmarkSpec spec = trimmed("vips", 40'000);
    const SystemConfig base;
    const LlcModel &jan =
        publishedLlcModel("Jan", CapacityMode::FixedCapacity);
    for (std::uint32_t lanes : {1u, 4u}) {
        const Recording rec = makeRecording(spec, base, lanes);
        const std::string runs =
            "sim.replay.runs.lanes" + std::to_string(lanes);
        const double runsBefore = globalCounter(runs);
        const double accessesBefore =
            globalCounter("sim.replay.accesses");
        runReplay(rec, base, jan);
        EXPECT_EQ(globalCounter(runs), runsBefore + 1.0);
        EXPECT_EQ(globalCounter("sim.replay.accesses"),
                  accessesBefore + 40'000.0);
        EXPECT_GT(MetricsRegistry::global()
                      .gauge("sim.replay.accessesPerSecond")
                      .get(),
                  0.0);
    }
}

TEST(LaneReplayDeathTest, MoreLanesThanCoresIsFatal)
{
    const Recording rec =
        makeRecording(trimmed("vips", 8'000), SystemConfig(), 4);
    SystemConfig cfg;
    cfg.numCores = 2;
    System system(cfg, publishedLlcModel("Jan",
                                         CapacityMode::FixedCapacity));
    auto cursors = rec.cursors();
    std::vector<ReplaySource *> ptrs;
    for (TraceCursor &c : cursors)
        ptrs.push_back(&c);
    EXPECT_DEATH(system.runReplay(ptrs, *rec.priv), "more threads");
}

TEST(LaneReplayDeathTest, LaneCountMismatchIsFatal)
{
    // A recording of two lanes cannot drive four sources.
    const SystemConfig base;
    const Recording four =
        makeRecording(trimmed("vips", 8'000), base, 4);
    const Recording two =
        makeRecording(trimmed("vips", 8'000), base, 2);
    SystemConfig cfg;
    cfg.numCores = 4;
    System system(cfg, publishedLlcModel("Jan",
                                         CapacityMode::FixedCapacity));
    auto cursors = four.cursors();
    std::vector<ReplaySource *> ptrs;
    for (TraceCursor &c : cursors)
        ptrs.push_back(&c);
    EXPECT_DEATH(system.runReplay(ptrs, *two.priv), "2 lanes for 4");
}

TEST(LaneReplay, RunnerJobsBitIdenticalOnMultiThreadedWorkload)
{
    // Through the experiment engine: a multi-threaded tech sweep at
    // jobs 1 and 8 must agree bit for bit.
    const BenchmarkSpec spec = trimmed("vips", 60'000);
    TechSweep sweeps[2];
    const unsigned jobs[2] = {1u, 8u};
    for (int k = 0; k < 2; ++k) {
        ExperimentRunner runner;
        runner.setJobs(jobs[k]);
        sweeps[k] = runner.sweepTechs(spec, CapacityMode::FixedCapacity, 4);
    }
    ASSERT_EQ(sweeps[0].results.size(), sweeps[1].results.size());
    for (std::size_t i = 0; i < sweeps[0].results.size(); ++i) {
        SCOPED_TRACE(sweeps[0].results[i].tech);
        EXPECT_EQ(sweeps[0].results[i].speedup,
                  sweeps[1].results[i].speedup);
        expectSimStatsIdentical(sweeps[0].results[i].stats,
                                sweeps[1].results[i].stats);
    }
}
