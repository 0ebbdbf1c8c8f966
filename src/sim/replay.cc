/**
 * @file
 * Replay kernels: the block-decoded lane kernel every replay run goes
 * through, and the set-sharded single-source variant.
 *
 * Lane kernel. Each source is a lane on its own core. A lane decodes
 * its packed trace and private recording into paired SoA blocks (no
 * per-access virtual dispatch or varint pointer chasing) and runs
 * its private-only accesses — an L1 hit, or an L2 hit with no dirty
 * victim — back to back: they advance only that core's clock and
 * touch no shared state. At its next LLC-reaching access the lane
 * enters a (local cycle, core) min-heap, keyed by the core's cycle
 * before that access issues. The root lane's access runs against
 * the shared LLC and DRAM, the lane advances to its next
 * LLC-reaching access, and its key is re-sunk.
 *
 * Determinism: the live per-access scheduler (System::run) steps
 * the min-(cycle, core) core one access at a time. A core's key
 * never decreases, so its picks form a merge of per-core sorted key
 * sequences: the LLC-reaching accesses reach the shared levels in
 * (key, core) order, which is exactly the lane heap's order, and
 * the private-only steps in between commute with every other core's
 * work. SimStats are therefore bit-identical to the live run of the
 * same traces; with one source the heap degenerates to a loop.
 *
 * Sharded variant. A single-source run fixes the global LLC
 * operation order upfront: the trace dictates every demand read and
 * every recorded L2 victim, and nothing the LLC decides feeds back
 * into which operation comes next. With cfg.shards > 1 the run
 * therefore classifies every operation's tag walk and fault draws —
 * per-set state only — over K disjoint set shards, each on its own
 * SharedLlc instance and thread, then applies timing on the driving
 * thread in global access order: core issue/stall arithmetic, bank
 * reservations, DRAM queueing, energies and histograms. Per-set tag
 * state and the counter-based per-line fault draws only depend on
 * the per-set operation subsequence, which every shard processes in
 * global order, so the merged state is bit-identical at any shard
 * count.
 */

#include "sim/system.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/trace_events.hh"

namespace nvmcache {

namespace {

/** One LLC operation of a decoded block, in global access order. */
struct ReplayOp
{
    std::uint64_t addr = 0;
    LlcDecision d;
    bool isRead = false;
};

/**
 * Classification lookahead: the op list is known, so each tag walk
 * prefetches the set metadata this many ops ahead, converting the
 * latency-bound host-memory walk into a throughput-bound one.
 */
constexpr std::size_t kClassifyPrefetch = 16;

/**
 * Lane lookaheads: demand addresses far enough ahead to cover a full
 * access's simulation cost, recorded L2 victims a few writebacks
 * ahead.
 */
constexpr std::uint32_t kLanePrefetch = 24;
constexpr std::uint32_t kWbPrefetch = 6;

/**
 * Resource guard on the shard count: each shard owns a full tag
 * array, fault state and worker thread, so an absurd request (say,
 * NVMCACHE_SHARDS=10000) clamps instead of exhausting memory.
 * Results are bit-identical at any clamp, so this is safe.
 */
constexpr std::uint32_t kMaxShards = 64;

/** Classify one shard's ops (in-order) on its SharedLlc instance. */
void
classifyOps(SharedLlc &llc, std::vector<ReplayOp> &ops,
            const std::uint32_t *index, std::size_t count)
{
    for (std::size_t k = 0; k < count; ++k) {
        if (k + kClassifyPrefetch < count)
            llc.prefetchTag(ops[index[k + kClassifyPrefetch]].addr);
        ReplayOp &op = ops[index[k]];
        op.d = op.isRead ? llc.classifyRead(op.addr)
                         : llc.classifyWriteback(op.addr);
    }
}

} // namespace

void
System::sharedStep(std::uint32_t coreIdx, AccessKind kind,
                   std::uint64_t addr, std::uint8_t outcome,
                   const std::uint64_t *wb, std::uint32_t nwb)
{
    PrivateCore &core = cores_[coreIdx];
    CoreLlcCounters &share = coreLlc_[coreIdx];
    const std::uint64_t now = std::uint64_t(core.cycle());
    if (outcome != PrivateEvent::kL1Hit)
        ++l1Misses_;

    // Dirty L2 victims stream down to the LLC regardless of whether
    // the demand access was satisfied privately.
    share.writebacks += nwb;
    for (std::uint32_t j = 0; j < nwb; ++j) {
        const LlcWritebackOutcome wbo = llc_->writeback(wb[j], now);
        if (wbo.stallCycles)
            core.applyRawStall(wbo.stallCycles);
        if (wbo.forwardedToDram)
            dram_->write(wb[j], now);
        if (wbo.victimDirty)
            dram_->write(wbo.victimAddr, now);
    }

    if (outcome == PrivateEvent::kL1Hit)
        return;
    if (outcome == PrivateEvent::kL2Hit) {
        core.applyStall(kind, cfg_.core.l2Cycles);
        return;
    }

    // Demand read reaches the shared LLC.
    ++l2Misses_;
    std::uint64_t latency = cfg_.core.l2Cycles;
    const LlcReadOutcome rd = llc_->demandRead(addr, now + latency);
    ++share.demandReads;
    ++(rd.hit ? share.demandHits : share.demandMisses);
    latency += rd.latencyCycles;
    if (!rd.hit) {
        latency += dram_->read(addr, now + latency);
        if (rd.victimDirty)
            dram_->write(rd.victimAddr, now + latency);
    }
    core.applyStall(kind, latency);
}

SimStats
System::runReplay(const std::vector<ReplaySource *> &sources,
                  const PrivateTrace &privateTrace)
{
    if (sources.empty())
        fatal("System::runReplay: no threads");
    if (sources.size() > cores_.size())
        fatal("System::runReplay: more threads (", sources.size(),
              ") than cores (", cores_.size(), ")");
    if (privateTrace.threads() != sources.size())
        fatal("System::runReplay: private trace has ",
              privateTrace.threads(), " lanes for ", sources.size(),
              " sources");

    const auto t0 = std::chrono::steady_clock::now();
    TraceSpan runSpan("replay.run", "engine",
                      TraceContext::current().path + "/replay");
    MetricsRegistry &greg = MetricsRegistry::global();

    std::uint32_t shards = cfg_.shards ? cfg_.shards : defaultShards();
    shards = std::min(shards, kMaxShards);
    shards = std::uint32_t(
        std::min<std::uint64_t>(shards, llc_->geometry().numSets()));
    if (llc_->geometry().replacement == ReplacementPolicy::Random)
        shards = 1; // random victim picks draw from one whole-cache stream

    ReplayVolume vol;
    if (sources.size() == 1 && shards > 1) {
        vol = replaySharded(*sources[0], privateTrace, shards);
        greg.counter("sim.replay.runs.sharded").inc(1);
    } else {
        vol = replayLanes(sources, privateTrace);
    }

    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    greg.counter("sim.replay.runs.lanes" +
                 std::to_string(sources.size()))
        .inc(1);
    greg.counter("sim.replay.accesses").inc(vol.accesses);
    if (seconds > 0.0)
        greg.gauge("sim.replay.accessesPerSecond")
            .set(double(vol.accesses) / seconds);
    if (vol.blocks > 0)
        greg.gauge("sim.replay.blockFillRatio")
            .set(double(vol.accesses) /
                 double(vol.blocks * TraceBlock::kCapacity));

    return collectStats(sources.size(), &privateTrace);
}

System::ReplayVolume
System::replayLanes(const std::vector<ReplaySource *> &sources,
                    const PrivateTrace &privateTrace)
{
    // sources[i] runs on core i, paired with recording lane i.
    struct Lane
    {
        TraceBlock tb;
        PrivateBlock pb;
        PrivateCursor cursor;
        std::uint32_t pos = 0; ///< next access of tb
        std::uint32_t wb = 0;  ///< next victim of pb.wbAddr
    };
    const std::uint32_t numLanes = std::uint32_t(sources.size());
    std::vector<Lane> lanes(numLanes);
    ReplayVolume vol;
    const std::uint32_t l2Cycles = cfg_.core.l2Cycles;

    // Run lane i's private-only accesses up to its next LLC-reaching
    // one; false once its trace is drained.
    auto advance = [&](std::uint32_t i) {
        Lane &lane = lanes[i];
        PrivateCore &core = cores_[i];
        for (;;) {
            if (lane.pos == lane.tb.count) {
                const std::uint32_t n = sources[i]->fillBlock(lane.tb);
                if (n == 0)
                    return false;
                lane.cursor.fillBlock(n, lane.pb);
                lane.pos = 0;
                lane.wb = 0;
                vol.accesses += n;
                ++vol.blocks;
            }
            const std::uint32_t n = lane.tb.count;
            for (std::uint32_t p = lane.pos; p < n; ++p) {
                const std::uint8_t outcome = lane.pb.outcome[p];
                if (outcome == PrivateEvent::kMiss ||
                    lane.pb.wbCount[p] != 0) {
                    lane.pos = p;
                    return true;
                }
                if (p + kLanePrefetch < n)
                    llc_->prefetchTag(lane.tb.addr[p + kLanePrefetch]);
                core.advanceIssue(lane.tb.gap[p]);
                if (outcome == PrivateEvent::kL2Hit) {
                    ++l1Misses_;
                    core.applyStall(AccessKind(lane.tb.kind[p]),
                                    l2Cycles);
                }
            }
            lane.pos = n;
        }
    };

    // Simulate lane i's pending LLC-reaching access.
    auto llcStep = [&](std::uint32_t i) {
        Lane &lane = lanes[i];
        const std::uint32_t p = lane.pos++;
        const std::uint8_t nwb = lane.pb.wbCount[p];
        if (p + kLanePrefetch < lane.tb.count)
            llc_->prefetchTag(lane.tb.addr[p + kLanePrefetch]);
        if (lane.wb + kWbPrefetch < lane.pb.wbTotal)
            llc_->prefetchTag(lane.pb.wbAddr[lane.wb + kWbPrefetch]);
        cores_[i].advanceIssue(lane.tb.gap[p]);
        sharedStep(i, AccessKind(lane.tb.kind[p]), lane.tb.addr[p],
                   lane.pb.outcome[p], &lane.pb.wbAddr[lane.wb], nwb);
        lane.wb += nwb;
    };

    // Lanes waiting at an LLC-reaching access, keyed by their cycle
    // before that access issues.
    std::vector<CoreKey> heap;
    heap.reserve(numLanes);
    for (std::uint32_t i = 0; i < numLanes; ++i) {
        lanes[i].cursor = privateTrace.cursor(i);
        if (advance(i))
            heap.push_back({cores_[i].cycle(), i});
    }
    std::make_heap(heap.begin(), heap.end(),
                   [](const CoreKey &a, const CoreKey &b) {
                       return b < a; // std heaps put the max first
                   });

    while (!heap.empty()) {
        const std::uint32_t i = heap[0].core;
        llcStep(i);
        if (advance(i)) {
            heap[0].cycle = cores_[i].cycle();
        } else { // trace drained: retire the lane
            heap[0] = heap.back();
            heap.pop_back();
            if (heap.empty())
                break;
        }
        siftDown(heap);
    }
    return vol;
}

System::ReplayVolume
System::replaySharded(ReplaySource &source,
                      const PrivateTrace &privateTrace,
                      std::uint32_t S)
{
    // Per-block classify/timing spans (category "replay") describe
    // host-side execution structure and are the single
    // shard-dependent trace category.
    const TraceContext traceCtx = TraceContext::current();
    const std::string traceBase = traceCtx.path + "/replay";

    const std::uint64_t numSets = llc_->geometry().numSets();
    const std::uint32_t setBits =
        std::uint32_t(std::countr_zero(numSets));

    // Shard s owns sets [begin(s), begin(s+1)) with begin(s) =
    // ceil(s * numSets / S); its inverse for any S <= numSets is
    // shardOf(set) = set * S / numSets (both are monotone and exact
    // at the range ends).
    auto shardBegin = [&](std::uint32_t s) {
        return (std::uint64_t(s) * numSets + S - 1) / S;
    };

    std::vector<std::unique_ptr<SharedLlc>> shardLlcs;
    shardLlcs.reserve(S);
    for (std::uint32_t s = 0; s < S; ++s)
        shardLlcs.push_back(std::make_unique<SharedLlc>(
            llc_->model(), llc_->config(), cfg_.frequency));
    ThreadPool pool(S);

    PrivateCore &core = cores_[0];
    CoreLlcCounters &share = coreLlc_[0];
    PrivateCursor pcur = privateTrace.cursor(0);
    const bool faults = llc_->faultsEnabled();
    std::uint64_t liveLines = llc_->geometry().numLines();

    TraceBlock tb;
    PrivateBlock pb;
    std::vector<ReplayOp> ops(3 * TraceBlock::kCapacity);
    std::vector<std::vector<std::uint32_t>> shardOps(S);
    for (auto &v : shardOps)
        v.reserve(ops.size());

    ReplayVolume vol;
    std::uint32_t n;
    while ((n = source.fillBlock(tb)) != 0) {
        ++vol.blocks;
        vol.accesses += n;
        pcur.fillBlock(n, pb);

        // Expand the block into its LLC operation list: per access,
        // the recorded L2 victims then (on a private miss) the
        // demand read — the exact order sharedStep issues them.
        std::uint32_t numOps = 0;
        std::uint32_t w = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint8_t c = pb.wbCount[i];
            for (std::uint8_t j = 0; j < c; ++j) {
                ops[numOps].addr = pb.wbAddr[w++];
                ops[numOps].isRead = false;
                ++numOps;
            }
            if (pb.outcome[i] == PrivateEvent::kMiss) {
                ops[numOps].addr = tb.addr[i];
                ops[numOps].isRead = true;
                ++numOps;
            }
        }

        for (auto &v : shardOps)
            v.clear();
        for (std::uint32_t k = 0; k < numOps; ++k)
            shardOps[std::size_t(
                         (llc_->setIndexOf(ops[k].addr) * S) >>
                         setBits)]
                .push_back(k);
        const std::string blockId =
            tracingEnabled()
                ? traceBase + "/b" + std::to_string(vol.blocks - 1)
                : std::string();
        {
            TraceSpan classifySpan("replay.classify", "replay",
                                   blockId);
            std::vector<std::future<void>> done;
            done.reserve(S);
            for (std::uint32_t s = 0; s < S; ++s)
                done.push_back(pool.submit([&, s]() {
                    TraceScope scope(TraceContext{
                        blockId + "/s" + std::to_string(s),
                        traceCtx.traceId});
                    TraceSpan span("replay.classify.shard", "replay",
                                   TraceContext::current().path);
                    classifyOps(*shardLlcs[s], ops,
                                shardOps[s].data(),
                                shardOps[s].size());
                }));
            for (std::future<void> &f : done)
                f.get();
        }

        // Timing pass, in global access order: sharedStep's exact
        // arithmetic with the classification verdicts precomputed.
        TraceSpan timingSpan("replay.timing", "replay", blockId);
        std::uint32_t opIdx = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            core.advanceIssue(tb.gap[i]);
            const std::uint8_t outcome = pb.outcome[i];
            const std::uint8_t nwb = pb.wbCount[i];
            if (outcome == PrivateEvent::kL1Hit && nwb == 0)
                continue; // private hit, nothing reaches the LLC
            const std::uint64_t now = std::uint64_t(core.cycle());
            if (outcome != PrivateEvent::kL1Hit)
                ++l1Misses_;

            share.writebacks += nwb;
            for (std::uint8_t j = 0; j < nwb; ++j) {
                const ReplayOp &op = ops[opIdx++];
                if (faults) {
                    llc_->tickFaults(liveLines);
                    liveLines -= op.d.retirements;
                }
                const LlcWritebackOutcome wbo =
                    llc_->finishWriteback(op.d, op.addr, now);
                if (wbo.stallCycles)
                    core.applyRawStall(wbo.stallCycles);
                if (wbo.forwardedToDram)
                    dram_->write(op.addr, now);
                if (wbo.victimDirty)
                    dram_->write(wbo.victimAddr, now);
            }

            if (outcome == PrivateEvent::kL1Hit)
                continue;
            if (outcome == PrivateEvent::kL2Hit) {
                core.applyStall(AccessKind(tb.kind[i]),
                                cfg_.core.l2Cycles);
                continue;
            }

            ++l2Misses_;
            const ReplayOp &op = ops[opIdx++];
            if (faults) {
                llc_->tickFaults(liveLines);
                liveLines -= op.d.retirements;
            }
            std::uint64_t latency = cfg_.core.l2Cycles;
            const LlcReadOutcome rd =
                llc_->finishRead(op.d, op.addr, now + latency);
            ++share.demandReads;
            ++(rd.hit ? share.demandHits : share.demandMisses);
            latency += rd.latencyCycles;
            if (!rd.hit) {
                latency += dram_->read(op.addr, now + latency);
                if (rd.victimDirty)
                    dram_->write(rd.victimAddr, now + latency);
            }
            core.applyStall(AccessKind(tb.kind[i]), latency);
        }
    }

    for (std::uint32_t s = 0; s < S; ++s)
        llc_->absorbShard(*shardLlcs[s], shardBegin(s),
                          shardBegin(s + 1));
    return vol;
}

} // namespace nvmcache
