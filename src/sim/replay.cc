/**
 * @file
 * Replay kernel: the block-decoded lane kernel every replay run goes
 * through.
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
 */

#include "sim/system.hh"

#include <algorithm>
#include <chrono>
#include <vector>

#include "util/logging.hh"
#include "util/trace_events.hh"

namespace nvmcache {

namespace {

/**
 * Lane lookaheads: demand addresses far enough ahead to cover a full
 * access's simulation cost, recorded L2 victims a few writebacks
 * ahead.
 */
constexpr std::uint32_t kLanePrefetch = 24;
constexpr std::uint32_t kWbPrefetch = 6;

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

    const ReplayVolume vol = replayLanes(sources, privateTrace);

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

} // namespace nvmcache
