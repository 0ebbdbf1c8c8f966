#include "sim/system.hh"

#include <algorithm>
#include <array>

#include "util/logging.hh"

namespace nvmcache {

namespace {

/** References a core prefetches from its source at a time. */
constexpr std::size_t kBatch = 128;

/** BatchSource view of a virtual per-access TraceSource. */
class SourceBatcher final : public BatchSource
{
  public:
    explicit SourceBatcher(TraceSource *src) : src_(src) {}

    std::size_t
    fill(std::span<MemAccess> out) override
    {
        std::size_t n = 0;
        while (n < out.size() && src_->next(out[n]))
            ++n;
        return n;
    }

  private:
    TraceSource *src_;
};

} // namespace

System::System(const SystemConfig &cfg, const LlcModel &llcModel)
    : cfg_(cfg)
{
    if (cfg_.numCores == 0)
        fatal("System: need at least one core");
    cores_.reserve(cfg_.numCores);
    for (std::uint32_t i = 0; i < cfg_.numCores; ++i)
        cores_.emplace_back(cfg_.core);
    llc_ = std::make_unique<SharedLlc>(llcModel, cfg_.llc,
                                       cfg_.frequency);
    dram_ = std::make_unique<DramModel>(cfg_.dram, cfg_.frequency);
    coreLlc_.resize(cfg_.numCores);
}

void
System::step(std::uint32_t coreIdx, const MemAccess &access)
{
    const PrivateAccessOutcome out =
        cores_[coreIdx].accessPrivate(access);
    const std::uint8_t outcome = PrivateEvent::outcomeOf(out);
    if (outcome != PrivateEvent::kL1Hit) // an L1 hit never evicts
        sharedStep(coreIdx, access.kind, access.addr, outcome,
                   out.writebacks.addr.data(), out.writebacks.count);
}

SimStats
System::run(const std::vector<TraceSource *> &threads)
{
    if (threads.empty())
        fatal("System::run: no threads");
    std::vector<SourceBatcher> batchers;
    batchers.reserve(threads.size());
    for (TraceSource *t : threads)
        batchers.emplace_back(t);
    std::vector<BatchSource *> sources;
    sources.reserve(threads.size());
    for (SourceBatcher &b : batchers)
        sources.push_back(&b);
    return run(sources);
}

SimStats
System::run(const std::vector<BatchSource *> &sources)
{
    if (sources.empty())
        fatal("System::run: no threads");
    if (sources.size() > cores_.size())
        fatal("System::run: more threads (", sources.size(),
              ") than cores (", cores_.size(), ")");

    // sources[i] runs on core i (round-robin is the identity while
    // threads <= cores, which the check above guarantees).
    struct Lane
    {
        std::array<MemAccess, kBatch> buf;
        std::uint32_t pos = 0;
        std::uint32_t count = 0;
    };
    std::vector<Lane> lanes(sources.size());

    // Min-local-time scheduling keeps shared-resource timestamps
    // approximately globally ordered.
    std::vector<CoreKey> heap(sources.size());
    for (std::uint32_t i = 0; i < sources.size(); ++i)
        heap[i] = {0.0, i}; // equal keys in index order: a valid heap

    while (!heap.empty()) {
        const std::uint32_t i = heap[0].core;
        Lane &lane = lanes[i];
        if (lane.pos == lane.count) {
            lane.count = std::uint32_t(
                sources[i]->fill({lane.buf.data(), kBatch}));
            lane.pos = 0;
            if (lane.count == 0) { // trace drained: retire the core
                heap[0] = heap.back();
                heap.pop_back();
                if (!heap.empty())
                    siftDown(heap);
                continue;
            }
        }
        // The lane's future is already decoded, so pull the LLC tag
        // set of a near-future access toward the host caches while
        // this access simulates (hides the host-memory latency that
        // otherwise dominates large-cache tag walks). The distance
        // covers the full simulation cost of the accesses in between;
        // shorter lookaheads leave part of the tag-walk miss exposed.
        const std::uint32_t ahead = lane.pos + 24;
        if (ahead < lane.count)
            llc_->prefetchTag(lane.buf[ahead].addr);
        step(i, lane.buf[lane.pos++]);
        heap[0].cycle = cores_[i].cycle();
        siftDown(heap);
    }

    return collectStats(sources.size(), nullptr);
}

SimStats
System::collectStats(std::size_t numThreads,
                     const PrivateTrace *privateTrace)
{
    SimStats stats;
    for (std::size_t i = 0; i < numThreads; ++i) {
        stats.instructions += cores_[i].instructions();
        stats.coreCycles.push_back(cores_[i].cycle());
        stats.cycles = std::max(stats.cycles, cores_[i].cycle());
    }
    stats.seconds = stats.cycles / cfg_.frequency;
    // Close the simulated-time trace channel with a final sample at
    // the run's end cycle (no-op when tracing is off).
    llc_->traceSimFinal(std::uint64_t(stats.cycles));
    stats.llc = llc_->stats();
    stats.dramReads = dram_->reads();
    stats.dramWrites = dram_->writes();
    stats.dramQueueCycles = dram_->queueCycles();
    stats.l1Misses = l1Misses_;
    stats.l2Misses = l2Misses_;
    stats.llcDynamicEnergy = stats.llc.dynamicEnergy();
    stats.llcLeakageEnergy = llc_->model().leakage * stats.seconds;

    // Export the whole hierarchy into a per-run registry; the
    // snapshot rides along with the (possibly memoized) SimStats.
    MetricsRegistry reg;
    llc_->exportStats(reg, "sim.llc");
    dram_->exportStats(reg, "sim.dram");
    Distribution &core_cycles = reg.distribution("sim.cores.cycles");
    double min_cycles = stats.cycles;
    for (std::size_t i = 0; i < numThreads; ++i) {
        if (privateTrace) {
            // A replay run never touched the cores' caches; the core
            // counters are live, the cache stats come from the
            // recording, in exactly PrivateCore::exportStats's order.
            reg.counter("sim.core.instructions")
                .inc(cores_[i].instructions());
            reg.counter("sim.core.stallCycles")
                .inc(cores_[i].stallCycles());
            privateTrace->exportCaches(reg, "sim.core",
                                       std::uint32_t(i));
        } else {
            cores_[i].exportStats(reg, "sim.core");
        }
        core_cycles.add(cores_[i].cycle());
        min_cycles = std::min(min_cycles, cores_[i].cycle());
    }
    // Load imbalance: fraction of the finish time the earliest core
    // sat idle (0 = perfectly balanced or single-threaded).
    reg.gauge("sim.cores.cycleImbalance")
        .set(stats.cycles > 0.0
                 ? (stats.cycles - min_cycles) / stats.cycles
                 : 0.0);
    reg.counter("sim.instructions").inc(stats.instructions);
    reg.counter("sim.l1Misses").inc(l1Misses_);
    reg.counter("sim.l2Misses").inc(l2Misses_);
    reg.gauge("sim.seconds").set(stats.seconds);
    reg.gauge("sim.llc.leakageEnergy").set(stats.llcLeakageEnergy);
    reg.gauge("sim.llc.dynamicEnergy").set(stats.llcDynamicEnergy);
    reg.gauge("sim.mpki").set(stats.llcMpki());
    stats.detail = reg.snapshot();

    // Per-tenant LLC traffic split (tenants workload family).
    if (cfg_.perCoreLlcStats) {
        for (std::size_t i = 0; i < numThreads; ++i) {
            const CoreLlcCounters &c = coreLlc_[i];
            MetricsRegistry treg;
            treg.counter("llc.demandReads").inc(c.demandReads);
            treg.counter("llc.demandHits").inc(c.demandHits);
            treg.counter("llc.demandMisses").inc(c.demandMisses);
            treg.counter("llc.writebacks").inc(c.writebacks);
            stats.detail.merge(treg.snapshot().withPrefix(
                "sim.tenant" + std::to_string(i)));
        }
    }
    return stats;
}

} // namespace nvmcache
