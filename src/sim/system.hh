/**
 * @file
 * Full-system model: N Gainestown cores with private L1/L2, one
 * shared (possibly NVM) LLC, and bandwidth-queued DRAM — the paper's
 * Sniper configuration (Table IV).
 */

#ifndef NVMCACHE_SIM_SYSTEM_HH
#define NVMCACHE_SIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "nvsim/llc_model.hh"
#include "sim/core.hh"
#include "sim/dram.hh"
#include "sim/nvm_llc.hh"
#include "sim/private_trace.hh"
#include "sim/replay.hh"
#include "sim/types.hh"
#include "util/metrics.hh"

namespace nvmcache {

/** Whole-system configuration. */
struct SystemConfig
{
    std::uint32_t numCores = 4;
    double frequency = 2.66e9; ///< Hz (Xeon x5550)
    CoreParams core;
    SharedLlc::Config llc;
    DramConfig dram;

    /**
     * Export per-core LLC demand/writeback counters into the run's
     * stats detail under "sim.tenant<i>." (multi-tenant workloads:
     * core i runs tenant i's thread). Off by default so existing
     * reports stay byte-stable.
     */
    bool perCoreLlcStats = false;
};

/** Results of one simulation run. */
struct SimStats
{
    std::uint64_t instructions = 0;
    double cycles = 0.0; ///< max over cores (the system finish time)
    double seconds = 0.0;

    LlcStats llc;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t dramQueueCycles = 0;

    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;

    std::vector<double> coreCycles;

    double llcLeakageEnergy = 0.0; ///< J, P_leak * seconds
    double llcDynamicEnergy = 0.0; ///< J

    /**
     * Full hierarchical stats report of this run ("sim.*": LLC,
     * DRAM, private-core and imbalance entries). Filled by
     * System::run from a per-run registry, so it is deterministic and
     * travels with memoized results unchanged at any experiment-engine
     * concurrency.
     */
    StatsSnapshot detail;

    /** Total LLC energy (the paper's "LLC energy" metric). */
    double llcEnergy() const
    {
        return llcLeakageEnergy + llcDynamicEnergy;
    }

    /** LLC demand misses per thousand instructions. */
    double
    llcMpki() const
    {
        return instructions == 0 ? 0.0
                                 : double(llc.demandMisses) * 1000.0 /
                                       double(instructions);
    }

    /** Energy * delay^2 (the paper's ED^2P, LLC energy based). */
    double ed2p() const { return llcEnergy() * seconds * seconds; }
};

/**
 * One simulation instance. Construct, then run() exactly once per
 * set of traces (construct a fresh System for a fresh run; cache
 * state is not reset between runs by design, matching how the
 * experiments use it).
 */
class System
{
  public:
    System(const SystemConfig &cfg, const LlcModel &llcModel);

    /**
     * Live run: walk every reference through the private L1/L2 and
     * the shared levels. Threads are assigned to cores round-robin;
     * the usual case is one thread per core (multi-threaded suites)
     * or a single thread (cpu2006/2017).
     *
     * Each step simulates the access of the core with the least
     * local time (ties to the lowest index), picked from an
     * index-min heap, so shared-LLC and DRAM contention is observed
     * in approximately global time. Each core prefetches its
     * thread's references in batches; per-thread sources must
     * therefore be independent of each other (true of every
     * TraceSource in the tree), since a core may pull ahead of the
     * globally-interleaved consumption order. This per-access
     * scheduler is the reference runReplay is tested against.
     */
    SimStats run(const std::vector<TraceSource *> &threads);

    /** Same live simulation over batched sources. */
    SimStats run(const std::vector<BatchSource *> &sources);

    /**
     * Replay run (sim/replay.cc): @p privateTrace carries the
     * recorded private-level outcomes of exactly these sources under
     * this system's CoreParams, so the L1/L2 walks are skipped and
     * only the shared LLC and DRAM are simulated. Bit-identical
     * SimStats to the live run() of the same traces.
     *
     * Every lane block-decodes its trace and recording, runs its
     * private-only accesses back to back on its own core, and joins
     * the (local cycle, core) min-heap only at its next LLC-reaching
     * access. Every run feeds the global "sim.replay.*" metrics.
     */
    SimStats runReplay(const std::vector<ReplaySource *> &sources,
                       const PrivateTrace &privateTrace);

    const SharedLlc &llc() const { return *llc_; }

  private:
    SystemConfig cfg_;
    std::vector<PrivateCore> cores_;
    std::unique_ptr<SharedLlc> llc_;
    std::unique_ptr<DramModel> dram_;
    std::uint64_t l1Misses_ = 0;
    std::uint64_t l2Misses_ = 0;

    /**
     * Per-core share of the shared-LLC traffic (demand reads split
     * into hits/misses, plus L2 writebacks reaching the LLC).
     */
    struct CoreLlcCounters
    {
        std::uint64_t demandReads = 0;
        std::uint64_t demandHits = 0;
        std::uint64_t demandMisses = 0;
        std::uint64_t writebacks = 0;
    };
    std::vector<CoreLlcCounters> coreLlc_;

    /**
     * Scheduler heap entry: a core and its local cycle. The live and
     * replay schedulers keep active cores in a binary min-heap on
     * (cycle, core index) — the same pick order as a linear scan
     * taking the first strict minimum, at O(log cores) per step.
     */
    struct CoreKey
    {
        double cycle;
        std::uint32_t core;

        bool
        operator<(const CoreKey &o) const
        {
            return cycle < o.cycle || (cycle == o.cycle && core < o.core);
        }
    };

    /**
     * Re-sink heap[0] after its key grew or it was replaced by the
     * last entry (a core's key only grows).
     */
    static void
    siftDown(std::vector<CoreKey> &heap)
    {
        std::size_t i = 0;
        const std::size_t n = heap.size();
        const CoreKey e = heap[0];
        while (true) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && heap[child + 1] < heap[child])
                ++child;
            if (!(heap[child] < e))
                break;
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = e;
    }

    /** Process one reference on @p coreIdx (live run). */
    void step(std::uint32_t coreIdx, const MemAccess &access);

    /**
     * Shared-level half of one reference on @p coreIdx, whose issue
     * time is already on the core's clock: the @p nwb dirty L2
     * victims @p wb go to the LLC, then a private miss (@p outcome
     * is a PrivateEvent value) reads @p addr from the LLC and DRAM.
     */
    void sharedStep(std::uint32_t coreIdx, AccessKind kind,
                    std::uint64_t addr, std::uint8_t outcome,
                    const std::uint64_t *wb, std::uint32_t nwb);

    /** Accesses and SoA blocks one replay decoded. */
    struct ReplayVolume
    {
        std::uint64_t accesses = 0;
        std::uint64_t blocks = 0;
    };

    /** Lane kernel of runReplay. */
    ReplayVolume replayLanes(const std::vector<ReplaySource *> &sources,
                             const PrivateTrace &privateTrace);

    /** Gather SimStats after all cores drained their sources. */
    SimStats collectStats(std::size_t numThreads,
                          const PrivateTrace *privateTrace);
};

} // namespace nvmcache

#endif // NVMCACHE_SIM_SYSTEM_HH
