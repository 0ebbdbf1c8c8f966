/**
 * @file
 * Record-once / replay-many materialization of the private cache
 * levels (L1I / L1D / L2).
 *
 * The private hierarchy's behavior for one thread is a pure function
 * of that thread's access sequence and the CoreParams: the caches are
 * per-core, each core consumes its own trace in order, and nothing
 * below L2 feeds back into which level satisfies a reference. The LLC
 * model and the cross-core interleaving only affect *timing*. A tech
 * sweep therefore re-simulates identical L1/L2 walks once per LLC
 * model — by far the hottest loops in the simulator — to reach the
 * only part that differs.
 *
 * A PrivateTrace walks each thread's trace through a real PrivateCore
 * exactly once and freezes, per access, everything the shared levels
 * need from the private ones:
 *
 *  - the outcome (L1 hit / L2 hit / miss that reaches the LLC),
 *    packed 2 bits, plus the dirty-L2-victim count, 2 bits;
 *  - the victim (writeback) addresses as zigzag-varint deltas;
 *  - and, per core, the final private-cache counter state
 *    (hits/misses/writebacks and the per-set / per-line vectors), so
 *    a replay run exports bit-identical "sim.core.*" stats.
 *
 * Replaying through PrivateCursor::fillBlock (System::runReplay's lane
 * kernel) is bit-exact: System applies the same cycle arithmetic in
 * the same order with the same operands, so SimStats — including
 * every floating-point field — matches a live simulation of the same
 * traces. The recording is immutable after record() and safely shared
 * across concurrent simulations.
 */

#ifndef NVMCACHE_SIM_PRIVATE_TRACE_HH
#define NVMCACHE_SIM_PRIVATE_TRACE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/core.hh"
#include "sim/replay.hh"
#include "sim/types.hh"
#include "util/varint.hh"

namespace nvmcache {

class PrivateCursor;

/**
 * One decoded block of private-level outcomes, SoA layout, aligned
 * with the TraceBlock decoded from the same accesses: entry i here
 * describes access i of the paired block. Writeback addresses are
 * flattened in event order (access i's wbCount[i] victims are the
 * next entries of wbAddr after access i-1's).
 */
struct PrivateBlock
{
    static constexpr std::size_t kCapacity = TraceBlock::kCapacity;

    std::array<std::uint8_t, kCapacity> outcome; ///< PrivateEvent::k*
    std::array<std::uint8_t, kCapacity> wbCount; ///< dirty L2 victims
    std::array<std::uint64_t, 2 * kCapacity> wbAddr;
    std::uint32_t count = 0;   ///< events decoded
    std::uint32_t wbTotal = 0; ///< entries of wbAddr used
};

/** Recorded private-level outcome values of one access. */
struct PrivateEvent
{
    /** Outcome values (order matters only for packing). */
    static constexpr std::uint8_t kL1Hit = 0;
    static constexpr std::uint8_t kL2Hit = 1;
    static constexpr std::uint8_t kMiss = 2; ///< demand reaches LLC

    /** The outcome value of a live private-level walk. */
    static std::uint8_t
    outcomeOf(const PrivateAccessOutcome &out)
    {
        return out.satisfied
                   ? (out.latencyCycles ? kL2Hit : kL1Hit)
                   : kMiss;
    }
};

/**
 * All threads' private-level outcomes for one (trace, CoreParams)
 * pair, materialized once. Immutable after record().
 */
class PrivateTrace
{
  public:
    /**
     * Drive every source through a fresh PrivateCore with @p params
     * and record the outcomes. @p sources are consumed (drained);
     * callers pass fresh cursors.
     */
    static std::shared_ptr<const PrivateTrace>
    record(const std::vector<BatchSource *> &sources,
           const CoreParams &params);

    /**
     * Pack the recorded lanes (events, writeback streams, and the
     * per-core cache portraits) into a self-contained byte payload
     * for the persistent result store. Deterministic.
     */
    std::string serialize() const;

    /**
     * Rebuild a recording from serialize() output. Throws
     * std::runtime_error on any structural defect — callers treat
     * that as a store miss and re-record.
     */
    static std::shared_ptr<const PrivateTrace>
    deserialize(const std::string &payload);

    std::uint32_t threads() const
    {
        return std::uint32_t(lanes_.size());
    }

    /** Resident size of the packed per-access buffers, in bytes. */
    std::uint64_t packedBytes() const;

    /** Fresh replay cursor over one thread's lane. */
    PrivateCursor cursor(std::uint32_t thread) const;

    /**
     * Export thread @p thread's recorded private-cache stats under
     * "<prefix>.{l1i,l1d,l2}.*", replicating PrivateCore's cache
     * export exactly (same stat paths, same per-element distribution
     * add order), so a replay run's registry matches a live run's.
     */
    void exportCaches(MetricsRegistry &reg, const std::string &prefix,
                      std::uint32_t thread) const;

  private:
    friend class PrivateCursor;

    /** Final counter state of one private cache. */
    struct CachePortrait
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t writebacks = 0;
        std::vector<std::uint32_t> setEvictions;
        std::vector<std::uint32_t> lineWrites;

        void capture(const SetAssocCache &cache);
        void exportInto(MetricsRegistry &reg,
                        const std::string &prefix) const;
    };

    /** One thread's packed outcome columns. */
    struct Lane
    {
        /** outcome(2) | wbCount(2) nibbles, two accesses per byte. */
        std::vector<std::uint8_t> events;
        /** zigzag varint deltas of writeback addresses, in order. */
        std::vector<std::uint8_t> wbStream;
        std::uint64_t count = 0; ///< accesses recorded

        CachePortrait l1i;
        CachePortrait l1d;
        CachePortrait l2;
    };

    PrivateTrace() = default;

    std::vector<Lane> lanes_;
};

/**
 * Non-virtual decoder over one recorded lane. Holds only replay
 * position; the lane data stays in the (shared, const) PrivateTrace,
 * which must outlive the cursor.
 */
class PrivateCursor
{
  public:
    PrivateCursor() = default;

    /**
     * Decode exactly @p n events (the caller's paired TraceBlock
     * count; never past end of lane) into @p out's SoA arrays.
     */
    std::uint32_t
    fillBlock(std::uint32_t n, PrivateBlock &out)
    {
        const std::uint8_t *events = lane_->events.data();
        const std::uint8_t *p = wbPos_;
        std::uint64_t idx = idx_;
        std::uint64_t wbAddr = wbAddr_;
        std::uint32_t wb = 0;
        for (std::uint32_t i = 0; i < n; ++i, ++idx) {
            const std::uint8_t nib =
                (events[idx >> 1] >> ((idx & 1) * 4)) & 0xF;
            out.outcome[i] = nib & 3;
            const std::uint8_t c = nib >> 2;
            out.wbCount[i] = c;
            for (std::uint8_t j = 0; j < c; ++j) {
                wbAddr +=
                    std::uint64_t(unzigzag(getVarintFast(p)));
                out.wbAddr[wb++] = wbAddr;
            }
        }
        wbPos_ = p;
        idx_ = idx;
        wbAddr_ = wbAddr;
        out.count = n;
        out.wbTotal = wb;
        return n;
    }

  private:
    friend class PrivateTrace;

    explicit PrivateCursor(const PrivateTrace::Lane *lane)
        : lane_(lane), wbPos_(lane->wbStream.data())
    {
    }

    const PrivateTrace::Lane *lane_ = nullptr;
    const std::uint8_t *wbPos_ = nullptr;
    std::uint64_t idx_ = 0;
    std::uint64_t wbAddr_ = 0; ///< delta-decoding state
};

} // namespace nvmcache

#endif // NVMCACHE_SIM_PRIVATE_TRACE_HH
