/**
 * @file
 * Batched (SoA) trace-block interface of the replay lane kernel.
 *
 * System::runReplay consumes each recorded thread in fixed-size blocks
 * instead of per-access pulls: the producer expands its packed
 * encoding (varint address deltas, 2-bit kinds, varint gaps) into
 * dense parallel arrays once per block, and the simulation kernel
 * then runs branch-light loops over the arrays with no per-access
 * virtual dispatch and no per-access varint pointer chasing. The one
 * virtual call per block is amortized over kCapacity accesses.
 *
 * The interface lives in the sim layer so the kernel (sim/replay.cc)
 * stays below the workload layer; workload/recorded_trace.hh's
 * TraceCursor is the canonical producer.
 */

#ifndef NVMCACHE_SIM_REPLAY_HH
#define NVMCACHE_SIM_REPLAY_HH

#include <array>
#include <cstdint>

#include "sim/types.hh"

namespace nvmcache {

/** One decoded block of a per-thread trace, SoA layout. */
struct TraceBlock
{
    /** Accesses per block; sized so the block stays L2-resident. */
    static constexpr std::size_t kCapacity = 1024;

    std::array<std::uint64_t, kCapacity> addr;
    std::array<std::uint32_t, kCapacity> gap; ///< nonMemInstrs
    std::array<std::uint8_t, kCapacity> kind; ///< AccessKind values
    std::uint32_t count = 0;                  ///< accesses decoded
};

/**
 * BatchSource that can additionally decode whole SoA blocks. The
 * fill() view stays available for live runs and generic consumers.
 */
class ReplaySource : public BatchSource
{
  public:
    /**
     * Decode up to TraceBlock::kCapacity accesses into @p out and
     * set out.count; returns out.count. 0 means end of trace.
     * Interleaving fillBlock with fill() on the same source is
     * allowed — both advance the same position.
     */
    virtual std::uint32_t fillBlock(TraceBlock &out) = 0;
};

} // namespace nvmcache

#endif // NVMCACHE_SIM_REPLAY_HH
