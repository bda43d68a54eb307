/**
 * @file
 * Memory trace representation for GPU-compute workloads.
 *
 * A workload is a sequence of kernels; a kernel is a grid of thread
 * blocks (TBs); a TB is a set of warps; each warp executes a sequence
 * of memory instructions. The memory coalescer (part of this module,
 * as in GPGPU-Sim it sits before the address mapper) merges the 32
 * per-thread accesses of one warp instruction into the minimal set of
 * 128 B line transactions — these transactions are "the memory
 * requests" of the paper's entropy analysis and the units entering
 * the L1/NoC/LLC/DRAM hierarchy.
 *
 * Layout. A TB's trace owns two flat stores: `TbTrace::lines` holds
 * every coalesced line of the TB in issue order, and
 * `TbTrace::instrs` every instruction, warp-major. `MemInstr::lines`
 * and `WarpTrace::instrs` are spans into those stores, so consumers
 * keep walking warps -> instrs -> lines while a TB's trace lives in
 * a few heap blocks, whatever its instruction count. Spans (not
 * offsets) keep that walk unchanged for every consumer; they are also
 * why a `TbTrace` is move-only: a moved `std::vector` keeps its
 * buffer, so the spans stay valid, while a copy would point into the
 * original.
 *
 * Coalescing happens in place: the builder appends an access's thread
 * addresses to the line store and `coalesce` masks them down to their
 * lines (line size a power of two, so no division), drops duplicates
 * and sorts only when the masked lines are not already ascending.
 */

#ifndef VALLEY_WORKLOADS_TRACE_HH
#define VALLEY_WORKLOADS_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"

namespace valley {

/** One warp-level memory instruction after coalescing. */
struct MemInstr
{
    std::span<const Addr> lines; ///< ascending line addresses (TB store)
    bool write = false;
    std::uint16_t gap = 0;   ///< compute cycles before this instr issues
};

/** The memory instruction stream of one warp, in issue order. */
struct WarpTrace
{
    std::span<const MemInstr> instrs; ///< a run of the TB's store
};

/**
 * The trace of one thread block. Built only by `TraceBuilder::take`;
 * the stores keep their size for the trace's lifetime (elements may
 * be rewritten in place, as `GpuSystem` does when it pre-maps lines).
 */
struct TbTrace
{
    std::vector<WarpTrace> warps;
    std::vector<Addr> lines;      ///< every line of the TB, issue order
    std::vector<MemInstr> instrs; ///< every instruction, warp-major

    TbTrace() = default;
    TbTrace(TbTrace &&) = default;
    TbTrace &operator=(TbTrace &&) = default;
    TbTrace(const TbTrace &) = delete;
    TbTrace &operator=(const TbTrace &) = delete;

    /** Total coalesced transactions in the TB. */
    std::uint64_t requestCount() const { return lines.size(); }
};

/**
 * Coalesce the per-thread byte addresses of one warp access in place:
 * on return the first n entries of `addrs` are its sorted,
 * de-duplicated line-aligned addresses, and n is returned.
 * `line_bytes` must be a power of two.
 */
std::size_t coalesce(std::span<Addr> addrs, unsigned line_bytes);

/**
 * Incremental builder used by the kernel generator callbacks.
 */
class TraceBuilder
{
  public:
    /** @throws std::invalid_argument unless `line_bytes` is a power
     *  of two. */
    TraceBuilder(unsigned warps_per_tb, unsigned line_bytes,
                 unsigned compute_gap);

    /** Warp-level access from explicit per-thread byte addresses. */
    void access(unsigned warp, std::span<const Addr> thread_addrs,
                bool write);

    /**
     * Strided warp access: thread t touches base + t * stride bytes.
     * Covers both coalesced (|stride| <= 4) and scatter/gather
     * (|stride| >= line) patterns.
     */
    void accessStrided(unsigned warp, Addr base, std::int64_t stride,
                       unsigned threads, bool write);

    /** Fully coalesced access: a single line transaction. */
    void accessLine(unsigned warp, Addr line_addr, bool write);

    /** Extra compute cycles before the *next* access of `warp`. */
    void computeDelay(unsigned warp, unsigned cycles);

    /** Finish and move the accumulated trace out (call once). */
    TbTrace take();

    unsigned lineBytes() const { return lineBytes_; }

  private:
    /**
     * An instruction as recorded before `take`: line offsets, not a
     * span, since the line store may still reallocate.
     */
    struct Pending
    {
        std::uint32_t warp;
        std::uint32_t first; ///< index of its first line in `lines`
        std::uint32_t count;
        std::uint16_t gap;
        bool write;
    };

    /**
     * Coalesce the thread addresses appended to `lines` from `first`
     * on and record them as `warp`'s next instruction (none if the
     * access was empty).
     */
    void commit(unsigned warp, std::size_t first, bool write);

    unsigned lineBytes_;
    unsigned computeGap;
    std::vector<unsigned> pendingGap;
    std::vector<Pending> pending; ///< issue order, all warps
    std::vector<Addr> lines;      ///< becomes `TbTrace::lines`
};

} // namespace valley

#endif // VALLEY_WORKLOADS_TRACE_HH
