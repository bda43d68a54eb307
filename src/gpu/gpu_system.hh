/**
 * @file
 * Cycle-level GPU memory-subsystem simulator (the GPGPU-Sim v3.2.2
 * substitute, see DESIGN.md).
 *
 * Pipeline per memory instruction:
 *
 *   warp (GTO issue) -> coalescer output (the workload trace)
 *     -> address mapper (BIM)  -> L1D (MSHRs)
 *     -> request crossbar      -> LLC slice (MSHRs)
 *     -> FR-FCFS controller    -> GDDR5 banks
 *     -> reply crossbar        -> L1 fill -> warp wakeup
 *
 * Three clock domains: SM (1.4 GHz), NoC (700 MHz = every 2nd SM
 * cycle) and DRAM command clock (924 MHz via a fractional
 * accumulator). Writes are write-through at the L1 and write-allocate
 * at the LLC; dirty LLC evictions produce DRAM writebacks.
 *
 * The simulator samples the Fig. 14 parallelism metrics every
 * `metricSamplePeriod` cycles and reports the full RunResult
 * including Micron DRAM power and GPUWattch-style system power.
 */

#ifndef VALLEY_GPU_GPU_SYSTEM_HH
#define VALLEY_GPU_GPU_SYSTEM_HH

#include <vector>

#include "cache/set_assoc_cache.hh"
#include "common/cancellation.hh"
#include "common/ring_buffer.hh"
#include "dram/dram_system.hh"
#include "gpu/run_result.hh"
#include "gpu/sim_config.hh"
#include "mapping/address_mapper.hh"
#include "noc/crossbar.hh"
#include "workloads/workload.hh"

namespace valley {

/**
 * One simulated machine bound to an address mapping scheme.
 */
class GpuSystem
{
  public:
    GpuSystem(const SimConfig &cfg, const AddressMapper &mapper);

    /**
     * Simulate a workload to completion and report all metrics.
     * With `cancel`, the token is polled every `kCancelPollCycles` SM
     * cycles and a fired token throws `Cancelled`; an unfired token
     * changes nothing in the result.
     */
    RunResult run(const Workload &workload,
                  const CancelToken *cancel = nullptr);

    /** SM cycles between two polls of `run`'s cancel token. */
    static constexpr Cycle kCancelPollCycles = 4096;

  private:
    // ---- static runtime structures -----------------------------------
    struct WarpRt
    {
        const WarpTrace *trace = nullptr;
        unsigned nextInstr = 0;
        unsigned outstanding = 0;
        Cycle readyAt = 0;
        bool waiting = false;
        bool active = false;
        unsigned tbSlot = 0;
        std::uint64_t age = 0; ///< TB dispatch sequence (GTO ordering)
    };

    struct TbSlot
    {
        TbTrace trace;
        unsigned warpsLeft = 0;
        bool active = false;
    };

    struct LineReq
    {
        Addr line; ///< mapped line address
        unsigned warpGid;
        bool write;
    };

    struct Sm
    {
        std::vector<TbSlot> tbSlots;
        std::vector<WarpRt> warps;
        RingBuffer<LineReq> lsu;
        std::vector<unsigned> lastIssued; ///< per scheduler
        unsigned activeTbs = 0;
        /**
         * No warp can issue before this cycle: the last issue scan
         * found nothing, and this is the earliest `readyAt` among
         * warps with work. Warps that gain work lower it.
         */
        Cycle issueIdleUntil = 0;
        /**
         * The LSU head failed to issue. It waits for a request-NoC
         * slot and, if it is a read, an L1 MSHR: a failed read is a
         * miss, neither cached nor pending, and stays one. Both free
         * only in the NoC block, which clears the flag once they are
         * back; until then the SM loop skips `lsuStage`.
         */
        bool lsuParked = false;
    };

    struct SliceReq
    {
        Addr line;
        unsigned sm;
        bool write;
    };

    struct Event
    {
        Cycle at;
        enum class Type : std::uint8_t
        {
            WarpLineDone,
            ReplyReady
        } type;
        unsigned a = 0; ///< warpGid / slice
        unsigned b = 0; ///< - / sm
        Addr line = 0;

        bool
        operator>(const Event &o) const
        {
            return at > o.at;
        }
    };

    // ---- helpers -------------------------------------------------------
    /** Min-heap push into the reserved event storage. */
    void pushEvent(const Event &ev);
    unsigned warpGid(unsigned sm, unsigned warp) const;
    /** Remap a freshly generated TB trace once, at dispatch. */
    void premapTrace(TbTrace &trace) const;
    unsigned tbSlotsFor(const Kernel &k) const;
    void dispatchTbs(const Kernel &kernel);
    void issueStage(unsigned sm_idx);
    void lsuStage(unsigned sm_idx);
    bool tryIssueLine(unsigned sm_idx, const LineReq &req);
    /** Whether a parked LSU head now has what it waits for. */
    bool lsuHeadCanIssue(unsigned sm_idx) const;
    void lineDone(unsigned gid);
    void warpInstrDone(unsigned gid);
    void sliceTick(unsigned slice);
    void handleDramCompletions();
    void deliverReply(unsigned sm, Addr line);
    void sampleMetrics();
    void noteProgress() { lastProgress = cycle; }

    // ---- configuration -----------------------------------------------
    const SimConfig cfg;
    const AddressMapper &mapper;
    const CompiledDecoder decoder; ///< precompiled cfg.layout.decode

    // ---- per-run state -------------------------------------------------
    std::vector<Sm> sms;
    std::vector<SetAssocCache> l1s;
    std::vector<SetAssocCache> llc;
    std::vector<RingBuffer<SliceReq>> sliceQueue;
    /**
     * Per slice: the DRAM channel its input-queue head waits on, or
     * kNotParked. The head needs a fill and found no free MSHR or no
     * room in that channel's controller queue; `sliceTick` skips it
     * until both are back.
     */
    std::vector<unsigned> sliceParkedOn;
    std::vector<RingBuffer<DramRequest>> pendingWritebacks;
    std::vector<RingBuffer<std::pair<unsigned, Addr>>> stalledReplies;
    std::unique_ptr<Crossbar> reqNoc;
    std::unique_ptr<Crossbar> replyNoc;
    std::unique_ptr<DramSystem> dram;
    std::vector<Event> events; ///< min-heap (std::push_heap/pop_heap)
    std::vector<DramCompletion> dramDone;

    const Kernel *kernel = nullptr;
    TbId tbNext = 0;
    TbId tbDone = 0;
    std::uint64_t dispatchSeq = 0;

    Cycle cycle = 0;
    Cycle nocCycle = 0;
    Cycle dramCycle = 0;
    std::uint64_t dramAcc = 0;
    Cycle lastProgress = 0;

    // ---- counters --------------------------------------------------------
    std::uint64_t requests = 0;
    double instructions = 0.0;
    double instrsPerRequest = 60.0;

    // Fig. 14 sampling accumulators.
    std::uint64_t llcBusySamples = 0, llcBusySum = 0;
    std::uint64_t chBusySamples = 0, chBusySum = 0;
    std::uint64_t bankSamples = 0;
    double bankPerChannelSum = 0.0;
};

} // namespace valley

#endif // VALLEY_GPU_GPU_SYSTEM_HH
