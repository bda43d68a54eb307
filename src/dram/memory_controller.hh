/**
 * @file
 * Per-channel FR-FCFS memory controller with open-page row-buffer
 * policy (Rixner et al. [17]; Table I).
 *
 * The controller owns the bank state machines of one channel. Every
 * DRAM command cycle it issues at most one command:
 *
 *  1. *First-ready*: the oldest queued request whose bank has the
 *     right row open and is ready issues a column access.
 *  2. Otherwise *FCFS*: the oldest request whose bank can accept a
 *     command makes progress — precharge if a different row is open,
 *     activate if the bank is closed.
 *
 * "Oldest" is arrival order over the whole channel. The queue is one
 * arrival-ordered list per bank, and every request carries a
 * per-controller arrival sequence number, so each pick compares at
 * most one candidate per bank:
 *
 *  - the column winner is the lowest-numbered of the ready banks'
 *    oldest open-row hits;
 *  - the precharge/activate winner is the lowest-numbered of the
 *    banks' oldest non-hits, among banks whose command time has come.
 *    All non-hits of a bank wait on the same bank conditions except
 *    the starvation cap, which counts from arrival, and arrival times
 *    never decrease along a bank's queue. So a bank's oldest non-hit
 *    has the bank's earliest `bankCommandAt`: if it cannot take a
 *    command, none of the bank's requests can.
 *
 * Two bank bitsets, one 64-bit word per 64 banks, name the banks that
 * can supply a candidate: open banks holding a queued hit on their
 * open row, and banks holding any other request. A pick visits only
 * those banks.
 *
 * Column accesses reserve the shared data bus for tBurst cycles;
 * request data is ready tCL + tBurst cycles after the column command.
 * Event counts (activations, reads, writes, row hits/misses) feed the
 * Micron power model and the Fig. 15/16 benches.
 */

#ifndef VALLEY_DRAM_MEMORY_CONTROLLER_HH
#define VALLEY_DRAM_MEMORY_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/dram_timing.hh"
#include "mapping/address_layout.hh"

namespace valley {

/** A DRAM transaction (one 128 B line fill or writeback). */
struct DramRequest
{
    DramCoord coord;       ///< mapped channel/bank/row/column
    bool write = false;    ///< writeback (no completion callback)
    std::uint64_t tag = 0; ///< caller cookie returned on completion
};

/** A finished read transaction. */
struct DramCompletion
{
    std::uint64_t tag = 0;
    Cycle finished = 0; ///< DRAM cycle the data burst completed
    bool write = false;
};

/** Event counters for one channel. */
struct DramChannelStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowMisses = 0;   ///< accesses that required an activation
    std::uint64_t activations = 0;
    std::uint64_t precharges = 0;
    std::uint64_t busBusyCycles = 0;
    std::uint64_t latencySum = 0;  ///< enqueue-to-data DRAM cycles (reads)

    bool operator==(const DramChannelStats &) const = default;

    /** Column accesses served from an already-open row (Fig. 15). */
    double
    rowHitRate() const
    {
        const std::uint64_t total = reads + writes;
        if (total == 0)
            return 0.0;
        const std::uint64_t misses = std::min(rowMisses, total);
        return static_cast<double>(total - misses) /
               static_cast<double>(total);
    }
};

/**
 * One channel's controller: per-bank request queues + bank state +
 * data bus.
 */
class MemoryController
{
  public:
    MemoryController(unsigned num_banks, const DramTiming &timing,
                     unsigned queue_capacity = 64);

    /** True iff the request queue has room. */
    bool canAccept() const { return queued < queueCapacity; }

    /**
     * Enqueue a transaction; returns false (and drops it) when full —
     * callers must retry, providing backpressure into the LLC.
     * `now` must not decrease from one call to the next.
     */
    bool enqueue(const DramRequest &req, Cycle now);

    /**
     * Advance one DRAM command cycle; completed reads are appended to
     * `done`.
     */
    void tick(Cycle now, std::vector<DramCompletion> &done);

    /** Outstanding requests (queued + in flight). */
    unsigned
    pending() const
    {
        return queued + static_cast<unsigned>(inflight.size());
    }

    /** Number of banks with at least one queued request. */
    unsigned banksWithPending() const { return busyBanks; }

    const DramChannelStats &stats() const { return stats_; }

    unsigned numBanks() const
    {
        return static_cast<unsigned>(banks.size());
    }

  private:
    /** A queued request, as its bank's queue holds it. */
    struct Queued
    {
        std::uint64_t seq; ///< arrival order over the channel
        Cycle enqueued;    ///< DRAM cycle of arrival (for latency)
        std::uint64_t tag;
        unsigned row;
        bool write;
    };

    struct Bank
    {
        bool open = false;
        unsigned openRow = 0;
        Cycle readyAt = 0;      ///< earliest next command
        Cycle activatedAt = 0;  ///< for the tRAS constraint
        unsigned openRowQueued = 0; ///< queued row hits (while open)
        std::vector<Queued> queue;  ///< arrival order
    };

    /** In-flight column access waiting for its data burst. */
    struct Inflight
    {
        std::uint64_t tag;
        Cycle doneAt;
        bool write;
        Cycle enqueued;
    };

    bool tryIssueColumn(Cycle now);
    bool tryBankCommand(Cycle now);
    /**
     * Earliest cycle >= `now` at which `req`, queued at `bank`, could
     * get its precharge or activate if no request arrived or left:
     * `now` if it can issue now, the largest Cycle for a row hit
     * (which needs a column access instead).
     */
    Cycle bankCommandAt(const Bank &bank, const Queued &req,
                        Cycle now) const;
    /** Re-derive bank `b`'s bits in `hitBanks` and `otherBanks`. */
    void updateBankSets(unsigned b);

    DramTiming timing;
    unsigned queueCapacity;
    std::vector<Bank> banks;
    /** Open banks with a queued hit on their open row. */
    std::vector<std::uint64_t> hitBanks;
    /** Banks with a queued request that is not an open-row hit. */
    std::vector<std::uint64_t> otherBanks;
    unsigned queued = 0;    ///< requests over all bank queues
    unsigned busyBanks = 0; ///< banks with a non-empty queue
    std::uint64_t nextSeq = 0;
    std::vector<Inflight> inflight;
    Cycle busFreeAt = 0;
    Cycle nextActivateAt = 0; ///< tRRD window across banks
    /**
     * No precharge or activate can issue before this cycle: the
     * minimum bankCommandAt over the queue at the last fruitless scan.
     * Arrivals, and a bank's last row hit leaving, lower it.
     */
    Cycle bankIdleUntil = 0;
    DramChannelStats stats_;
};

} // namespace valley

#endif // VALLEY_DRAM_MEMORY_CONTROLLER_HH
