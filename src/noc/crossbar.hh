/**
 * @file
 * Input-queued crossbar network-on-chip (Table I: 12x8 crossbar,
 * 700 MHz, 32-byte channels).
 *
 * Packets carry a byte size; a packet occupies its output port for
 * ceil(bytes / channelBytes) NoC cycles. Each output port arbitrates
 * round-robin over the input queues whose head packet targets it —
 * the classic input-queued crossbar with head-of-line blocking, which
 * is exactly the congestion behavior that makes LLC-slice imbalance
 * expensive (paper Section VI-B, Fig. 13a).
 */

#ifndef VALLEY_NOC_CROSSBAR_HH
#define VALLEY_NOC_CROSSBAR_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace valley {

/** A packet delivered by the crossbar. */
struct NocDelivery
{
    unsigned output = 0;
    std::uint64_t tag = 0;
    Cycle delivered = 0; ///< NoC cycle the tail flit arrived
    Cycle injected = 0;
};

/** Aggregate NoC statistics. */
struct NocStats
{
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;
    std::uint64_t latencySum = 0; ///< inject-to-delivery, NoC cycles
    std::uint64_t rejects = 0;    ///< injections refused (queue full)

    double
    avgLatency() const
    {
        return packets ? static_cast<double>(latencySum) /
                             static_cast<double>(packets)
                       : 0.0;
    }
};

/**
 * One direction of the interconnect (request or reply network).
 */
class Crossbar
{
  public:
    /**
     * @param inputs        input ports (SMs for requests)
     * @param outputs       output ports (LLC slices for requests)
     * @param channel_bytes flit width (32 B in Table I)
     * @param queue_depth   per-input packet queue depth
     */
    Crossbar(unsigned inputs, unsigned outputs, unsigned channel_bytes,
             unsigned queue_depth = 8);

    /** True iff input port `in` can take another packet. */
    bool canInject(unsigned in) const;

    /**
     * Inject a packet; returns false (rejected) when the input queue
     * is full.
     */
    bool inject(unsigned in, unsigned out, unsigned bytes,
                std::uint64_t tag, Cycle now);

    /**
     * Advance one NoC cycle; deliveries completing this cycle are
     * appended to `done`.
     */
    void tick(Cycle now, std::vector<NocDelivery> &done);

    /** Packets buffered or in flight. */
    unsigned pending() const;

    const NocStats &stats() const { return stats_; }

    unsigned numInputs() const { return inputs; }
    unsigned numOutputs() const { return outputs; }

  private:
    struct Packet
    {
        unsigned output;
        unsigned flits;
        std::uint64_t tag;
        Cycle injected;
    };

    struct OutputPort
    {
        Cycle busyUntil = 0;
        bool transferring = false;
        Packet current{};
    };

    unsigned inputs;
    unsigned outputs;
    unsigned channelBytes;
    unsigned queueDepth;
    std::vector<std::deque<Packet>> inQueue;
    std::vector<OutputPort> outPort;
    /** Per output: input queues whose head packet targets it. */
    std::vector<unsigned> headsFor;
    unsigned rrPointer = 0;
    NocStats stats_;
};

} // namespace valley

#endif // VALLEY_NOC_CROSSBAR_HH
