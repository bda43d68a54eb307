#include "noc/crossbar.hh"

#include <cassert>

namespace valley {

Crossbar::Crossbar(unsigned inputs_, unsigned outputs_,
                   unsigned channel_bytes, unsigned queue_depth)
    : inputs(inputs_), outputs(outputs_), channelBytes(channel_bytes),
      queueDepth(queue_depth), inQueue(inputs_), outPort(outputs_),
      headsFor(outputs_, 0)
{
    assert(inputs >= 1 && outputs >= 1 && channelBytes >= 1);
}

bool
Crossbar::canInject(unsigned in) const
{
    assert(in < inputs);
    return inQueue[in].size() < queueDepth;
}

bool
Crossbar::inject(unsigned in, unsigned out, unsigned bytes,
                 std::uint64_t tag, Cycle now)
{
    assert(in < inputs && out < outputs);
    if (!canInject(in)) {
        ++stats_.rejects;
        return false;
    }
    Packet p;
    p.output = out;
    p.flits = (bytes + channelBytes - 1) / channelBytes;
    if (p.flits == 0)
        p.flits = 1;
    p.tag = tag;
    p.injected = now;
    if (inQueue[in].empty())
        ++headsFor[out];
    inQueue[in].push_back(p);
    return true;
}

void
Crossbar::tick(Cycle now, std::vector<NocDelivery> &done)
{
    // Complete transfers whose tail flit has passed.
    for (unsigned o = 0; o < outputs; ++o) {
        OutputPort &port = outPort[o];
        if (port.transferring && port.busyUntil <= now) {
            port.transferring = false;
            ++stats_.packets;
            stats_.flits += port.current.flits;
            stats_.latencySum += now - port.current.injected;
            done.push_back(
                NocDelivery{o, port.current.tag, now,
                            port.current.injected});
        }
    }

    // Arbitration: each free output picks one input whose head packet
    // targets it. The round-robin start pointer rotates each cycle for
    // fairness across SMs. A popped queue's next head counts at once,
    // so it can still win a later output in this same tick.
    for (unsigned o = 0; o < outputs; ++o) {
        OutputPort &port = outPort[o];
        if (port.transferring || headsFor[o] == 0)
            continue;
        unsigned in = rrPointer;
        for (unsigned k = 0; k < inputs;
             ++k, in = in + 1 == inputs ? 0 : in + 1) {
            std::deque<Packet> &queue = inQueue[in];
            if (queue.empty() || queue.front().output != o)
                continue; // empty, or head-of-line blocking
            const Packet &head = queue.front();
            port.current = head;
            port.transferring = true;
            port.busyUntil = now + head.flits;
            queue.pop_front();
            --headsFor[o];
            if (!queue.empty())
                ++headsFor[queue.front().output];
            break;
        }
    }
    if (++rrPointer == inputs)
        rrPointer = 0;
}

unsigned
Crossbar::pending() const
{
    unsigned n = 0;
    for (const auto &q : inQueue)
        n += static_cast<unsigned>(q.size());
    for (const auto &port : outPort)
        n += port.transferring ? 1 : 0;
    return n;
}

} // namespace valley
