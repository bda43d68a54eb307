#include "workloads/trace.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace valley {

std::size_t
coalesce(std::span<Addr> addrs, unsigned line_bytes)
{
    assert(std::has_single_bit(line_bytes));
    if (addrs.empty())
        return 0;
    const Addr mask = ~Addr{line_bytes - 1};
    // Mask each address to its line, writing over the addresses
    // already read. Adjacent duplicates (a warp walking one line)
    // drop here; only out-of-order lines need the sort.
    Addr prev = addrs[0] & mask;
    addrs[0] = prev;
    std::size_t n = 1;
    bool ascending = true;
    for (std::size_t i = 1; i < addrs.size(); ++i) {
        const Addr line = addrs[i] & mask;
        if (line == prev)
            continue;
        ascending &= line > prev;
        addrs[n++] = prev = line;
    }
    if (!ascending) {
        const auto lines = addrs.first(n);
        std::sort(lines.begin(), lines.end());
        n = static_cast<std::size_t>(
            std::unique(lines.begin(), lines.end()) - lines.begin());
    }
    return n;
}

TraceBuilder::TraceBuilder(unsigned warps_per_tb, unsigned line_bytes,
                           unsigned compute_gap)
    : lineBytes_(line_bytes), computeGap(compute_gap),
      pendingGap(warps_per_tb, 0)
{
    if (!std::has_single_bit(line_bytes))
        throw std::invalid_argument(
            "TraceBuilder: line size must be a power of two, got " +
            std::to_string(line_bytes));
    // Room for 8 instructions a warp: most Table II TBs issue no more
    // (LPS, SC, FWT, MT, DWT2D), so the record seldom regrows, and
    // it dies with the builder. The line store is not reserved: a
    // `TbTrace` keeps its capacity for as long as it lives.
    pending.reserve(8 * std::size_t{warps_per_tb});
}

void
TraceBuilder::commit(unsigned warp, std::size_t first, bool write)
{
    assert(warp < pendingGap.size());
    const std::size_t n =
        coalesce(std::span<Addr>(lines).subspan(first), lineBytes_);
    lines.resize(first + n);
    if (n == 0)
        return;
    pending.push_back(
        {warp, static_cast<std::uint32_t>(first),
         static_cast<std::uint32_t>(n),
         static_cast<std::uint16_t>(
             std::min<unsigned>(computeGap + pendingGap[warp], 0xFFFF)),
         write});
    pendingGap[warp] = 0;
}

void
TraceBuilder::access(unsigned warp, std::span<const Addr> thread_addrs,
                     bool write)
{
    const std::size_t first = lines.size();
    lines.insert(lines.end(), thread_addrs.begin(), thread_addrs.end());
    commit(warp, first, write);
}

void
TraceBuilder::accessStrided(unsigned warp, Addr base, std::int64_t stride,
                            unsigned threads, bool write)
{
    const std::size_t first = lines.size();
    lines.resize(first + threads);
    for (unsigned t = 0; t < threads; ++t) {
        const std::int64_t a = static_cast<std::int64_t>(base) +
                               static_cast<std::int64_t>(t) * stride;
        assert(a >= 0);
        lines[first + t] = static_cast<Addr>(a);
    }
    commit(warp, first, write);
}

void
TraceBuilder::accessLine(unsigned warp, Addr line_addr, bool write)
{
    const std::size_t first = lines.size();
    lines.push_back(line_addr);
    commit(warp, first, write);
}

void
TraceBuilder::computeDelay(unsigned warp, unsigned cycles)
{
    assert(warp < pendingGap.size());
    pendingGap[warp] += cycles;
}

TbTrace
TraceBuilder::take()
{
    TbTrace tb;
    tb.lines = std::move(lines);
    tb.instrs.resize(pending.size());
    tb.warps.resize(pendingGap.size());

    // Counting sort by warp, stable, so each warp's instructions stay
    // in issue order. slot[w + 1] first counts warp w; after the
    // prefix sum slot[w] is warp w's first slot and, once placement
    // has advanced it, one past its last.
    std::vector<std::uint32_t> slot(tb.warps.size() + 1, 0);
    for (const Pending &p : pending)
        ++slot[p.warp + 1];
    for (std::size_t w = 1; w < slot.size(); ++w)
        slot[w] += slot[w - 1];
    for (const Pending &p : pending)
        tb.instrs[slot[p.warp]++] = MemInstr{
            std::span<const Addr>(tb.lines).subspan(p.first, p.count),
            p.write, p.gap};

    std::uint32_t begin = 0;
    for (std::size_t w = 0; w < tb.warps.size(); ++w) {
        tb.warps[w].instrs = std::span<const MemInstr>(tb.instrs)
                                 .subspan(begin, slot[w] - begin);
        begin = slot[w];
    }
    return tb;
}

} // namespace valley
