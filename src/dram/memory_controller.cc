#include "dram/memory_controller.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace valley {

namespace {

constexpr Cycle kNever = std::numeric_limits<Cycle>::max();
constexpr std::uint64_t kNoSeq = std::numeric_limits<std::uint64_t>::max();

/** Longest a conflicting request waits while row hits hold the row. */
constexpr Cycle kStarvationLimit = 2000;

/** Call `f(bank)` for every bank whose bit is set in `set`. */
template <typename F>
void
forEachBank(const std::vector<std::uint64_t> &set, F f)
{
    for (std::size_t w = 0; w < set.size(); ++w)
        for (std::uint64_t bits = set[w]; bits != 0; bits &= bits - 1)
            f(static_cast<unsigned>(w * 64 + std::countr_zero(bits)));
}

} // namespace

MemoryController::MemoryController(unsigned num_banks,
                                   const DramTiming &timing_,
                                   unsigned queue_capacity)
    : timing(timing_), queueCapacity(queue_capacity), banks(num_banks),
      hitBanks((num_banks + 63) / 64), otherBanks((num_banks + 63) / 64)
{
    assert(num_banks >= 1);
}

void
MemoryController::updateBankSets(unsigned b)
{
    const Bank &bank = banks[b];
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    std::uint64_t &hit = hitBanks[b / 64];
    std::uint64_t &other = otherBanks[b / 64];
    hit = bank.openRowQueued > 0 ? hit | bit : hit & ~bit;
    other = bank.queue.size() > bank.openRowQueued ? other | bit
                                                   : other & ~bit;
}

bool
MemoryController::enqueue(const DramRequest &req, Cycle now)
{
    if (!canAccept())
        return false;
    assert(req.coord.bank < banks.size());
    Bank &bank = banks[req.coord.bank];
    // FCFS takes a bank's oldest non-hit as its earliest command; that
    // needs arrival times in order along the bank's queue.
    assert(bank.queue.empty() || bank.queue.back().enqueued <= now);
    const Queued q{nextSeq++, now, req.tag, req.coord.row, req.write};
    busyBanks += bank.queue.empty();
    bank.queue.push_back(q);
    ++queued;
    if (bank.open && bank.openRow == q.row)
        bank.openRowQueued++;
    updateBankSets(req.coord.bank);
    bankIdleUntil = std::min(bankIdleUntil, bankCommandAt(bank, q, now));
    return true;
}

bool
MemoryController::tryIssueColumn(Cycle now)
{
    if (busFreeAt > now)
        return false;
    // The oldest ready row hit: each ready hit bank offers its first
    // queued hit. A bank whose front is younger than the best so far
    // cannot win.
    unsigned winner = 0;
    std::size_t index = 0;
    std::uint64_t best = kNoSeq;
    forEachBank(hitBanks, [&](unsigned b) {
        const Bank &bank = banks[b];
        if (bank.readyAt > now || bank.queue.front().seq >= best)
            return;
        const auto hit = std::find_if(
            bank.queue.begin(), bank.queue.end(),
            [&](const Queued &q) { return q.row == bank.openRow; });
        if (hit->seq < best) {
            best = hit->seq;
            winner = b;
            index = static_cast<std::size_t>(hit - bank.queue.begin());
        }
    });
    if (best == kNoSeq)
        return false;

    Bank &bank = banks[winner];
    const Queued req = bank.queue[index];
    // Column access: reserve the bus, schedule completion.
    busFreeAt = now + timing.tBurst;
    stats_.busBusyCycles += timing.tBurst;
    const Cycle done = now + timing.tCL + timing.tBurst;
    // Write recovery keeps the bank busy slightly longer.
    bank.readyAt = req.write ? now + timing.tBurst + timing.tWR
                             : now + timing.tBurst;
    if (req.write)
        stats_.writes++;
    else
        stats_.reads++;
    inflight.push_back(Inflight{req.tag, done, req.write, req.enqueued});
    bank.queue.erase(bank.queue.begin() +
                     static_cast<std::ptrdiff_t>(index));
    --queued;
    busyBanks -= bank.queue.empty();
    // With its last hit gone, the bank's conflicting requests no
    // longer wait for the starvation cap.
    if (--bank.openRowQueued == 0)
        bankIdleUntil = std::min(
            bankIdleUntil,
            std::max(bank.readyAt, bank.activatedAt + timing.tRAS));
    updateBankSets(winner);
    return true;
}

Cycle
MemoryController::bankCommandAt(const Bank &bank, const Queued &req,
                                Cycle now) const
{
    const Cycle ready = std::max(bank.readyAt, now);
    if (!bank.open)
        return std::max(ready, nextActivateAt); // activate, after tRRD
    if (bank.openRow == req.row)
        return kNever; // a column access will pick this up when ready
    // Row conflict: precharge, after tRAS. FR-FCFS keeps the row open
    // while younger row hits are still queued for it, but caps the
    // wait so conflicting requests cannot starve.
    const Cycle closable = std::max(ready, bank.activatedAt + timing.tRAS);
    if (bank.openRowQueued > 0)
        return std::max(closable, req.enqueued + kStarvationLimit);
    return closable;
}

bool
MemoryController::tryBankCommand(Cycle now)
{
    // FCFS over requests whose bank can make progress. A request
    // counts as a row miss once, when its row conflict is first
    // resolved (precharge or activate of its row). Nothing can issue
    // before bankIdleUntil, so the scan is skipped until then.
    if (now < bankIdleUntil)
        return false;
    // Each bank offers its oldest non-hit, which has the bank's
    // earliest bankCommandAt (see the file comment).
    Cycle wake = kNever;
    unsigned winner = 0;
    std::uint64_t best = kNoSeq;
    forEachBank(otherBanks, [&](unsigned b) {
        const Bank &bank = banks[b];
        if (bank.queue.front().seq >= best)
            return;
        const Queued &req =
            bank.openRowQueued == 0
                ? bank.queue.front()
                : *std::find_if(bank.queue.begin(), bank.queue.end(),
                                [&](const Queued &q) {
                                    return q.row != bank.openRow;
                                });
        const Cycle at = bankCommandAt(bank, req, now);
        if (at > now) {
            wake = std::min(wake, at);
        } else if (req.seq < best) {
            best = req.seq;
            winner = b;
        }
    });
    if (best == kNoSeq) {
        bankIdleUntil = wake;
        return false;
    }

    Bank &bank = banks[winner];
    if (bank.open) {
        // Conflict: close the current row.
        bank.open = false;
        bank.openRowQueued = 0;
        bank.readyAt = now + timing.tRP;
        stats_.precharges++;
        updateBankSets(winner);
        return true;
    }
    // Closed bank: activate the row of its oldest request.
    const unsigned row = bank.queue.front().row;
    bank.open = true;
    bank.openRow = row;
    bank.openRowQueued = static_cast<unsigned>(
        std::count_if(bank.queue.begin(), bank.queue.end(),
                      [&](const Queued &q) { return q.row == row; }));
    bank.readyAt = now + timing.tRCD;
    bank.activatedAt = now;
    nextActivateAt = now + timing.tRRD;
    stats_.activations++;
    stats_.rowMisses++;
    updateBankSets(winner);
    return true;
}

void
MemoryController::tick(Cycle now, std::vector<DramCompletion> &done)
{
    // Retire finished bursts.
    for (std::size_t i = 0; i < inflight.size();) {
        if (inflight[i].doneAt <= now) {
            if (!inflight[i].write) {
                stats_.latencySum += now - inflight[i].enqueued;
                done.push_back(DramCompletion{inflight[i].tag, now,
                                              false});
            }
            inflight[i] = inflight.back();
            inflight.pop_back();
        } else {
            ++i;
        }
    }

    // One command per cycle: column accesses take priority (FR), then
    // bank management for the oldest blocked request (FCFS).
    if (!tryIssueColumn(now))
        tryBankCommand(now);
}

} // namespace valley
