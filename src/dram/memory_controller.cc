#include "dram/memory_controller.hh"

#include <algorithm>
#include <cassert>
#include <limits>

namespace valley {

namespace {

constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

/** Longest a conflicting request waits while row hits hold the row. */
constexpr Cycle kStarvationLimit = 2000;

} // namespace

MemoryController::MemoryController(unsigned num_banks,
                                   const DramTiming &timing_,
                                   unsigned queue_capacity)
    : timing(timing_), queueCapacity(queue_capacity), banks(num_banks)
{
    assert(num_banks >= 1);
}

bool
MemoryController::enqueue(const DramRequest &req, Cycle now)
{
    if (!canAccept())
        return false;
    assert(req.coord.bank < banks.size());
    DramRequest r = req;
    r.enqueued = now;
    Bank &bank = banks[r.coord.bank];
    bank.queued++;
    if (bank.open && bank.openRow == r.coord.row)
        bank.openRowQueued++;
    queue.push_back(r);
    bankIdleUntil = std::min(bankIdleUntil, bankCommandAt(r, now));
    return true;
}

bool
MemoryController::tryIssueColumn(Cycle now)
{
    if (busFreeAt > now)
        return false;
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        Bank &bank = banks[it->coord.bank];
        if (bank.open && bank.openRow == it->coord.row &&
            bank.readyAt <= now) {
            // Column access: reserve the bus, schedule completion.
            busFreeAt = now + timing.tBurst;
            stats_.busBusyCycles += timing.tBurst;
            const Cycle done = now + timing.tCL + timing.tBurst;
            // Write recovery keeps the bank busy slightly longer.
            bank.readyAt =
                it->write ? now + timing.tBurst + timing.tWR
                          : now + timing.tBurst;
            if (it->write)
                stats_.writes++;
            else
                stats_.reads++;
            inflight.push_back(
                Inflight{it->tag, done, it->write, it->enqueued});
            bank.queued--;
            // With its last hit gone, the bank's conflicting requests
            // no longer wait for the starvation cap.
            if (--bank.openRowQueued == 0)
                bankIdleUntil = std::min(
                    bankIdleUntil,
                    std::max(bank.readyAt, bank.activatedAt + timing.tRAS));
            queue.erase(it);
            return true;
        }
    }
    return false;
}

Cycle
MemoryController::bankCommandAt(const DramRequest &req, Cycle now) const
{
    const Bank &bank = banks[req.coord.bank];
    const Cycle ready = std::max(bank.readyAt, now);
    if (!bank.open)
        return std::max(ready, nextActivateAt); // activate, after tRRD
    if (bank.openRow == req.coord.row)
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
    Cycle wake = kNever;
    for (const DramRequest &req : queue) {
        const Cycle at = bankCommandAt(req, now);
        if (at > now) {
            wake = std::min(wake, at);
            continue;
        }
        Bank &bank = banks[req.coord.bank];
        if (bank.open) {
            // Conflict: close the current row.
            bank.open = false;
            bank.openRowQueued = 0;
            bank.readyAt = now + timing.tRP;
            stats_.precharges++;
            return true;
        }
        // Closed bank: activate the request's row.
        bank.open = true;
        bank.openRow = req.coord.row;
        bank.openRowQueued = static_cast<unsigned>(std::count_if(
            queue.begin(), queue.end(), [&](const DramRequest &other) {
                return other.coord.bank == req.coord.bank &&
                       other.coord.row == req.coord.row;
            }));
        bank.readyAt = now + timing.tRCD;
        bank.activatedAt = now;
        nextActivateAt = now + timing.tRRD;
        stats_.activations++;
        stats_.rowMisses++;
        return true;
    }
    bankIdleUntil = wake;
    return false;
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

unsigned
MemoryController::pending() const
{
    return static_cast<unsigned>(queue.size() + inflight.size());
}

unsigned
MemoryController::banksWithPending() const
{
    unsigned n = 0;
    for (const Bank &b : banks)
        n += b.queued > 0;
    return n;
}

} // namespace valley
