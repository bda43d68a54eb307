#include "search/bim_search.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/bitops.hh"
#include "common/metrics.hh"
#include "common/parallel_for.hh"
#include "common/rng.hh"
#include "common/trace_span.hh"

namespace valley {
namespace search {

namespace {

/**
 * The anneal's Metropolis temperature schedule: geometric cooling
 * from the start to the end temperature over each chain's
 * `iterations`. Both shape every searched matrix, so changing one
 * bumps `kSearchVersion`.
 */
constexpr double kInitialTemp = 0.08;
constexpr double kFinalTemp = 2e-5;

/**
 * Rank check of the full candidate matrix: identity everywhere except
 * the target rows, with target row `slot` replaced by `new_row`. This
 * is the invertibility invariant's enforcement point — every tap
 * toggle and every random start draw calls it before it can enter the
 * chain, so no singular matrix ever does (see bim_search.hh).
 */
bool
invertibleWithTargets(unsigned n, const std::vector<unsigned> &targets,
                      const std::vector<std::uint64_t> &target_rows,
                      std::size_t slot, std::uint64_t new_row)
{
    std::uint64_t rows[64];
    for (unsigned r = 0; r < n; ++r)
        rows[r] = std::uint64_t{1} << r;
    for (std::size_t i = 0; i < targets.size(); ++i)
        rows[targets[i]] = target_rows[i];
    rows[targets[slot]] = new_row;

    unsigned rank = 0;
    for (unsigned c = 0; c < n && rank < n; ++c) {
        unsigned p = rank;
        while (p < n && !((rows[p] >> c) & 1))
            ++p;
        if (p == n)
            continue;
        std::swap(rows[rank], rows[p]);
        for (unsigned r = 0; r < n; ++r)
            if (r != rank && ((rows[r] >> c) & 1))
                rows[r] ^= rows[rank];
        ++rank;
    }
    return rank == n;
}

/** XOR gates of the target rows (non-target rows are identity = 0). */
unsigned
gateCount(const std::vector<std::uint64_t> &rows)
{
    unsigned g = 0;
    for (std::uint64_t r : rows) {
        const unsigned taps = static_cast<unsigned>(std::popcount(r));
        g += taps > 1 ? taps - 1 : 0;
    }
    return g;
}

/** Deterministic per-restart seed derivation. */
std::uint64_t
chainSeed(std::uint64_t seed, unsigned restart)
{
    return (seed + 1) * 0x9E3779B97F4A7C15ull ^
           (static_cast<std::uint64_t>(restart) + 1) *
               0xBF58476D1CE4E5B9ull;
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Mirror one finished search's aggregate stats into the registry —
 * per-phase evals and microseconds as counters (accumulating across
 * searches in the process), so a --metrics snapshot can derive
 * per-phase evals/sec without access to the SearchResult.
 */
void
exportStatsToRegistry(const SearchStats &s)
{
    const auto us = [](double seconds) {
        return seconds > 0.0
                   ? static_cast<std::uint64_t>(seconds * 1e6)
                   : 0;
    };
    metrics::counter("search.evaluations").add(s.evaluations);
    metrics::counter("search.evals_setup").add(s.setupEvaluations);
    metrics::counter("search.evals_anneal").add(s.annealEvaluations);
    metrics::counter("search.evals_polish").add(s.polishEvaluations);
    metrics::counter("search.setup_us").add(us(s.setupSeconds));
    metrics::counter("search.anneal_us").add(us(s.annealSeconds));
    metrics::counter("search.polish_us").add(us(s.polishSeconds));
    metrics::counter("search.total_us").add(us(s.totalSeconds));
    metrics::counter("search.plane_toggles").add(s.planeToggles);
    metrics::counter("search.plane_xors").add(s.planeXors);
    metrics::counter("search.plane_rebuilds").add(s.planeRebuilds);
    metrics::counter("search.kernels_rescored").add(s.kernelsRescored);
    metrics::counter("search.kernels_reused").add(s.kernelsReused);
    metrics::counter("search.memo_hits").add(s.memoHits);
    // Throughput of the finished run (last-writer-wins gauge): the
    // headline evaluations/sec the throughput bench tracks.
    if (s.totalSeconds > 0.0)
        metrics::gauge("search.evals_per_sec")
            .set(static_cast<std::int64_t>(
                static_cast<double>(s.evaluations) / s.totalSeconds));
    if (s.deadlineHit)
        metrics::counter("search.deadline_hits").inc();
    if (s.capped)
        metrics::counter("search.capped").inc();
}

} // namespace

void
checkMemberWeights(const SearchOptions &opts, std::size_t members)
{
    if (!opts.memberWeights.empty() &&
        opts.memberWeights.size() != members)
        throw std::invalid_argument(
            "memberWeights size " +
            std::to_string(opts.memberWeights.size()) +
            " != workload set size " + std::to_string(members));
}

BimSearch::BimSearch(const AddressLayout &layout,
                     std::vector<const workloads::TracePlanes *> planes,
                     SearchOptions opts_)
    : nbits(layout.addrBits), planes_(std::move(planes)),
      opts(std::move(opts_))
{
    if (planes_.empty())
        throw std::invalid_argument("BimSearch: empty plane set");
    for (const workloads::TracePlanes *p : planes_)
        if (p == nullptr || p->numBits() != nbits)
            throw std::invalid_argument(
                "BimSearch: planes bit width != layout address bits");
    checkMemberWeights(opts, planes_.size());

    mask_ = opts.candidateMask & bits::mask(nbits);
    if (opts.targets.empty())
        throw std::invalid_argument("BimSearch: no target bits");
    for (unsigned t : opts.targets) {
        if (t >= nbits)
            throw std::invalid_argument(
                "BimSearch: target out of range");
        // Same precondition as bim::randomBroad: a target column that
        // no target row can tap would be zero everywhere (non-target
        // rows are identity), making every candidate singular.
        if (!((mask_ >> t) & 1))
            throw std::invalid_argument(
                "BimSearch: targets must be candidates");
    }
    for (unsigned b = 0; b < nbits; ++b)
        if ((mask_ >> b) & 1)
            candidateBits.push_back(b);
    if (opts.restarts == 0)
        opts.restarts = 1;

    // Channel parallelism gates both the NoC and the DRAM bus
    // (Figs. 13-14), so the channel (and vault) bits weigh double.
    std::uint64_t channel_mask = 0;
    for (unsigned b : layout.channelBits())
        channel_mask |= std::uint64_t{1} << b;
    for (unsigned t : opts.targets)
        objective.flatness.targetWeights.push_back(
            ((channel_mask >> t) & 1) ? 2.0 : 1.0);
    objective.combiner = opts.combiner;
    objective.memberWeights = opts.memberWeights;
}

std::uint64_t
BimSearch::chainBudget(bool greedy) const
{
    if (opts.maxEvaluations == 0)
        return 0;
    // greedy() is one chain and gets the whole per-run cap; anneal()
    // splits it evenly across its restart chains.
    if (greedy)
        return opts.maxEvaluations;
    return std::max<std::uint64_t>(1,
                                   opts.maxEvaluations / opts.restarts);
}

double
BimSearch::identityCost() const
{
    const std::size_t nt = opts.targets.size();
    std::vector<double> ent(nt);
    std::vector<double> member_costs(planes_.size());
    for (std::size_t m = 0; m < planes_.size(); ++m) {
        for (std::size_t i = 0; i < nt; ++i)
            ent[i] = planes_[m]->rowEntropy(
                std::uint64_t{1} << opts.targets[i], opts.window,
                opts.metric);
        member_costs[m] = objective.memberCost(ent, 0);
    }
    return objective.combine(member_costs);
}

/** Mutable state of one annealing chain. */
struct BimSearch::Chain
{
    std::vector<std::uint64_t> rows; ///< target row masks
    std::vector<double> ent;  ///< cached entropy, [member*nt + target]
    std::vector<double> memberCost; ///< cached per-member flatness
    unsigned gates = 0;
    double cost = 0.0;
};

SearchResult
BimSearch::runChain(unsigned restart, bool greedy) const
{
    const std::size_t nt = opts.targets.size();
    const std::size_t nm = planes_.size();
    XorShiftRng rng(chainSeed(opts.seed, restart));
    SearchStats stats;
    const std::uint64_t budget = chainBudget(greedy);

    // From-scratch oracle scoring (the planeCache = false path, and
    // the reference the cached path is tested against).
    const auto evalRow = [&](std::size_t m, std::uint64_t row) {
        ++stats.evaluations;
        return planes_[m]->rowEntropy(row, opts.window, opts.metric);
    };

    // Incremental plane cache (SearchOptions::planeCache): for every
    // (member, target slot) the current row as a TracePlanes::Row —
    // combined output plane, exact per-TB one-counts and per-kernel
    // entropies — plus one proposal scratch per member. A proposal
    // rescores only the kernels its move changes; an accept commits
    // just those kernels into the slot. One-counts are exact integers,
    // so every entropy value equals the oracle's bit for bit.
    using Row = workloads::TracePlanes::Row;
    using Proposal = workloads::TracePlanes::Proposal;
    const bool use_cache = opts.planeCache;
    std::vector<Row> cache;        // [m * nt + i], rows of cur
    std::vector<Proposal> scratch; // [m], the proposed row
    if (use_cache) {
        cache.reserve(nm * nt);
        scratch.reserve(nm);
        for (std::size_t m = 0; m < nm; ++m) {
            scratch.emplace_back(*planes_[m]);
            for (std::size_t i = 0; i < nt; ++i)
                cache.emplace_back(*planes_[m]);
        }
    }

    // (Re)seed cache slot (m, i) from scratch and score it — the
    // cache seeding path (setup and the polish reseed).
    const auto rebuildSlot = [&](std::size_t m, std::size_t i,
                                 std::uint64_t row) {
        Row &rc = cache[m * nt + i];
        planes_[m]->seedRow(row, opts.window, opts.metric, rc);
        ++stats.planeRebuilds;
        return rc.entropy();
    };

    const auto finishChain = [&](Chain &c) {
        c.gates = gateCount(c.rows);
        c.ent.resize(nm * nt);
        c.memberCost.resize(nm);
        for (std::size_t m = 0; m < nm; ++m) {
            for (std::size_t i = 0; i < nt; ++i) {
                if (use_cache) {
                    ++stats.evaluations;
                    c.ent[m * nt + i] = rebuildSlot(m, i, c.rows[i]);
                } else {
                    c.ent[m * nt + i] = evalRow(m, c.rows[i]);
                }
            }
            c.memberCost[m] = objective.memberCost(
                std::span<const double>(c.ent.data() + m * nt, nt),
                c.gates);
        }
        c.cost = objective.combine(c.memberCost);
    };

    const std::string span_tag =
        trace::enabled() ? (greedy ? std::string(" greedy#")
                                   : std::string(" chain#")) +
                               std::to_string(restart)
                         : std::string();

    // Start state: restart 0 (and the greedy baseline) start from the
    // identity, so any accepted move yields a strict improvement over
    // BASE; later restarts start from a random invertible draw for
    // diversity (randomBroad-style rejection sampling).
    auto phase_start = Clock::now();
    trace::Span setup_span(trace::enabled() ? "setup" + span_tag
                                            : std::string(),
                           "search");
    Chain cur;
    cur.rows.resize(nt);
    for (std::size_t i = 0; i < nt; ++i)
        cur.rows[i] = std::uint64_t{1} << opts.targets[i];
    if (restart != 0 && !greedy) {
        constexpr unsigned kDrawAttempts = 10000;
        std::vector<std::uint64_t> draw(nt);
        for (unsigned a = 0; a < kDrawAttempts; ++a) {
            for (std::size_t i = 0; i < nt; ++i) {
                std::uint64_t row = 0;
                do {
                    row = rng.next() & mask_;
                } while (row == 0);
                draw[i] = row;
            }
            // Slot 0 "replaced" by its own drawn row: the draw as is.
            if (invertibleWithTargets(nbits, opts.targets, draw, 0,
                                      draw[0])) {
                cur.rows = draw;
                break;
            }
            ++stats.rejectedSingular;
        }
    }
    finishChain(cur);
    Chain best = cur;

    // The mask memo (plane cache only): every row mask the chain has
    // scored, mapped to the offset of its `nm` member entropies in
    // `memo_ents`. A row's entropy is a pure function of its mask (the
    // window and metric are fixed per chain), so a hit is exactly what
    // rescoring would give. Seeded with the start rows; a step adds at
    // most one mask, so the start rows plus one per anneal and polish
    // step bound its size.
    const unsigned iters = opts.iterations;
    std::vector<double> new_ent(nm);
    std::unordered_map<std::uint64_t, std::size_t> memo;
    std::vector<double> memo_ents;
    const auto remember = [&](std::uint64_t mask, const double *ent) {
        memo.emplace(mask, memo_ents.size());
        memo_ents.insert(memo_ents.end(), ent, ent + nm);
    };
    if (use_cache) {
        const std::size_t max_masks = nt + iters + iters / 3 + 1;
        memo.reserve(max_masks);
        memo_ents.reserve(max_masks * nm);
        for (std::size_t i = 0; i < nt; ++i) {
            for (std::size_t m = 0; m < nm; ++m)
                new_ent[m] = cur.ent[m * nt + i];
            remember(cur.rows[i], new_ent.data());
        }
    }
    setup_span.end();
    stats.setupSeconds = secondsSince(phase_start);
    stats.setupEvaluations = stats.evaluations;

    std::vector<double> mc_scratch(nm);
    std::vector<double> old_ent(nm);

    // One Metropolis step at `temp` (0 = strict-improvement only).
    // Proposals are scored by editing the touched `cur.ent` slots in
    // place and restoring exactly those slots on reject — the nm x nt
    // matrix is never cloned per proposal.
    const auto step = [&](double temp) {
        // Propose one invertibility-preserving move (bim_search.hh).
        const unsigned kind = static_cast<unsigned>(rng.below(4));
        std::size_t i = static_cast<std::size_t>(rng.below(nt));
        std::size_t j = i;
        std::uint64_t new_row = 0;
        unsigned toggle_bit = 0;
        bool swap_move = false;
        if (kind <= 1) {
            // Tap toggle: flip one candidate tap of row i.
            toggle_bit = candidateBits[static_cast<std::size_t>(
                rng.below(candidateBits.size()))];
            new_row = cur.rows[i] ^ (std::uint64_t{1} << toggle_bit);
        } else if (kind == 2 && nt > 1) {
            // Row XOR: an elementary row operation.
            do {
                j = static_cast<std::size_t>(rng.below(nt));
            } while (j == i);
            new_row = cur.rows[i] ^ cur.rows[j];
        } else {
            // Row swap: permutes output positions; entropy values
            // move with the rows, so no re-evaluation is needed.
            if (nt <= 1)
                return;
            do {
                j = static_cast<std::size_t>(rng.below(nt));
            } while (j == i);
            swap_move = true;
        }

        // Score the move for member m from cached state into
        // scratch[m]: a tap toggle XORs in one input strip, a row XOR
        // combines two cached rows, each only in the kernels it
        // changes.
        const auto propose = [&](std::size_t m) {
            const Row &base = cache[m * nt + i];
            Proposal &cand = scratch[m];
            double e;
            if (kind <= 1) {
                e = planes_[m]->proposeToggle(base, toggle_bit, cand);
                ++stats.planeToggles;
            } else {
                e = planes_[m]->proposeXor(base, cache[m * nt + j],
                                           cand);
                ++stats.planeXors;
            }
            stats.kernelsRescored += cand.kernelsRescored();
            stats.kernelsReused +=
                planes_[m]->numKernels() - cand.kernelsRescored();
            return e;
        };

        double new_cost;
        unsigned new_gates = cur.gates;
        const double *memo_ent = nullptr;
        if (swap_move) {
            // Swapping two rows only permutes the output bits; rank
            // is invariant under row permutation, so no rank check is
            // needed (or possible to fail) here — the final
            // invertible() audit below still covers the result.
            // Entropy values travel with the rows: swap the two slots
            // in place (swapped back below if rejected).
            for (std::size_t m = 0; m < nm; ++m) {
                std::swap(cur.ent[m * nt + i], cur.ent[m * nt + j]);
                mc_scratch[m] = objective.memberCost(
                    std::span<const double>(
                        cur.ent.data() + m * nt, nt),
                    cur.gates);
            }
            new_cost = objective.combine(mc_scratch);
        } else {
            if (new_row == 0)
                return;
            // A row XOR is an elementary row operation and keeps the
            // rank, so only a tap toggle can make the matrix singular.
            if (kind <= 1 &&
                !invertibleWithTargets(nbits, opts.targets, cur.rows, i,
                                       new_row)) {
                ++stats.rejectedSingular;
                return;
            }
            assert(kind <= 1 ||
                   invertibleWithTargets(nbits, opts.targets, cur.rows,
                                         i, new_row));
            const unsigned old_taps = static_cast<unsigned>(
                std::popcount(cur.rows[i]));
            const unsigned new_taps =
                static_cast<unsigned>(std::popcount(new_row));
            new_gates = cur.gates - (old_taps > 1 ? old_taps - 1 : 0) +
                        (new_taps > 1 ? new_taps - 1 : 0);
            // A mask the chain scored before costs no plane work.
            if (const auto hit = memo.find(new_row); hit != memo.end())
                memo_ent = memo_ents.data() + hit->second;
            for (std::size_t m = 0; m < nm; ++m) {
                if (memo_ent != nullptr) {
                    ++stats.evaluations;
                    new_ent[m] = memo_ent[m];
                } else if (use_cache) {
                    ++stats.evaluations;
                    new_ent[m] = propose(m);
                } else {
                    new_ent[m] = evalRow(m, new_row);
                }
                old_ent[m] = cur.ent[m * nt + i];
                cur.ent[m * nt + i] = new_ent[m];
                mc_scratch[m] = objective.memberCost(
                    std::span<const double>(
                        cur.ent.data() + m * nt, nt),
                    new_gates);
            }
            if (memo_ent != nullptr)
                stats.memoHits += nm;
            else if (use_cache)
                remember(new_row, new_ent.data());
            new_cost = objective.combine(mc_scratch);
        }

        const double dc = new_cost - cur.cost;
        const bool accept =
            dc < 0.0 ||
            (temp > 0.0 && rng.uniform() < std::exp(-dc / temp));
        if (!accept) {
            // Restore only the slots this proposal touched.
            if (swap_move) {
                for (std::size_t m = 0; m < nm; ++m)
                    std::swap(cur.ent[m * nt + i],
                              cur.ent[m * nt + j]);
            } else {
                for (std::size_t m = 0; m < nm; ++m)
                    cur.ent[m * nt + i] = old_ent[m];
            }
            return;
        }
        ++stats.accepted;
        if (swap_move) {
            std::swap(cur.rows[i], cur.rows[j]);
            if (use_cache)
                for (std::size_t m = 0; m < nm; ++m)
                    std::swap(cache[m * nt + i], cache[m * nt + j]);
        } else {
            cur.rows[i] = new_row;
            cur.gates = new_gates;
            // A memo hit did no plane work, so it derives the
            // proposal it commits; a rejected hit never pays for it.
            if (use_cache)
                for (std::size_t m = 0; m < nm; ++m) {
                    if (memo_ent != nullptr) {
                        [[maybe_unused]] const double e = propose(m);
                        assert(e == new_ent[m] && "memo equals rescoring");
                    }
                    planes_[m]->commit(scratch[m], cache[m * nt + i]);
                }
        }
        cur.memberCost = mc_scratch;
        cur.cost = new_cost;
        if (cur.cost < best.cost)
            best = cur;
    };

    // The stop gate, checked at move boundaries so a stopped chain
    // still ends on a fully scored state. Two triggers: the counted
    // maxEvaluations budget (deterministic — never timed) and the
    // cooperative cancel/deadline token (wall-clock degradation —
    // flags deadlineHit so consumers don't cache the result).
    const auto stopRequested = [&] {
        if (budget != 0 && stats.evaluations >= budget) {
            stats.capped = true;
            return true;
        }
        if (opts.cancel != nullptr && opts.cancel->cancelled()) {
            stats.deadlineHit = true;
            return true;
        }
        return false;
    };

    // Annealing phase: geometric cooling from kInitialTemp to
    // kFinalTemp (the greedy baseline runs the same steps at
    // temperature 0 throughout).
    phase_start = Clock::now();
    trace::Span anneal_span(trace::enabled() ? "anneal" + span_tag
                                             : std::string(),
                            "search");
    for (unsigned k = 0; k < iters; ++k) {
        if (stopRequested())
            break;
        const double temp =
            greedy ? 0.0
                   : kInitialTemp *
                         std::pow(kFinalTemp / kInitialTemp,
                                  iters > 1
                                      ? static_cast<double>(k) /
                                            (iters - 1)
                                      : 0.0);
        step(temp);
    }
    anneal_span.end();
    stats.annealSeconds = secondsSince(phase_start);
    stats.annealEvaluations =
        stats.evaluations - stats.setupEvaluations;

    // Zero-temperature polish: descend from the chain's best state.
    // The gate regularizer is finer-grained than any practical final
    // temperature, so without this the chain could end on a state
    // that still accepts gate-increasing wiggles and return a best
    // that a plain descent would improve.
    phase_start = Clock::now();
    trace::Span polish_span(trace::enabled() ? "polish" + span_tag
                                             : std::string(),
                            "search");
    if (!greedy) {
        // Jumping back to the best state invalidates the plane cache
        // (it tracks the pre-jump cur). Reseed every slot — these
        // re-derive entropy values already counted during the walk,
        // so they are rebuilds, not evaluations.
        const bool cache_stale = use_cache && cur.rows != best.rows;
        cur = best;
        if (cache_stale)
            for (std::size_t m = 0; m < nm; ++m)
                for (std::size_t i = 0; i < nt; ++i)
                    rebuildSlot(m, i, cur.rows[i]);
        for (unsigned k = 0; k < iters / 3 + 1; ++k) {
            if (stopRequested())
                break;
            step(0.0);
        }
    }
    polish_span.end();
    stats.polishSeconds = secondsSince(phase_start);
    stats.polishEvaluations = stats.evaluations -
                              stats.setupEvaluations -
                              stats.annealEvaluations;

    SearchResult result;
    BitMatrix m = BitMatrix::identity(nbits);
    for (std::size_t i = 0; i < nt; ++i)
        m.setRow(opts.targets[i], best.rows[i]);
    // The invariant's final audit: a singular matrix here would mean
    // a move slipped past its rank check.
    if (!m.invertible())
        throw std::logic_error("BimSearch: search produced a "
                               "singular matrix");
    result.bim = std::move(m);
    result.cost = best.cost;
    result.memberCosts = best.memberCost;
    result.memberTargetEntropy.resize(nm);
    for (std::size_t mem = 0; mem < nm; ++mem)
        result.memberTargetEntropy[mem].assign(
            best.ent.begin() +
                static_cast<std::ptrdiff_t>(mem * nt),
            best.ent.begin() +
                static_cast<std::ptrdiff_t>((mem + 1) * nt));
    // The aggregate per-target view: uniform mean across members.
    // For one member the division by 1.0 is exact, keeping the size-1
    // search bit-identical to the pre-set implementation.
    result.targetEntropy.resize(nt);
    for (std::size_t i = 0; i < nt; ++i) {
        double sum = 0.0;
        for (std::size_t mem = 0; mem < nm; ++mem)
            sum += best.ent[mem * nt + i];
        result.targetEntropy[i] = sum / static_cast<double>(nm);
    }
    result.bestRestart = restart;
    result.stats = stats;
    return result;
}

SearchResult
BimSearch::anneal() const
{
    const auto wall_start = Clock::now();
    const unsigned restarts = opts.restarts;
    std::vector<SearchResult> slots(restarts);
    // No token: a cancelled chain still returns its scored incumbent,
    // so every slot is filled.
    parallelFor(restarts, opts.threads, [&](std::size_t r) {
        slots[r] = runChain(static_cast<unsigned>(r), /*greedy=*/false);
    });

    // Best cost wins; ties break toward the lowest restart index, so
    // the choice is deterministic under any scheduling order.
    unsigned bi = 0;
    for (unsigned r = 1; r < restarts; ++r)
        if (slots[r].cost < slots[bi].cost)
            bi = r;
    SearchResult out = std::move(slots[bi]);
    out.bestRestart = bi;
    SearchStats total;
    for (const SearchResult &s : slots) {
        total.evaluations += s.stats.evaluations;
        total.accepted += s.stats.accepted;
        total.rejectedSingular += s.stats.rejectedSingular;
        total.capped = total.capped || s.stats.capped;
        total.deadlineHit = total.deadlineHit || s.stats.deadlineHit;
        total.setupSeconds += s.stats.setupSeconds;
        total.annealSeconds += s.stats.annealSeconds;
        total.polishSeconds += s.stats.polishSeconds;
        total.setupEvaluations += s.stats.setupEvaluations;
        total.annealEvaluations += s.stats.annealEvaluations;
        total.polishEvaluations += s.stats.polishEvaluations;
        total.planeToggles += s.stats.planeToggles;
        total.planeXors += s.stats.planeXors;
        total.planeRebuilds += s.stats.planeRebuilds;
        total.kernelsRescored += s.stats.kernelsRescored;
        total.kernelsReused += s.stats.kernelsReused;
        total.memoHits += s.stats.memoHits;
    }
    out.stats = total;
    out.identityCost = identityCost();
    out.stats.totalSeconds = secondsSince(wall_start);
    exportStatsToRegistry(out.stats);
    return out;
}

SearchResult
BimSearch::greedy() const
{
    const auto wall_start = Clock::now();
    SearchResult out = runChain(0, /*greedy=*/true);
    out.identityCost = identityCost();
    out.stats.totalSeconds = secondsSince(wall_start);
    exportStatsToRegistry(out.stats);
    return out;
}

} // namespace search
} // namespace valley
