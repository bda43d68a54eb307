/**
 * @file
 * Profile-driven BIM optimizer (the "mapping service" core).
 *
 * Closes the loop of the paper's Section IV-B design-time
 * methodology: instead of hand-deriving a BIM from an entropy chart,
 * `BimSearch` *searches* the space of invertible GF(2) matrices for
 * one that flattens the entropy valley of a workload set; a single
 * workload is the size-1 set.
 *
 * ## One constructor, one configuration
 *
 * `BimSearch(layout, planes, opts)` is the only way in. `opts` is
 * the whole configuration: `defaultOptions(layout)` (searched_bim.hh)
 * fills its targets and candidate mask, and callers adjust the rest.
 * The search builds its own `FlatnessObjective` from it — per-target
 * weights from the layout (2.0 on `channelBits()`, 1.0 elsewhere) —
 * so no setting can live in two places. Candidates are scored against
 * one `TracePlanes` per member (one XOR+popcount pass per candidate
 * row per member — no re-profiling), and the joint cost is the plain
 * mean of the member costs, summed in member order.
 *
 * ## Search space and the invertibility invariant
 *
 * Candidates are matrices that are identity on every non-target row
 * and whose target rows tap only `candidateMask` input bits (the PAE
 * input restriction of Fig. 9 by default). The walk only ever applies
 * moves that keep the *full* matrix invertible over GF(2) — the
 * one-to-one mapping guarantee of Section IV-A is an invariant of the
 * search, not a post-hoc filter:
 *
 *  - **tap toggle** flips one candidate tap of one target row, then
 *    re-checks the full-matrix rank and rejects singular results;
 *  - **row XOR** replaces target row i by `row_i ^ row_j` (j another
 *    target). This is an elementary row operation — left-multiplying
 *    by an invertible elementary matrix — so it cannot change the
 *    rank and carries no per-move check; an `assert` re-checks it in
 *    builds without `NDEBUG`, and the final verification covers it;
 *  - **row swap** exchanges two target rows — a permutation of the
 *    output bits, under which rank is invariant, so it carries no
 *    per-move check; the final verification still covers it.
 *
 * Every accepted state is therefore invertible by construction, and
 * `anneal`/`greedy` additionally verify the final matrix before
 * returning (`SearchResult::bim` would throw inside `AddressMapper`
 * otherwise). One searched matrix serves every member of the set —
 * the invariant is per-matrix, so the joint search inherits it
 * unchanged.
 *
 * ## Determinism
 *
 * All randomness flows through `XorShiftRng` generators seeded from
 * `SearchOptions::seed`; each restart derives its own seed from
 * (seed, restart index), owns all of its mutable state and writes its
 * result into a preallocated slot, so running restarts in parallel
 * (`parallelFor`) is bit-identical to running them serially
 * (`SearchOptions::threads = 1`; asserted in
 * `tests/bim_search_test.cc` and, for joint sets, in
 * `tests/joint_search_test.cc`). A chain runs `iterations` moves,
 * counted, never timed; wall-clock is *reported* in `SearchStats` but
 * never feeds back into control, so timing noise cannot change any
 * result. Only a fired `cancel` token cuts a chain short, and its
 * result says so.
 */

#ifndef VALLEY_SEARCH_BIM_SEARCH_HH
#define VALLEY_SEARCH_BIM_SEARCH_HH

#include <cstdint>
#include <vector>

#include "common/cancellation.hh"

#include "bim/bit_matrix.hh"
#include "mapping/address_layout.hh"
#include "search/objective.hh"
#include "workloads/trace_planes.hh"

namespace valley {
namespace search {

/**
 * Search behavior version. Folded into the harness result-cache key
 * of SBIM/GBIM cells: the searched matrix depends on the
 * `SearchOptions` defaults, the anneal schedule (bim_search.cc), the
 * objective's weights (objective.hh) and the move set, none of which
 * appear in the (workload, scheme, seed, scale) key. Bump this
 * whenever a change alters which matrix a given seed produces, or
 * cached grid cells go stale silently.
 * s2: workload-set refactor — joint scoring, per-chain evaluation
 * budgets, escaped order-canonical cache keys.
 */
inline constexpr const char *kSearchVersion = "s2";

/**
 * Upper bounds on a search's run lengths, checked by the `BimSearch`
 * constructor (and passed by `valley_search` as its flags' maxima),
 * so a hostile value fails as bad input instead of as an allocation:
 * `anneal` preallocates one result slot per restart, and each chain
 * reserves its mask memo for `iterations + iterations/3` masks. At
 * `kMaxIterations` that memo is about 11 MB of hash buckets plus
 * 11 MB of entropies per member, per running chain. The defaults are
 * 4 restarts of 1,200 moves.
 */
inline constexpr unsigned kMaxRestarts = 1024;
inline constexpr unsigned kMaxIterations = 1000000;

/**
 * The whole configuration of a search. Start from
 * `defaultOptions(layout)`, the one place that fills `targets` and
 * `candidateMask`; the constructor rejects options left without them.
 */
struct SearchOptions
{
    /**
     * Output rows the search may rewrite (all other rows stay
     * identity); `defaultOptions` sets the layout's channel/vault/bank
     * positions (`AddressLayout::randomizeTargets`).
     */
    std::vector<unsigned> targets;

    /**
     * Input bits the target rows may tap; `defaultOptions` sets the
     * layout's DRAM page address bits (`AddressLayout::pageMask`),
     * i.e. the PAE input restriction that keeps the remap
     * power-efficient. Every target bit must be a candidate, or no
     * invertible matrix with identity non-target rows exists (same
     * precondition as `bim::randomBroad`).
     */
    std::uint64_t candidateMask = 0;

    unsigned window = 12;        ///< TB window w (#SMs, Section III-A)
    std::uint64_t seed = 1;      ///< master seed; see class comment
    unsigned restarts = 4;       ///< annealing chains, 1..kMaxRestarts
    unsigned iterations = 1200;  ///< moves per chain, <= kMaxIterations

    /**
     * Worker threads for the restart fan-out: 1 = serial, 0 = one per
     * hardware thread. Bit-identical at any thread count.
     */
    unsigned threads = 0;

    /**
     * Incremental row caching: each chain keeps, per (member, target
     * slot), a `TracePlanes::Row` — the XOR-combined output plane,
     * its per-TB one-counts and each kernel's entropy. A tap-toggle
     * proposal XORs in one input strip and a row-XOR proposal XORs
     * two cached rows, and either rescores only the kernels whose
     * one-counts the move changes: a kernel whose toggled strip, or
     * whose other row, is all zero keeps its cached entropy
     * (`SearchStats::kernelsReused`). Each chain also memoizes every
     * row mask it scores: a row's entropy is a pure function of its
     * mask, so a proposal of a mask seen before reads its entropies
     * back with no plane work (`SearchStats::memoHits`). One-counts
     * are exact integers and the row entropy is the same kernel-order
     * weighted sum, so the cached path is bit-identical to the
     * from-scratch `rowEntropy` oracle: trajectories, results and
     * `SearchStats::evaluations` are unchanged with the cache on or
     * off (asserted in `tests/bim_search_test.cc`), which is why
     * toggling this knob does NOT bump `kSearchVersion`. Off = score
     * every proposal via the oracle, with no memo (the slow reference
     * leg for tests and benches).
     */
    bool planeCache = true;

    /**
     * Optional cooperative cancellation/deadline token (non-owning;
     * must outlive the search). A fired token makes every chain stop
     * at its next move boundary and the search *degrade, never
     * throw*: it returns the best incumbent found so far — always a
     * fully scored, invertible matrix, because the initial-state
     * evaluation runs unconditionally — with
     * `SearchStats::deadlineHit = true`. Wall-clock deadlines are
     * inherently nondeterministic, so a truncated matrix must never
     * stand in for a seed's result: `runGrid` reports a cell whose
     * search was cut short deadline-missed and caches nothing of it.
     */
    const CancelToken *cancel = nullptr;
};

/**
 * Counters describing one search run. The second block reports
 * per-phase wall-clock, summed across chains (so parallel runs report
 * aggregate chain-seconds next to `totalSeconds` wall time). Time is
 * informational only — no control decision reads it — which keeps the
 * search deterministic while making budget tuning observable.
 */
struct SearchStats
{
    std::uint64_t evaluations = 0;      ///< row scorings, memo hits too
    std::uint64_t accepted = 0;         ///< accepted moves
    std::uint64_t rejectedSingular = 0; ///< moves failing the rank check
    /**
     * A chain was stopped by `SearchOptions::cancel` (deadline or
     * explicit cancellation) before exhausting its move budget. The
     * result is still a valid invertible incumbent, but it is
     * wall-clock-dependent: consumers must not cache or rely on it
     * being reproducible.
     */
    bool deadlineHit = false;

    double setupSeconds = 0.0;  ///< start-state draw + initial scoring
    double annealSeconds = 0.0; ///< cooling-phase move loop
    double polishSeconds = 0.0; ///< zero-temperature descent
    double totalSeconds = 0.0;  ///< wall clock of the whole call

    /**
     * `evaluations` split by the phase that spent them (they sum to
     * `evaluations`), so per-phase evals/sec can pair with the
     * per-phase seconds above instead of dividing a global count by
     * a single phase's wall clock.
     */
    std::uint64_t setupEvaluations = 0;
    std::uint64_t annealEvaluations = 0;
    std::uint64_t polishEvaluations = 0;

    /**
     * Plane-cache accounting (zero when `planeCache` is off): how
     * each evaluation's output plane was produced. `planeToggles` /
     * `planeXors` count O(one plane) incremental updates (per member
     * per proposal); `planeRebuilds` counts full `combineRow`
     * recombines — the setup scoring plus the polish-phase reseed,
     * where the chain jumps back to its best state and the cache must
     * be rebuilt. Rebuilds during polish re-derive already-counted
     * entropy values, so they do not add to `evaluations`.
     */
    std::uint64_t planeToggles = 0;
    std::uint64_t planeXors = 0;
    std::uint64_t planeRebuilds = 0;

    /**
     * Per-kernel split of the toggle and XOR proposals: each kernel
     * of each member counts once, as rescored (the move changed its
     * one-counts) or reused (it kept the cached entropy). They sum to
     * `(planeToggles + planeXors)` times the member's kernel count.
     */
    std::uint64_t kernelsRescored = 0;
    std::uint64_t kernelsReused = 0;

    /**
     * Evaluations answered from the chain's mask memo with no plane
     * work (zero when `planeCache` is off). Each chain remembers
     * every row mask it has scored; a proposal of a remembered mask
     * counts its `nm` evaluations here as well as in `evaluations`,
     * so `memoHits / (annealEvaluations + polishEvaluations)` is the
     * share of scored proposals the memo answered. An accepted hit
     * re-derives its proposal, counted as a toggle or an XOR above.
     */
    std::uint64_t memoHits = 0;
};

/** Outcome of `BimSearch::anneal` or `BimSearch::greedy`. */
struct SearchResult
{
    BitMatrix bim;                    ///< best invertible matrix found
    double cost = 0.0;                ///< joint objective of `bim`
    double identityCost = 0.0;        ///< joint objective of identity
    /**
     * Per-target entropy of `bim`, averaged uniformly across the set
     * members. For a size-1 set this is the member's entropy
     * verbatim (bit-identical to the pre-set single-workload search).
     */
    std::vector<double> targetEntropy;
    /** Per-member per-target entropy of `bim`: [member][target]. */
    std::vector<std::vector<double>> memberTargetEntropy;
    /** Per-member flatness cost of `bim`, set member order. */
    std::vector<double> memberCosts;
    unsigned bestRestart = 0;         ///< chain that produced `bim`
    SearchStats stats;                ///< summed across chains

    SearchResult() : bim(1) {}

    /** Objective improvement over the identity mapping (>= 0). */
    double gain() const { return identityCost - cost; }
};

/**
 * Simulated-annealing BIM search over the trace planes of a workload
 * set (one `TracePlanes` per member, all the same bit width).
 *
 * Every `TracePlanes` must outlive the search; they are read
 * concurrently by parallel restarts and never mutated.
 */
class BimSearch
{
  public:
    /**
     * @param layout DRAM layout: address width and the channel bits
     *               the objective weights double
     * @param planes one bit-plane representation per set member
     *               (non-owning; members() order of the set)
     * @param opts   the configuration; see `SearchOptions`
     * @throws std::invalid_argument on empty or mis-sized planes,
     *         zero restarts, restarts or iterations above
     *         `kMaxRestarts` / `kMaxIterations`, no targets, or a
     *         target that is out of range or not a candidate
     */
    BimSearch(const AddressLayout &layout,
              std::vector<const workloads::TracePlanes *> planes,
              SearchOptions opts);

    /** Annealed search: best of `restarts` parallel chains. */
    SearchResult anneal() const;

    /**
     * Greedy baseline: one hill-climbing chain (temperature 0,
     * accepting only strict improvements) from the identity state,
     * with the same move set and iteration budget.
     */
    SearchResult greedy() const;

    /** Joint objective of the identity mapping on these planes. */
    double identityCost() const;

  private:
    struct Chain;

    /** Run one chain from its deterministic per-restart seed. */
    SearchResult runChain(unsigned restart, bool greedy) const;

    unsigned nbits;
    std::vector<unsigned> candidateBits; ///< set bits of mask_
    std::uint64_t mask_ = 0;
    std::vector<const workloads::TracePlanes *> planes_;
    FlatnessObjective objective; ///< per-member scoring
    SearchOptions opts;
};

} // namespace search
} // namespace valley

#endif // VALLEY_SEARCH_BIM_SEARCH_HH
