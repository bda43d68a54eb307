/**
 * @file
 * Entropy-flatness objective for the BIM search.
 *
 * The paper's design goal (Sections III-IV) is to fill the entropy
 * valley: the channel/bank output bits must carry high window entropy
 * so requests spread across buses and banks. The search minimizes a
 * *cost*, so the objective is phrased as an entropy deficit over the
 * target output bits, plus a small hardware regularizer that prefers
 * BIMs with fewer XOR gates when the entropy terms tie (Fig. 7's
 * tree-of-XOR-gates cost model).
 *
 * `JointObjective` lifts the per-workload objective to a *workload
 * set*: one BIM scored against every member, member costs folded by a
 * configurable combiner (mean or worst-case). The single-workload
 * search is the size-1 special case of the joint one.
 */

#ifndef VALLEY_SEARCH_OBJECTIVE_HH
#define VALLEY_SEARCH_OBJECTIVE_HH

#include <span>
#include <vector>

namespace valley {
namespace search {

/** Weight of the mean entropy deficit in `FlatnessObjective`. */
inline constexpr double kMeanWeight = 1.0;
/** Weight of the worst-bit entropy deficit in `FlatnessObjective`. */
inline constexpr double kMinWeight = 0.5;
/** Per-XOR-gate hardware regularizer of `FlatnessObjective`. */
inline constexpr double kGateWeight = 1e-4;

/**
 * Weighted entropy-deficit cost of one candidate BIM.
 *
 * cost = kMeanWeight * (1 - weighted mean target entropy)
 *      + kMinWeight  * (1 - minimum target entropy)
 *      + kGateWeight * xorGates
 *
 * Lower is better; a perfect mapping (entropy 1.0 on every target
 * bit) costs only its gate term. The min term punishes leaving any
 * single valley bit behind — a flat mean can hide one dead channel
 * bit, which is exactly the failure mode Fig. 10 shows for RMP.
 * The three weights shape every searched matrix, so changing one
 * bumps `kSearchVersion`.
 */
struct FlatnessObjective
{
    /**
     * Per-target weights for the mean term, aligned with the search's
     * target bit list; empty = uniform. `BimSearch` weights channel
     * bits above bank bits because channel parallelism gates both the
     * NoC and the DRAM bus (Figs. 13-14).
     */
    std::vector<double> targetWeights;

    /**
     * Cost of a candidate whose target output bits measure
     * `target_entropy` (same order as the search's target list) with
     * `xor_gates` total 2-input XOR gates.
     */
    double cost(std::span<const double> target_entropy,
                unsigned xor_gates) const;
};

/**
 * How a joint search folds per-workload flatness costs into the one
 * scalar it minimizes.
 */
enum class JointCombiner
{
    /**
     * (Weighted) arithmetic mean of the member costs — the deployment
     * average. A size-1 set reduces exactly to the member cost, so the
     * single-workload search is the special case, not a separate code
     * path.
     */
    Mean,

    /**
     * Maximum member cost — optimize the worst-served workload. The
     * set-level analogue of `FlatnessObjective`'s min term: a joint
     * BIM with a great average can still starve one member, which is
     * the failure mode the paper shows for one-size-fits-all RMP.
     */
    WorstCase,
};

/** Stable name of a combiner ("mean" / "worst"). */
const char *combinerName(JointCombiner c);

/**
 * Joint ("global") entropy-flatness objective over a workload set.
 *
 * Each member is scored with the shared per-workload
 * `FlatnessObjective` — same weights, same gate regularizer — and the
 * member costs are folded by `combiner`. Because the gate term is
 * identical across members, it passes through both combiners
 * unchanged, so the hardware regularization is set-size independent.
 */
struct JointObjective
{
    FlatnessObjective flatness;  ///< per-member scoring
    JointCombiner combiner = JointCombiner::Mean;

    /**
     * Per-member weights for the Mean combiner, aligned with the
     * search's member order; empty = uniform. Ignored by WorstCase.
     */
    std::vector<double> memberWeights;

    /** Fold per-member costs; empty input costs 0. */
    double combine(std::span<const double> member_costs) const;

    /**
     * Cost of one member's target entropies (the per-member term fed
     * into `combine`); delegates to `flatness`.
     */
    double
    memberCost(std::span<const double> target_entropy,
               unsigned xor_gates) const
    {
        return flatness.cost(target_entropy, xor_gates);
    }
};

} // namespace search
} // namespace valley

#endif // VALLEY_SEARCH_OBJECTIVE_HH
