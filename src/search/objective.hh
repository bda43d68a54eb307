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
 * The joint search (`BimSearch`) scores one BIM against every member
 * of a *workload set* with this objective and minimizes the plain
 * mean of the member costs. The single-workload search is the size-1
 * special case of the joint one: a mean over one member is its cost.
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

} // namespace search
} // namespace valley

#endif // VALLEY_SEARCH_OBJECTIVE_HH
