#include "search/objective.hh"

#include <algorithm>
#include <cassert>

namespace valley {
namespace search {

double
FlatnessObjective::cost(std::span<const double> target_entropy,
                        unsigned xor_gates) const
{
    if (target_entropy.empty())
        return kGateWeight * xor_gates;
    assert(targetWeights.empty() ||
           targetWeights.size() == target_entropy.size());

    double wsum = 0.0;
    double mean = 0.0;
    double mn = 1.0;
    for (std::size_t i = 0; i < target_entropy.size(); ++i) {
        const double w =
            targetWeights.empty() ? 1.0 : targetWeights[i];
        wsum += w;
        mean += w * target_entropy[i];
        mn = std::min(mn, target_entropy[i]);
    }
    if (wsum > 0.0)
        mean /= wsum;
    return kMeanWeight * (1.0 - mean) + kMinWeight * (1.0 - mn) +
           kGateWeight * xor_gates;
}

const char *
combinerName(JointCombiner c)
{
    return c == JointCombiner::WorstCase ? "worst" : "mean";
}

double
JointObjective::combine(std::span<const double> member_costs) const
{
    if (member_costs.empty())
        return 0.0;
    assert(memberWeights.empty() ||
           memberWeights.size() == member_costs.size());
    if (combiner == JointCombiner::WorstCase) {
        double mx = member_costs[0];
        for (double c : member_costs)
            mx = std::max(mx, c);
        return mx;
    }
    double wsum = 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < member_costs.size(); ++i) {
        const double w =
            memberWeights.empty() ? 1.0 : memberWeights[i];
        wsum += w;
        sum += w * member_costs[i];
    }
    return wsum > 0.0 ? sum / wsum : 0.0;
}

} // namespace search
} // namespace valley
