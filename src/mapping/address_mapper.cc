#include "mapping/address_mapper.hh"

#include <algorithm>
#include <stdexcept>

#include "bim/bim_builder.hh"

namespace valley {

AddressMapper::AddressMapper(std::string name, AddressLayout layout,
                             BitMatrix bim)
    : name_(std::move(name)), layout_(std::move(layout)),
      matrix_(std::move(bim)), compiled_(matrix_), decoder_(layout_)
{
    if (matrix_.size() != layout_.addrBits)
        throw std::invalid_argument("mapper: BIM size != address bits");
    if (!matrix_.invertible())
        throw std::invalid_argument("mapper: BIM is singular");
}

namespace mapping {

std::unique_ptr<AddressMapper>
makeRemapFromProfile(const AddressLayout &layout,
                     const std::vector<double> &per_bit)
{
    const std::vector<unsigned> targets = layout.randomizeTargets();
    // Rank non-block bits by entropy, descending; ties by position.
    std::vector<unsigned> candidates;
    for (unsigned b = 0; b < layout.addrBits; ++b)
        if ((layout.nonBlockMask() >> b) & 1)
            candidates.push_back(b);
    std::sort(candidates.begin(), candidates.end(),
              [&](unsigned a, unsigned b) {
                  const double ea = a < per_bit.size() ? per_bit[a] : 0;
                  const double eb = b < per_bit.size() ? per_bit[b] : 0;
                  return ea != eb ? ea > eb : a < b;
              });
    if (candidates.size() < targets.size())
        throw std::invalid_argument("remapFromProfile: profile too "
                                    "small");
    std::vector<unsigned> sources(candidates.begin(),
                                  candidates.begin() + targets.size());
    // Deterministic target order: ascending source positions.
    std::sort(sources.begin(), sources.end());
    BitMatrix m = bim::remap(layout.addrBits, targets, sources);
    return std::make_unique<AddressMapper>("RMP*", layout,
                                           std::move(m));
}

} // namespace mapping
} // namespace valley
