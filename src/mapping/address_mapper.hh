/**
 * @file
 * Address mappers: a BIM bound to a DRAM address layout. The paper's
 * six mappings (Section VI) are registered `map:` families
 * (mapping/mapper_registry.hh, builtin_mappers.cc):
 *
 *  - BASE: the Hynix address map, i.e. the identity BIM.
 *  - PM:   permutation-based mapping [4,5]; XORs each channel/bank bit
 *          with one low-order row bit.
 *  - RMP:  remap; routes the globally highest-entropy bits into the
 *          channel/bank positions.
 *  - PAE:  Broad strategy, inputs limited to the DRAM page address
 *          bits (row + channel + bank) — the power-efficient scheme.
 *  - FAE:  Broad strategy, inputs from the full (non-block) address.
 *  - ALL:  like FAE but also rewrites the row and column output bits.
 *
 * Every mapping is realized as a BIM, so mapping is one GF(2)
 * matrix-vector product == a tree of XOR gates in hardware. Mappers
 * come from `mapping::makeMapper` (a spec), `search::setMapper` (a
 * searched BIM) or the `AddressMapper` constructor (any invertible
 * BIM).
 */

#ifndef VALLEY_MAPPING_ADDRESS_MAPPER_HH
#define VALLEY_MAPPING_ADDRESS_MAPPER_HH

#include <memory>
#include <string>
#include <vector>

#include "bim/bit_matrix.hh"
#include "bim/compiled_transform.hh"
#include "mapping/address_layout.hh"

namespace valley {

/**
 * An address mapper: a named BIM bound to an address layout. Maps
 * physical addresses right after memory coalescing (Section IV) and
 * can decode the mapped address into DRAM coordinates.
 *
 * The BIM is frozen into a byte-sliced CompiledTransform at
 * construction and the layout's decode plan is precompiled, so both
 * map() and coordOf() are straight-line table/shift code on the
 * simulator's per-request hot path.
 */
class AddressMapper
{
  public:
    /**
     * Bind a BIM to a layout and compile its fast paths.
     *
     * @throws std::invalid_argument if the matrix size differs from
     *         the layout's address bits or the BIM is singular — this
     *         is the enforcement point that keeps every mapping that
     *         reaches the simulator one-to-one (see bit_matrix.hh).
     */
    AddressMapper(std::string name, AddressLayout layout, BitMatrix bim);

    /** Transform an input address into the remapped address. */
    Addr map(Addr a) const { return compiled_.apply(a); }

    /** Decode DRAM coordinates of the *mapped* address. */
    DramCoord
    coordOf(Addr a) const
    {
        return decoder_.decode(map(a));
    }

    const std::string &name() const { return name_; }
    const AddressLayout &layout() const { return layout_; }
    const BitMatrix &matrix() const { return matrix_; }
    const CompiledTransform &compiled() const { return compiled_; }

    /** Extra pipeline latency of the remap logic, in SM cycles. */
    unsigned
    remapLatency() const
    {
        // The paper assumes a single cycle for all but BASE.
        return matrix_.xorGateCount() == 0 ? 0 : 1;
    }

  private:
    std::string name_;
    AddressLayout layout_;
    BitMatrix matrix_;
    CompiledTransform compiled_;
    CompiledDecoder decoder_;
};

namespace mapping {

/**
 * Profile-driven Remap: route the `n` highest-entropy bits of the
 * given per-bit profile (restricted to non-block bits) into the
 * channel/bank positions — the Section IV-B design-time methodology
 * as a reusable tool.
 */
std::unique_ptr<AddressMapper> makeRemapFromProfile(
    const AddressLayout &layout, const std::vector<double> &per_bit);

} // namespace mapping
} // namespace valley

#endif // VALLEY_MAPPING_ADDRESS_MAPPER_HH
