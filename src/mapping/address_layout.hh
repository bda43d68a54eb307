/**
 * @file
 * DRAM address layouts: how physical address bits split into the
 * block / column / channel / bank (/ vault) / row fields.
 *
 * The baseline layout follows the paper's Fig. 4 (Hynix GDDR5 1 GB,
 * 30-bit physical address) with the field positions pinned by the
 * paper's text: the BASE entropy valley covers "channel bits 8-9 and
 * bank bit 10" and RMP's high-entropy donor bits are "8-11, 15 and
 * 16". The 3D-stacked layout models 4 stacks x 16 vaults x 16 banks
 * (Section VI-D) in a 32-bit (4 GB) space.
 */

#ifndef VALLEY_MAPPING_ADDRESS_LAYOUT_HH
#define VALLEY_MAPPING_ADDRESS_LAYOUT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace valley {

/** A contiguous bit field inside the physical address. */
struct BitField
{
    unsigned lo = 0;    ///< least significant bit position
    unsigned width = 0; ///< number of bits (0 = absent field)

    unsigned hi() const { return lo + width - 1; }

    /** Mask of the field's bit positions within the address. */
    std::uint64_t
    positionMask() const
    {
        if (width == 0)
            return 0;
        return ((width >= 64 ? ~std::uint64_t{0}
                             : ((std::uint64_t{1} << width) - 1))
                << lo);
    }
};

/**
 * Decoded DRAM coordinates of one physical address.
 *
 * `channel` is the global independent-bus index: for the conventional
 * layout it is the channel field; for the 3D-stacked layout it is
 * stack * vaultsPerStack + vault, since each vault owns its own TSV
 * bus and bank set.
 */
struct DramCoord
{
    unsigned channel = 0;
    unsigned bank = 0;
    unsigned row = 0;
    unsigned column = 0;
};

/**
 * Field geometry of a DRAM system plus decode helpers.
 */
class AddressLayout
{
  public:
    /** Paper Fig. 4: 1 GB Hynix GDDR5, 4 channels x 16 banks. */
    static AddressLayout hynixGddr5();

    /** Section VI-D: 4 stacks x 16 vaults x 16 banks, 4 GB. */
    static AddressLayout stacked3d();

    std::string name;

    /**
     * Canonical `layout:KEY` spec when this layout was built from a
     * registered preset (`mapping/layout_registry.hh`); empty for
     * hand-assembled layouts. Cache and grid identities key on this
     * via `mapping::layoutIdentity`.
     */
    std::string spec;

    unsigned addrBits = 0;

    BitField block;   ///< intra-page offset (never remapped)
    BitField colLo;   ///< low column bits (below the channel field)
    BitField channel; ///< channel (conventional) or stack (3D)
    BitField vault;   ///< vault (3D only; width 0 otherwise)
    BitField bank;    ///< bank within channel/vault
    BitField colHi;   ///< high column bits
    BitField row;     ///< DRAM row (page)

    /** @name Geometry queries */
    /// @{
    unsigned numChannels() const;           ///< independent buses
    unsigned numBanksPerChannel() const;
    unsigned numRows() const;
    unsigned numColumns() const;
    std::uint64_t capacityBytes() const;
    unsigned blockBytes() const;
    /// @}

    /** Decode an address into DRAM coordinates. */
    DramCoord decode(Addr a) const;

    /** Inverse of decode (block offset zero). */
    Addr encode(const DramCoord &c) const;

    /**
     * Output bit positions that select channel/vault/bank — the bits
     * the Broad schemes concentrate entropy into (ascending order).
     */
    std::vector<unsigned> randomizeTargets() const;

    /** Channel(+vault) bit positions only (ascending). */
    std::vector<unsigned> channelBits() const;

    /** Bank bit positions only (ascending). */
    std::vector<unsigned> bankBits() const;

    /** Row bit positions (ascending) — PM donor pool. */
    std::vector<unsigned> rowBits() const;

    /**
     * Mask of DRAM page address bits: row + channel + vault + bank.
     * These are the PAE input candidates (Fig. 9).
     */
    std::uint64_t pageMask() const;

    /** Mask of column bits (colLo + colHi). */
    std::uint64_t columnMask() const;

    /** Mask of all non-block bits — FAE/ALL input candidates. */
    std::uint64_t nonBlockMask() const;

    /** Human-readable field map, most significant field first. */
    std::string describe() const;

  private:
    static void appendField(std::vector<unsigned> &v, const BitField &f);
};

/**
 * Precompiled decode plan for one AddressLayout.
 *
 * `AddressLayout::decode` re-derives each field's shift and mask per
 * call; this flattens the geometry into six shift/mask pairs once so
 * the per-address work is straight-line shifts, ANDs and ORs — the
 * form the simulator uses on its per-request hot path. Width-0 fields
 * compile to a zero mask, so the vault-less conventional layout needs
 * no branch.
 */
class CompiledDecoder
{
  public:
    CompiledDecoder() = default;

    explicit CompiledDecoder(const AddressLayout &l)
        : chShift(l.channel.lo), chMask(fieldMask(l.channel)),
          vShift(l.vault.lo), vMask(fieldMask(l.vault)),
          vWidth(l.vault.width), bankShift(l.bank.lo),
          bankMask(fieldMask(l.bank)), rowShift(l.row.lo),
          rowMask(fieldMask(l.row)), colLoShift(l.colLo.lo),
          colLoMask(fieldMask(l.colLo)), colLoWidth(l.colLo.width),
          colHiShift(l.colHi.lo), colHiMask(fieldMask(l.colHi))
    {
    }

    /** Exact equivalent of `AddressLayout::decode`. */
    DramCoord
    decode(Addr a) const
    {
        DramCoord c;
        c.channel = (static_cast<unsigned>(a >> chShift) & chMask)
                        << vWidth |
                    (static_cast<unsigned>(a >> vShift) & vMask);
        c.bank = static_cast<unsigned>(a >> bankShift) & bankMask;
        c.row = static_cast<unsigned>(a >> rowShift) & rowMask;
        c.column = (static_cast<unsigned>(a >> colHiShift) & colHiMask)
                       << colLoWidth |
                   (static_cast<unsigned>(a >> colLoShift) & colLoMask);
        return c;
    }

  private:
    static unsigned
    fieldMask(const BitField &f)
    {
        return f.width == 0 ? 0u : (1u << f.width) - 1u;
    }

    unsigned chShift = 0, chMask = 0;
    unsigned vShift = 0, vMask = 0, vWidth = 0;
    unsigned bankShift = 0, bankMask = 0;
    unsigned rowShift = 0, rowMask = 0;
    unsigned colLoShift = 0, colLoMask = 0, colLoWidth = 0;
    unsigned colHiShift = 0, colHiMask = 0;
};

} // namespace valley

#endif // VALLEY_MAPPING_ADDRESS_LAYOUT_HH
