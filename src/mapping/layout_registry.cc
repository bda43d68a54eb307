#include "mapping/layout_registry.hh"

#include <cstring>
#include <stdexcept>

#include "workloads/workload_set.hh"

namespace valley {
namespace mapping {

namespace {

BitField *
fieldOf(AddressLayout &l, FieldKind kind)
{
    switch (kind) {
      case FieldKind::Block:   return &l.block;
      case FieldKind::ColLo:   return &l.colLo;
      case FieldKind::Channel: return &l.channel;
      case FieldKind::Vault:   return &l.vault;
      case FieldKind::Bank:    return &l.bank;
      case FieldKind::ColHi:   return &l.colHi;
      case FieldKind::Row:     return &l.row;
    }
    return nullptr;
}

const char *
kindName(FieldKind kind)
{
    switch (kind) {
      case FieldKind::Block:   return "block";
      case FieldKind::ColLo:   return "colLo";
      case FieldKind::Channel: return "channel";
      case FieldKind::Vault:   return "vault";
      case FieldKind::Bank:    return "bank";
      case FieldKind::ColHi:   return "colHi";
      case FieldKind::Row:     return "row";
    }
    return "?";
}

[[noreturn]] void
orgError(const DramOrganization &org, const std::string &why)
{
    throw std::invalid_argument("bad DRAM organization '" + org.key +
                                "': " + why);
}

} // namespace

bool
isLayoutSpec(const std::string &name)
{
    return name.rfind(kLayoutPrefix, 0) == 0;
}

AddressLayout
layoutFromOrganization(const DramOrganization &org)
{
    AddressLayout l;
    l.name = org.displayName;
    l.spec = std::string(kLayoutPrefix) + org.key;

    unsigned lo = 0;
    for (const auto &f : org.fields) {
        BitField *dst = fieldOf(l, f.kind);
        if (f.width == 0)
            orgError(org, std::string(kindName(f.kind)) +
                              " field has zero width");
        if (dst->width != 0)
            orgError(org, std::string("duplicate ") +
                              kindName(f.kind) + " field");
        *dst = {lo, f.width};
        lo += f.width;
    }
    l.addrBits = lo;

    for (FieldKind required : {FieldKind::Block, FieldKind::Channel,
                               FieldKind::Bank, FieldKind::Row})
        if (fieldOf(l, required)->width == 0)
            orgError(org, std::string("missing ") +
                              kindName(required) + " field");
    if (l.addrBits >= 63)
        orgError(org, "total width " + std::to_string(l.addrBits) +
                          " does not fit a 64-bit address space");
    // Field values are decoded into `unsigned`; keep each field (and
    // the merged column/channel views) well inside 32 bits.
    if (l.row.width > 30 || l.colLo.width + l.colHi.width > 30 ||
        l.channel.width + l.vault.width > 30)
        orgError(org, "a field is too wide to decode");
    return l;
}

/**
 * The preset table. Bit positions follow from the field order; the
 * first two entries must stay field-for-field identical to the
 * legacy hand-coded constructors (layout_registry_test.cc pins this).
 */
const std::vector<DramOrganization> &
layoutPresets()
{
    using K = FieldKind;
    static const std::vector<DramOrganization> table = {
        // Paper Fig. 4: 4 channels x 16 banks, 30-bit address.
        {"gddr5_1gb", "Hynix GDDR5 1GB",
         "paper baseline: 4 channels x 16 banks x 4K rows, 30-bit",
         {{K::Block, 6}, {K::ColLo, 2}, {K::Channel, 2}, {K::Bank, 4},
          {K::ColHi, 4}, {K::Row, 12}}},
        // Section VI-D: stack select above colLo, vault above that.
        {"stacked3d_4gb", "3D-stacked 4GB (4 stacks x 16 vaults)",
         "paper Sec. VI-D: 4 stacks x 16 vaults x 16 banks, 32-bit",
         {{K::Block, 6}, {K::ColLo, 2}, {K::Channel, 2}, {K::Vault, 4},
          {K::Bank, 4}, {K::ColHi, 4}, {K::Row, 10}}},
        // HBM2-like: 8 pseudo-channels, wide rows, 32-bit (4 GB).
        {"hbm2_4gb", "HBM2-like 4GB (8 channels x 16 banks)",
         "8 pseudo-channels x 16 banks x 8K rows, 32-bit",
         {{K::Block, 6}, {K::ColLo, 2}, {K::Channel, 3}, {K::Bank, 4},
          {K::ColHi, 4}, {K::Row, 13}}},
        // DDR4-like: few channels, deep rows, 32-bit (4 GB).
        {"ddr4_4gb", "DDR4-like 4GB (2 channels x 16 banks)",
         "2 channels x 16 banks (4 groups x 4) x 16K rows, 32-bit",
         {{K::Block, 6}, {K::ColLo, 2}, {K::Channel, 1}, {K::Bank, 4},
          {K::ColHi, 5}, {K::Row, 14}}},
        // GDDR6-like: GDDR5 geometry with a doubled row count, 31-bit.
        {"gddr6_2gb", "GDDR6-like 2GB (4 channels x 16 banks)",
         "4 channels x 16 banks x 8K rows, 31-bit",
         {{K::Block, 6}, {K::ColLo, 2}, {K::Channel, 2}, {K::Bank, 4},
          {K::ColHi, 4}, {K::Row, 13}}},
    };
    return table;
}

const DramOrganization *
findLayoutPreset(const std::string &key)
{
    for (const DramOrganization &org : layoutPresets())
        if (org.key == key)
            return &org;
    return nullptr;
}

AddressLayout
makeLayout(const std::string &spec)
{
    const std::string key =
        isLayoutSpec(spec) ? spec.substr(std::strlen(kLayoutPrefix))
                           : spec;
    if (const DramOrganization *org = findLayoutPreset(key))
        return layoutFromOrganization(*org);

    std::string known;
    for (const DramOrganization &org : layoutPresets())
        known += (known.empty() ? "" : ", ") + org.key;
    throw std::invalid_argument("unknown layout '" + spec +
                                "': registered layouts are " + known);
}

std::string
canonicalLayoutSpec(const std::string &spec)
{
    // Resolve through the presets so unknown keys diagnose here.
    return makeLayout(spec).spec;
}

std::string
layoutIdentity(const AddressLayout &layout)
{
    if (!layout.spec.empty())
        return layout.spec;
    return workloads::escapeSpecField(layout.name);
}

} // namespace mapping
} // namespace valley
