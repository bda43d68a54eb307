/**
 * @file
 * Declarative DRAM organizations and the `layout:` preset registry.
 *
 * The seed hard-coded the Hynix GDDR5 bit positions (paper Fig. 4)
 * into `AddressLayout::hynixGddr5`. Opening the *hardware* axis of
 * the evaluation — HBM2-, DDR4- and GDDR6-like organizations as grid
 * columns — needs layouts to be data, not code: a `DramOrganization`
 * lists the address fields least-significant-first with their widths,
 * and `layoutFromOrganization` derives the `AddressLayout` bit
 * positions from the running offset. Presets register under a
 * canonical key addressed by spec string:
 *
 *     layout:KEY            e.g. layout:gddr5_1gb, layout:hbm2_4gb
 *
 * `AddressLayout::hynixGddr5()` / `stacked3d()` now delegate to the
 * `gddr5_1gb` / `stacked3d_4gb` presets, so the legacy constructors
 * and the registry can never drift apart (asserted bit-for-bit in
 * tests/layout_registry_test.cc).
 *
 * All presets share the GDDR5 timing/power models (`SimConfig::dram`,
 * `SimConfig::dramPower`): the study varies *address geometry*, and a
 * per-preset timing table is future work. Capacity, channel/bank
 * counts and field positions are fully preset-driven.
 */

#ifndef VALLEY_MAPPING_LAYOUT_REGISTRY_HH
#define VALLEY_MAPPING_LAYOUT_REGISTRY_HH

#include <string>
#include <vector>

#include "mapping/address_layout.hh"

namespace valley {
namespace mapping {

/** Prefix marking a name as a layout spec. */
inline constexpr const char *kLayoutPrefix = "layout:";

/** True iff `name` is a `layout:` spec string (by prefix). */
bool isLayoutSpec(const std::string &name);

/** Address field kinds, in `AddressLayout` terms. */
enum class FieldKind
{
    Block,   ///< intra-line offset, never remapped
    ColLo,   ///< low column bits (below the channel field)
    Channel, ///< channel (conventional) or stack (3D)
    Vault,   ///< vault within a stack (3D only)
    Bank,    ///< bank within channel/vault
    ColHi,   ///< high column bits
    Row,     ///< DRAM row (page)
};

/** One address field of an organization. */
struct OrgField
{
    FieldKind kind;
    unsigned width; ///< bits; must be >= 1
};

/**
 * A DRAM organization as data: the address fields listed least
 * significant first. The derived layout's bit positions are the
 * running sum of the preceding widths.
 */
struct DramOrganization
{
    std::string key;         ///< canonical registry key, [a-z0-9_]+
    std::string displayName; ///< `AddressLayout::name`
    std::string summary;     ///< one-line description for --list-layouts
    std::vector<OrgField> fields; ///< LSB -> MSB
};

/**
 * Derive the bit-field layout of an organization. Throws
 * `std::invalid_argument` when the field list is not a well-formed
 * address space: Block, Channel, Bank and Row must appear exactly
 * once, ColLo/ColHi/Vault at most once, every width >= 1, and the
 * total width must fit a 64-bit address. The derived layout carries
 * `spec == "layout:KEY"` as its canonical cache identity.
 */
AddressLayout layoutFromOrganization(const DramOrganization &org);

/**
 * Register an organization under its key. Throws
 * `std::invalid_argument` on a duplicate key, a malformed key, or an
 * organization `layoutFromOrganization` rejects. Built-in presets
 * are registered before any lookup; external code may add more at
 * static-initialization time or later (not thread-safe against
 * concurrent lookups — register before use).
 */
void registerLayout(DramOrganization org);

/** All registered presets, registration order. */
std::vector<const DramOrganization *> layoutPresets();

/** Find a preset by key (no `layout:` prefix); nullptr if unknown. */
const DramOrganization *findLayoutPreset(const std::string &key);

/**
 * Build the layout of a spec string. Accepts `layout:KEY` or a bare
 * preset key. Throws `std::invalid_argument` on an unknown key with
 * a diagnostic listing every registered key.
 */
AddressLayout makeLayout(const std::string &spec);

/** Canonical spec (`layout:KEY`) of a spec-or-key string. */
std::string canonicalLayoutSpec(const std::string &spec);

/**
 * Canonical cache identity of a layout: its `spec` when preset-built,
 * else its free-form name (escaped upstream). Every cache and grid
 * identity that depends on the address geometry keys on this.
 */
std::string layoutIdentity(const AddressLayout &layout);

} // namespace mapping
} // namespace valley

#endif // VALLEY_MAPPING_LAYOUT_REGISTRY_HH
