/**
 * @file
 * `WorkloadSet` — a *set* of workloads as the mapping service's
 * first-class unit.
 *
 * The paper's Section IV-B methodology derives one BIM per workload,
 * but a deployed mapping — like the global RMP it compares against —
 * must serve many resident applications at once. The joint ("global")
 * BIM search therefore operates on a `WorkloadSet`: named members
 * (Table II abbreviations and/or `synth:` scenario specs) with a
 * canonical, order-insensitive identity. Members weigh equally: the
 * search minimizes the plain mean of their costs.
 *
 * ## Canonical identity
 *
 * Construction canonicalizes every member (synth specs through
 * `synth::resolve(...).canonical()`, Table II abbreviations
 * validated against the registry), then sorts and deduplicates, so
 * `{MT, LU}` and `{LU, MT}` — or a synth spec with reordered
 * parameters — are the *same* set: same `members()` order, same
 * `key()`, same `hash()`. Every downstream consumer (joint search,
 * result cache, benches) keys on that canonical identity, which is
 * what makes repeat grid runs hit the result cache regardless of how
 * the set was spelled.
 *
 * `key()` percent-escapes each member with `escapeSpecField` before
 * joining with ',': synth specs legitimately contain commas
 * (`synth:hash_shuffle,fmb=64`), and unescaped they would make the
 * joined key — and the CSV cache lines built from it — ambiguous.
 */

#ifndef VALLEY_WORKLOADS_WORKLOAD_SET_HH
#define VALLEY_WORKLOADS_WORKLOAD_SET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace valley {
namespace workloads {

/**
 * Percent-escape the characters that act as separators in the
 * on-disk cache keys and key lists: '%', ',', ';', '|', newline and
 * carriage return. Injective (distinct inputs keep distinct
 * outputs), so escaped fields can be joined with any of those
 * separators without ambiguity.
 */
std::string escapeSpecField(const std::string &field);

/**
 * An order-insensitive set of named workloads.
 *
 * Immutable after construction; members are stored canonicalized,
 * sorted and deduplicated (see file comment). Throws
 * `std::invalid_argument` on an empty list, an unknown Table II
 * abbreviation, or an invalid synth spec.
 */
class WorkloadSet
{
  public:
    explicit WorkloadSet(std::vector<std::string> members);

    /**
     * Parse a comma-separated member list, e.g.
     * `"MT,LU,synth:hash_shuffle,fmb=64,tbs=32"`, split by
     * `spec::splitList`: a `key=value` fragment is a parameter of the
     * preceding `synth:` member, not a member of its own.
     */
    static WorkloadSet parse(const std::string &list);

    /** Canonical members, sorted; the set's defining order. */
    const std::vector<std::string> &members() const { return members_; }

    std::size_t size() const { return members_.size(); }

    /**
     * Canonical identity string: `escapeSpecField(member)` joined
     * with ','. Two sets compare equal iff their keys are equal.
     */
    const std::string &key() const { return key_; }

    /** FNV-1a hash of `key()` — stable across runs and platforms. */
    std::uint64_t hash() const { return hash_; }

    /** Short display/cache id: "set-<16 hex digits of hash()>". */
    std::string shortId() const;

    /**
     * Build every member at `scale`, in `members()` order. Generators
     * are deterministic, so two builds of the same set are
     * request-for-request identical.
     */
    std::vector<std::unique_ptr<Workload>> build(double scale) const;

  private:
    std::vector<std::string> members_;
    std::string key_;
    std::uint64_t hash_ = 0;
};

} // namespace workloads
} // namespace valley

#endif // VALLEY_WORKLOADS_WORKLOAD_SET_HH
