#include "workloads/workload_set.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "common/fnv.hh"
#include "common/spec.hh"
#include "synth/registry.hh"

namespace valley {
namespace workloads {

std::string
escapeSpecField(const std::string &field)
{
    static const char *hex = "0123456789ABCDEF";
    std::string out;
    out.reserve(field.size());
    for (char ch : field) {
        switch (ch) {
          case '%':
          case ',':
          case ';':
          case '|':
          case '\n':
          case '\r':
            out += '%';
            out += hex[(static_cast<unsigned char>(ch) >> 4) & 0xF];
            out += hex[static_cast<unsigned char>(ch) & 0xF];
            break;
          default:
            out += ch;
        }
    }
    return out;
}

namespace {

/** Canonical form of one member name; throws on unknown names. */
std::string
canonicalMember(const std::string &name)
{
    if (synth::isSynthSpec(name))
        return synth::resolve(name).canonical();
    const auto &all = allSet();
    if (std::find(all.begin(), all.end(), name) == all.end())
        throw std::invalid_argument(
            "WorkloadSet: unknown workload \"" + name +
            "\" (not a Table II abbreviation or synth: spec)");
    return name;
}

} // namespace

WorkloadSet::WorkloadSet(std::vector<std::string> members)
{
    if (members.empty())
        throw std::invalid_argument("WorkloadSet: empty member list");
    members_.reserve(members.size());
    for (const std::string &m : members)
        members_.push_back(canonicalMember(m));
    std::sort(members_.begin(), members_.end());
    members_.erase(std::unique(members_.begin(), members_.end()),
                   members_.end());

    for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i)
            key_ += ',';
        key_ += escapeSpecField(members_[i]);
    }
    hash_ = bits::fnv1a(key_);
}

WorkloadSet
WorkloadSet::parse(const std::string &list)
{
    return WorkloadSet(spec::splitList(list));
}

std::string
WorkloadSet::shortId() const
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "set-%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
}

std::vector<std::unique_ptr<Workload>>
WorkloadSet::build(double scale) const
{
    std::vector<std::unique_ptr<Workload>> out;
    out.reserve(members_.size());
    for (const std::string &m : members_)
        out.push_back(make(m, scale));
    return out;
}

std::vector<double>
canonicalMemberWeights(const std::vector<std::string> &raw_members,
                       const std::vector<double> &weights)
{
    if (raw_members.size() != weights.size())
        throw std::invalid_argument(
            "canonicalMemberWeights: " +
            std::to_string(weights.size()) + " weight(s) for " +
            std::to_string(raw_members.size()) + " set member(s)");
    const WorkloadSet set(raw_members);
    std::map<std::string, double> acc;
    for (std::size_t i = 0; i < raw_members.size(); ++i) {
        if (!(weights[i] > 0.0))
            throw std::invalid_argument(
                "canonicalMemberWeights: weight " +
                std::to_string(weights[i]) + " for \"" +
                raw_members[i] + "\" must be > 0");
        acc[canonicalMember(raw_members[i])] += weights[i];
    }
    std::vector<double> out;
    out.reserve(set.size());
    for (const std::string &m : set.members())
        out.push_back(acc.at(m));
    return out;
}

} // namespace workloads
} // namespace valley
