/**
 * @file
 * The one cache policy behind the result and searched-BIM caches:
 * the VALLEY_CACHE=0 escape hatch, the lazy skip-and-quarantine load
 * (`loadChecksummedRecords`), the in-memory map and its lock, the
 * `cache.<name>.*` metrics and `<name>_cache.lookup` span, the atomic
 * append of a checksummed record, and the test reset hook. A cache
 * supplies only its codec:
 *
 *     struct Codec
 *     {
 *         using Value = ...;
 *         static constexpr const char *kName;    // metric stem
 *         static constexpr const char *kVersion; // key prefix
 *         static constexpr const char *kFile;    // in cacheDir()
 *         static std::string encode(const Value &);
 *         static std::optional<Value> decode(const std::string &);
 *     };
 */

#ifndef VALLEY_HARNESS_RECORD_CACHE_HH
#define VALLEY_HARNESS_RECORD_CACHE_HH

#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/metrics.hh"
#include "common/trace_span.hh"
#include "harness/atomic_io.hh"

namespace valley {
namespace harness {

/**
 * Directory holding every on-disk cache file: $VALLEY_CACHE_DIR if
 * set, else "cache" relative to the working directory. Created on
 * first store; gitignored.
 */
inline std::string
cacheDir()
{
    const char *env = std::getenv("VALLEY_CACHE_DIR");
    return env && *env ? env : "cache";
}

/** True unless VALLEY_CACHE=0 is set in the environment. */
inline bool
cacheEnabled()
{
    const char *env = std::getenv("VALLEY_CACHE");
    return env == nullptr || std::string(env) != "0";
}

/**
 * One mutex guards the map: a lookup runs once per grid cell or
 * search, next to milliseconds of simulation or annealing. A store
 * keeps `decode(encode(v))` in memory, so an in-process hit equals the
 * value a later process reads from disk.
 */
template <typename Codec>
class RecordCache
{
  public:
    using Value = typename Codec::Value;

    /** The cache file; follows VALLEY_CACHE_DIR at every call. */
    static std::string
    path()
    {
        return cacheDir() + "/" + Codec::kFile;
    }

    /** Look up `key` (loads the file on first use). */
    std::optional<Value>
    lookup(const std::string &key)
    {
        if (!cacheEnabled())
            return std::nullopt;
        Instruments &m = instruments();
        metrics::ScopedTimer timer(m.lookupUs);
        trace::Span span(m.span.c_str(), "cache");
        std::lock_guard<std::mutex> lock(mutex_);
        loadLocked();
        const auto it = entries_.find(key);
        if (it == entries_.end()) {
            m.misses.inc();
            return std::nullopt;
        }
        m.hits.inc();
        return it->second;
    }

    /**
     * Persist `value` (no-op when caching is disabled). A key with a
     * raw newline or '|' would split or truncate its record line: it
     * is a caller bug (keys are built escaped, `escapeSpecField`) and
     * throws `std::invalid_argument`. A value whose payload does not
     * decode back is dropped — the next load would quarantine it.
     */
    void
    store(const std::string &key, const Value &value)
    {
        if (!cacheEnabled())
            return;
        if (key.find_first_of("\n\r|") != std::string::npos)
            throw std::invalid_argument(
                std::string(Codec::kName) +
                " cache: key contains a newline or '|' — escape "
                "fields with workloads::escapeSpecField");
        const std::string payload = Codec::encode(value);
        std::optional<Value> decoded = Codec::decode(payload);
        if (!decoded)
            return;
        instruments().stores.inc();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            loadLocked();
            entries_[key] = std::move(*decoded);
        }
        // One O_APPEND write per record: concurrent processes can
        // interleave records but never tear one. Best-effort — a
        // failed append only loses memoization.
        atomicAppend(path(), checksummedRecord(key, payload));
    }

    /** Drop the map and re-read the file on next use. Tests only. */
    void
    resetForTesting()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.clear();
        loaded_ = false;
    }

  private:
    /** Registry handles, interned on first use. */
    struct Instruments
    {
        std::string stem = std::string("cache.") + Codec::kName + ".";
        metrics::Counter &hits = metrics::counter(stem + "hits");
        metrics::Counter &misses = metrics::counter(stem + "misses");
        metrics::Counter &stores = metrics::counter(stem + "stores");
        metrics::Histogram &lookupUs =
            metrics::histogram(stem + "lookup_us");
        std::string span = std::string(Codec::kName) + "_cache.lookup";
    };

    static Instruments &
    instruments()
    {
        static Instruments m;
        return m;
    }

    void
    loadLocked()
    {
        if (loaded_)
            return;
        loaded_ = true;
        // A torn, bit-rotted or undecodable line degrades to a miss
        // instead of aborting the run or feeding it garbage.
        loadChecksummedRecords(
            path(), Codec::kVersion,
            [this](const std::string &key, const std::string &payload) {
                auto v = Codec::decode(payload);
                if (!v)
                    return false;
                entries_[key] = std::move(*v);
                return true;
            });
    }

    std::mutex mutex_;
    std::map<std::string, Value> entries_;
    bool loaded_ = false;
};

} // namespace harness
} // namespace valley

#endif // VALLEY_HARNESS_RECORD_CACHE_HH
