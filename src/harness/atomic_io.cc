#include "harness/atomic_io.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/fnv.hh"
#include "common/metrics.hh"
#include "harness/result_cache.hh"

namespace valley {
namespace harness {

namespace {

/**
 * The quarantine tally lives in the metrics registry — one source of
 * truth shared with `--metrics` snapshots; `quarantinedLineCount()`
 * delegates to it.
 */
metrics::Counter &
quarantinedCounter()
{
    static metrics::Counter &c =
        metrics::counter("cache.quarantined_lines");
    return c;
}

void
ensureParentDir(const std::string &path)
{
    const std::filesystem::path p(path);
    std::error_code ec; // best-effort, mirrors the old cache stores
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
}

std::string
hex16(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Sidecar lock-file path for a data file: `.<basename>.lock`. */
std::string
lockPathFor(const std::string &path)
{
    const std::filesystem::path p(path);
    std::string lockName(".");
    lockName += p.filename().string();
    lockName += ".lock";
    return (p.parent_path() / lockName).string();
}

/**
 * RAII exclusive flock on a sidecar `<path>.lock` file. The lock
 * lives on a file that is never renamed: `atomicWriteFile` replaces
 * the data file's inode, so an flock on the data file itself would
 * silently stop excluding appenders that open the path after the
 * rename. Every appender and the load-time quarantine rewrite take
 * this lock, which makes read+rewrite atomic with respect to
 * concurrent appends (from other processes AND other threads —
 * each holder opens its own descriptor, so flock serializes both).
 * Best-effort: if the lock file cannot be opened we proceed
 * unlocked, matching the caches' lose-memoization-never-correctness
 * contract.
 *
 * The lock file is a *dotfile* (`.<basename>.lock`) so directory
 * scans for data files never pick it up as an empty data file.
 *
 * Acquisition verifies the locked inode: `cleanStaleLock` may unlink
 * the lock file between our open(2) and flock(2), in which case we
 * hold an exclusive lock on an orphaned inode that excludes nobody —
 * a second opener would create (and lock) a fresh file at the same
 * path. On an fstat/stat identity mismatch we drop the orphan and
 * retry *unconditionally*: a mismatch can only happen because some
 * other actor unlinked the path after our open(2), so every retry is
 * preceded by system-wide progress and the loop terminates as soon
 * as sweeping stops. A bounded retry budget here is a correctness
 * hole, not a safety valve — a blocked acquirer synchronizes with
 * the unlinking loader via the flock itself, so under load it can
 * lose the open-vs-unlink race on *every* sweep, exhaust any fixed
 * budget, and silently proceed unlocked into a quarantine rewrite
 * that then discards its append. Only hard open/flock errors degrade
 * to the unlocked best-effort path.
 */
class FileLock
{
  public:
    explicit FileLock(const std::string &path)
    {
        ensureParentDir(path);
        const std::string lockPath = lockPathFor(path);
        for (;;) {
            fd = ::open(lockPath.c_str(), O_WRONLY | O_CREAT, 0644);
            if (fd < 0)
                return; // proceed unlocked (best-effort)
            if (::flock(fd, LOCK_EX) != 0) {
                ::close(fd);
                fd = -1;
                return;
            }
            struct stat fd_st, path_st;
            if (::fstat(fd, &fd_st) == 0 &&
                ::stat(lockPath.c_str(), &path_st) == 0 &&
                fd_st.st_ino == path_st.st_ino &&
                fd_st.st_dev == path_st.st_dev)
                return; // locked the live lock file
            ::flock(fd, LOCK_UN);
            ::close(fd);
            fd = -1;
        }
    }

    ~FileLock()
    {
        if (fd >= 0) {
            ::flock(fd, LOCK_UN);
            ::close(fd);
        }
    }

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

  private:
    int fd = -1;
};

} // namespace

bool
cleanStaleLock(const std::string &path)
{
    const std::string lockPath = lockPathFor(path);
    const int fd = ::open(lockPath.c_str(), O_WRONLY, 0644);
    if (fd < 0)
        return false; // no sidecar — nothing stale
    // Non-blocking probe: a *live* holder (flock held by a running
    // process) makes this fail with EWOULDBLOCK and we leave the file
    // alone. Success means the previous holder is gone — flock(2) is
    // released by the kernel on process death, so a sidecar we can
    // lock instantly is a leftover, not a guard.
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
        ::close(fd);
        return false;
    }
    // The probe fd must still be the path's inode before we unlink:
    // if another sweep already removed it and a FileLock recreated
    // the sidecar, our lock is on the orphan and unlink(2) by path
    // would strip a *live* holder's lock file out from under it.
    struct stat fd_st, path_st;
    if (::fstat(fd, &fd_st) != 0 ||
        ::stat(lockPath.c_str(), &path_st) != 0 ||
        fd_st.st_ino != path_st.st_ino ||
        fd_st.st_dev != path_st.st_dev) {
        ::flock(fd, LOCK_UN);
        ::close(fd);
        return false;
    }
    // Unlink while still holding the lock: a concurrent FileLock that
    // raced us onto this inode sees the fstat/stat mismatch and
    // retries on a fresh file.
    const bool removed = ::unlink(lockPath.c_str()) == 0;
    ::flock(fd, LOCK_UN);
    ::close(fd);
    return removed;
}

bool
atomicAppend(const std::string &path, std::string_view data)
{
    ensureParentDir(path);
    // The flock (not O_APPEND, which already prevents intra-record
    // tearing) is what keeps this append from racing a concurrent
    // loadChecksummedRecords quarantine rewrite: the rewrite holds
    // the same lock across its read+rename, so our record is either
    // read (and preserved) or appended to the new file.
    FileLock lock(path);
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        return false;
    // One write(2) for the whole record: O_APPEND makes the
    // seek-to-end + write atomic with respect to other appenders.
    std::size_t off = 0;
    bool ok = true;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n <= 0) {
            ok = false;
            break;
        }
        off += static_cast<std::size_t>(n);
        // A short write can only tear across records if another
        // appender slips in; that line then fails its checksum on
        // load and is quarantined — detectable, not fatal.
    }
    ::close(fd);
    return ok;
}

bool
atomicWriteFile(const std::string &path, std::string_view contents)
{
    ensureParentDir(path);
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    std::size_t off = 0;
    bool ok = true;
    while (off < contents.size()) {
        const ssize_t n =
            ::write(fd, contents.data() + off, contents.size() - off);
        if (n <= 0) {
            ok = false;
            break;
        }
        off += static_cast<std::size_t>(n);
    }
    if (ok)
        ok = ::fsync(fd) == 0;
    ::close(fd);
    if (ok)
        ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok)
        ::unlink(tmp.c_str());
    return ok;
}

std::string
checksummedRecord(std::string_view key, std::string_view payload)
{
    // Enforced unconditionally (not assert — NDEBUG builds must not
    // write a record that parses as two lines, one of which then
    // fails its checksum and quarantines on the next load). An
    // invalid key/payload yields an empty record: the caller's
    // append becomes a no-op, degrading to a cache miss.
    if (key.find_first_of("|\n\r", 0) != std::string_view::npos ||
        key.find('\0') != std::string_view::npos ||
        payload.find_first_of("\n\r", 0) != std::string_view::npos ||
        payload.find('\0') != std::string_view::npos) {
        std::fprintf(stderr,
                     "[valley] checksummedRecord: key or payload "
                     "contains '|', newline, or NUL; record "
                     "dropped\n");
        return std::string();
    }
    std::string body;
    body.reserve(key.size() + payload.size() + 20);
    body.append(key);
    body.push_back('|');
    body.append(payload);
    const std::uint64_t crc = bits::fnv1a(body);
    body.append("|c");
    body.append(hex16(crc));
    body.push_back('\n');
    return body;
}

std::optional<std::pair<std::string, std::string>>
parseChecksummedRecord(std::string_view line)
{
    if (line.find('\0') != std::string_view::npos)
        return std::nullopt;
    const auto crc_sep = line.rfind('|');
    if (crc_sep == std::string_view::npos)
        return std::nullopt;
    const std::string_view crc_field = line.substr(crc_sep + 1);
    if (crc_field.size() != 17 || crc_field[0] != 'c')
        return std::nullopt;
    std::uint64_t want = 0;
    for (char c : crc_field.substr(1)) {
        unsigned digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<unsigned>(c - 'a') + 10;
        else
            return std::nullopt;
        want = (want << 4) | digit;
    }
    const std::string_view body = line.substr(0, crc_sep);
    if (bits::fnv1a(body) != want)
        return std::nullopt;
    const auto key_sep = body.find('|');
    if (key_sep == std::string_view::npos)
        return std::nullopt;
    return std::make_pair(std::string(body.substr(0, key_sep)),
                          std::string(body.substr(key_sep + 1)));
}

LoadStats
loadChecksummedRecords(
    const std::string &path, std::string_view version_prefix,
    const std::function<bool(const std::string &key,
                             const std::string &payload)> &accept)
{
    LoadStats stats;
    // Cache-open is the natural sweep point for sidecars orphaned by
    // a killed writer: probe-and-remove before (re)creating our own.
    cleanStaleLock(path);
    // Exclusive lock across the whole read (+ possible quarantine
    // rewrite below): a record appended between our read pass and
    // the rename would otherwise be silently discarded by the
    // rewrite, breaking the concurrent-appender guarantee.
    FileLock lock(path);
    std::ifstream in(path);
    if (!in)
        return stats;

    std::vector<std::string> kept; // good + stale lines, verbatim
    std::vector<std::string> bad;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        // A line of a different schema epoch is stale, not corrupt:
        // skip it before checksum verification (pre-checksum cache
        // files and future formats both land here) and keep it for
        // whatever binary still speaks that version.
        const auto key_sep = line.find('|');
        const std::string_view key_view =
            key_sep == std::string::npos
                ? std::string_view(line)
                : std::string_view(line).substr(0, key_sep);
        if (key_view.substr(0, version_prefix.size()) !=
            version_prefix) {
            ++stats.staleVersion;
            kept.push_back(line);
            continue;
        }
        const auto rec = parseChecksummedRecord(line);
        if (rec && accept(rec->first, rec->second)) {
            ++stats.accepted;
            kept.push_back(line);
        } else {
            ++stats.quarantined;
            bad.push_back(line);
        }
    }
    in.close();

    if (!bad.empty()) {
        const std::string base =
            std::filesystem::path(path).filename().string();
        const std::string qpath = cacheDir() + "/quarantine/" + base;
        std::string qlines;
        for (const std::string &l : bad) {
            qlines += l;
            qlines += '\n';
        }
        atomicAppend(qpath, qlines);
        std::string good;
        for (const std::string &l : kept) {
            good += l;
            good += '\n';
        }
        atomicWriteFile(path, good);
        quarantinedCounter().add(bad.size());
        std::fprintf(stderr,
                     "[valley] %s: quarantined %zu corrupt line(s) "
                     "-> %s (recomputed on next use)\n",
                     base.c_str(), bad.size(), qpath.c_str());
    }
    if (stats.staleVersion != 0)
        metrics::counter("cache.stale_lines").add(stats.staleVersion);
    return stats;
}

std::uint64_t
quarantinedLineCount()
{
    return quarantinedCounter().value();
}

} // namespace harness
} // namespace valley
