/**
 * @file
 * Crash-consistent file primitives shared by every on-disk cache.
 * They are what lets a killed `--cache` grid resume: every finished
 * cell is already one whole, checksummed record on disk.
 *
 * Three failure modes motivated this layer: two bench binaries
 * appending to the same CSV can
 * interleave buffered writes and tear a line; a process killed
 * mid-append leaves a truncated tail; and a single corrupt line used
 * to poison — or abort — every later run that loaded the file. The
 * fixes compose:
 *
 *  - `atomicAppend` writes a whole record with ONE O_APPEND write(2),
 *    so concurrent appenders can interleave only at record
 *    granularity, never inside a record;
 *  - `atomicWriteFile` replaces a file via temp-file + rename(2), so
 *    readers observe either the old or the new contents, never a mix;
 *  - every record carries an FNV-1a checksum
 *    (`checksummedRecord`/`parseChecksummedRecord`), so a torn or
 *    bit-rotted line is *detectable*;
 *  - `loadChecksummedRecords` skips-and-quarantines bad lines (moved
 *    to `cacheDir()/quarantine/<basename>`, counted, logged) instead
 *    of propagating garbage or dying — the cache degrades to a miss,
 *    and the next run repopulates it.
 */

#ifndef VALLEY_HARNESS_ATOMIC_IO_HH
#define VALLEY_HARNESS_ATOMIC_IO_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace valley {
namespace harness {

/**
 * Append `data` to `path` with a single O_APPEND write, creating the
 * parent directory if needed. POSIX O_APPEND makes the seek+write
 * atomic, so two processes appending whole records cannot interleave
 * *within* a record (the torn-line race the caches used to have).
 * The append additionally holds an exclusive flock on a sidecar
 * lock dotfile (`.<basename>.lock`, invisible to data-file directory
 * scans), shared with `loadChecksummedRecords`, so a
 * record can never be appended in the window between that loader's
 * read pass and its quarantine rewrite (where it would be silently
 * dropped). Best-effort: returns false on I/O failure (a lost append
 * only loses memoization, never correctness).
 */
bool atomicAppend(const std::string &path, std::string_view data);

/**
 * Replace `path` with `contents` atomically: write a temp file next
 * to it, flush, then rename(2) over the target. Readers see the old
 * or the new file, never a prefix. Returns false on failure (the
 * original file is left untouched).
 */
bool atomicWriteFile(const std::string &path, std::string_view contents);

/**
 * One checksummed record line: `key|payload|c<16 hex digits>\n`, the
 * checksum being FNV-1a over `key|payload`. `key` must not contain
 * '|', '\n', '\r' or NUL (cache keys are built escaped — see
 * `workloads::escapeSpecField`); `payload` must not contain '\n',
 * '\r' or NUL. The invariant is enforced unconditionally (not just
 * in debug builds): a violating key/payload returns an empty string,
 * so the caller's append degrades to a no-op instead of writing a
 * line that would quarantine on the next load.
 */
std::string checksummedRecord(std::string_view key,
                              std::string_view payload);

/**
 * Parse and verify one record line (without trailing newline).
 * Returns (key, payload) or nullopt if the line is torn, checksum
 * fails, the checksum field is malformed, or the line embeds NULs.
 */
std::optional<std::pair<std::string, std::string>>
parseChecksummedRecord(std::string_view line);

/** Outcome counters of one `loadChecksummedRecords` pass. */
struct LoadStats
{
    std::size_t accepted = 0;     ///< records handed to the sink
    std::size_t quarantined = 0;  ///< corrupt lines moved aside
    std::size_t staleVersion = 0; ///< other-schema lines (kept, unused)
};

/**
 * Load every record of `path`, tolerating corruption.
 *
 * For each non-empty line: a key whose version prefix differs from
 * `version_prefix` is a *stale* line — skipped silently and preserved
 * (older binaries may still read it). A current-version line must
 * parse and checksum-verify, and `accept(key, payload)` must return
 * true (deserialization success); otherwise the line is corrupt.
 *
 * If any corrupt lines were found they are appended to
 * `cacheDir()/quarantine/<basename of path>` (atomicAppend), the file
 * is rewritten without them (atomicWriteFile — the "move" is
 * all-or-nothing), and one summary line is logged to stderr. The
 * whole read+rewrite runs under the sidecar flock shared with
 * `atomicAppend`, so records appended by concurrent processes or
 * threads are never lost to the rewrite. A missing file is simply
 * zero records.
 */
LoadStats loadChecksummedRecords(
    const std::string &path, std::string_view version_prefix,
    const std::function<bool(const std::string &key,
                             const std::string &payload)> &accept);

/**
 * Process-wide count of lines quarantined by `loadChecksummedRecords`
 * since start — the observability counter the robustness tests (and
 * grid progress logging) read.
 */
std::uint64_t quarantinedLineCount();

/**
 * Remove the `.<basename>.lock` sidecar of `path` if it is *stale* —
 * present but not flock-held by any live process (the kernel drops
 * flocks on process death, so a kill can leave the dotfile behind but
 * never a held lock). Detection is a non-blocking flock probe: a live
 * holder leaves the file untouched. `loadChecksummedRecords` calls
 * this at every cache open; it is exposed for tests and tools.
 * Returns true if a stale sidecar was removed. Safe against
 * concurrent lockers: the unlink happens while holding the probe
 * lock, and `FileLock` acquisition verifies the locked inode is still
 * the one on disk (retrying otherwise).
 */
bool cleanStaleLock(const std::string &path);

} // namespace harness
} // namespace valley

#endif // VALLEY_HARNESS_ATOMIC_IO_HH
