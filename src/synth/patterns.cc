#include "synth/patterns.hh"

#include <algorithm>
#include <stdexcept>

#include "common/bitops.hh"
#include "common/rng.hh"

namespace valley {
namespace synth {
namespace {

/** Synthetic heap regions, as in workloads/suite.cc: 32 x 32 MB. */
constexpr Addr region(unsigned idx) { return Addr{idx} << 25; }
constexpr std::uint64_t kRegionBytes = std::uint64_t{1} << 25;

/**
 * Reject invalid parameter combinations loudly (never truncate);
 * `synth::make` adds the spec text to the message.
 */
void
require(bool ok, const std::string &why)
{
    if (!ok)
        throw std::invalid_argument(why);
}

/**
 * Effective problem scale: the spec's own `scale` parameter times the
 * external `workloads::make` scale, both already validated in (0, 1].
 */
double
effScale(const ResolvedSpec &spec, double scale)
{
    return spec.d("scale") * scale;
}

/** Deterministic per-(family,seed,kernel,tb) RNG. */
XorShiftRng
synthRng(std::uint64_t family_id, std::uint64_t seed,
         std::uint64_t kernel, TbId tb)
{
    return XorShiftRng(0x5EEDull ^ (family_id << 52) ^ (seed << 36) ^
                       (kernel << 24) ^ (Addr{tb} + 1));
}

/**
 * Deterministic write-mix predicate: true for a `wr` fraction of the
 * instruction indices, evenly spread (no RNG, so the read/write mix
 * is independent of every other random stream).
 */
bool
writeAt(unsigned i, double wr)
{
    return static_cast<unsigned>((i + 1) * wr) >
           static_cast<unsigned>(i * wr);
}

/** Shared WorkloadInfo shape for the synth suite. */
WorkloadInfo
synthInfo(const ResolvedSpec &spec, bool valley, std::string dims)
{
    return WorkloadInfo{spec.family().name, spec.canonical(), "synth",
                        valley, std::move(dims)};
}

KernelParams
kernelParams(const ResolvedSpec &spec, const std::string &name,
             unsigned num_tbs)
{
    KernelParams p;
    p.name = name;
    p.numTbs = num_tbs;
    p.warpsPerTb = static_cast<unsigned>(spec.u("warps"));
    p.computeGap = static_cast<unsigned>(spec.u("gap"));
    p.instrsPerRequest = spec.d("ipr");
    return p;
}

} // namespace

// ---------------------------------------------------------------------
// stream — sequential streaming with controllable per-warp coalescing.
// Thread t of a warp instruction reads base + t * tstride: tstride 4
// is one fully coalesced 128 B line per access, tstride >= 128 is a
// 32-line scatter. Low-order bits sweep inside every TB: no valley.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeStream(const ResolvedSpec &spec, double scale)
{
    const unsigned n =
        workloads::scaled(static_cast<unsigned>(spec.u("n")),
                          effScale(spec, scale), 4096);
    const unsigned tstride = static_cast<unsigned>(spec.u("tstride"));
    const double wr = spec.d("wr");
    const unsigned warps = static_cast<unsigned>(spec.u("warps"));
    const unsigned ipt = static_cast<unsigned>(spec.u("ipt"));

    require(tstride >= 4 && tstride % 4 == 0,
            "tstride must be a positive multiple of 4");
    require(std::uint64_t{n} * tstride <= kRegionBytes,
            "n * tstride exceeds the 32 MB stream region");
    require(wr >= 0.0 && wr <= 1.0, "wr must be in [0, 1]");
    require(ipt >= 1 && ipt <= 4096, "ipt must be in [1, 4096]");

    const Addr src = region(0);
    const Addr dst = region(2);
    const unsigned instrs = n / 32; // one warp access = 32 elements
    const unsigned per_tb = warps * ipt;
    const unsigned num_tbs = std::max(1u, instrs / per_tb);

    std::vector<Kernel> kernels;
    kernels.emplace_back(
        kernelParams(spec, "stream", num_tbs),
        [=](TbId tb, TraceBuilder &b) {
            for (unsigned w = 0; w < warps; ++w)
                for (unsigned i = 0; i < ipt; ++i) {
                    const unsigned g =
                        ((tb * warps + w) * ipt + i) % instrs;
                    const Addr base = Addr{g} * 32 * tstride;
                    b.accessStrided(w, src + base, tstride, 32, false);
                    if (writeAt(i, wr))
                        b.accessStrided(w, dst + base, tstride, 32,
                                        true);
                }
        });

    return std::make_unique<Workload>(
        synthInfo(spec, false,
                  std::to_string(n) + "x" + std::to_string(tstride)),
        std::move(kernels));
}

// ---------------------------------------------------------------------
// strided — the partition-camping shape (SP/MT generalized): TBs own a
// column block of a pitched array (slow grid dimension) and walk rows
// (fast). Bits 7..log2(pitch/128)+6 hold the column block, pinned
// across the TB window: an entropy valley whose width is set by
// `pitch`.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeStrided(const ResolvedSpec &spec, double scale)
{
    const unsigned rows =
        workloads::scaled(static_cast<unsigned>(spec.u("rows")),
                          effScale(spec, scale), 256);
    const unsigned pitch = static_cast<unsigned>(spec.u("pitch"));
    const unsigned rpt = static_cast<unsigned>(spec.u("rpt"));
    const unsigned warps = static_cast<unsigned>(spec.u("warps"));

    require(pitch >= 128 && pitch % 128 == 0,
            "pitch must be a positive multiple of 128");
    require(rpt >= warps && rpt % warps == 0,
            "rpt must be a multiple of warps");
    require(std::uint64_t{rows} * pitch <= kRegionBytes,
            "rows * pitch exceeds the 32 MB region");

    const Addr va = region(4);
    const Addr res = region(6);
    const unsigned col_blocks = pitch / 128;
    const unsigned chunks = std::max(1u, rows / rpt);
    const unsigned rows_per_warp = rpt / warps;

    std::vector<Kernel> kernels;
    kernels.emplace_back(
        kernelParams(spec, "strided", chunks * col_blocks),
        [=](TbId tb, TraceBuilder &b) {
            const unsigned ch = tb % chunks; // fast: row chunk
            const unsigned cb = tb / chunks; // slow: valley bits
            for (unsigned w = 0; w < warps; ++w) {
                for (unsigned i = 0; i < rows_per_warp; ++i) {
                    const unsigned r =
                        ch * rpt + w * rows_per_warp + i;
                    if (r >= rows)
                        break;
                    b.accessLine(w,
                                 va + Addr{r} * pitch + Addr{cb} * 128,
                                 false);
                }
                // Per-warp partial result.
                b.accessLine(w,
                             res + (Addr{tb} * warps + w) * 128, true);
            }
        });

    return std::make_unique<Workload>(
        synthInfo(spec, true,
                  std::to_string(rows) + "x" +
                      std::to_string(col_blocks)),
        std::move(kernels));
}

// ---------------------------------------------------------------------
// tiled2d — 2D tile copy whose TB allocation order is the parameter:
// `order=col` walks the y blocks fastest, so the x-block bits (7..)
// stay pinned across the TB window (SRAD2/HS shape, valley);
// `order=row` walks x fastest and sweeps those bits (no valley).
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeTiled2d(const ResolvedSpec &spec, double scale)
{
    const unsigned nx = static_cast<unsigned>(spec.u("nx"));
    const unsigned ny =
        workloads::scaled(static_cast<unsigned>(spec.u("ny")),
                          effScale(spec, scale), 64);
    const unsigned tile = static_cast<unsigned>(spec.u("tile"));
    const bool col_major = spec.s("order") == "col";
    const unsigned warps = static_cast<unsigned>(spec.u("warps"));

    require(nx >= 32 && nx % 32 == 0, "nx must be a positive multiple of 32");
    require(tile >= 1 && ny % tile == 0, "tile must divide ny");
    // ny * nx fits 64 bits (both are 32-bit); times 4 might not.
    require(std::uint64_t{ny} * nx <= kRegionBytes / 4,
            "nx * ny exceeds the 32 MB region");

    const unsigned pitch = nx * 4;
    const unsigned x_blocks = nx / 32;
    const unsigned y_blocks = ny / tile;
    const Addr in = region(8);
    const Addr out = region(10);

    std::vector<Kernel> kernels;
    kernels.emplace_back(
        kernelParams(spec, "tiled2d", x_blocks * y_blocks),
        [=](TbId tb, TraceBuilder &b) {
            const unsigned yb =
                col_major ? tb % y_blocks : tb / x_blocks;
            const unsigned xb =
                col_major ? tb / y_blocks : tb % x_blocks;
            for (unsigned r = 0; r < tile; ++r) {
                const unsigned y = yb * tile + r;
                const unsigned w = r % warps;
                b.accessLine(w, in + Addr{y} * pitch + Addr{xb} * 128,
                             false);
                b.accessLine(w, out + Addr{y} * pitch + Addr{xb} * 128,
                             true);
            }
        });

    return std::make_unique<Workload>(
        synthInfo(spec, col_major,
                  std::to_string(nx) + "x" + std::to_string(ny)),
        std::move(kernels));
}

// ---------------------------------------------------------------------
// stencil3d — 7-point (halo-widened) stencil over an nx x nx x n grid
// with power-of-two plane pitches: TBs cover 32 x warps xy tiles with
// (yb fast, xb slow, z slowest) allocation — the LPS shape. The
// x-block bits sit right on the channel bits and stay pinned across
// the window; `halo` widens the neighbor reach in y/z. Scaling
// shrinks the number of z planes only, so the valley position is
// invariant under `scale` (the xy pitch never moves).
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeStencil3d(const ResolvedSpec &spec, double scale)
{
    const unsigned nx = static_cast<unsigned>(spec.u("nx"));
    const unsigned n =
        workloads::scaled(static_cast<unsigned>(spec.u("n")),
                          effScale(spec, scale), 4);
    const unsigned halo = static_cast<unsigned>(spec.u("halo"));
    const unsigned warps = static_cast<unsigned>(spec.u("warps"));

    require(nx >= 64 && nx <= 1024 && bits::isPow2(nx),
            "nx must be a power of two in [64, 1024]");
    require(halo >= 1 && halo <= 4, "halo must be in [1, 4]");
    require(nx % warps == 0, "warps must divide nx");

    const Addr pitchY = Addr{nx} * 4;              // pow2: clean bits
    const Addr pitchZ = pitchY * nx;
    const Addr in = region(12);
    const Addr out = region(20); // 8 regions apart: room to grow in z
    require(pitchZ * n <= 8 * kRegionBytes,
            "nx * nx * n exceeds the 256 MB stencil region");

    const unsigned x_blocks = nx / 32;
    const unsigned y_blocks = nx / warps;

    std::vector<Kernel> kernels;
    kernels.emplace_back(
        kernelParams(spec, "stencil3d", x_blocks * y_blocks * n),
        [=](TbId tb, TraceBuilder &b) {
            const unsigned yb = tb % y_blocks;                 // fast
            const unsigned xb = (tb / y_blocks) % x_blocks;    // slow
            const unsigned z = tb / (y_blocks * x_blocks);     // slowest
            for (unsigned w = 0; w < warps; ++w) {
                const unsigned y = yb * warps + w;
                const Addr c = in + Addr{z} * pitchZ +
                               Addr{y} * pitchY + Addr{xb} * 128;
                b.accessLine(w, c, false);
                for (unsigned h = 1; h <= halo; ++h) {
                    if (y + h < nx)
                        b.accessLine(w, c + h * pitchY, false);
                    if (y >= h)
                        b.accessLine(w, c - h * pitchY, false);
                    if (z + h < n)
                        b.accessLine(w, c + h * pitchZ, false);
                    if (z >= h)
                        b.accessLine(w, c - h * pitchZ, false);
                }
                b.accessLine(w,
                             out + Addr{z} * pitchZ + Addr{y} * pitchY +
                                 Addr{xb} * 128,
                             true);
            }
        });

    return std::make_unique<Workload>(
        synthInfo(spec, true,
                  std::to_string(nx) + "x" + std::to_string(nx) + "x" +
                      std::to_string(n)),
        std::move(kernels));
}

// ---------------------------------------------------------------------
// csr_gather — CSR y = A x over a deterministically generated graph:
// streaming row pointers/values/column indices plus per-edge gathers
// into the feature table. `loc` mixes neighborhood-local edges (the
// community structure of real graphs) with uniform ones; the gather
// sweeps all bits of the footprint — the Mosaic-style irregular
// regime, no valley.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeCsrGather(const ResolvedSpec &spec, double scale)
{
    const unsigned nodes =
        workloads::scaled(static_cast<unsigned>(spec.u("nodes")),
                          effScale(spec, scale), 1024);
    const unsigned deg = static_cast<unsigned>(spec.u("deg"));
    const unsigned xmb = static_cast<unsigned>(spec.u("xmb"));
    const double loc = spec.d("loc");
    const std::uint64_t seed = spec.u("seed");
    const unsigned warps = static_cast<unsigned>(spec.u("warps"));

    require(deg >= 1 && deg <= 64, "deg must be in [1, 64]");
    require(bits::isPow2(xmb) && xmb <= 32,
            "xmb must be a power of two <= 32");
    require(loc >= 0.0 && loc <= 1.0, "loc must be in [0, 1]");
    require(std::uint64_t{nodes} * deg * 8 <= kRegionBytes,
            "nodes * deg exceeds the values region");

    const Addr rp = region(24);
    const Addr cols = region(24) + (Addr{1} << 22);
    const Addr y = region(24) + (Addr{3} << 22);
    const Addr vals = region(28);
    const Addr x = region(26);
    const std::uint64_t xlines = (std::uint64_t{xmb} << 20) / 128;

    // Each warp owns 32 rows, so TB count follows the warp count —
    // r0 below never reaches past `nodes` (guarded for the remainder
    // TBs a non-dividing warp count leaves).
    const unsigned rows_per_tb = warps * 32;
    const unsigned num_tbs = std::max(1u, nodes / rows_per_tb);

    std::vector<Kernel> kernels;
    kernels.emplace_back(
        kernelParams(spec, "csr_gather", num_tbs),
        [=](TbId tb, TraceBuilder &b) {
            XorShiftRng rng = synthRng(4, seed, 0, tb);
            for (unsigned w = 0; w < warps; ++w) {
                const unsigned r0 = (tb * warps + w) * 32;
                if (r0 >= nodes)
                    break;
                // Row pointers + column indices: coalesced streams.
                b.accessLine(w, rp + Addr{r0} * 4, false);
                b.accessStrided(w, cols + Addr{r0} * deg * 4, deg * 4,
                                32, false);
                for (unsigned e = 0; e < deg; ++e) {
                    // Values: strided stream (row-major CSR arrays).
                    b.accessStrided(w,
                                    vals + Addr{r0} * deg * 8 +
                                        Addr{e} * 8,
                                    deg * 8, 32, false);
                    // Feature gather: local (community) or uniform.
                    std::vector<Addr> addrs;
                    addrs.reserve(32);
                    for (unsigned t = 0; t < 32; ++t) {
                        const std::uint64_t r = r0 + t;
                        std::uint64_t line;
                        if (rng.uniform() < loc)
                            line = (r + rng.below(64)) % xlines;
                        else
                            line = rng.below(xlines);
                        addrs.push_back(x + line * 128);
                    }
                    b.access(w, addrs, false);
                }
                b.accessLine(w, y + Addr{r0} * 8, true);
            }
        });

    return std::make_unique<Workload>(
        synthInfo(spec, false,
                  std::to_string(nodes) + "x" + std::to_string(deg)),
        std::move(kernels));
}

// ---------------------------------------------------------------------
// attention — QK gather: each warp owns 32 query rows (dense,
// row-pitch-strided reads), gathers `topk` key rows at random
// sequence positions, and writes its output rows. Key rows are
// dm*4 >= 128 bytes, so gathers touch whole multi-line rows at
// random row offsets: entropy spreads over all footprint bits.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeAttention(const ResolvedSpec &spec, double scale)
{
    const unsigned seq =
        workloads::scaled(static_cast<unsigned>(spec.u("seq")),
                          effScale(spec, scale), 256);
    const unsigned dm = static_cast<unsigned>(spec.u("dm"));
    const unsigned topk = static_cast<unsigned>(spec.u("topk"));
    const std::uint64_t seed = spec.u("seed");
    const unsigned warps = static_cast<unsigned>(spec.u("warps"));

    require(dm >= 32 && dm % 32 == 0 && dm <= 512,
            "dm must be a multiple of 32 in [32, 512]");
    require(topk >= 1 && topk <= 256, "topk must be in [1, 256]");
    const unsigned rb = dm * 4; // row bytes, multiple of 128
    require(std::uint64_t{seq} * rb <= kRegionBytes,
            "seq * dm exceeds the 32 MB region");

    const Addr q = region(1);
    const Addr k = region(3);
    const Addr o = region(5);
    const unsigned row_lines = rb / 128;
    const unsigned num_tbs = std::max(1u, seq / (warps * 32));

    std::vector<Kernel> kernels;
    kernels.emplace_back(
        kernelParams(spec, "attention_qk", num_tbs),
        [=](TbId tb, TraceBuilder &b) {
            XorShiftRng rng = synthRng(5, seed, 0, tb);
            for (unsigned w = 0; w < warps; ++w) {
                const unsigned q0 = ((tb * warps + w) * 32) % seq;
                // Dense Q block: line l of rows q0..q0+31.
                for (unsigned l = 0; l < row_lines; ++l)
                    b.accessStrided(w, q + Addr{q0} * rb + l * 128, rb,
                                    32, false);
                // Top-k key gather at random sequence positions.
                for (unsigned j = 0; j < topk; ++j) {
                    const std::uint64_t kidx = rng.below(seq);
                    for (unsigned l = 0; l < row_lines; ++l)
                        b.accessLine(w, k + kidx * rb + l * 128,
                                     false);
                }
                // Output rows.
                for (unsigned l = 0; l < row_lines; ++l)
                    b.accessStrided(w, o + Addr{q0} * rb + l * 128, rb,
                                    32, true);
            }
        });

    return std::make_unique<Workload>(
        synthInfo(spec, false,
                  std::to_string(seq) + "x" + std::to_string(dm)),
        std::move(kernels));
}

// ---------------------------------------------------------------------
// hash_shuffle — uniformly random lines over a power-of-two footprint
// (hash-table probing / shuffle traffic). Every bit from 7 up to the
// footprint top carries near-maximal window entropy: the flattest
// profile a mapping could hope for, and the hardest to improve.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeHashShuffle(const ResolvedSpec &spec, double scale)
{
    const unsigned fmb = static_cast<unsigned>(spec.u("fmb"));
    const unsigned rpw = static_cast<unsigned>(spec.u("rpw"));
    const unsigned tbs =
        workloads::scaled(static_cast<unsigned>(spec.u("tbs")),
                          effScale(spec, scale), 8);
    const double wr = spec.d("wr");
    const std::uint64_t seed = spec.u("seed");
    const unsigned warps = static_cast<unsigned>(spec.u("warps"));

    require(bits::isPow2(fmb) && fmb <= 512,
            "fmb must be a power of two <= 512");
    require(rpw >= 1 && rpw <= 4096, "rpw must be in [1, 4096]");
    require(wr >= 0.0 && wr <= 1.0, "wr must be in [0, 1]");

    const Addr base = region(0);
    const std::uint64_t mask = (std::uint64_t{fmb} << 20) - 1;

    std::vector<Kernel> kernels;
    kernels.emplace_back(
        kernelParams(spec, "hash_shuffle", tbs),
        [=](TbId tb, TraceBuilder &b) {
            XorShiftRng rng = synthRng(6, seed, 0, tb);
            for (unsigned w = 0; w < warps; ++w)
                for (unsigned i = 0; i < rpw; ++i) {
                    std::vector<Addr> addrs;
                    addrs.reserve(32);
                    for (unsigned t = 0; t < 32; ++t)
                        addrs.push_back(base + (rng.next() & mask));
                    b.access(w, addrs, false);
                    if (writeAt(i, wr))
                        b.accessLine(w, base + (rng.next() & mask),
                                     true);
                }
        });

    return std::make_unique<Workload>(
        synthInfo(spec, false, std::to_string(fmb) + "MB"),
        std::move(kernels));
}

// ---------------------------------------------------------------------
// pipeline — a multi-kernel chain through shared regions: stage s
// reads region 2s and writes region 2s+2. Stage types cycle
// produce (row-major stream, flat) → transpose (column scatter,
// valley) → gather (random reads, flat), so the aggregate profile
// mixes regimes and the per-kernel profiles differ — the
// multi-kernel-pipeline scenario of the ROADMAP.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makePipeline(const ResolvedSpec &spec, double scale)
{
    const unsigned stages = static_cast<unsigned>(spec.u("stages"));
    const unsigned n =
        workloads::scaled(static_cast<unsigned>(spec.u("n")),
                          effScale(spec, scale), 128);
    const std::uint64_t seed = spec.u("seed");
    const unsigned warps = static_cast<unsigned>(spec.u("warps"));

    require(stages >= 2 && stages <= 4, "stages must be in [2, 4]");
    require(n <= 2048, "n must be <= 2048");
    require(n % 32 == 0, "n must be a multiple of 32");

    const unsigned pitch = n * 4;
    const unsigned x_blocks = n / 32;
    const unsigned y_rows = 8; // rows per TB in the dense stages

    std::vector<Kernel> kernels;
    for (unsigned s = 0; s < stages; ++s) {
        const Addr in = region(2 * s);
        const Addr out = region(2 * s + 2);
        const unsigned type = s % 3;
        if (type == 0) {
            // Produce: row-major tile stream, x block fastest.
            kernels.emplace_back(
                kernelParams(spec,
                             "pipe_produce#" + std::to_string(s),
                             x_blocks * (n / y_rows)),
                [=](TbId tb, TraceBuilder &b) {
                    const unsigned xb = tb % x_blocks; // fast
                    const unsigned yb = tb / x_blocks;
                    for (unsigned r = 0; r < y_rows; ++r) {
                        const unsigned y = yb * y_rows + r;
                        const unsigned w = r % warps;
                        b.accessLine(w,
                                     in + Addr{y} * pitch +
                                         Addr{xb} * 128,
                                     false);
                        b.accessLine(w,
                                     out + Addr{y} * pitch +
                                         Addr{xb} * 128,
                                     true);
                    }
                });
        } else if (type == 1) {
            // Transpose: coalesced row reads, column scatter writes
            // whose low bits hold the slow y index — the valley stage.
            kernels.emplace_back(
                kernelParams(spec,
                             "pipe_transpose#" + std::to_string(s),
                             x_blocks * (n / y_rows)),
                [=](TbId tb, TraceBuilder &b) {
                    const unsigned tx = tb % x_blocks; // fast
                    const unsigned ty = tb / x_blocks; // slow
                    for (unsigned r = 0; r < y_rows; ++r) {
                        const unsigned y = ty * y_rows + r;
                        const unsigned w = r % warps;
                        b.accessLine(w,
                                     in + Addr{y} * pitch +
                                         Addr{tx} * 128,
                                     false);
                        b.accessStrided(w,
                                        out +
                                            Addr{tx} * 32 * pitch +
                                            Addr{y} * 4,
                                        pitch, 32, true);
                    }
                });
        } else {
            // Gather: random lines of the previous stage's output.
            const std::uint64_t fp =
                Addr{1} << bits::log2Ceil(Addr{n} * n * 4);
            kernels.emplace_back(
                kernelParams(spec, "pipe_gather#" + std::to_string(s),
                             std::max(1u, n * n / 4096)),
                [=](TbId tb, TraceBuilder &b) {
                    XorShiftRng rng = synthRng(7, seed, s, tb);
                    for (unsigned w = 0; w < warps; ++w)
                        for (unsigned i = 0; i < 4; ++i) {
                            std::vector<Addr> addrs;
                            addrs.reserve(32);
                            for (unsigned t = 0; t < 32; ++t)
                                addrs.push_back(in + (rng.next() &
                                                      (fp - 1)));
                            b.access(w, addrs, false);
                            b.accessLine(
                                w,
                                out + (Addr{tb} * warps + w) * 128,
                                true);
                        }
                });
        }
    }

    return std::make_unique<Workload>(
        synthInfo(spec, true,
                  std::to_string(n) + "x" + std::to_string(n) + "x" +
                      std::to_string(stages)),
        std::move(kernels));
}

} // namespace synth
} // namespace valley
