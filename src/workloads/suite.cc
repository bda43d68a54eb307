/**
 * @file
 * The 16 GPU-compute benchmarks of Table II, reproduced as synthetic
 * trace generators (see DESIGN.md, "Simulation pipeline").
 *
 * Valley benchmarks (MT, LU, GS, NW, LPS, SC, SRAD2, DWT2D, HS, SP)
 * share a structural property with their CUDA namesakes: the warp and
 * TB geometry keeps some block-index bits in the 256 B - 16 KB range
 * (address bits ~7-13) constant across the thread blocks that execute
 * concurrently, while sweeping higher-order bits. Under the BASE map
 * those are exactly the channel/bank bits, so concurrent requests
 * serialize on a few channels/banks — the paper's "entropy valley".
 * The generators realize this with column-major TB allocation and
 * column walks whose column-block index advances slower than the
 * paper's TB window (w = #SMs = 12).
 *
 * Non-valley benchmarks (FWT, NN, SPMV, LM, MUM, BFS) stream or
 * gather, which sweeps the low-order bits within every TB.
 */

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/rng.hh"
#include "synth/registry.hh"
#include "workloads/workload.hh"

namespace valley {
namespace workloads {
namespace {

/** Base addresses of the synthetic heap: 32 regions of 32 MB. */
constexpr Addr region(unsigned idx) { return Addr{idx} << 25; }

/** Deterministic per-(kernel,tb) RNG for irregular workloads. */
XorShiftRng
tbRng(std::uint64_t workload_id, std::uint64_t kernel_id, TbId tb)
{
    return XorShiftRng((workload_id << 40) ^ (kernel_id << 20) ^
                       (tb + 1));
}

// ---------------------------------------------------------------------
// MT — Matrix Transpose (CUDA SDK). 4 kernel launches (one per
// horizontal stripe of the matrix).
//
// The naive transpose: each warp reads one coalesced row segment of
// the input and scatters it into a column of the output — 32 write
// transactions with stride Rpitch per warp. The write stream (97 % of
// the traffic) carries the valley: its bits 7-11 encode the
// y-block, which is the *slow* TB grid dimension, so all concurrently
// running TBs store to the same channel under BASE (the classic
// "partition camping" pathology this paper's Fig. 2 illustrates).
// The output column index sweeps bits 12-20 inside every warp, so
// the row bits carry harvestable entropy for PAE/FAE.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeMT(double scale)
{
    const unsigned cols = 512;                    // input pitch 2 KB
    const unsigned rows = scaled(512, scale, 128);
    const unsigned pitch = cols * 4;
    const unsigned out_pitch = rows * 4;          // transposed pitch
    const unsigned stripe = rows / 4;             // rows per launch
    const unsigned tiles_x = cols / 32;           // fast TB dim
    const unsigned tiles_y = stripe / 8;          // slow TB dim

    std::vector<Kernel> kernels;
    for (unsigned launch = 0; launch < 4; ++launch) {
        const Addr in = region(0);
        const Addr out = region(2);
        const unsigned y_base = launch * stripe;
        KernelParams p;
        p.name = "transpose_naive#" + std::to_string(launch);
        p.numTbs = tiles_x * tiles_y;
        p.warpsPerTb = 8;
        p.computeGap = 6;
        p.instrsPerRequest = 134; // Table II: APKI 7.44
        kernels.emplace_back(p, [=](TbId tb, TraceBuilder &b) {
            const unsigned tx = tb % tiles_x; // fast
            const unsigned ty = tb / tiles_x; // slow -> valley bits
            for (unsigned w = 0; w < 8; ++w) {
                const unsigned y = y_base + ty * 8 + w;
                // Coalesced read of in[y][tx*32 .. +32): one line.
                b.accessLine(w, in + Addr{y} * pitch + Addr{tx} * 128,
                             false);
                // Scatter to out[tx*32+t][y]: 32 lines, stride Rpitch.
                b.accessStrided(w,
                                out + Addr{tx} * 32 * out_pitch +
                                    Addr{y} * 4,
                                out_pitch, 32, true);
            }
        });
    }

    return std::make_unique<Workload>(
        WorkloadInfo{"Transpose", "MT", "CUDA SDK", true,
                     "512x" + std::to_string(rows)},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// LU — LU Decomposition (CUDA SDK version in the paper). 1022 kernels.
//
// Right-looking panel factorization over an N x N double matrix
// (pitch 4 KB). Per iteration k: a "perimeter" kernel reads/writes
// pivot column k (uncoalesced, stride pitch; bits 7-11 are f(k),
// constant for the whole kernel) and a "panel update" kernel updates
// the next 32-column panel with coalesced row segments whose column-
// block bits are also f(k). The per-kernel valley position moves with
// k — the paper's observation that high-entropy bits move as the
// application iterates.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeLU(double scale)
{
    const unsigned n = scaled(512, scale, 64); // doubles; pitch 4 KB
    const unsigned pitch = 512 * 8;
    const Addr a = region(4);
    const unsigned iters = n - 1;

    std::vector<Kernel> kernels;
    kernels.reserve(iters * 2);
    for (unsigned k = 0; k < iters; ++k) {
        const unsigned m = n - 1 - k; // trailing size
        const unsigned col_line = (k * 8) / kLineBytes * kLineBytes;

        // Perimeter: scale pivot column below the diagonal.
        {
            KernelParams p;
            p.name = "lud_perimeter#" + std::to_string(k);
            p.numTbs = std::max(1u, (m + 255) / 256);
            p.warpsPerTb = 8;
            p.computeGap = 8;
            p.instrsPerRequest = 81; // Table II: APKI 12.32
            kernels.emplace_back(p, [=](TbId tb, TraceBuilder &b) {
                for (unsigned w = 0; w < 8; ++w) {
                    const unsigned r0 = k + 1 + tb * 256 + w * 32;
                    if (r0 >= n)
                        break;
                    // Read pivot row head (coalesced, shared).
                    b.accessLine(w, a + Addr{k} * pitch + col_line,
                                 false);
                    // Read+write column k rows r0..r0+31 (stride pitch).
                    b.accessStrided(w, a + Addr{r0} * pitch + col_line,
                                    pitch, std::min(32u, n - r0),
                                    false);
                    b.accessStrided(w, a + Addr{r0} * pitch + col_line,
                                    pitch, std::min(32u, n - r0), true);
                }
            });
        }

        // Panel update: A[r][j] -= L[r][k] * U[k][j] for the next
        // 32-wide column panel, coalesced row segments.
        {
            const unsigned j0 = k + 1;
            const unsigned panel_line = (j0 * 8) / kLineBytes * kLineBytes;
            KernelParams p;
            p.name = "lud_internal#" + std::to_string(k);
            p.numTbs = std::max(1u, (m + 31) / 32);
            p.warpsPerTb = 8;
            p.computeGap = 8;
            p.instrsPerRequest = 81;
            kernels.emplace_back(p, [=](TbId tb, TraceBuilder &b) {
                const unsigned r0 = k + 1 + tb * 32;
                if (r0 >= n)
                    return;
                const unsigned nr = std::min(32u, n - r0);
                for (unsigned r = 0; r < nr; ++r) {
                    const unsigned warp = r % 8;
                    // Multiplier L[r0+r][k] (uncoalesced column bit).
                    b.accessLine(warp,
                                 a + Addr{r0 + r} * pitch + col_line,
                                 false);
                    // Pivot row segment U[k][j0..] (shared across TBs).
                    b.accessLine(warp, a + Addr{k} * pitch + panel_line,
                                 false);
                    // Row segment of the panel: 32 doubles = 2 lines.
                    b.accessStrided(warp,
                                    a + Addr{r0 + r} * pitch +
                                        Addr{j0} * 8,
                                    8, 32, false);
                    b.accessStrided(warp,
                                    a + Addr{r0 + r} * pitch +
                                        Addr{j0} * 8,
                                    8, 32, true);
                }
            });
        }
    }

    return std::make_unique<Workload>(
        WorkloadInfo{"LU Decomposition", "LU", "CUDA SDK", true,
                     std::to_string(n) + "x" + std::to_string(n)},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// GS — Gaussian Elimination (Rodinia). 510 kernels... 254 here
// (two kernels per iteration of a 128x128 system; the paper's input
// launches 510). 128x128 floats, pitch 512 B:
// the 64 KB matrix fits a single LLC slice, so DRAM traffic nearly
// vanishes after warmup (Table II MPKI 0.01) and speedups stay small.
// The per-kernel pivot column pins bits 7-8 (the entropy valley);
// PM's row-bit donors are entirely dead.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeGS(double scale)
{
    const unsigned n = scaled(128, scale, 32);
    const unsigned pitch = 512;
    const Addr a = region(6);
    const Addr mvec = region(6) + (1u << 20);
    const unsigned iters = n - 1;

    std::vector<Kernel> kernels;
    kernels.reserve(iters * 2);
    for (unsigned k = 0; k < iters; ++k) {
        const unsigned m = n - 1 - k;
        const unsigned col_line = (k * 4) / kLineBytes * kLineBytes;

        KernelParams p1;
        p1.name = "gs_fan1#" + std::to_string(k);
        p1.numTbs = std::max(1u, (m + 255) / 256);
        p1.warpsPerTb = 8;
        p1.computeGap = 12;
        p1.instrsPerRequest = 110; // Table II: APKI 9.09
        kernels.emplace_back(p1, [=](TbId tb, TraceBuilder &b) {
            for (unsigned w = 0; w < 8; ++w) {
                const unsigned r0 = k + 1 + tb * 256 + w * 32;
                if (r0 >= n)
                    break;
                b.accessStrided(w, a + Addr{r0} * pitch + col_line,
                                pitch, std::min(32u, n - r0), false);
                b.accessStrided(w, mvec + Addr{r0} * 4, 4,
                                std::min(32u, n - r0), true);
            }
        });

        KernelParams p2;
        p2.name = "gs_fan2#" + std::to_string(k);
        p2.numTbs = std::max(1u, (m + 31) / 32);
        p2.warpsPerTb = 8;
        p2.computeGap = 12;
        p2.instrsPerRequest = 110;
        kernels.emplace_back(p2, [=](TbId tb, TraceBuilder &b) {
            const unsigned r0 = k + 1 + tb * 32;
            if (r0 >= n)
                return;
            const unsigned nr = std::min(32u, n - r0);
            for (unsigned r = 0; r < nr; ++r) {
                const unsigned warp = r % 8;
                b.accessLine(warp, mvec + Addr{r0 + r} * 4, false);
                // Pivot row + own row, coalesced (32 floats = 1 line).
                b.accessLine(warp, a + Addr{k} * pitch + col_line,
                             false);
                b.accessStrided(warp,
                                a + Addr{r0 + r} * pitch +
                                    Addr{k + 1} * 4,
                                4, 32, false);
                b.accessStrided(warp,
                                a + Addr{r0 + r} * pitch +
                                    Addr{k + 1} * 4,
                                4, 32, true);
            }
        });
    }

    return std::make_unique<Workload>(
        WorkloadInfo{"Gaussian", "GS", "Rodinia", true,
                     std::to_string(n) + "x" + std::to_string(n)},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// NW — Needleman-Wunsch (Rodinia). 255 diagonal kernel launches
// (2N-1 for N=128 cell rows, matching Table II's kernel count).
//
// The DP score matrix uses skewed (diagonal-major, cell-strided)
// storage, the classic wavefront layout: cell (i, d-i) lives at
// S + i * DSTRIDE + d*4. Per kernel, every access's bits 7-10 are
// f(d/32) — pinned for the whole kernel — while the cell index i
// sweeps the high bits: a deep per-kernel entropy valley whose
// position moves with d, exactly the "entropy moves as the
// application iterates" behavior the paper describes.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeNW(double scale)
{
    const unsigned n = scaled(128, scale, 32); // cell rows
    const unsigned ndiags = 2 * n - 1;
    // Skewed-row stride: 2 KB holds all 2N-1 diagonals of one cell
    // row. Rows are allocated in 16-row blocks, each starting on a
    // fresh 1 MB region (pooled allocator behavior): the block index
    // lands in address bits 20-22, real *row-bit* entropy that PAE can
    // harvest, while bits 18-19 stay dead so PM's lowest row-bit
    // donors still find nothing.
    const unsigned dstride = 2048;
    const auto skew_row = [dstride](unsigned i) {
        return (Addr{i / 16} << 20) + Addr{i % 16} * dstride;
    };
    const auto ref_row = [](unsigned i) {
        return (Addr{i / 16} << 20) + Addr{i % 16} * 4096 + (1u << 19);
    };
    const Addr skew = region(8);
    const Addr ref = region(8) + (1u << 24);

    std::vector<Kernel> kernels;
    for (unsigned d = 0; d < ndiags; ++d) {
        const unsigned lo = d < n ? 0 : d - n + 1;
        const unsigned hi = std::min(d, n - 1);
        const unsigned cells = hi - lo + 1;
        const Addr dcol = (Addr{d} * 4) / 128 * 128;       // this diag
        const Addr pcol = d ? (Addr{d - 1} * 4) / 128 * 128 : 0;
        KernelParams p;
        p.name = "nw_diag#" + std::to_string(d);
        p.numTbs = (cells + 31) / 32;
        p.warpsPerTb = 2;
        p.computeGap = 8;
        p.instrsPerRequest = 190; // Table II: APKI 5.25
        kernels.emplace_back(p, [=](TbId tb, TraceBuilder &b) {
            const Addr ppcol =
                d >= 2 ? (Addr{d - 2} * 4) / 128 * 128 : 0;
            for (unsigned w = 0; w < 2; ++w) {
                const unsigned i0 = lo + tb * 32 + w * 16;
                if (i0 > hi)
                    break;
                const unsigned cnt = std::min(16u, hi - i0 + 1);
                std::vector<Addr> prev, prev2, refs, cur;
                for (unsigned t = 0; t < cnt; ++t) {
                    const unsigned i = i0 + t;
                    // Previous two diagonals (left/up/diag neighbors).
                    prev.push_back(skew + skew_row(i) + pcol);
                    if (d >= 2)
                        prev2.push_back(skew + skew_row(i) + ppcol);
                    // Reference ref[i][d-i] in 4 KB-pitch row blocks.
                    refs.push_back(ref + ref_row(i) +
                                   Addr{d - std::min(d, i)} * 4);
                    // This diagonal's cell.
                    cur.push_back(skew + skew_row(i) + dcol);
                }
                b.access(w, prev, false);
                if (d >= 2)
                    b.access(w, prev2, false);
                b.access(w, refs, false);
                b.access(w, cur, true);
            }
        });
    }

    return std::make_unique<Workload>(
        WorkloadInfo{"Needle", "NW", "Rodinia", true,
                     std::to_string(n) + "x" + std::to_string(n)},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// LPS — 3D Laplace solver. 2 kernels over a 256x256xZ float grid
// (row pitch 1 KB, plane 256 KB). The TB grid is (yb fast, xb slow,
// z slowest): each TB handles a 32x4 xy tile of one plane, so the
// x-block bits 7-9 form the valley and the plane index z is constant
// across the TB window — the z-plane bits (18+) carry almost no
// *window* entropy, which starves PM's narrow donors, while the
// y bits (10-15) keep PAE supplied.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeLPS(double scale)
{
    const unsigned nx = 256, ny = 256;
    const unsigned nz = scaled(16, scale, 4);
    const unsigned pitchY = nx * 4;
    const unsigned pitchZ = nx * ny * 4;
    const unsigned x_blocks = nx / 32;
    const unsigned y_blocks = ny / 4;

    std::vector<Kernel> kernels;
    for (unsigned launch = 0; launch < 2; ++launch) {
        const Addr in = region(launch ? 12 : 10);
        const Addr out = region(launch ? 10 : 12);
        KernelParams p;
        p.name = "lps_jacobi#" + std::to_string(launch);
        p.numTbs = x_blocks * y_blocks * nz;
        p.warpsPerTb = 4; // 32x4 tile
        p.computeGap = 10;
        p.instrsPerRequest = 441; // Table II: APKI 2.27
        kernels.emplace_back(p, [=](TbId tb, TraceBuilder &b) {
            const unsigned yb = tb % y_blocks;             // fast
            const unsigned xb = (tb / y_blocks) % x_blocks; // slow
            const unsigned z = tb / (y_blocks * x_blocks); // slowest
            for (unsigned w = 0; w < 4; ++w) {
                const unsigned y = yb * 4 + w;
                const Addr c = in + Addr{z} * pitchZ +
                               Addr{y} * pitchY + Addr{xb} * 128;
                b.accessLine(w, c, false);
                if (y + 1 < ny)
                    b.accessLine(w, c + pitchY, false);
                if (y >= 1)
                    b.accessLine(w, c - pitchY, false);
                if (z + 1 < nz)
                    b.accessLine(w, c + pitchZ, false);
                if (z >= 1)
                    b.accessLine(w, c - pitchZ, false);
                b.accessLine(w,
                             out + Addr{z} * pitchZ +
                                 Addr{y} * pitchY + Addr{xb} * 128,
                             true);
            }
        });
    }

    return std::make_unique<Workload>(
        WorkloadInfo{"Laplace", "LPS", "GPU microbench suite", true,
                     "256x256x" + std::to_string(nz)},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// SC — StreamCluster (Rodinia). 50 evaluation rounds over a
// point-major coefficient matrix (512 points x 256 dims, pitch 1 KB).
// Each round evaluates two rotating 32-dim blocks: TBs own a dim
// block (slow: the valley bits 7-9) and walk 16-point blocks (fast).
// The active span is 512 KB and the point-block index crosses bit 18
// slower than the TB window, so PM's donors are again mostly dead.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeSC(double scale)
{
    const unsigned dims = 256;    // pitch 1 KB
    const unsigned points = scaled(512, scale, 128);
    const unsigned pitch = dims * 4;
    const unsigned pt_blocks = points / 16;  // fast dim
    const unsigned dim_blocks_per_round = 2; // rotating subset
    const unsigned passes = 2;               // distance + assignment

    std::vector<Kernel> kernels;
    for (unsigned round = 0; round < 50; ++round) {
        const Addr pts = region(14);
        const unsigned db0 = (round * dim_blocks_per_round) % 8;
        KernelParams p;
        p.name = "sc_pgain#" + std::to_string(round);
        p.numTbs = pt_blocks * dim_blocks_per_round;
        p.warpsPerTb = 4;
        p.computeGap = 10;
        p.instrsPerRequest = 236; // Table II: APKI 4.24
        kernels.emplace_back(p, [=](TbId tb, TraceBuilder &b) {
            const unsigned pb = tb % pt_blocks;       // fast
            const unsigned db = db0 + tb / pt_blocks; // slow
            for (unsigned pass = 0; pass < passes; ++pass) {
                for (unsigned i = 0; i < 16; ++i) {
                    const unsigned point = pb * 16 + i;
                    const unsigned warp = i % 4;
                    // 32 consecutive dims of one point: one line.
                    b.accessLine(warp,
                                 pts + Addr{point} * pitch +
                                     Addr{db} * 128,
                                 false);
                }
            }
        });
    }

    return std::make_unique<Workload>(
        WorkloadInfo{"StreamCluster", "SC", "Rodinia", true,
                     std::to_string(points) + "x256"},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// SRAD2 — Srad v2 (Rodinia). 4 kernels (2 iterations x gradient +
// update) over a 1024x128 float image (pitch 4 KB). Column-major TB
// allocation keeps the x-block bits (7-11) constant across concurrent
// TBs; N/S neighbors sweep the row bits 12-18, mostly out of reach
// of PM's channel donors.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeSRAD2(double scale)
{
    const unsigned nx = 1024;
    const unsigned ny = scaled(128, scale, 32);
    const unsigned rows_per_tb = 8;
    const unsigned pitch = nx * 4;
    const unsigned x_blocks = nx / 32;
    const unsigned y_blocks = ny / rows_per_tb;
    const Addr img = region(16);
    const Addr dn = region(16) + (1u << 22);
    const Addr ds = region(16) + (1u << 23);

    std::vector<Kernel> kernels;
    for (unsigned iter = 0; iter < 2; ++iter) {
        // Gradient kernel: read 5-point stencil, write two gradients.
        KernelParams p1;
        p1.name = "srad2_grad#" + std::to_string(iter);
        p1.numTbs = x_blocks * y_blocks;
        p1.warpsPerTb = 8;
        p1.computeGap = 8;
        p1.instrsPerRequest = 304; // Table II: APKI 3.29
        kernels.emplace_back(p1, [=](TbId tb, TraceBuilder &b) {
            const unsigned yb = tb % y_blocks; // fast
            const unsigned xb = tb / y_blocks; // slow
            for (unsigned r = 0; r < rows_per_tb; ++r) {
                const unsigned y = yb * rows_per_tb + r;
                const unsigned warp = r % 8;
                const Addr c =
                    img + Addr{y} * pitch + Addr{xb} * 128;
                b.accessLine(warp, c, false);
                if (y + 1 < ny)
                    b.accessLine(warp, c + pitch, false);
                if (y >= 1)
                    b.accessLine(warp, c - pitch, false);
                b.accessLine(warp,
                             dn + Addr{y} * pitch + Addr{xb} * 128,
                             true);
                b.accessLine(warp,
                             ds + Addr{y} * pitch + Addr{xb} * 128,
                             true);
            }
        });

        // Update kernel: narrower access mix (this is the kernel shown
        // separately as SRAD2-K1 in Fig. 5h).
        KernelParams p2;
        p2.name = "srad2_update#" + std::to_string(iter);
        p2.numTbs = x_blocks * y_blocks;
        p2.warpsPerTb = 8;
        p2.computeGap = 8;
        p2.instrsPerRequest = 304;
        kernels.emplace_back(p2, [=](TbId tb, TraceBuilder &b) {
            const unsigned yb = tb % y_blocks;
            const unsigned xb = tb / y_blocks;
            for (unsigned r = 0; r < rows_per_tb; ++r) {
                const unsigned y = yb * rows_per_tb + r;
                const unsigned warp = r % 8;
                b.accessLine(warp,
                             dn + Addr{y} * pitch + Addr{xb} * 128,
                             false);
                b.accessLine(warp,
                             ds + Addr{y} * pitch + Addr{xb} * 128,
                             false);
                b.accessLine(warp,
                             img + Addr{y} * pitch + Addr{xb} * 128,
                             true);
            }
        });
    }

    return std::make_unique<Workload>(
        WorkloadInfo{"Srad v2", "SRAD2", "Rodinia", true,
                     "1024x" + std::to_string(ny)},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// DWT2D (Rodinia). 10 kernels: 5 decomposition levels x (horizontal +
// vertical pass) on a 1024x512 float image (pitch 4 KB). The access
// stride doubles per level, moving the valley across the address map
// — the paper's example of intra-application entropy variation
// (Fig. 5i/5j).
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeDWT2D(double scale)
{
    const unsigned nx = 1024;
    const unsigned ny = scaled(512, scale, 32);
    const unsigned pitch = nx * 4;
    const Addr img = region(18);
    const Addr tmp = region(18) + (1u << 24);

    std::vector<Kernel> kernels;
    for (unsigned level = 0; level < 5; ++level) {
        const unsigned w = nx >> level;
        const unsigned h = ny >> level;
        const unsigned x_blocks = std::max(1u, w / 32);
        const unsigned y_blocks = std::max(1u, h / 32);

        // Horizontal pass: coalesced row segments, column-block slow.
        KernelParams ph;
        ph.name = "dwt_h#" + std::to_string(level);
        ph.numTbs = x_blocks * y_blocks;
        ph.warpsPerTb = 8;
        ph.computeGap = 10;
        ph.instrsPerRequest = 641; // Table II: APKI 1.56
        kernels.emplace_back(ph, [=](TbId tb, TraceBuilder &b) {
            const unsigned yb = tb % y_blocks;
            const unsigned xb = tb / y_blocks;
            for (unsigned r = 0; r < 32 && yb * 32 + r < h; ++r) {
                const unsigned y = yb * 32 + r;
                const unsigned warp = r % 8;
                b.accessLine(warp,
                             img + Addr{y} * pitch + Addr{xb} * 128,
                             false);
                b.accessLine(warp,
                             tmp + Addr{y} * pitch + Addr{xb} * 128,
                             true);
            }
        });

        // Vertical pass: column walk with stride pitch * 2^level.
        KernelParams pv;
        pv.name = "dwt_v#" + std::to_string(level);
        pv.numTbs = x_blocks * y_blocks;
        pv.warpsPerTb = 8;
        pv.computeGap = 10;
        pv.instrsPerRequest = 641;
        kernels.emplace_back(pv, [=](TbId tb, TraceBuilder &b) {
            const unsigned yb = tb % y_blocks;
            const unsigned xb = tb / y_blocks;
            const unsigned stride = pitch << level;
            for (unsigned c = 0; c < 4; ++c) {
                const unsigned warp = c % 8;
                const Addr base = tmp + Addr{yb} * 32 * stride +
                                  Addr{xb} * 128 + Addr{c} * 32;
                if (yb * 32 + 31 < h) {
                    b.accessStrided(warp, base, stride, 32, false);
                    b.accessStrided(warp, base, stride, 32, true);
                }
            }
        });
    }

    return std::make_unique<Workload>(
        WorkloadInfo{"DWT2D", "DWT2D", "Rodinia", true,
                     "1024x" + std::to_string(ny)},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// HS — Hotspot (Rodinia). 1 kernel; heavily tiled/pyramidal, so most
// traffic hits the L1 after the initial tile load (Table II MPKI
// 0.08). Column-major TB allocation gives a shallow valley.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeHS(double scale)
{
    const unsigned nx = 512;
    const unsigned ny = scaled(512, scale, 32);
    const unsigned pitch = nx * 4;
    const unsigned x_blocks = nx / 32;
    const unsigned y_blocks = ny / 32;
    const Addr temp = region(20);
    const Addr power = region(20) + (1u << 22);
    const Addr out = region(20) + (1u << 23);

    KernelParams p;
    p.name = "hotspot";
    p.numTbs = x_blocks * y_blocks;
    p.warpsPerTb = 8;
    p.computeGap = 120; // compute-bound pyramid iterations
    p.instrsPerRequest = 1408; // Table II: APKI 0.71
    std::vector<Kernel> kernels;
    kernels.emplace_back(p, [=](TbId tb, TraceBuilder &b) {
        const unsigned yb = tb % y_blocks;
        const unsigned xb = tb / y_blocks;
        // Pyramid: 4 sweeps over the same tile; sweeps 1-3 hit L1.
        for (unsigned sweep = 0; sweep < 4; ++sweep) {
            for (unsigned r = 0; r < 32; ++r) {
                const unsigned y = yb * 32 + r;
                const unsigned warp = r % 8;
                b.accessLine(warp,
                             temp + Addr{y} * pitch + Addr{xb} * 128,
                             false);
                if (sweep == 0)
                    b.accessLine(warp,
                                 power + Addr{y} * pitch +
                                     Addr{xb} * 128,
                                 false);
                if (sweep == 3)
                    b.accessLine(warp,
                                 out + Addr{y} * pitch +
                                     Addr{xb} * 128,
                                 true);
            }
        }
    });

    return std::make_unique<Workload>(
        WorkloadInfo{"Hotspot", "HS", "Rodinia", true,
                     "512x" + std::to_string(ny)},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// SP — Scalar Product (CUDA SDK). 1 kernel. Batched dot products over
// a pair-major coefficient matrix (512 pairs as columns, pitch 2 KB):
// TBs own 32-pair column blocks (slow) and sweep element chunks
// (fast), the same partition-camping shape as MT's reads.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeSP(double scale)
{
    const unsigned pairs = 512;   // pitch 2 KB
    const unsigned elems = scaled(4096, scale, 256);
    const unsigned pitch = pairs * 4;
    const unsigned chunk = 256;
    const unsigned chunks = elems / chunk;   // fast dim
    const unsigned pair_blocks = pairs / 32; // slow dim
    const Addr va = region(22);
    const Addr vb = region(22) + (1u << 24);
    const Addr res = region(22) + (3u << 23);

    KernelParams p;
    p.name = "scalarProd";
    p.numTbs = chunks * pair_blocks;
    p.warpsPerTb = 8;
    p.computeGap = 6;
    p.instrsPerRequest = 461; // Table II: APKI 2.17
    std::vector<Kernel> kernels;
    kernels.emplace_back(p, [=](TbId tb, TraceBuilder &b) {
        const unsigned ch = tb % chunks;      // fast
        const unsigned pb = tb / chunks;      // slow -> valley
        for (unsigned i = 0; i < chunk; ++i) {
            const unsigned e = ch * chunk + i;
            const unsigned warp = i % 8;
            b.accessLine(warp,
                         va + Addr{e} * pitch + Addr{pb} * 128, false);
            b.accessLine(warp,
                         vb + Addr{e} * pitch + Addr{pb} * 128, false);
        }
        // Partial result per pair block.
        b.accessLine(0, res + Addr{pb} * 128 + Addr{ch} * 4, true);
    });

    return std::make_unique<Workload>(
        WorkloadInfo{"Scalar Product", "SP", "CUDA SDK", true,
                     "512x" + std::to_string(elems)},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// FWT — Fast Walsh Transform (CUDA SDK). 22 kernels (two transforms
// of 2^17 floats, one kernel per butterfly stage). Streaming pairs at
// stage-dependent distance: low-order bits sweep within every TB, so
// there is no valley (Fig. 5m).
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeFWT(double scale)
{
    const unsigned log_n = 17;
    const unsigned n = scaled(1u << log_n, scale, 1u << 13);
    const Addr data = region(24);

    std::vector<Kernel> kernels;
    for (unsigned launch = 0; launch < 22; ++launch) {
        const unsigned stage = launch % 11 + 2; // strides 4..8192 elems
        const std::uint64_t dist = (std::uint64_t{1} << stage) * 4;
        KernelParams p;
        p.name = "fwt_stage#" + std::to_string(launch);
        p.numTbs = std::max(1u, n / 512);
        p.warpsPerTb = 8;
        p.computeGap = 8;
        p.instrsPerRequest = 372; // Table II: APKI 2.69
        kernels.emplace_back(p, [=](TbId tb, TraceBuilder &b) {
            for (unsigned w = 0; w < 8; ++w) {
                const unsigned e0 = tb * 512 + w * 64;
                // Butterfly: (i, i ^ dist) pairs; both sides coalesce.
                const Addr lo = data + Addr{e0} * 4;
                b.accessLine(w, lo, false);
                b.accessLine(w, lo + 128, false);
                b.accessLine(w, lo ^ dist, false);
                b.accessLine(w, (lo + 128) ^ dist, false);
                b.accessLine(w, lo, true);
                b.accessLine(w, lo + 128, true);
            }
        });
    }

    return std::make_unique<Workload>(
        WorkloadInfo{"Fast Walsh Transform", "FWT", "CUDA SDK", false,
                     std::to_string(n)},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// NN — Nearest Neighbor style streaming classifier. 4 kernels reading
// 64 B records sequentially: pure streaming, entropy concentrated in
// the low-order bits (Fig. 5n).
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeNN(double scale)
{
    const unsigned records = scaled(65536, scale, 8192);
    const Addr recs = region(26);
    const Addr dist = region(26) + (1u << 23);

    std::vector<Kernel> kernels;
    for (unsigned launch = 0; launch < 4; ++launch) {
        KernelParams p;
        p.name = "nn_find#" + std::to_string(launch);
        p.numTbs = records / 2048;
        p.warpsPerTb = 8;
        p.computeGap = 20;
        p.instrsPerRequest = 429; // Table II: APKI 2.33
        kernels.emplace_back(p, [=](TbId tb, TraceBuilder &b) {
            for (unsigned w = 0; w < 8; ++w) {
                for (unsigned i = 0; i < 8; ++i) {
                    // 32 threads x 64 B records = 2 KB = 16 lines,
                    // fully coalesced streaming.
                    const unsigned r0 = tb * 2048 + w * 256 + i * 32;
                    b.accessStrided(w, recs + Addr{r0} * 64, 64, 32,
                                    false);
                    b.accessLine(w, dist + Addr{r0} * 4, true);
                }
            }
        });
    }

    return std::make_unique<Workload>(
        WorkloadInfo{"NN", "NN", "GPU microbench suite", false,
                     std::to_string(records)},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// SPMV (Parboil). 50 iterations of CSR y = Ax: streaming vals/cols +
// random gathers into x. Gathers sweep all bits (Fig. 5o).
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeSPMV(double scale)
{
    const unsigned rows = scaled(2048, scale, 256);
    const unsigned nnz_per_row = 8;
    const Addr vals = region(28);
    const Addr cols = region(28) + (1u << 22);
    const Addr x = region(28) + (2u << 22); // 64 KB vector
    const Addr y = region(28) + (3u << 22);

    std::vector<Kernel> kernels;
    for (unsigned it = 0; it < 50; ++it) {
        KernelParams p;
        p.name = "spmv_csr#" + std::to_string(it);
        p.numTbs = rows / 256;
        p.warpsPerTb = 8;
        p.computeGap = 10;
        p.instrsPerRequest = 168; // Table II: APKI 5.95
        kernels.emplace_back(p, [=](TbId tb, TraceBuilder &b) {
            XorShiftRng rng = tbRng(13, it % 4, tb);
            for (unsigned w = 0; w < 8; ++w) {
                const unsigned r0 = tb * 256 + w * 32;
                for (unsigned e = 0; e < nnz_per_row; ++e) {
                    // vals/cols: thread t streams row r0+t element e
                    // (stride nnz*8 -> partially coalesced).
                    b.accessStrided(w,
                                    vals + Addr{r0} * nnz_per_row * 8 +
                                        Addr{e} * 8,
                                    nnz_per_row * 8, 32, false);
                    b.accessStrided(w,
                                    cols + Addr{r0} * nnz_per_row * 4 +
                                        Addr{e} * 4,
                                    nnz_per_row * 4, 32, false);
                    // Gather x[col]: random line in the 64 KB vector.
                    b.accessLine(w, x + (rng.next() & 0xFFC0), false);
                }
                b.accessLine(w, y + Addr{r0} * 8, true);
            }
        });
    }

    return std::make_unique<Workload>(
        WorkloadInfo{"SPMV", "SPMV", "Parboil", false,
                     std::to_string(rows) + "x8"},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// LM — LavaMD (Rodinia). One kernel; each TB processes a particle box
// and its 26 neighbors. Heavy re-reading of neighbor boxes gives high
// APKI with near-zero MPKI (Table II: 18.23 / 0.01) — the footprint
// fits the LLC.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeLM(double scale)
{
    const unsigned grid = 8; // 8x8x8 boxes
    const unsigned boxes = grid * grid * grid;
    const unsigned box_bytes = 1024; // 64 particles x 16 B
    const unsigned passes = std::max(1u, scaled(4, scale, 1));
    const Addr particles = region(30);
    const Addr forces = region(30) + (1u << 22);

    KernelParams p;
    p.name = "lavamd_kernel";
    p.numTbs = boxes;
    p.warpsPerTb = 4;
    p.computeGap = 30;
    p.instrsPerRequest = 55; // Table II: APKI 18.23
    std::vector<Kernel> kernels;
    kernels.emplace_back(p, [=](TbId tb, TraceBuilder &b) {
        const unsigned bx = tb % grid;
        const unsigned by = (tb / grid) % grid;
        const unsigned bz = tb / (grid * grid);
        for (unsigned pass = 0; pass < passes; ++pass) {
            for (int dz = -1; dz <= 1; ++dz) {
                for (int dy = -1; dy <= 1; ++dy) {
                    for (int dx = -1; dx <= 1; ++dx) {
                        const unsigned nx = (bx + dx + grid) % grid;
                        const unsigned ny = (by + dy + grid) % grid;
                        const unsigned nz = (bz + dz + grid) % grid;
                        const unsigned nb =
                            nz * grid * grid + ny * grid + nx;
                        const unsigned warp =
                            static_cast<unsigned>(dx + 1) % 4;
                        // Read the whole neighbor box (8 lines).
                        for (unsigned l = 0; l < box_bytes / 128; ++l)
                            b.accessLine(warp,
                                         particles +
                                             Addr{nb} * box_bytes +
                                             Addr{l} * 128,
                                         false);
                    }
                }
            }
            // Write own forces (8 lines).
            for (unsigned l = 0; l < box_bytes / 128; ++l)
                b.accessLine(l % 4,
                             forces + Addr{tb} * box_bytes +
                                 Addr{l} * 128,
                             true);
        }
    });

    return std::make_unique<Workload>(
        WorkloadInfo{"LavaMD", "LM", "Rodinia", false,
                     "8x8x8x" + std::to_string(passes)},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// MUM — MUMmerGPU (Rodinia). 2 kernels: suffix-tree matching = random
// pointer chasing over a 256 MB tree (uniformly random lines; Table
// II: MPKI 22.53), then a small print/output kernel.
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeMUM(double scale)
{
    const unsigned queries = scaled(8192, scale, 1024);
    const unsigned hops = 12;
    const Addr tree = region(0); // aliases the low region: random reads
    const std::uint64_t tree_mask = (Addr{1} << 28) - 1; // 256 MB
    const Addr qbuf = region(31);
    const Addr obuf = region(31) + (1u << 22);

    std::vector<Kernel> kernels;
    KernelParams p1;
    p1.name = "mummergpu_kernel";
    p1.numTbs = queries / 256;
    p1.warpsPerTb = 8;
    p1.computeGap = 6;
    p1.instrsPerRequest = 39; // Table II: APKI 25.63
    kernels.emplace_back(p1, [=](TbId tb, TraceBuilder &b) {
        XorShiftRng rng = tbRng(15, 0, tb);
        for (unsigned w = 0; w < 8; ++w) {
            const unsigned q0 = tb * 256 + w * 32;
            // Read the query strings (coalesced).
            b.accessStrided(w, qbuf + Addr{q0} * 32, 32, 32, false);
            // Each thread walks the tree: per hop, 32 random lines.
            for (unsigned h = 0; h < hops; ++h) {
                std::vector<Addr> addrs;
                addrs.reserve(32);
                for (unsigned t = 0; t < 32; ++t)
                    addrs.push_back(tree + (rng.next() & tree_mask));
                b.access(w, addrs, false);
            }
        }
    });

    KernelParams p2;
    p2.name = "mummergpu_print";
    p2.numTbs = std::max(1u, queries / 2048);
    p2.warpsPerTb = 8;
    p2.computeGap = 12;
    p2.instrsPerRequest = 39;
    kernels.emplace_back(p2, [=](TbId tb, TraceBuilder &b) {
        for (unsigned w = 0; w < 8; ++w)
            b.accessStrided(w, obuf + (Addr{tb} * 8 + w) * 2048, 64,
                            32, true);
    });

    return std::make_unique<Workload>(
        WorkloadInfo{"MUMmerGPU", "MUM", "Rodinia", false,
                     std::to_string(queries)},
        std::move(kernels));
}

// ---------------------------------------------------------------------
// BFS (Rodinia). 24 level kernels; frontier sizes grow then shrink.
// Visiting a frontier node reads its adjacency segment (short
// streaming burst at a random offset) and random visited/cost flags:
// high entropy everywhere, very memory intensive (MPKI 18.14).
// ---------------------------------------------------------------------
std::unique_ptr<Workload>
makeBFS(double scale)
{
    const unsigned base_nodes = scaled(2048, scale, 256);
    const Addr adj = region(1);
    const std::uint64_t adj_mask = (Addr{1} << 27) - 1; // 128 MB
    const Addr flags = region(29);
    const std::uint64_t flag_mask = (Addr{1} << 24) - 1;

    std::vector<Kernel> kernels;
    for (unsigned level = 0; level < 24; ++level) {
        // Triangular frontier-size profile peaking mid-search.
        const unsigned ramp =
            level < 12 ? level + 1 : 24 - level;
        const unsigned frontier = base_nodes * ramp / 4;
        KernelParams p;
        p.name = "bfs_level#" + std::to_string(level);
        p.numTbs = std::max(1u, frontier / 256);
        p.warpsPerTb = 8;
        p.computeGap = 5;
        p.instrsPerRequest = 37; // Table II: APKI 26.92
        kernels.emplace_back(p, [=](TbId tb, TraceBuilder &b) {
            XorShiftRng rng = tbRng(16, level, tb);
            for (unsigned w = 0; w < 8; ++w) {
                // Frontier array itself: coalesced.
                b.accessStrided(w, flags + ((rng.next() & flag_mask) &
                                            ~Addr{127}),
                                4, 32, false);
                for (unsigned i = 0; i < 4; ++i) {
                    // Adjacency segment: short random burst.
                    const Addr seg =
                        adj + ((rng.next() & adj_mask) & ~Addr{127});
                    b.accessLine(w, seg, false);
                    b.accessLine(w, seg + 128, false);
                    // Random visited flag + cost update.
                    std::vector<Addr> addrs;
                    for (unsigned t = 0; t < 32; ++t)
                        addrs.push_back(flags +
                                        (rng.next() & flag_mask));
                    b.access(w, addrs, false);
                    b.accessLine(w, flags + (rng.next() & flag_mask),
                                 true);
                }
            }
        });
    }

    return std::make_unique<Workload>(
        WorkloadInfo{"BFS", "BFS", "Rodinia", false,
                     std::to_string(base_nodes)},
        std::move(kernels));
}

} // namespace

std::unique_ptr<Workload>
make(const std::string &abbrev, double scale)
{
    if (scale <= 0.0 || scale > 1.0)
        throw std::invalid_argument("workload scale must be in (0,1]");
    // `synth:` spec strings fall through to the scenario-generator
    // registry: unlimited parameterized workloads next to the fixed
    // Table II set, behind the same entry point.
    if (synth::isSynthSpec(abbrev))
        return synth::make(abbrev, scale);
    if (abbrev == "MT") return makeMT(scale);
    if (abbrev == "LU") return makeLU(scale);
    if (abbrev == "GS") return makeGS(scale);
    if (abbrev == "NW") return makeNW(scale);
    if (abbrev == "LPS") return makeLPS(scale);
    if (abbrev == "SC") return makeSC(scale);
    if (abbrev == "SRAD2") return makeSRAD2(scale);
    if (abbrev == "DWT2D") return makeDWT2D(scale);
    if (abbrev == "HS") return makeHS(scale);
    if (abbrev == "SP") return makeSP(scale);
    if (abbrev == "FWT") return makeFWT(scale);
    if (abbrev == "NN") return makeNN(scale);
    if (abbrev == "SPMV") return makeSPMV(scale);
    if (abbrev == "LM") return makeLM(scale);
    if (abbrev == "MUM") return makeMUM(scale);
    if (abbrev == "BFS") return makeBFS(scale);
    throw std::invalid_argument("unknown workload: " + abbrev);
}

const std::vector<std::string> &
valleySet()
{
    static const std::vector<std::string> s = {
        "MT", "LU", "GS", "NW", "LPS",
        "SC", "SRAD2", "DWT2D", "HS", "SP",
    };
    return s;
}

const std::vector<std::string> &
nonValleySet()
{
    static const std::vector<std::string> s = {
        "FWT", "NN", "SPMV", "LM", "MUM", "BFS",
    };
    return s;
}

const std::vector<std::string> &
allSet()
{
    static const std::vector<std::string> s = [] {
        std::vector<std::string> v = valleySet();
        for (const auto &x : nonValleySet())
            v.push_back(x);
        return v;
    }();
    return s;
}

} // namespace workloads
} // namespace valley
