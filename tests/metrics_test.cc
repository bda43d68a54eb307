/**
 * @file
 * Tests for the process-wide metrics registry
 * (`src/common/metrics.hh`): counters and histograms bumped from
 * concurrent `parallelFor` workers must count exactly and equal the
 * serial totals, snapshots must be byte-deterministic with
 * name-sorted keys, and reset must zero values while keeping every
 * outstanding reference valid.
 *
 * The registry is process-wide and other subsystems (grid, caches,
 * search) also bump it, so every assertion here is delta-based
 * against instrument names only this file uses.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/metrics.hh"
#include "common/parallel_for.hh"

using namespace valley;

namespace {

/** Unique-per-test instrument names so deltas are uncontaminated. */
std::string
uniq(const std::string &stem)
{
    static int n = 0;
    return "test.metrics." + stem + "." + std::to_string(n++);
}

} // namespace

TEST(Metrics, CounterAddAndInc)
{
    metrics::Counter &c = metrics::counter(uniq("basic"));
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, SameNameReturnsSameInstrument)
{
    const std::string name = uniq("interned");
    metrics::Counter &a = metrics::counter(name);
    metrics::Counter &b = metrics::counter(name);
    EXPECT_EQ(&a, &b);
    a.inc();
    EXPECT_EQ(b.value(), 1u);
}

TEST(Metrics, CounterExactUnderParallelFor)
{
    // 64 tasks x 1000 bumps from 8 concurrent workers count exactly,
    // and equal the same bumps made serially.
    metrics::Counter &serial = metrics::counter(uniq("serial"));
    metrics::Counter &parallel = metrics::counter(uniq("parallel"));
    constexpr std::size_t kTasks = 64;
    constexpr int kBumps = 1000;
    const auto bump = [](metrics::Counter &c) {
        for (int i = 0; i < kBumps; ++i)
            c.inc();
    };
    for (std::size_t t = 0; t < kTasks; ++t)
        bump(serial);
    parallelFor(kTasks, 8, [&](std::size_t) { bump(parallel); });
    EXPECT_EQ(parallel.value(), kTasks * kBumps);
    EXPECT_EQ(parallel.value(), serial.value());
}

TEST(Metrics, GaugeSetAndAdd)
{
    metrics::Gauge &g = metrics::gauge(uniq("gauge"));
    g.set(10);
    g.add(-3);
    EXPECT_EQ(g.value(), 7);
    g.reset();
    EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, GaugePeakSurvivesDropToZero)
{
    // An instrument released before the snapshot (resident bytes of a
    // destroyed object) reads zero; its peak still shows the load.
    const std::string name = uniq("peak");
    metrics::Gauge &g = metrics::gauge(name);
    g.add(5);
    g.add(-5);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(g.peak(), 5);
    const std::string snap = metrics::snapshotJson();
    EXPECT_NE(snap.find('"' + name + "\": 0,"), std::string::npos);
    EXPECT_NE(snap.find('"' + name + ".peak\": 5"), std::string::npos);

    g.set(3);
    EXPECT_EQ(g.peak(), 5);
    g.set(8);
    EXPECT_EQ(g.peak(), 8);
    g.reset();
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(g.peak(), 0);
}

TEST(Metrics, HistogramBucketPlacement)
{
    // Bucket i holds samples of bit width i: 0 -> bucket 0,
    // 1 -> bucket 1, {2,3} -> bucket 2; huge values clamp into the
    // last bucket instead of indexing out of range.
    metrics::Histogram &h = metrics::histogram(uniq("buckets"));
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(std::uint64_t(1) << 60);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 6u + (std::uint64_t(1) << 60));
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(metrics::Histogram::kBuckets - 1), 1u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
}

TEST(Metrics, HistogramExactUnderParallelFor)
{
    metrics::Histogram &h = metrics::histogram(uniq("parallel_hist"));
    constexpr int kTasks = 48;
    constexpr std::uint64_t kSamples = 100;
    parallelFor(kTasks, 8, [&h](std::size_t) {
        for (std::uint64_t v = 1; v <= kSamples; ++v)
            h.record(v);
    });
    EXPECT_EQ(h.count(),
              static_cast<std::uint64_t>(kTasks) * kSamples);
    EXPECT_EQ(h.sum(), static_cast<std::uint64_t>(kTasks) *
                           (kSamples * (kSamples + 1) / 2));
    std::uint64_t bucketed = 0;
    for (std::size_t i = 0; i < metrics::Histogram::kBuckets; ++i)
        bucketed += h.bucket(i);
    EXPECT_EQ(bucketed, h.count());
}

TEST(Metrics, ScopedTimerRecordsOneSample)
{
    metrics::Histogram &h = metrics::histogram(uniq("timer"));
    {
        metrics::ScopedTimer t(h);
    }
    EXPECT_EQ(h.count(), 1u);
}

TEST(Metrics, SnapshotIsByteDeterministic)
{
    metrics::counter(uniq("snap_a")).inc();
    metrics::histogram(uniq("snap_h")).record(5);
    const std::string a = metrics::snapshotJson();
    const std::string b = metrics::snapshotJson();
    EXPECT_EQ(a, b);
}

TEST(Metrics, SnapshotSortsNamesAndOrdersFields)
{
    // Register deliberately out of order; the snapshot must sort.
    const std::string hi = "test.metrics.zz_last";
    const std::string lo = "test.metrics.aa_first";
    metrics::counter(hi).inc();
    metrics::counter(lo).inc();
    const std::string snap = metrics::snapshotJson();
    const std::size_t lo_pos = snap.find('"' + lo + '"');
    const std::size_t hi_pos = snap.find('"' + hi + '"');
    ASSERT_NE(lo_pos, std::string::npos);
    ASSERT_NE(hi_pos, std::string::npos);
    EXPECT_LT(lo_pos, hi_pos);

    // Fixed section and histogram field order.
    const std::size_t counters = snap.find("\"counters\"");
    const std::size_t gauges = snap.find("\"gauges\"");
    const std::size_t histograms = snap.find("\"histograms\"");
    ASSERT_NE(counters, std::string::npos);
    ASSERT_NE(gauges, std::string::npos);
    ASSERT_NE(histograms, std::string::npos);
    EXPECT_LT(counters, gauges);
    EXPECT_LT(gauges, histograms);

    metrics::histogram(uniq("field_order")).record(1);
    const std::string snap2 = metrics::snapshotJson();
    const std::size_t count_f = snap2.find("\"count\"", histograms);
    const std::size_t sum_f = snap2.find("\"sum_us\"", histograms);
    const std::size_t buckets_f = snap2.find("\"buckets\"", histograms);
    ASSERT_NE(count_f, std::string::npos);
    ASSERT_NE(sum_f, std::string::npos);
    ASSERT_NE(buckets_f, std::string::npos);
    EXPECT_LT(count_f, sum_f);
    EXPECT_LT(sum_f, buckets_f);
}

TEST(Metrics, SnapshotEscapesControlCharactersInNames)
{
    // A raw newline inside a JSON string is invalid JSON: the name
    // must carry the two-character escape instead.
    const std::string name = uniq("line\nbreak");
    metrics::counter(name).inc();
    const std::string snap = metrics::snapshotJson();
    EXPECT_EQ(snap.find(name), std::string::npos) << snap;
    EXPECT_NE(snap.find("line\\nbreak"), std::string::npos) << snap;
}

TEST(Metrics, SnapshotIndentEmbedsAtValuePosition)
{
    metrics::counter(uniq("indent")).inc();
    const std::string top = metrics::snapshotJson(0);
    // Opening brace unindented (value position), no trailing newline.
    ASSERT_FALSE(top.empty());
    EXPECT_EQ(top.front(), '{');
    EXPECT_EQ(top.back(), '}');
    EXPECT_NE(top.find("\n  \"counters\""), std::string::npos);

    const std::string nested = metrics::snapshotJson(1);
    EXPECT_EQ(nested.front(), '{');
    EXPECT_NE(nested.find("\n    \"counters\""), std::string::npos);
    // Closing brace at the embedding depth.
    EXPECT_NE(nested.rfind("\n  }"), std::string::npos);
}

TEST(Metrics, WriteSnapshotFileMatchesSnapshotJson)
{
    metrics::counter(uniq("file")).add(3);
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("valley_metrics_test_" + std::to_string(::getpid()) +
         ".json");
    ASSERT_TRUE(metrics::writeSnapshotFile(path.string()));
    std::ifstream in(path);
    std::stringstream read;
    read << in.rdbuf();
    EXPECT_EQ(read.str(), metrics::snapshotJson() + "\n");
    std::filesystem::remove(path);
}

TEST(Metrics, ResetZeroesButKeepsReferencesValid)
{
    metrics::Counter &c = metrics::counter(uniq("reset_c"));
    metrics::Gauge &g = metrics::gauge(uniq("reset_g"));
    metrics::Histogram &h = metrics::histogram(uniq("reset_h"));
    c.add(5);
    g.set(-2);
    h.record(9);
    metrics::resetForTesting();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    // References survive the reset and keep counting.
    c.inc();
    EXPECT_EQ(c.value(), 1u);
}
