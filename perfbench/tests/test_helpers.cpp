// Tests of the benchmark's own helpers: the tail percentile rule, the
// median and quartiles, the result comparator, the manifest's fields and
// the span self-time and coverage arithmetic. Run with: python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "compare.hpp"
#include "manifest.hpp"
#include "measure.hpp"
#include "stats/summary.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, KeepsP99WhenTenSamplesLieBeyond) {
  const auto pick = tail_percentile(one_to(1000), 99);
  EXPECT_EQ(pick.percentile, 99);
  EXPECT_EQ(pick.value, 990.0);
  EXPECT_EQ(pick.beyond, 10u);
  EXPECT_EQ(pick.samples, 1000u);
}

TEST(TailPercentile, FallsToTheNextLowerPercentile) {
  // 999 samples: p99 is rank 990 with 9 beyond; p98 is rank 980.
  const auto pick = tail_percentile(one_to(999), 99);
  EXPECT_EQ(pick.percentile, 98);
  EXPECT_EQ(pick.value, 980.0);
  EXPECT_EQ(pick.beyond, 19u);
}

TEST(TailPercentile, SmallSamplesFallBelowTheMedian) {
  // 18 samples (one sweep's cells): rank k needs 18 - k >= 10.
  const auto pick = tail_percentile(one_to(18), 99);
  EXPECT_EQ(pick.percentile, 44);
  EXPECT_EQ(pick.value, 8.0);
  EXPECT_EQ(pick.beyond, 10u);
}

TEST(TailPercentile, TinySamplesReportTheMinimum) {
  const auto pick = tail_percentile({5.0, 3.0, 4.0}, 99);
  EXPECT_EQ(pick.percentile, 0);
  EXPECT_EQ(pick.value, 3.0);
}

TEST(TailPercentile, IgnoresInputOrderAndRejectsBadInput) {
  std::vector<double> v = one_to(2000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(tail_percentile(v, 99).value, 1980.0);
  EXPECT_THROW((void)tail_percentile({}, 99), std::invalid_argument);
  EXPECT_THROW((void)tail_percentile({1.0}, 101), std::invalid_argument);
}

// The benchmark's medians are the library's stats::median; it must agree
// with Python's statistics.median, which the spread checks use.
TEST(Median, LibraryMedianMatchesPython) {
  const std::vector<double> odd = {5.0, 1.0, 3.0};
  const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  const std::vector<double> runs = {20.87, 22.78, 22.86, 27.74, 29.24, 31.54};
  EXPECT_EQ(sfs::stats::median(odd), 3.0);
  EXPECT_EQ(sfs::stats::median(even), 2.5);
  EXPECT_DOUBLE_EQ(sfs::stats::median(runs), 25.3);
}

// Expected values are Python's statistics.quantiles(data, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const auto a = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  const auto b = quartiles({20.87, 22.78, 22.86, 27.74, 29.24, 31.54});
  EXPECT_DOUBLE_EQ(b.q1, 22.3025);
  EXPECT_DOUBLE_EQ(b.q3, 29.815);
  const auto c = quartiles({2.0, 1.0});  // extrapolates, as Python does
  EXPECT_DOUBLE_EQ(c.q1, 0.75);
  EXPECT_DOUBLE_EQ(c.q3, 2.25);
  const auto d = quartiles({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(d.q1, 1.0);
  EXPECT_DOUBLE_EQ(d.q3, 5.0);
  const auto e = quartiles({7.0});
  EXPECT_EQ(e.q1, 7.0);
  EXPECT_EQ(e.q3, 7.0);
}

TEST(Comparator, SameBitsDistinguishesSignedZeroAndMatchesNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(same_bits(nan, nan));
  EXPECT_FALSE(same_bits(0.0, -0.0));
  EXPECT_TRUE(same_bits(0.1 + 0.2, 0.1 + 0.2));
  EXPECT_FALSE(same_bits(0.1 + 0.2, 0.3));
}

TEST(Comparator, ReportsTheFirstDifferingField) {
  sfs::search::SearchResult r;
  r.found = true;
  r.requests = 10;
  r.raw_requests = 12;
  r.path_length = 3;
  std::vector<sfs::search::SearchResult> a(3, r), b(3, r);
  EXPECT_EQ(first_mismatch(a, b), std::nullopt);

  b[1].raw_requests = 13;
  EXPECT_EQ(first_mismatch(a, b), "result 1: raw_requests 12 != 13");
  b[1] = r;
  b[2].abandoned = true;
  EXPECT_EQ(first_mismatch(a, b), "result 2: abandoned 0 != 1");
  b[2] = r;
  b[0].restarts = 1;
  EXPECT_EQ(first_mismatch(a, b), "result 0: restarts 0 != 1");
  b.pop_back();
  EXPECT_EQ(first_mismatch(a, b), "result count 3 != 2");
}

TEST(Manifest, WritesUnknownCacheSizesAsNullAndEscapesStrings) {
  Manifest m;
  m.workload = "lookup";
  m.seed = 18446744073709551615ULL;  // seeds use the full 64 bits
  m.git_describe = "v1-3-gabc \"dirty\"";
  m.l2_bytes = 2097152;
  m.llc_bytes = -1;
  const std::string json = to_json(m);
  EXPECT_NE(json.find("\"seed\":18446744073709551615"), std::string::npos);
  EXPECT_NE(json.find("\"git_describe\":\"v1-3-gabc \\\"dirty\\\"\""),
            std::string::npos);
  EXPECT_NE(json.find("\"l2_bytes\":2097152"), std::string::npos);
  EXPECT_NE(json.find("\"llc_bytes\":null"), std::string::npos);
}

TEST(Manifest, ParsesSysfsCacheSizes) {
  EXPECT_EQ(parse_cache_size("2048K"), 2097152);
  EXPECT_EQ(parse_cache_size("105M"), 105LL << 20);
  EXPECT_EQ(parse_cache_size("512"), 512);
  EXPECT_FALSE(parse_cache_size(""));
  EXPECT_FALSE(parse_cache_size("K"));
  EXPECT_FALSE(parse_cache_size("12Q"));
  EXPECT_FALSE(parse_cache_size("12KB"));
  EXPECT_FALSE(parse_cache_size("-1K"));
}

TEST(Trace, SelfTimeSubtractsChildren) {
  const auto t0 = Clock::now();
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const std::vector<SpanRecord> spans = {
      {"sim.measure_scaling", at(0), at(100), 1, 0, 0, -1},
      {"search.portfolio_cell", at(10), at(60), 2, 1, 0, 0},
      {"gen.merged_mori", at(10), at(30), 3, 2, 0, 0},
      {"bench.build_queries", at(100), at(120), 4, 0, 0, -1},
      {"stats.bootstrap", at(120), at(130), 5, 0, 0, -1},
      {"search.run_batch", at(0), at(200), 6, 0, 1, -1},  // another thread
  };
  const auto self = layer_self_seconds(spans);
  EXPECT_NEAR(self.at("sim"), 0.050, 1e-9);
  EXPECT_NEAR(self.at("search"), 0.030 + 0.200, 1e-9);
  EXPECT_NEAR(self.at("gen"), 0.020, 1e-9);
  EXPECT_NEAR(self.at("bench"), 0.020, 1e-9);
}

TEST(Trace, CoverageIsTheUnionOfLibrarySpansOverThreadsWithoutBenchSpans) {
  const auto t0 = Clock::now();
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const std::vector<SpanRecord> spans = {
      {"search.run_batch", at(0), at(40), 1, 0, 0, 0},
      {"gen.merged_mori", at(0), at(10), 2, 1, 0, 0},     // nested
      {"bench.build_queries", at(40), at(60), 3, 0, 0, 1},
      {"search.run_batch", at(50), at(55), 4, 3, 0, 1},   // inside bench
      {"search.portfolio_cell", at(30), at(70), 5, 0, 1, 2},  // overlaps
      {"stats.bootstrap", at(90), at(100), 6, 0, 0, -1},
  };
  // [0, 70] from two threads plus [90, 100]; the bench span and the call
  // nested in it do not count.
  EXPECT_NEAR(covered_seconds(spans, at(0), at(100)), 0.080, 1e-9);
  EXPECT_NEAR(covered_seconds(spans, at(60), at(95)), 0.015, 1e-9);
}

TEST(Trace, CoverageCheckFailsWhenTheHarnessLeavesGaps) {
  // A sweep-shaped trace: four workers' cells, then the bootstrap on the
  // calling thread. The grid's harness (before the first cell, after the
  // last, before the bootstrap) is in no layer span.
  const auto t0 = Clock::now();
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  std::vector<SpanRecord> spans;
  std::uint64_t id = 1;
  for (std::uint32_t w = 0; w < 4; ++w) {
    spans.push_back({"search.portfolio_cell", at(2), at(60 + 10 * w), id++,
                     0, w, w});
  }
  spans.push_back({"stats.bootstrap_slope_ci", at(91), at(100), id++, 0, 0,
                   -1});
  // Workers idle at the end (busy share well below 1) is no gap: some
  // layer runs from 2 to 90 ms and from 91 to 100 ms.
  EXPECT_GE(covered_seconds(spans, at(0), at(100)) / 0.100, kMinCoverage);
  // A harness that takes 10 ms between the grid and the bootstrap fails.
  spans.back().start = at(100);
  spans.back().end = at(110);
  EXPECT_LT(covered_seconds(spans, at(0), at(110)) / 0.110, kMinCoverage);
}

TEST(Trace, DisabledTracerRecordsNothingButScopesStillTime) {
  Tracer off(false);
  {
    Tracer::Scope s(off, "search.run_batch");
    EXPECT_GE(s.elapsed(), 0.0);
  }
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true);
  {
    Tracer::Scope outer(on, "sim.outer", 7);
    Tracer::Scope inner(on, "gen.inner");
  }
  const auto spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  const auto& outer = spans[0].parent == 0 ? spans[0] : spans[1];
  const auto& inner = spans[0].parent == 0 ? spans[1] : spans[0];
  EXPECT_EQ(outer.unit, 7);
  EXPECT_EQ(inner.parent, outer.id);
}

}  // namespace
}  // namespace perfbench
