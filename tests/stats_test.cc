#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "stats/cdf.h"
#include "stats/correlation.h"
#include "stats/csv.h"
#include "stats/histogram.h"
#include "stats/render.h"
#include "stats/summary.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rv::stats {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, SampleVariance) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 1.0);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), util::CheckError);
  EXPECT_THROW(s.min(), util::CheckError);
}

TEST(Summary, Quantiles) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.125), 1.5);  // interpolated
}

TEST(Summary, Fractions) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(fraction_below(xs, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(fraction_at_or_above(xs, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(fraction_below(xs, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(fraction_below(xs, 10.0), 1.0);
}

TEST(Cdf, EvaluatesEmpirically) {
  const std::vector<double> xs = {1.0, 2.0, 2.0, 4.0};
  const Cdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(3.9), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 2.25);
  EXPECT_DOUBLE_EQ(cdf.median(), 2.0);
}

TEST(Cdf, InverseIsRightInverse) {
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0, 50.0};
  const Cdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.inverse(0.2), 10.0);
  EXPECT_DOUBLE_EQ(cdf.inverse(0.5), 20.0);
  EXPECT_DOUBLE_EQ(cdf.inverse(1.0), 50.0);
}

TEST(Cdf, SampleEndpointsCoverRange) {
  const std::vector<double> xs = {0.0, 5.0, 10.0};
  const Cdf cdf(xs);
  const auto pts = cdf.sample(11);
  ASSERT_EQ(pts.size(), 11u);
  EXPECT_DOUBLE_EQ(pts.front().x, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().x, 10.0);
  EXPECT_DOUBLE_EQ(pts.back().f, 1.0);
}

// Property: a CDF is monotone non-decreasing and bounded by [0, 1], for any
// random dataset.
class CdfPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CdfPropertyTest, MonotoneAndBounded) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 1 + static_cast<int>(rng.uniform_int(0, 499));
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) xs.push_back(rng.normal(0.0, 100.0));
  const Cdf cdf(xs);
  double prev = 0.0;
  for (double x = -400.0; x <= 400.0; x += 7.3) {
    const double f = cdf.at(x);
    EXPECT_GE(f, prev);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(cdf.at(cdf.max()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(RandomDatasets, CdfPropertyTest,
                         ::testing::Range(0, 20));

TEST(CountTable, CountsAndSorts) {
  CountTable t;
  t.add("US", 3);
  t.add("UK");
  t.add("US", 2);
  EXPECT_EQ(t.count("US"), 5u);
  EXPECT_EQ(t.count("UK"), 1u);
  EXPECT_EQ(t.count("FR"), 0u);
  EXPECT_EQ(t.total(), 6u);
  const auto sorted = t.sorted_by_count();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted.front().first, "UK");
  EXPECT_EQ(sorted.back().first, "US");
}

TEST(Correlation, PerfectLinear) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const auto fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 0.0, 1e-12);
}

TEST(Correlation, AntiCorrelated) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {3.0, 2.0, 1.0};
  EXPECT_NEAR(pearson(xs, ys), -1.0, 1e-12);
}

TEST(Correlation, ConstantSeriesYieldsNaNNotAbort) {
  // Zero variance on either axis makes r undefined; it must come back as
  // NaN for the caller to render as "n/a", not crash the figure.
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> flat = {4.0, 4.0, 4.0};
  EXPECT_TRUE(std::isnan(pearson(xs, flat)));
  EXPECT_TRUE(std::isnan(pearson(flat, xs)));
  EXPECT_TRUE(std::isnan(pearson(flat, flat)));
}

TEST(Correlation, ConstantXMakesFitUndefined) {
  const std::vector<double> flat = {2.0, 2.0, 2.0};
  const std::vector<double> ys = {1.0, 5.0, 9.0};
  const auto fit = linear_fit(flat, ys);
  EXPECT_TRUE(std::isnan(fit.slope));
  EXPECT_TRUE(std::isnan(fit.intercept));
  EXPECT_TRUE(std::isnan(fit.r));
}

TEST(Correlation, ConstantYStillFitsFlatLine) {
  // y has no variance: the least-squares line is y = c (slope 0), but r is
  // undefined.
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> flat = {4.0, 4.0, 4.0};
  const auto fit = linear_fit(xs, flat);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 4.0);
  EXPECT_TRUE(std::isnan(fit.r));
}

TEST(Correlation, NaNRendersAsNotAvailable) {
  EXPECT_EQ(util::format_double(std::numeric_limits<double>::quiet_NaN(), 2),
            "n/a");
}

TEST(Correlation, IndependentNearZero) {
  util::Rng rng(5);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20'000; ++i) {
    xs.push_back(rng.normal());
    ys.push_back(rng.normal());
  }
  EXPECT_NEAR(pearson(xs, ys), 0.0, 0.03);
}

TEST(Render, CdfPlotContainsLegendAndTitle) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {2.0, 3.0, 4.0};
  std::vector<LabeledCdf> series;
  series.push_back({"alpha", Cdf(a)});
  series.push_back({"beta", Cdf(b)});
  RenderOptions opts;
  opts.title = "Figure X";
  opts.x_label = "Frame Rate (fps)";
  const std::string out = render_cdfs(series, opts);
  EXPECT_NE(out.find("Figure X"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  EXPECT_NE(out.find("Frame Rate"), std::string::npos);
}

TEST(Render, BarsShowCounts) {
  CountTable t;
  t.add("MA", 10);
  t.add("CT", 2);
  const std::string out = render_bars(t, "Clips");
  EXPECT_NE(out.find("MA"), std::string::npos);
  EXPECT_NE(out.find("10"), std::string::npos);
}

TEST(Render, ComparisonTable) {
  const std::vector<ComparisonRow> rows = {
      {"mean fps", "10", "10.3"},
      {"% < 3 fps", "25%", "24.1%"},
  };
  const std::string out = render_comparison("Fig 11", rows);
  EXPECT_NE(out.find("mean fps"), std::string::npos);
  EXPECT_NE(out.find("10.3"), std::string::npos);
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRows) {
  const std::string path = ::testing::TempDir() + "/rv_csv_test.csv";
  {
    CsvWriter w(path);
    w.write_row({"x", "f"});
    w.write_row({"1.5", "0.25"});
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "x,f");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1.5,0.25");
}

TEST(MergeableHistogram, AddClampsIntoEdgeBins) {
  MergeableHistogram h(0.0, 10.0, 10);
  h.add(-5.0);      // below range -> first bin
  h.add(1e9);       // above range -> last bin
  h.add(10.0);      // exactly hi -> last bin
  h.add(4.5);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.bin_count(4), 1u);
}

TEST(MergeableHistogram, MergeIsCommutativeAndAssociativeBinExact) {
  util::Rng rng(17);
  const auto make = [&](int n, double lo, double hi) {
    MergeableHistogram h(0.0, 100.0, 64);
    for (int i = 0; i < n; ++i) h.add(rng.uniform(lo, hi));
    return h;
  };
  const MergeableHistogram a = make(500, 0.0, 40.0);
  const MergeableHistogram b = make(300, 20.0, 90.0);
  const MergeableHistogram c = make(200, -10.0, 120.0);

  MergeableHistogram ab = a;
  ab.merge(b);
  MergeableHistogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);  // commutative, counts bin-exact

  MergeableHistogram ab_c = ab;
  ab_c.merge(c);
  MergeableHistogram bc = b;
  bc.merge(c);
  MergeableHistogram a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);  // associative
  EXPECT_EQ(ab_c.total(), 1000u);
}

TEST(MergeableHistogram, MergeRequiresSameGeometry) {
  const MergeableHistogram a(0.0, 10.0, 10);
  const MergeableHistogram b(0.0, 10.0, 20);
  const MergeableHistogram c(0.0, 20.0, 10);
  EXPECT_FALSE(a.same_geometry(b));
  EXPECT_FALSE(a.same_geometry(c));
  EXPECT_TRUE(a.same_geometry(MergeableHistogram(0.0, 10.0, 10)));
}

TEST(MergeableHistogram, QuantilesInterpolateWithinBins) {
  MergeableHistogram h(0.0, 10.0, 10);
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));  // empty
  for (int i = 0; i < 100; ++i) h.add(i * 0.1);  // ~uniform over [0, 10)
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.2);
  EXPECT_NEAR(h.quantile(0.95), 9.5, 0.2);
  EXPECT_LE(h.quantile(0.0), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(1.0));
  EXPECT_LE(h.quantile(1.0), 10.0);
}

TEST(MergeableHistogram, SixtyFourShardMergeMatchesSingleProcess) {
  // Campaign-shaped: 64 shards each fold a slice of the same value stream;
  // any merge order/grouping must land on the single-process histogram.
  constexpr int kShards = 64, kPerShard = 200;
  MergeableHistogram whole(0.0, 50.0, 80);
  std::vector<MergeableHistogram> shards(
      kShards, MergeableHistogram(0.0, 50.0, 80));
  util::Rng rng(4242);
  for (int s = 0; s < kShards; ++s) {
    for (int i = 0; i < kPerShard; ++i) {
      const double v = rng.uniform(-5.0, 60.0);
      whole.add(v);
      shards[static_cast<std::size_t>(s)].add(v);
    }
  }

  MergeableHistogram in_order(0.0, 50.0, 80);
  for (const auto& sh : shards) in_order.merge(sh);
  EXPECT_EQ(in_order, whole);
  EXPECT_EQ(in_order.total(),
            static_cast<std::uint64_t>(kShards) * kPerShard);

  // Reverse order and pairwise-tree grouping give the same bytes.
  MergeableHistogram reversed(0.0, 50.0, 80);
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    reversed.merge(*it);
  }
  EXPECT_EQ(reversed, whole);

  std::vector<MergeableHistogram> level = shards;
  while (level.size() > 1) {
    std::vector<MergeableHistogram> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      MergeableHistogram m = level[i];
      m.merge(level[i + 1]);
      next.push_back(m);
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  EXPECT_EQ(level[0], whole);
}

TEST(MergeableHistogram, QuantilesStableAtHundredMillionWeight) {
  // add_bin lets a deserialized shard carry ~1e8 total weight; quantiles
  // must not lose precision or overflow at that count.
  MergeableHistogram h(0.0, 100.0, 100);
  for (std::size_t b = 0; b < 100; ++b) h.add_bin(b, 1'000'000);
  EXPECT_EQ(h.total(), 100'000'000u);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.25), 25.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);

  // Doubling via self-merge keeps the shape: quantiles are weight-scale
  // invariant.
  MergeableHistogram doubled = h;
  doubled.merge(h);
  EXPECT_EQ(doubled.total(), 200'000'000u);
  EXPECT_EQ(doubled.quantile(0.5), h.quantile(0.5));
  EXPECT_EQ(doubled.quantile(0.99), h.quantile(0.99));
}

TEST(MergeableHistogram, AddBinRejectsOutOfRangeAndMergeRejectsGeometry) {
  MergeableHistogram h(0.0, 10.0, 10);
  h.add_bin(9, 3);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_THROW(h.add_bin(10, 1), util::CheckError);

  MergeableHistogram narrow(0.0, 10.0, 20);
  EXPECT_THROW(h.merge(narrow), util::CheckError);
  MergeableHistogram shifted(1.0, 10.0, 10);
  EXPECT_THROW(h.merge(shifted), util::CheckError);
  EXPECT_EQ(h.total(), 3u);  // failed merges leave the histogram untouched
}

}  // namespace
}  // namespace rv::stats
