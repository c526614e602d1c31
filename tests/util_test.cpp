// Unit tests for src/util: BitVec arithmetic, statistics, RNG, strings.
#include <gtest/gtest.h>

#include <cmath>

#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace hydra {
namespace {

// ---------------------------------------------------------------------------
// BitVec
// ---------------------------------------------------------------------------

TEST(BitVec, ConstructionMasksToWidth) {
  EXPECT_EQ(BitVec(8, 0x1ff).value(), 0xffu);
  EXPECT_EQ(BitVec(1, 3).value(), 1u);
  EXPECT_EQ(BitVec(64, ~0ULL).value(), ~0ULL);
}

TEST(BitVec, RejectsBadWidth) {
  EXPECT_THROW(BitVec(0, 1), std::invalid_argument);
  EXPECT_THROW(BitVec(65, 1), std::invalid_argument);
}

TEST(BitVec, PrefixMaskCoversExactlyTheValidLengths) {
  EXPECT_EQ(BitVec::prefix_mask(32, 0), 0u);
  EXPECT_EQ(BitVec::prefix_mask(32, 8), 0xff000000u);
  EXPECT_EQ(BitVec::prefix_mask(32, 32), 0xffffffffu);
  EXPECT_EQ(BitVec::prefix_mask(8, 3), 0xe0u);
  EXPECT_EQ(BitVec::prefix_mask(64, 1), 1ULL << 63);
  EXPECT_EQ(BitVec::prefix_mask(64, 64), ~0ULL);
  // A length outside [0, width] would shift out of range: refused.
  EXPECT_THROW(BitVec::prefix_mask(32, 33), std::invalid_argument);
  EXPECT_THROW(BitVec::prefix_mask(32, -1), std::invalid_argument);
  EXPECT_THROW(BitVec::prefix_mask(8, 9), std::invalid_argument);
  EXPECT_THROW(BitVec::prefix_mask(64, 65), std::invalid_argument);
}

TEST(BitVec, AdditionWraps) {
  EXPECT_EQ(BitVec(8, 255).add(BitVec(8, 1)).value(), 0u);
  EXPECT_EQ(BitVec(8, 250).add(BitVec(8, 10)).value(), 4u);
}

TEST(BitVec, SubtractionWraps) {
  EXPECT_EQ(BitVec(8, 0).sub(BitVec(8, 1)).value(), 255u);
  EXPECT_EQ(BitVec(16, 5).sub(BitVec(16, 7)).value(), 0xfffeu);
}

TEST(BitVec, ResultWidthIsMaxOfOperands) {
  EXPECT_EQ(BitVec(8, 1).add(BitVec(32, 1)).width(), 32);
  EXPECT_EQ(BitVec(32, 1).mul(BitVec(8, 2)).width(), 32);
}

TEST(BitVec, DivisionByZeroSaturates) {
  EXPECT_EQ(BitVec(8, 42).div(BitVec(8, 0)).value(), 255u);
  EXPECT_EQ(BitVec(8, 42).mod(BitVec(8, 0)).value(), 0u);
}

TEST(BitVec, BitwiseOps) {
  EXPECT_EQ(BitVec(8, 0b1100).band(BitVec(8, 0b1010)).value(), 0b1000u);
  EXPECT_EQ(BitVec(8, 0b1100).bor(BitVec(8, 0b1010)).value(), 0b1110u);
  EXPECT_EQ(BitVec(8, 0b1100).bxor(BitVec(8, 0b1010)).value(), 0b0110u);
  EXPECT_EQ(BitVec(8, 0b1100).bnot().value(), 0xf3u);
}

TEST(BitVec, Shifts) {
  EXPECT_EQ(BitVec(8, 0x81).shl(BitVec(8, 1)).value(), 0x02u);
  EXPECT_EQ(BitVec(8, 0x81).shr(BitVec(8, 1)).value(), 0x40u);
  EXPECT_EQ(BitVec(8, 1).shl(BitVec(8, 200)).value(), 0u);
}

TEST(BitVec, AbsDiffAvoidsWraparound) {
  EXPECT_EQ(BitVec(32, 10).abs_diff(BitVec(32, 30)).value(), 20u);
  EXPECT_EQ(BitVec(32, 30).abs_diff(BitVec(32, 10)).value(), 20u);
  EXPECT_EQ(BitVec(8, 0).abs_diff(BitVec(8, 255)).value(), 255u);
}

TEST(BitVec, ComparisonIsByValue) {
  EXPECT_TRUE(BitVec(8, 5) < BitVec(32, 6));
  EXPECT_TRUE(BitVec(8, 5) == BitVec(32, 5));
  EXPECT_TRUE(BitVec(16, 1000) > BitVec(8, 255));
}

TEST(BitVec, ResizeTruncatesAndExtends) {
  EXPECT_EQ(BitVec(32, 0x1234).resize(8).value(), 0x34u);
  EXPECT_EQ(BitVec(8, 0x34).resize(32).value(), 0x34u);
}

TEST(BitVec, Rendering) {
  EXPECT_EQ(BitVec(8, 42).to_string(), "8w42");
  EXPECT_EQ(BitVec(8, 42).to_hex(), "0x2a");
  EXPECT_EQ(BitVec(8, 0).to_hex(), "0x0");
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(Stats, OnlineMeanVariance) {
  stats::Online o;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) o.add(x);
  EXPECT_EQ(o.count(), 8u);
  EXPECT_DOUBLE_EQ(o.mean(), 5.0);
  EXPECT_NEAR(o.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(o.min(), 2.0);
  EXPECT_EQ(o.max(), 9.0);
}

TEST(Stats, SummaryPercentiles) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const auto s = stats::summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.p99, 99.01, 1e-9);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
}

TEST(Stats, EmpiricalCdfIsMonotone) {
  std::vector<double> xs = {1, 5, 2, 8, 3, 9, 4, 7, 6, 10};
  const auto cdf = stats::empirical_cdf(xs, 20);
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Stats, IncompleteBetaKnownValues) {
  // I_x(1,1) = x.
  EXPECT_NEAR(stats::incomplete_beta(1, 1, 0.3), 0.3, 1e-9);
  // I_x(2,2) = 3x^2 - 2x^3.
  EXPECT_NEAR(stats::incomplete_beta(2, 2, 0.5), 0.5, 1e-9);
  EXPECT_NEAR(stats::incomplete_beta(2, 2, 0.25),
              3 * 0.0625 - 2 * 0.015625, 1e-9);
}

TEST(Stats, StudentTCdfSymmetry) {
  EXPECT_NEAR(stats::student_t_cdf(0.0, 10), 0.5, 1e-12);
  EXPECT_NEAR(stats::student_t_cdf(2.0, 10) + stats::student_t_cdf(-2.0, 10),
              1.0, 1e-12);
  // t(df=1) is Cauchy: CDF(1) = 0.75.
  EXPECT_NEAR(stats::student_t_cdf(1.0, 1), 0.75, 1e-9);
}

TEST(Stats, TTestIdenticalSamplesNotSignificant) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0, 5.0};
  const auto r = stats::welch_t_test(a, a);
  EXPECT_NEAR(r.t, 0.0, 1e-12);
  EXPECT_NEAR(r.p_value, 1.0, 1e-9);
}

TEST(Stats, TTestDetectsShiftedMeans) {
  std::vector<double> a;
  std::vector<double> b;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    a.push_back(rng.uniform());
    b.push_back(rng.uniform() + 0.5);
  }
  const auto r = stats::welch_t_test(a, b);
  EXPECT_LT(r.p_value, 0.001);
  EXPECT_LT(r.t, 0.0);
}

TEST(Stats, TTestSameDistributionNotSignificant) {
  std::vector<double> a;
  std::vector<double> b;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    a.push_back(rng.uniform());
    b.push_back(rng.uniform());
  }
  const auto r = stats::welch_t_test(a, b);
  EXPECT_GT(r.p_value, 0.01);
}

TEST(Stats, StudentAndWelchAgreeOnEqualVariances) {
  std::vector<double> a;
  std::vector<double> b;
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    a.push_back(rng.uniform());
    b.push_back(rng.uniform());
  }
  const auto w = stats::welch_t_test(a, b);
  const auto s = stats::student_t_test(a, b);
  EXPECT_NEAR(w.t, s.t, 1e-9);
  EXPECT_NEAR(w.p_value, s.p_value, 0.01);
}

TEST(Stats, TTestRequiresSamples) {
  EXPECT_THROW(stats::welch_t_test({1.0}, {1.0, 2.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, RangeInclusive) {
  Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(6);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / 20000.0, 2.5, 0.1);
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(Strings, SplitJoin) {
  const auto parts = str::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(str::join({"x", "y", "z"}, "::"), "x::y::z");
  EXPECT_EQ(str::join({}, ","), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(str::trim("  hi \t\n"), "hi");
  EXPECT_EQ(str::trim(""), "");
  EXPECT_EQ(str::trim("   "), "");
}

TEST(Strings, CountLocIgnoresBlankLines) {
  EXPECT_EQ(str::count_loc("a\n\n  \nb\nc\n"), 3);
  EXPECT_EQ(str::count_loc(""), 0);
}

TEST(Strings, CountLocLineEnds) {
  // CRLF line ends: the '\r' is whitespace, so a bare CRLF line is blank.
  EXPECT_EQ(str::count_loc("a\r\n\r\n b\r\n"), 2);
  // Lines of spaces, tabs, '\r', '\v' and '\f' alone are blank.
  EXPECT_EQ(str::count_loc(" \t\n\r\v\f\n\n"), 0);
  EXPECT_EQ(str::count_loc("\n"), 0);
  // A last line with no newline counts; leading whitespace does not hide it.
  EXPECT_EQ(str::count_loc("a\nb"), 2);
  EXPECT_EQ(str::count_loc("\t  x"), 1);
  EXPECT_EQ(str::count_loc("a\n   "), 1);
}

TEST(Strings, Ipv4RoundTrip) {
  const std::uint32_t addr = str::ipv4_from_string("10.0.2.15");
  EXPECT_EQ(addr, 0x0a00020fu);
  EXPECT_EQ(str::ipv4_to_string(addr), "10.0.2.15");
}

TEST(Strings, Ipv4Malformed) {
  EXPECT_THROW(str::ipv4_from_string("10.0.2"), std::invalid_argument);
  EXPECT_THROW(str::ipv4_from_string("10.0.2.999"), std::invalid_argument);
  EXPECT_THROW(str::ipv4_from_string("a.b.c.d"), std::invalid_argument);
}

}  // namespace
}  // namespace hydra
