// Unit tests for the numerical building blocks: normal family, quadrature,
// compensated summation.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/math.h"
#include "common/rng.h"

namespace hdldp {
namespace {

TEST(NormalTest, PdfKnownValues) {
  EXPECT_NEAR(NormalPdf(0.0), 0.3989422804014327, 1e-14);
  EXPECT_NEAR(NormalPdf(1.0), 0.24197072451914337, 1e-14);
  EXPECT_NEAR(NormalPdf(0.0, 2.0, 0.5), NormalPdf(-4.0) / 0.5, 1e-14);
}

TEST(NormalTest, CdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(NormalCdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(NormalCdf(-1.0), 1.0 - 0.8413447460685429, 1e-12);
  EXPECT_NEAR(NormalCdf(3.0), 0.9986501019683699, 1e-12);
}

TEST(NormalTest, CdfAccurateInDeepTails) {
  // P(N > 10) ~ 7.619853e-24; erfc-based CDF must not round to 0 or 1.
  EXPECT_NEAR(NormalCdf(-10.0) / 7.61985302416053e-24, 1.0, 1e-9);
  EXPECT_LT(1.0 - NormalCdf(10.0), 1e-20);
}

TEST(NormalTest, IntervalProbMatchesCdfDifference) {
  const double p = NormalIntervalProb(-1.0, 2.0, 0.5, 1.5);
  const double expected = NormalCdf(2.0, 0.5, 1.5) - NormalCdf(-1.0, 0.5, 1.5);
  EXPECT_NEAR(p, expected, 1e-14);
  EXPECT_EQ(NormalIntervalProb(2.0, -1.0, 0.0, 1.0), 0.0);
}

TEST(NormalTest, IntervalProbStableInTails) {
  // Interval far in the right tail: naive CDF subtraction loses all
  // precision; the erfc formulation keeps relative accuracy.
  const double p = NormalIntervalProb(8.0, 9.0, 0.0, 1.0);
  // P(8 < N < 9) = Phi(9) - Phi(8) ~ 6.22096e-16.
  EXPECT_GT(p, 5.5e-16);
  EXPECT_LT(p, 7.0e-16);
}

TEST(NormalTest, QuantileInvertsCdf) {
  for (const double p : {1e-10, 1e-4, 0.025, 0.2, 0.5, 0.8, 0.975, 1 - 1e-6}) {
    const double x = NormalQuantile(p);
    EXPECT_NEAR(NormalCdf(x), p, 1e-12) << "p=" << p;
  }
}

TEST(NormalTest, QuantileKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.84134474606854293), 1.0, 1e-9);
}

TEST(QuadratureTest, PolynomialIsExact) {
  auto cubic = [](double x) { return 3.0 * x * x * x - x + 2.0; };
  // integral over [0, 2] = 3*4 - 2 + 4 = 14.
  const QuadratureResult r = AdaptiveSimpson(cubic, 0.0, 2.0);
  EXPECT_NEAR(r.value, 14.0, 1e-12);
}

TEST(QuadratureTest, ReversedLimitsFlipSign) {
  auto f = [](double x) { return x; };
  EXPECT_NEAR(AdaptiveSimpson(f, 2.0, 0.0).value, -2.0, 1e-12);
  EXPECT_EQ(AdaptiveSimpson(f, 1.0, 1.0).value, 0.0);
}

TEST(QuadratureTest, SmoothTranscendental) {
  const QuadratureResult r =
      AdaptiveSimpson([](double x) { return std::exp(-x * x); }, -6.0, 6.0);
  EXPECT_NEAR(r.value, std::sqrt(kPi), 1e-10);
}

TEST(QuadratureTest, HandlesKink) {
  // integral of |x| over [-1, 2] = 0.5 + 2 = 2.5.
  const QuadratureResult r =
      AdaptiveSimpson([](double x) { return std::abs(x); }, -1.0, 2.0);
  EXPECT_NEAR(r.value, 2.5, 1e-8);
}

TEST(QuadratureTest, ReportsEvaluations) {
  const QuadratureResult r =
      AdaptiveSimpson([](double x) { return std::sin(x); }, 0.0, kPi);
  EXPECT_GT(r.evaluations, 3u);
  EXPECT_NEAR(r.value, 2.0, 1e-10);
}

TEST(QuadratureTest, GaussLegendreExactForHighDegree) {
  // x^10 over [0, 1] = 1/11; degree far below the rule's 127 limit.
  const double v =
      GaussLegendre64([](double x) { return std::pow(x, 10); }, 0.0, 1.0);
  EXPECT_NEAR(v, 1.0 / 11.0, 1e-14);
}

TEST(QuadratureTest, GaussLegendreMatchesSimpson) {
  auto f = [](double x) { return std::cos(3.0 * x) * std::exp(-0.5 * x); };
  const double gl = GaussLegendre64(f, -1.0, 4.0);
  const double as = AdaptiveSimpson(f, -1.0, 4.0).value;
  EXPECT_NEAR(gl, as, 1e-9);
}

TEST(QuadratureTest, IntegrateSegmentsPiecewiseDensity) {
  // Two-level step function integrates exactly when breakpoints align.
  auto step = [](double x) { return x < 0.5 ? 2.0 : 0.5; };
  const Result<double> r = IntegrateSegments(step, {0.0, 0.5, 1.0});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 2.0 * 0.5 + 0.5 * 0.5, 1e-12);
}

TEST(QuadratureTest, IntegrateSegmentsValidatesInput) {
  auto f = [](double) { return 1.0; };
  EXPECT_FALSE(IntegrateSegments(f, {0.0}).ok());
  EXPECT_FALSE(IntegrateSegments(f, {1.0, 0.0}).ok());
}

TEST(SummationTest, NeumaierRecoversLostLowOrderBits) {
  NeumaierSum acc;
  acc.Add(1e16);
  for (int i = 0; i < 10000; ++i) acc.Add(1.0);
  acc.Add(-1e16);
  EXPECT_EQ(acc.Total(), 10000.0);
}

TEST(SummationTest, NeumaierAddMatchesTextbookBranchBitwise) {
  // The select form must keep the bits of Neumaier's branch. Mixed signs
  // and magnitudes take both compensation arms, plus the signed zeros and
  // ties between |sum| and |x|.
  Rng rng(17);
  std::vector<double> xs = {0.0, -0.0, 1.0, -1.0, 1e16, 3.0, -1e16, 0.5};
  for (int i = 0; i < 5000; ++i) {
    const double scale = i % 7 == 0 ? 1e12 : (i % 3 == 0 ? 1e-9 : 1.0);
    xs.push_back(rng.Uniform(-0.5, 0.5) * scale);
  }
  double ref_sum = 0.0;
  double ref_compensation = 0.0;
  NeumaierSum acc;
  for (const double x : xs) {
    const double t = ref_sum + x;
    if (std::fabs(ref_sum) >= std::fabs(x)) {
      ref_compensation += (ref_sum - t) + x;
    } else {
      ref_compensation += (x - t) + ref_sum;
    }
    ref_sum = t;
    acc.Add(x);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(acc.RawSum()),
              std::bit_cast<std::uint64_t>(ref_sum));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(acc.Compensation()),
              std::bit_cast<std::uint64_t>(ref_compensation));
  }
}

TEST(SummationTest, StableSumMatchesExact) {
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(0.1);
  EXPECT_NEAR(StableSum(xs.data(), xs.size()), 100.0, 1e-12);
}

TEST(MathTest, ClampAndSq) {
  EXPECT_EQ(Clamp(5.0, -1.0, 1.0), 1.0);
  EXPECT_EQ(Clamp(-5.0, -1.0, 1.0), -1.0);
  EXPECT_EQ(Clamp(0.25, -1.0, 1.0), 0.25);
  EXPECT_EQ(Sq(-3.0), 9.0);
}

TEST(MathTest, RelativeDiff) {
  EXPECT_NEAR(RelativeDiff(100.0, 101.0), 1.0 / 101.0, 1e-12);
  EXPECT_EQ(RelativeDiff(0.0, 0.0), 0.0);
  EXPECT_NEAR(RelativeDiff(-2.0, 2.0), 2.0, 1e-12);
}

}  // namespace
}  // namespace hdldp
