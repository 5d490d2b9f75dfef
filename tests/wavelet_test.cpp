// Unit tests for the wavelet transforms, including the paper's Fig. 3
// worked example.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "wavelet/wavelet.hpp"

namespace tracered::wavelet {
namespace {

TEST(Wavelet, NextPow2) {
  EXPECT_EQ(nextPow2(0), 1u);
  EXPECT_EQ(nextPow2(1), 1u);
  EXPECT_EQ(nextPow2(2), 2u);
  EXPECT_EQ(nextPow2(3), 4u);
  EXPECT_EQ(nextPow2(5), 8u);
  EXPECT_EQ(nextPow2(8), 8u);
  EXPECT_EQ(nextPow2(9), 16u);
  EXPECT_EQ(nextPow2(1000), 1024u);
}

TEST(Wavelet, PadToPow2KeepsPrefixAndZeroPads) {
  const std::vector<double> v = {1, 2, 3, 4, 5, 6};
  const std::vector<double> padded = padToPow2(v);
  ASSERT_EQ(padded.size(), 8u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_DOUBLE_EQ(padded[i], v[i]);
  EXPECT_DOUBLE_EQ(padded[6], 0.0);
  EXPECT_DOUBLE_EQ(padded[7], 0.0);
}

TEST(Wavelet, PadToPow2NoopOnPow2) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_EQ(padToPow2(v), v);
}

TEST(Wavelet, AvgStepPairsAveragesAndDifferences) {
  std::vector<double> v = {4, 2, 8, 6};
  avgStep(v, 4);
  // trends: (4+2)/2, (8+6)/2 ; details: (4-2)/2, (8-6)/2
  EXPECT_DOUBLE_EQ(v[0], 3);
  EXPECT_DOUBLE_EQ(v[1], 7);
  EXPECT_DOUBLE_EQ(v[2], 1);
  EXPECT_DOUBLE_EQ(v[3], 1);
}

TEST(Wavelet, HaarIsAvgTimesSqrt2PerLevel) {
  std::vector<double> a = {4, 2, 8, 6};
  std::vector<double> h = a;
  avgStep(a, 4);
  haarStep(h, 4);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(h[i], a[i] * std::sqrt(2.0), 1e-12);
}

// The paper's Fig. 3 example: the average transform of segment s0's padded
// time-stamp vector [0,1,20,21,49,50,0,0].
TEST(Wavelet, Fig3AvgTransformS0) {
  const std::vector<double> s0 = {0, 1, 20, 21, 49, 50, 0, 0};
  const std::vector<double> t = avgTransform(s0);
  ASSERT_EQ(t.size(), 8u);
  EXPECT_DOUBLE_EQ(t[0], 17.625);  // the paper's "largest element 17.625"
  EXPECT_DOUBLE_EQ(t[1], -7.125);
  EXPECT_DOUBLE_EQ(t[2], -10.0);
  EXPECT_DOUBLE_EQ(t[3], 24.75);
  EXPECT_DOUBLE_EQ(t[4], -0.5);
  EXPECT_DOUBLE_EQ(t[5], -0.5);
  EXPECT_DOUBLE_EQ(t[6], -0.5);
  EXPECT_DOUBLE_EQ(t[7], 0.0);
}

// Fig. 3's step-2 trends for s2 are (9, 24.25).
TEST(Wavelet, Fig3AvgStep2TrendsS2) {
  std::vector<double> v = {0, 1, 17, 18, 48, 49, 0, 0};
  avgStep(v, 8);
  avgStep(v, 4);
  EXPECT_DOUBLE_EQ(v[0], 9.0);
  EXPECT_DOUBLE_EQ(v[1], 24.25);
}

// The paper's comparison of s0 and s2: Euclidean distance between the
// average transforms is ~1.9, under the allowed 0.2 * 17.625 = 3.525.
TEST(Wavelet, Fig3ComparisonDistance) {
  const std::vector<double> t0 = avgTransform({0, 1, 20, 21, 49, 50, 0, 0});
  const std::vector<double> t2 = avgTransform({0, 1, 17, 18, 48, 49, 0, 0});
  const double dist = euclideanDistance(t0, t2);
  EXPECT_NEAR(dist, 1.9, 0.05);
  EXPECT_LT(dist, 0.2 * 17.625);
}

TEST(Wavelet, AvgInverseRoundTrips) {
  SplitMix64 rng(7);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> v(16);
    for (auto& x : v) x = rng.nextDouble() * 1000.0;
    const std::vector<double> back = avgInverse(avgTransform(v));
    ASSERT_EQ(back.size(), v.size());
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(back[i], v[i], 1e-9);
  }
}

TEST(Wavelet, HaarInverseRoundTrips) {
  SplitMix64 rng(9);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> v(32);
    for (auto& x : v) x = rng.nextDouble() * 1000.0 - 500.0;
    const std::vector<double> back = haarInverse(haarTransform(v));
    ASSERT_EQ(back.size(), v.size());
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(back[i], v[i], 1e-9);
  }
}

// The orthonormal Haar transform preserves Euclidean distances; the average
// transform does not (it shrinks them). This is exactly the property the
// paper cites when predicting avgWave is a (slightly) less strict test.
TEST(Wavelet, HaarPreservesEuclideanDistanceAvgShrinksIt) {
  SplitMix64 rng(11);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> a(16), b(16);
    for (auto& x : a) x = rng.nextDouble() * 100.0;
    for (auto& x : b) x = rng.nextDouble() * 100.0;
    const double d = euclideanDistance(a, b);
    const double dh = euclideanDistance(haarTransform(a), haarTransform(b));
    const double da = euclideanDistance(avgTransform(a), avgTransform(b));
    EXPECT_NEAR(dh, d, 1e-9 * (1.0 + d));
    EXPECT_LE(da, d + 1e-9);
  }
}

TEST(Wavelet, TransformIsLinear) {
  SplitMix64 rng(13);
  std::vector<double> a(8), b(8);
  for (auto& x : a) x = rng.nextDouble();
  for (auto& x : b) x = rng.nextDouble();
  std::vector<double> sum(8);
  for (std::size_t i = 0; i < 8; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const auto ta = avgTransform(a);
  const auto tb = avgTransform(b);
  const auto tsum = avgTransform(sum);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(tsum[i], 2.0 * ta[i] + 3.0 * tb[i], 1e-9);
}

TEST(Wavelet, ConstantSignalHasZeroDetails) {
  const std::vector<double> t = avgTransform(std::vector<double>(8, 5.0));
  EXPECT_DOUBLE_EQ(t[0], 5.0);
  for (std::size_t i = 1; i < t.size(); ++i) EXPECT_DOUBLE_EQ(t[i], 0.0);
}

TEST(Wavelet, RejectsNonPow2) {
  EXPECT_THROW(avgTransform({1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(haarTransform({1, 2, 3, 4, 5}), std::invalid_argument);
}

// The transforms as first written — every level through a freshly allocated
// temporary — the oracle the in-place forms must reproduce bit for bit.
// `divisor` is 2 (avg) or sqrt 2 (Haar) forward, 1 (avg, exact) or sqrt 2
// (Haar) inverse.
constexpr double kSqrt2 = 1.4142135623730951;

std::vector<double> literalForward(std::vector<double> v, double divisor) {
  for (std::size_t len = v.size(); len >= 2; len /= 2) {
    std::vector<double> tmp(len);
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < half; ++i) {
      tmp[i] = (v[2 * i] + v[2 * i + 1]) / divisor;
      tmp[half + i] = (v[2 * i] - v[2 * i + 1]) / divisor;
    }
    for (std::size_t i = 0; i < len; ++i) v[i] = tmp[i];
  }
  return v;
}

std::vector<double> literalInverse(std::vector<double> v, double divisor) {
  for (std::size_t len = 2; len <= v.size(); len *= 2) {
    std::vector<double> tmp(len);
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < half; ++i) {
      tmp[2 * i] = (v[i] + v[half + i]) / divisor;
      tmp[2 * i + 1] = (v[i] - v[half + i]) / divisor;
    }
    for (std::size_t i = 0; i < len; ++i) v[i] = tmp[i];
  }
  return v;
}

/// Index of the first element whose bits differ, or -1 when none does.
std::ptrdiff_t firstBitDifference(const std::vector<double>& a, const std::vector<double>& b) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return static_cast<std::ptrdiff_t>(i);
  return -1;
}

// Every signal length from 1 to 1024, zero-padded as the wavelet methods
// pad: the in-place transforms and inverses (over a minimum-size scratch
// holding garbage), the out-of-place forward transforms (into an output
// holding garbage) and the vector wrappers equal the literal per-level
// temporaries bit for bit.
TEST(Wavelet, InPlaceFormsEqualLiteralTemporariesBitForBit) {
  SplitMix64 rng(17);
  using InPlace = void (*)(std::span<double>, std::span<double>);
  using Wrapper = std::vector<double> (*)(std::vector<double>);
  struct Form {
    const char* name;
    InPlace inPlace;
    Wrapper wrapper;
    bool forward;
    double divisor;
  };
  const Form forms[] = {
      {"avgTransform", avgTransformInPlace, avgTransform, true, 2.0},
      {"haarTransform", haarTransformInPlace, haarTransform, true, kSqrt2},
      {"avgInverse", avgInverseInPlace, avgInverse, false, 1.0},
      {"haarInverse", haarInverseInPlace, haarInverse, false, kSqrt2},
  };
  struct IntoForm {
    const char* name;
    void (*into)(std::span<double> signal, std::span<double> out);
    double divisor;
  };
  const IntoForm intoForms[] = {
      {"avgTransformInto", avgTransformInto, 2.0},
      {"haarTransformInto", haarTransformInto, kSqrt2},
  };
  for (std::size_t n = 1; n <= 1024; ++n) {
    std::vector<double> signal(n);
    for (auto& x : signal) x = rng.nextDouble() * 2000.0 - 1000.0;
    const std::vector<double> padded = padToPow2(signal);
    for (const Form& f : forms) {
      const std::vector<double> want = f.forward ? literalForward(padded, f.divisor)
                                                 : literalInverse(padded, f.divisor);
      std::vector<double> inPlace = padded;
      std::vector<double> scratch(padded.size() / 2,
                                  std::numeric_limits<double>::quiet_NaN());
      f.inPlace(inPlace, scratch);
      ASSERT_EQ(firstBitDifference(inPlace, want), -1) << f.name << " n=" << n;
      ASSERT_EQ(firstBitDifference(f.wrapper(padded), want), -1)
          << f.name << " wrapper n=" << n;
    }
    for (const IntoForm& f : intoForms) {
      std::vector<double> clobbered = padded;
      std::vector<double> out(padded.size(), std::numeric_limits<double>::quiet_NaN());
      f.into(clobbered, out);
      ASSERT_EQ(firstBitDifference(out, literalForward(padded, f.divisor)), -1)
          << f.name << " n=" << n;
    }
  }
}

TEST(Wavelet, EuclideanDistanceBasics) {
  EXPECT_DOUBLE_EQ(euclideanDistance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(euclideanDistance({1, 1}, {1, 1}), 0.0);
  EXPECT_THROW(euclideanDistance({1}, {1, 2}), std::invalid_argument);
}

}  // namespace
}  // namespace tracered::wavelet
