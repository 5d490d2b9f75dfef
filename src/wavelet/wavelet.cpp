#include "wavelet/wavelet.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace tracered::wavelet {

namespace {

constexpr double kSqrt2 = 1.4142135623730951;

bool isPow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

void requirePow2(std::size_t n, const char* who) {
  if (!isPow2(n))
    throw std::invalid_argument(std::string(who) + ": length must be a power of two");
}

// One forward level: trend i is written over v[i] (pair i reads v[2i] and
// v[2i+1], which no earlier pair has overwritten), detail i goes to scratch
// and is copied behind the trends once every pair has been read.
template <typename Pair>
void forwardStep(std::span<double> v, std::size_t len, std::span<double> scratch,
                 Pair pair) {
  assert(len % 2 == 0 && len <= v.size() && scratch.size() >= len / 2);
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < half; ++i) pair(v[2 * i], v[2 * i + 1], v[i], scratch[i]);
  std::copy_n(scratch.begin(), half, v.begin() + half);
}

// One inverse level: the details move to scratch, then pairs are rebuilt
// from the last down, so v[i] is read before positions 2i and 2i+1 (both
// >= i) are written.
template <typename Pair>
void inverseStep(std::span<double> v, std::size_t len, std::span<double> scratch,
                 Pair pair) {
  assert(len % 2 == 0 && len <= v.size() && scratch.size() >= len / 2);
  const std::size_t half = len / 2;
  std::copy_n(v.begin() + half, half, scratch.begin());
  for (std::size_t i = half; i-- > 0;) pair(v[i], scratch[i], v[2 * i], v[2 * i + 1]);
}

constexpr auto avgPair = [](double a, double b, double& trend, double& detail) {
  trend = (a + b) / 2.0;
  detail = (a - b) / 2.0;
};

constexpr auto haarPair = [](double a, double b, double& trend, double& detail) {
  trend = (a + b) / kSqrt2;
  detail = (a - b) / kSqrt2;
};

constexpr auto avgInversePair = [](double t, double d, double& a, double& b) {
  a = t + d;
  b = t - d;
};

constexpr auto haarInversePair = [](double t, double d, double& a, double& b) {
  a = (t + d) / kSqrt2;
  b = (t - d) / kSqrt2;
};

template <typename Pair>
void pyramid(std::span<double> v, std::span<double> scratch, Pair pair) {
  requirePow2(v.size(), "wavelet transform");
  for (std::size_t len = v.size(); len >= 2; len /= 2) forwardStep(v, len, scratch, pair);
}

template <typename Pair>
void inversePyramid(std::span<double> v, std::span<double> scratch, Pair pair) {
  requirePow2(v.size(), "wavelet inverse");
  for (std::size_t len = 2; len <= v.size(); len *= 2) inverseStep(v, len, scratch, pair);
}

/// Runs an in-place form on a vector with a freshly allocated scratch.
template <typename InPlace>
std::vector<double> withScratch(std::vector<double> v, InPlace inPlace) {
  std::vector<double> scratch(v.size() / 2);
  inPlace(v, scratch);
  return v;
}

}  // namespace

std::size_t nextPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p *= 2;
  return p;
}

std::vector<double> padToPow2(std::vector<double> v) {
  v.resize(nextPow2(v.size()), 0.0);
  return v;
}

void avgStep(std::vector<double>& v, std::size_t len) {
  std::vector<double> scratch(len / 2);
  forwardStep(v, len, scratch, avgPair);
}

void haarStep(std::vector<double>& v, std::size_t len) {
  std::vector<double> scratch(len / 2);
  forwardStep(v, len, scratch, haarPair);
}

void avgTransformInPlace(std::span<double> v, std::span<double> scratch) {
  pyramid(v, scratch, avgPair);
}

void haarTransformInPlace(std::span<double> v, std::span<double> scratch) {
  pyramid(v, scratch, haarPair);
}

void avgInverseInPlace(std::span<double> v, std::span<double> scratch) {
  inversePyramid(v, scratch, avgInversePair);
}

void haarInverseInPlace(std::span<double> v, std::span<double> scratch) {
  inversePyramid(v, scratch, haarInversePair);
}

std::vector<double> avgTransform(std::vector<double> v) {
  return withScratch(std::move(v), avgTransformInPlace);
}

std::vector<double> haarTransform(std::vector<double> v) {
  return withScratch(std::move(v), haarTransformInPlace);
}

std::vector<double> avgInverse(std::vector<double> v) {
  return withScratch(std::move(v), avgInverseInPlace);
}

std::vector<double> haarInverse(std::vector<double> v) {
  return withScratch(std::move(v), haarInverseInPlace);
}

double euclideanDistance(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("euclideanDistance: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

}  // namespace tracered::wavelet
