// Discrete wavelet transforms used by the avgWave / haarWave similarity
// methods (Sec. 3.2.1, Fig. 3).
//
// Both transforms iteratively decompose a signal of (power-of-two) length L
// into L/2 trend values and L/2 fluctuation values, then recurse on the
// trends. The output layout is the standard pyramid:
//
//   [ overall trend | coarsest details | ... | finest details ]
//
// avgWave: trend = (a+b)/2,      detail = (a-b)/2
// haarWave: trend = (a+b)/sqrt2, detail = (a-b)/sqrt2   (orthonormal Haar)
//
// The Haar variant is exactly the average variant with every level's outputs
// multiplied by sqrt(2), as the paper notes; it preserves the Euclidean
// distance between signals, the average transform does not.
//
// The span forms work in place over a caller-owned scratch span of at least
// half the signal's length and never allocate. The std::vector forms are thin
// wrappers that allocate their own scratch, with bit-identical results.
// avgTransformInto / haarTransformInto are the out-of-place forms the
// matching hot path runs once per candidate segment; they are inline so that
// path compiles them into its own loop. Every forward form runs the same
// inline level, detail::forwardLevel.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace tracered::wavelet {

namespace detail {

inline constexpr double kSqrt2 = 1.4142135623730951;

/// The pair operations of one forward level: `trend` and `detail` of the
/// neighbours (a, b).
inline constexpr auto avgPair = [](double a, double b, double& trend, double& detail) {
  trend = (a + b) / 2.0;
  detail = (a - b) / 2.0;
};

inline constexpr auto haarPair = [](double a, double b, double& trend, double& detail) {
  trend = (a + b) / kSqrt2;
  detail = (a - b) / kSqrt2;
};

/// One forward level: pair i of in[0, 2 * half) gives trends[i] and
/// details[i]. `trends` may be `in` itself: pair i reads in[2i] and
/// in[2i+1], which no earlier pair has overwritten.
template <typename Pair>
inline void forwardLevel(const double* in, std::size_t half, double* trends, double* details,
                         Pair pair) {
  for (std::size_t i = 0; i < half; ++i) pair(in[2 * i], in[2 * i + 1], trends[i], details[i]);
}

/// The full forward pyramid of `signal` written into `out`: each level's
/// details go straight to their place in `out` while its trends overwrite
/// the front of `signal`.
template <typename Pair>
inline void transformInto(std::span<double> signal, std::span<double> out, Pair pair) {
  assert(out.size() == signal.size() && std::has_single_bit(signal.size()));
  for (std::size_t half = signal.size() / 2; half >= 1; half /= 2)
    forwardLevel(signal.data(), half, signal.data(), out.data() + half, pair);
  out[0] = signal[0];
}

}  // namespace detail

/// Full pyramid decompositions out of place: `signal` (power-of-two length,
/// checked only by assert) is clobbered and `out` (same length) receives the
/// coefficients, bit-identical to the in-place and vector forms. No scratch.
inline void avgTransformInto(std::span<double> signal, std::span<double> out) {
  detail::transformInto(signal, out, detail::avgPair);
}

inline void haarTransformInto(std::span<double> signal, std::span<double> out) {
  detail::transformInto(signal, out, detail::haarPair);
}

/// Smallest power of two >= n (and >= 1).
inline std::size_t nextPow2(std::size_t n) { return std::bit_ceil(n); }

/// Zero-pads `v` at the end to the next power-of-two length. Per the paper,
/// the vector is padded to "the next power of two after the number of time
/// stamps", i.e. strictly larger when already a power of two is NOT required;
/// we pad only when needed.
std::vector<double> padToPow2(std::vector<double> v);

/// One decomposition level of the average transform over v[0, len): first
/// half trends, second half details. Requires even `len <= v.size()`.
void avgStep(std::vector<double>& v, std::size_t len);

/// One decomposition level of the Haar transform (same layout and
/// requirements as avgStep).
void haarStep(std::vector<double>& v, std::size_t len);

/// Full pyramid decompositions and their inverses, in place. Require a
/// power-of-two `v.size()` and `scratch.size() >= v.size() / 2`.
void avgTransformInPlace(std::span<double> v, std::span<double> scratch);
void haarTransformInPlace(std::span<double> v, std::span<double> scratch);
void avgInverseInPlace(std::span<double> v, std::span<double> scratch);
void haarInverseInPlace(std::span<double> v, std::span<double> scratch);

/// Full pyramid decomposition with the average transform.
/// Requires power-of-two length (use padToPow2 first).
std::vector<double> avgTransform(std::vector<double> v);

/// Full pyramid decomposition with the orthonormal Haar transform.
std::vector<double> haarTransform(std::vector<double> v);

/// Inverse of avgTransform (exact up to floating point).
std::vector<double> avgInverse(std::vector<double> v);

/// Inverse of haarTransform.
std::vector<double> haarInverse(std::vector<double> v);

/// Euclidean (L2) distance between two equal-length vectors.
double euclideanDistance(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace tracered::wavelet
