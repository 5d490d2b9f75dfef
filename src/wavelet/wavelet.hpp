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
// half the signal's length and never allocate; the matching hot path runs
// them once per candidate segment. The std::vector forms are thin wrappers
// that allocate their own scratch, with bit-identical results.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tracered::wavelet {

/// Smallest power of two >= n (and >= 1).
std::size_t nextPow2(std::size_t n);

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
