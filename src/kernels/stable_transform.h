// The exact scalar p-stable variate transform, shared by the kernel
// backends (scalar reference and the AVX2 backend's p != 1 fallback) and
// by StableSketch's query-side helpers. Living here keeps the single
// definition below the sketch layer so backends never reach upward.
#pragma once

#include <cmath>

#include "src/util/check.h"

namespace lps::kernels {

/// Maps two uniforms in (0, 1] to a standard symmetric p-stable variate,
/// 0 < p <= 2: Cauchy by tan at p = 1, Gaussian by Box-Muller at p = 2,
/// Chambers-Mallows-Stuck otherwise. This is the historical
/// sketch::StableFromUniforms body, bit for bit.
inline double StableFromUniformsImpl(double p, double u1, double u2) {
  LPS_CHECK(p > 0 && p <= 2);
  constexpr double pi = 3.141592653589793238462643383279502884;
  if (p == 2.0) {
    // Gaussian by Box-Muller; N(0,1) is 2-stable under the Euclidean norm.
    return std::sqrt(-2.0 * std::log(u2)) * std::cos(2.0 * pi * u1);
  }
  const double theta = pi * (u1 - 0.5);  // uniform on (-pi/2, pi/2)
  if (p == 1.0) {
    return std::tan(theta);  // standard Cauchy
  }
  // Chambers-Mallows-Stuck for symmetric p-stable.
  const double w = -std::log(u2);  // exponential(1)
  const double a = std::sin(p * theta) / std::pow(std::cos(theta), 1.0 / p);
  const double b = std::pow(std::cos((1.0 - p) * theta) / w, (1.0 - p) / p);
  return a * b;
}

}  // namespace lps::kernels
