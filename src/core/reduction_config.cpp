#include "core/reduction_config.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace tracered::core {

ReductionConfig ReductionConfig::defaults(Method m) {
  return ReductionConfig{m, defaultThreshold(m)};
}

ReductionConfig ReductionConfig::fromName(const std::string& spec) {
  const std::size_t at = spec.find('@');
  const std::string name = spec.substr(0, at);
  ReductionConfig out = defaults(methodByName(name));
  if (at == std::string::npos) return out;

  const std::string thr = spec.substr(at + 1);
  std::size_t consumed = 0;
  try {
    out.threshold = std::stod(thr, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  // Reject trailing garbage, and the values stod parses but no similarity
  // threshold means: nan/inf would silently make every comparison false,
  // and negatives have no interpretation in any of the nine methods.
  if (thr.empty() || consumed != thr.size() || !std::isfinite(out.threshold) ||
      out.threshold < 0.0)
    throw std::invalid_argument("reduction config: bad threshold '" + thr + "' in '" +
                                spec +
                                "' (want method@number with a finite, non-negative "
                                "number, e.g. avgWave@0.2)");
  validateThreshold(out.method, out.threshold);  // iter_k: integer k >= 1
  return out;
}

std::string ReductionConfig::toString() const {
  if (method == Method::kIterAvg) return methodName(method);
  // Shortest decimal form that parses back to exactly this double, so the
  // fromName() round-trip is lossless: try %g at increasing precision
  // (17 significant digits always round-trips).
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, threshold);
    if (std::strtod(buf, nullptr) == threshold) break;
  }
  return std::string(methodName(method)) + "@" + buf;
}

std::unique_ptr<SimilarityPolicy> ReductionConfig::makePolicy() const {
  return core::makePolicy(method, threshold);
}

ReductionConfig ReductionConfig::withExecutor(util::Executor& exec) const {
  ReductionConfig out = *this;
  out.executor = &exec;
  return out;
}

}  // namespace tracered::core
