// Tests for ReductionConfig: fromName/toString round trips (all nine
// methods, explicit and default thresholds), failure paths, and the
// execution-policy helpers.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/reduction_config.hpp"
#include "util/executor.hpp"

namespace tracered::core {
namespace {

TEST(ReductionConfig, DefaultsUsePaperThresholds) {
  for (Method m : allMethods()) {
    const ReductionConfig cfg = ReductionConfig::defaults(m);
    EXPECT_EQ(cfg.method, m);
    EXPECT_DOUBLE_EQ(cfg.threshold, defaultThreshold(m));
    EXPECT_EQ(cfg.executor, nullptr);
  }
}

TEST(ReductionConfig, ToStringRoundTripsForEveryMethod) {
  for (Method m : allMethods()) {
    for (double thr : studyThresholds(m)) {
      const ReductionConfig cfg{m, thr};
      const ReductionConfig back = ReductionConfig::fromName(cfg.toString());
      EXPECT_EQ(back.method, m) << cfg.toString();
      EXPECT_DOUBLE_EQ(back.threshold, thr) << cfg.toString();
    }
    // Default-threshold configs round-trip too (iter_avg has no threshold
    // and serializes to the bare name).
    const ReductionConfig def = ReductionConfig::defaults(m);
    const ReductionConfig back = ReductionConfig::fromName(def.toString());
    EXPECT_EQ(back.method, m);
    EXPECT_DOUBLE_EQ(back.threshold, def.threshold);
  }
  EXPECT_EQ(ReductionConfig({Method::kAvgWave, 0.2}).toString(), "avgWave@0.2");
  EXPECT_EQ(ReductionConfig({Method::kAbsDiff, 1000.0}).toString(), "absDiff@1000");
  EXPECT_EQ(ReductionConfig::defaults(Method::kIterAvg).toString(), "iter_avg");
}

TEST(ReductionConfig, ToStringIsLosslessForAwkwardThresholds) {
  // Thresholds needing more than %g's default 6 significant digits must
  // still round-trip bit-exactly (a sweep log replayed through fromName()
  // has to reproduce the logged run).
  for (double thr : {0.1234567890123, 1.0 / 3.0, 1e-9, 123456.789012345}) {
    const ReductionConfig cfg{Method::kEuclidean, thr};
    const ReductionConfig back = ReductionConfig::fromName(cfg.toString());
    EXPECT_EQ(back.threshold, thr) << cfg.toString();
  }
}

TEST(ReductionConfig, FromNameBareMethodGetsDefaultThreshold) {
  const ReductionConfig cfg = ReductionConfig::fromName("Euclidean");
  EXPECT_EQ(cfg.method, Method::kEuclidean);
  EXPECT_DOUBLE_EQ(cfg.threshold, defaultThreshold(Method::kEuclidean));
}

TEST(ReductionConfig, FromNameAcceptsUserTypedCase) {
  EXPECT_EQ(ReductionConfig::fromName("manhattan").method, Method::kManhattan);
  EXPECT_EQ(ReductionConfig::fromName("AVGWAVE@0.4").method, Method::kAvgWave);
  EXPECT_DOUBLE_EQ(ReductionConfig::fromName("AVGWAVE@0.4").threshold, 0.4);
  EXPECT_DOUBLE_EQ(ReductionConfig::fromName("absdiff@1e3").threshold, 1000.0);
}

TEST(ReductionConfig, FromNameRejectsUnknownMethodListingValidNames) {
  try {
    ReductionConfig::fromName("wavelets@0.2");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'wavelets'"), std::string::npos) << what;
    EXPECT_NE(what.find("relDiff"), std::string::npos) << what;
    EXPECT_NE(what.find("iter_avg"), std::string::npos) << what;
  }
}

TEST(ReductionConfig, FromNameRejectsMalformedThresholds) {
  EXPECT_THROW(ReductionConfig::fromName("avgWave@"), std::invalid_argument);
  EXPECT_THROW(ReductionConfig::fromName("avgWave@abc"), std::invalid_argument);
  EXPECT_THROW(ReductionConfig::fromName("avgWave@0.2x"), std::invalid_argument);
  EXPECT_THROW(ReductionConfig::fromName("avgWave@0.2@0.3"), std::invalid_argument);
  EXPECT_THROW(ReductionConfig::fromName(""), std::invalid_argument);
  EXPECT_THROW(ReductionConfig::fromName("@0.2"), std::invalid_argument);
  // stod parses these, but no similarity threshold means them.
  EXPECT_THROW(ReductionConfig::fromName("avgWave@nan"), std::invalid_argument);
  EXPECT_THROW(ReductionConfig::fromName("avgWave@inf"), std::invalid_argument);
  EXPECT_THROW(ReductionConfig::fromName("avgWave@-0.2"), std::invalid_argument);
}

TEST(ReductionConfig, FromNameRejectsNonIntegerOrNonPositiveIterK) {
  // Regression for the dangling-representative bug: iter_k@0 used to parse
  // fine and record execs against a representative that was never stored.
  EXPECT_THROW(ReductionConfig::fromName("iter_k@0"), std::invalid_argument);
  EXPECT_THROW(ReductionConfig::fromName("iter_k@-3"), std::invalid_argument);
  EXPECT_THROW(ReductionConfig::fromName("iter_k@2.5"), std::invalid_argument);
  EXPECT_THROW(ReductionConfig::fromName("ITER_K@0.5"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(ReductionConfig::fromName("iter_k@1").threshold, 1.0);
  EXPECT_DOUBLE_EQ(ReductionConfig::fromName("ITER_K@10").threshold, 10.0);
  EXPECT_DOUBLE_EQ(ReductionConfig::fromName("iter_k").threshold, 10.0);  // default
}

TEST(ReductionConfig, WithExecutorSetsOnlyTheExecutor) {
  util::PooledExecutor exec(1);
  const ReductionConfig base{Method::kHaarWave, 0.6};
  const ReductionConfig wired = base.withExecutor(exec);
  EXPECT_EQ(wired.method, base.method);
  EXPECT_DOUBLE_EQ(wired.threshold, base.threshold);
  EXPECT_EQ(wired.executor, &exec);
  EXPECT_EQ(base.executor, nullptr);  // original untouched
}

TEST(ReductionConfig, MakePolicyInstantiatesTheConfiguredMethod) {
  for (Method m : allMethods()) {
    auto policy = ReductionConfig::defaults(m).makePolicy();
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), methodName(m));
  }
}

}  // namespace
}  // namespace tracered::core
