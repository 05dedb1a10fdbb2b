#include "gen/alpha_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/stopwatch.hpp"

namespace pglb {
namespace {

TEST(PowerlawMeanDegree, DecreasesWithAlpha) {
  const std::uint64_t support = 10'000;
  double prev = powerlaw_mean_degree(1.5, support);
  for (double alpha : {1.8, 2.1, 2.5, 3.0}) {
    const double mean = powerlaw_mean_degree(alpha, support);
    EXPECT_LT(mean, prev);
    EXPECT_GT(mean, 1.0);
    prev = mean;
  }
}

TEST(PowerlawMeanDegree, RejectsZeroSupport) {
  EXPECT_THROW(powerlaw_mean_degree(2.0, 0), std::invalid_argument);
}

TEST(SolveAlpha, RoundTripsThroughTheMoment) {
  // For a given alpha, compute the implied mean degree, fabricate (V, E) with
  // that ratio, and check the solver recovers alpha.  This is the defining
  // property of Eq. 7.
  const VertexId v = 1'000'000;
  AlphaSolverOptions options;
  for (const double alpha : {1.9, 2.0, 2.1, 2.2, 2.3, 2.4}) {
    const std::uint64_t support = std::min<std::uint64_t>(v - 1, options.support_cap);
    const double mean = powerlaw_mean_degree(alpha, support);
    const auto edges = static_cast<EdgeId>(std::llround(mean * v));
    const auto result = solve_alpha(v, edges, options);
    EXPECT_TRUE(result.converged) << "alpha=" << alpha;
    EXPECT_NEAR(result.alpha, alpha, 0.01) << "alpha=" << alpha;
  }
}

TEST(SolveAlpha, PaperCorpusFallsInNaturalRange) {
  // Sec. III-A3: natural graphs have alpha roughly in [1.9, 2.4]; our Table
  // II graphs' (V, E) pairs should land in a sane band.
  struct Row {
    VertexId v;
    EdgeId e;
  };
  const Row rows[] = {
      {403'394, 3'387'388},      // amazon
      {3'774'768, 16'518'948},   // citation
      {4'847'571, 68'993'773},   // social network
      {2'394'385, 5'021'410},    // wiki
  };
  for (const Row& r : rows) {
    const auto result = solve_alpha(r.v, r.e);
    EXPECT_TRUE(result.converged);
    EXPECT_GT(result.alpha, 1.6);
    EXPECT_LT(result.alpha, 3.2);
  }
}

TEST(SolveAlpha, DenserGraphGivesSmallerAlpha) {
  const auto sparse = solve_alpha(1'000'000, 2'000'000);
  const auto dense = solve_alpha(1'000'000, 20'000'000);
  EXPECT_LT(dense.alpha, sparse.alpha);
}

TEST(SolveAlpha, RejectsDegenerateInputs) {
  EXPECT_THROW(solve_alpha(0, 10), std::invalid_argument);
  // Mean degree below 1 is unrepresentable by the truncated power law.
  EXPECT_THROW(solve_alpha(1'000'000, 100), std::invalid_argument);
}

TEST(SolveAlpha, RespectsExplicitSupport) {
  AlphaSolverOptions options;
  options.degree_support = 100;
  const double mean = powerlaw_mean_degree(2.0, 100);
  const auto result =
      solve_alpha(10'000, static_cast<EdgeId>(std::llround(mean * 10'000)), options);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.alpha, 2.0, 0.02);
}

TEST(SolveAlpha, ResidualIsTiny) {
  const auto result = solve_alpha(500'000, 5'000'000);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.residual, 1e-9);
  EXPECT_LE(result.iterations, 60);
}

TEST(SolveAlpha, IsFastEnoughForOnlineUse) {
  // Sec. III-A3 claims the alpha computation takes < 1 ms.  Our support cap
  // makes each Newton iteration O(10^6); allow generous slack for CI noise
  // but assert the same order of magnitude.
  const Stopwatch timer;
  (void)solve_alpha(4'847'571, 68'993'773);
  EXPECT_LT(timer.milliseconds(), 2000.0);
}

TEST(FitAlphaClamped, MemoizedFitEqualsTheSolveAndKeysOnOptions) {
  const double fitted = fit_alpha_clamped(700'001, 7'000'003);
  EXPECT_EQ(fitted, solve_alpha(700'001, 7'000'003).alpha);
  EXPECT_EQ(fit_alpha_clamped(700'001, 7'000'003), fitted);  // served from the memo

  AlphaSolverOptions narrow;
  narrow.degree_support = 1000;
  const double narrow_fit = fit_alpha_clamped(700'001, 7'000'003, narrow);
  EXPECT_EQ(narrow_fit, solve_alpha(700'001, 7'000'003, narrow).alpha);
  EXPECT_NE(narrow_fit, fitted);
  EXPECT_THROW(fit_alpha_clamped(0, 10), std::invalid_argument);
}

}  // namespace
}  // namespace pglb
