#include "gen/alpha_solver.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>

#include "util/math.hpp"

namespace pglb {

namespace {

struct Moments {
  double s0 = 0.0;   ///< sum d^-alpha
  double s1 = 0.0;   ///< sum d^(1-alpha)
  double ds0 = 0.0;  ///< d/dalpha s0 = -sum ln(d) d^-alpha
  double ds1 = 0.0;  ///< d/dalpha s1 = -sum ln(d) d^(1-alpha)
};

Moments compute_moments(double alpha, std::uint64_t support) {
  KahanSum s0, s1, ds0, ds1;
  for (std::uint64_t d = 1; d <= support; ++d) {
    const double dd = static_cast<double>(d);
    const double ld = std::log(dd);
    const double p = std::exp(-alpha * ld);  // d^-alpha
    const double q = dd * p;                 // d^(1-alpha)
    s0.add(p);
    s1.add(q);
    ds0.add(-ld * p);
    ds1.add(-ld * q);
  }
  return Moments{s0.value(), s1.value(), ds0.value(), ds1.value()};
}

std::uint64_t effective_support(VertexId num_vertices, const AlphaSolverOptions& options) {
  std::uint64_t support = options.degree_support;
  if (support == 0) {
    support = num_vertices > 1 ? static_cast<std::uint64_t>(num_vertices) - 1 : 1;
  }
  return std::clamp<std::uint64_t>(support, 1, options.support_cap);
}

/// Memo of fit_alpha_clamped, keyed by its exact inputs (doubles by bit
/// pattern) and cleared when full: a refit only costs time, never bytes.
using FitKey = std::array<std::uint64_t, 9>;
constexpr std::size_t kFitMemoCapacity = 4096;

struct FitMemo {
  std::mutex mutex;
  std::map<FitKey, double> fits;
};

FitMemo& fit_memo() {
  static FitMemo memo;
  return memo;
}

double fit_alpha_unmemoized(VertexId num_vertices, EdgeId num_edges,
                            const AlphaSolverOptions& options) {
  const std::uint64_t support = effective_support(num_vertices, options);
  const double target_mean =
      static_cast<double>(num_edges) / static_cast<double>(num_vertices);
  if (target_mean >= powerlaw_mean_degree(options.min_alpha, support)) {
    return options.min_alpha;  // denser than any representable power law
  }
  if (target_mean <= powerlaw_mean_degree(options.max_alpha, support)) {
    return options.max_alpha;  // sparser than any representable power law
  }
  return solve_alpha(num_vertices, num_edges, options).alpha;
}

}  // namespace

double powerlaw_mean_degree(double alpha, std::uint64_t degree_support) {
  if (degree_support == 0) throw std::invalid_argument("powerlaw_mean_degree: support must be >= 1");
  const Moments m = compute_moments(alpha, degree_support);
  return m.s1 / m.s0;
}

AlphaResult solve_alpha(VertexId num_vertices, EdgeId num_edges,
                        const AlphaSolverOptions& options) {
  if (num_vertices == 0) throw std::invalid_argument("solve_alpha: graph has no vertices");
  const std::uint64_t support = effective_support(num_vertices, options);
  const double target_mean =
      static_cast<double>(num_edges) / static_cast<double>(num_vertices);

  // The truncated power law's mean degree spans (1, mean at min_alpha);
  // reject targets we cannot represent.
  const double max_mean = powerlaw_mean_degree(options.min_alpha, support);
  if (target_mean < 1.0 || target_mean > max_mean) {
    throw std::invalid_argument(
        "solve_alpha: mean degree " + std::to_string(target_mean) +
        " outside representable range (1, " + std::to_string(max_mean) + ")");
  }

  AlphaResult result;
  double alpha = std::clamp(options.initial_alpha, options.min_alpha, options.max_alpha);
  for (int it = 0; it < options.max_iterations; ++it) {
    const Moments m = compute_moments(alpha, support);
    const double f = m.s1 / m.s0 - target_mean;
    result.alpha = alpha;
    result.iterations = it + 1;
    result.residual = std::abs(f);
    if (result.residual < options.tolerance) {
      result.converged = true;
      return result;
    }
    // F' = (s1' s0 - s1 s0') / s0^2
    const double fprime = (m.ds1 * m.s0 - m.s1 * m.ds0) / (m.s0 * m.s0);
    if (fprime == 0.0 || !std::isfinite(fprime)) break;
    double next = alpha - f / fprime;
    if (!std::isfinite(next)) break;
    // Dampen runaway steps: bisect toward the clamp boundary instead of
    // jumping outside the bracket.
    next = std::clamp(next, options.min_alpha, options.max_alpha);
    if (next == alpha) {
      result.converged = result.residual < options.tolerance;
      return result;
    }
    alpha = next;
  }
  return result;
}

double fit_alpha_clamped(VertexId num_vertices, EdgeId num_edges,
                         const AlphaSolverOptions& options) {
  if (num_vertices == 0) {
    throw std::invalid_argument("fit_alpha_clamped: graph has no vertices");
  }
  const FitKey key{num_vertices,
                   num_edges,
                   options.degree_support,
                   options.support_cap,
                   std::bit_cast<std::uint64_t>(options.initial_alpha),
                   std::bit_cast<std::uint64_t>(options.tolerance),
                   static_cast<std::uint64_t>(options.max_iterations),
                   std::bit_cast<std::uint64_t>(options.min_alpha),
                   std::bit_cast<std::uint64_t>(options.max_alpha)};
  FitMemo& memo = fit_memo();
  {
    const std::lock_guard<std::mutex> lock(memo.mutex);
    if (const auto it = memo.fits.find(key); it != memo.fits.end()) return it->second;
  }
  const double alpha = fit_alpha_unmemoized(num_vertices, num_edges, options);
  const std::lock_guard<std::mutex> lock(memo.mutex);
  if (memo.fits.size() >= kFitMemoCapacity) memo.fits.clear();
  memo.fits.emplace(key, alpha);
  return alpha;
}

}  // namespace pglb
