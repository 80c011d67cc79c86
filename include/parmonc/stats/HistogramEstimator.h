//===- parmonc/stats/HistogramEstimator.h - Density estimation ------------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §2.1 closes with "the above-mentioned matrices ... give exhaustive
/// information" — for means. Many stochastic-simulation users also need
/// the *distribution* of a scalar observable. HistogramEstimator
/// accumulates a fixed-grid histogram with the same algebraic properties
/// the engine requires of EstimatorMatrix: counts are raw sums, so
/// cross-processor merging and resumption are exact additions, and the
/// density estimate with its per-bin 3σ error falls out of the binomial
/// counts.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_STATS_HISTOGRAMESTIMATOR_H
#define PARMONC_STATS_HISTOGRAMESTIMATOR_H

#include "parmonc/support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace parmonc {

/// A fixed, equal-width binning of [Low, High) with underflow/overflow
/// side bins. Exactly mergeable.
class HistogramEstimator {
public:
  /// \p BinCount >= 1 equal bins covering [\p Low, \p High), Low < High.
  HistogramEstimator(double Low, double High, size_t BinCount);

  /// Default: unit interval, 64 bins.
  HistogramEstimator() : HistogramEstimator(0.0, 1.0, 64) {}

  double low() const { return Low; }
  double high() const { return High; }
  size_t binCount() const { return Counts.size(); }
  double binWidth() const { return (High - Low) / double(Counts.size()); }

  /// Total observations including the side bins.
  int64_t totalCount() const { return Total; }
  int64_t underflowCount() const { return Underflow; }
  int64_t overflowCount() const { return Overflow; }

  /// Adds one observation.
  void add(double Value);

  /// Raw count of bin \p Index.
  int64_t countOf(size_t Index) const;

  /// Every bin's raw count, in bin order.
  const std::vector<int64_t> &counts() const { return Counts; }

  /// Left edge of bin \p Index.
  double binLeftEdge(size_t Index) const;

  /// Estimated probability mass of bin \p Index: count / total.
  double massOf(size_t Index) const;

  /// Estimated density at bin \p Index: mass / bin width.
  double densityOf(size_t Index) const;

  /// 3σ absolute error of the bin's mass estimate (binomial):
  /// 3 sqrt(p(1-p)/n) with p the estimated mass.
  double massErrorOf(size_t Index, double ErrorMultiplier = 3.0) const;

  /// Exact merge of another histogram with identical geometry.
  [[nodiscard]] Status merge(const HistogramEstimator &Other);

  /// Serializes to a line-oriented text format (same conventions as the
  /// snapshot files).
  std::string toFileContents() const;

  /// Parses the text format back.
  [[nodiscard]] static Result<HistogramEstimator> fromFileContents(
      std::string_view Contents);

  /// Rebuilds a histogram from its raw counts — the one place every
  /// decoder enforces the invariants: Low < High, at least one bin, and
  /// no negative count.
  [[nodiscard]] static Result<HistogramEstimator>
  fromCounts(double Low, double High, std::vector<int64_t> Counts,
             int64_t Underflow, int64_t Overflow);

  /// Empirical CDF at \p Value (fraction of observations <= Value,
  /// resolved at bin granularity; side bins count as below/above).
  double cdfAt(double Value) const;

  void reset();

private:
  double Low;
  double High;
  std::vector<int64_t> Counts;
  int64_t Underflow = 0;
  int64_t Overflow = 0;
  int64_t Total = 0;
};

} // namespace parmonc

#endif // PARMONC_STATS_HISTOGRAMESTIMATOR_H
