#include "sim/token_based.h"

#include <algorithm>
#include <cmath>

#include "sim/edit_based.h"

namespace alem {

double JaccardTokenSimilarity::ComputeNonNull(const AttributeProfile& a,
                                              const AttributeProfile& b) const {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const int unions = static_cast<int>(a.token_counts.distinct()) +
                     static_cast<int>(b.token_counts.distinct()) -
                     intersection;
  if (unions == 0) return 1.0;  // Both token sets empty (e.g., punctuation).
  return static_cast<double>(intersection) / unions;
}

double DiceTokenSimilarity::ComputeNonNull(const AttributeProfile& a,
                                           const AttributeProfile& b) const {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const size_t denom = a.token_counts.distinct() + b.token_counts.distinct();
  if (denom == 0) return 1.0;
  return 2.0 * intersection / static_cast<double>(denom);
}

double OverlapCoefficientSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const size_t denom =
      std::min(a.token_counts.distinct(), b.token_counts.distinct());
  if (denom == 0) {
    return a.token_counts.distinct() == b.token_counts.distinct() ? 1.0 : 0.0;
  }
  return static_cast<double>(intersection) / static_cast<double>(denom);
}

double CosineTokenSimilarity::ComputeNonNull(const AttributeProfile& a,
                                             const AttributeProfile& b) const {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const double denom =
      std::sqrt(static_cast<double>(a.token_counts.distinct()) *
                static_cast<double>(b.token_counts.distinct()));
  if (denom == 0.0) {
    return a.token_counts.distinct() == b.token_counts.distinct() ? 1.0 : 0.0;
  }
  return intersection / denom;
}

double MatchingCoefficientSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const size_t denom =
      std::max(a.token_counts.distinct(), b.token_counts.distinct());
  if (denom == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(denom);
}

double BlockDistanceSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  const int total = a.token_counts.total() + b.token_counts.total();
  if (total == 0) return 1.0;
  const int distance =
      CountedMultiset::L1Distance(a.token_counts, b.token_counts);
  return 1.0 - static_cast<double>(distance) / static_cast<double>(total);
}

double EuclideanSimilarity::ComputeNonNull(const AttributeProfile& a,
                                           const AttributeProfile& b) const {
  const double ta = a.token_counts.total();
  const double tb = b.token_counts.total();
  const double bound = std::sqrt(ta * ta + tb * tb);
  if (bound == 0.0) return 1.0;
  const double distance = std::sqrt(
      CountedMultiset::SquaredL2Distance(a.token_counts, b.token_counts));
  return 1.0 - distance / bound;
}

double MongeElkanSimilarity::ComputeNonNull(const AttributeProfile& a,
                                            const AttributeProfile& b) const {
  // Cost control: the inner loop is |A| * |B| Jaro-Winkler calls.
  constexpr size_t kMaxTokens = 30;
  const size_t na = std::min(a.tokens.size(), kMaxTokens);
  const size_t nb = std::min(b.tokens.size(), kMaxTokens);
  if (na == 0 || nb == 0) return na == nb ? 1.0 : 0.0;

  auto directed = [](const std::vector<std::string>& from,
                     const std::vector<std::string>& to, size_t nf,
                     size_t nt) {
    double sum = 0.0;
    for (size_t i = 0; i < nf; ++i) {
      double best = 0.0;
      for (size_t j = 0; j < nt; ++j) {
        best = std::max(best, internal_edit::JaroWinklerRaw(from[i], to[j]));
        if (best >= 1.0) break;
      }
      sum += best;
    }
    return sum / static_cast<double>(nf);
  };
  return 0.5 * (directed(a.tokens, b.tokens, na, nb) +
                directed(b.tokens, a.tokens, nb, na));
}

}  // namespace alem
