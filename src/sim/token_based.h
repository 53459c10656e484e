// Token-level similarity functions (word tokens produced by TokenizeWords).

#ifndef ALEM_SIM_TOKEN_BASED_H_
#define ALEM_SIM_TOKEN_BASED_H_

#include <string_view>

#include "sim/similarity.h"

namespace alem {

// Set Jaccard over word tokens: |A ∩ B| / |A ∪ B|. This is also the
// similarity used by offline blocking and one of the three functions
// available to the rule learner.
class JaccardTokenSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "Jaccard"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// Sorensen-Dice over distinct tokens: 2|A ∩ B| / (|A| + |B|).
class DiceTokenSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "Dice"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// Overlap coefficient: |A ∩ B| / min(|A|, |B|).
class OverlapCoefficientSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "OverlapCoefficient"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// Set cosine (Otsuka-Ochiai): |A ∩ B| / sqrt(|A| * |B|).
class CosineTokenSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "CosineTokens"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// Matching coefficient: |A ∩ B| / max(|A|, |B|).
class MatchingCoefficientSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "MatchingCoefficient"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// Block (L1/Manhattan) distance over token counts, normalized:
// 1 - L1(a, b) / (total(a) + total(b)).
class BlockDistanceSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "BlockDistance"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// Euclidean distance over token counts, normalized:
// 1 - L2(a, b) / sqrt(total(a)^2 + total(b)^2).
class EuclideanSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "Euclidean"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// Symmetric Monge-Elkan with Jaro-Winkler as the inner metric:
// mean over tokens of A of the best Jaro-Winkler match in B, averaged with
// the B-to-A direction. Token lists are capped for cost control.
class MongeElkanSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "MongeElkan"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

}  // namespace alem

#endif  // ALEM_SIM_TOKEN_BASED_H_
