// Character-level (edit/alignment-based) similarity functions.
//
// All edit and alignment distances operate on a bounded prefix of the input
// (kMaxAlignmentLength characters) so that long free-text attributes such as
// product descriptions do not blow up feature-extraction cost. The public EM
// datasets' discriminative signal for these functions lives in short
// attributes (names, titles), which fit well under the cap. The cap is one
// machine word, so Levenshtein, Damerau-Levenshtein (OSA) and the longest
// common subsequence run as bit-parallel word operations, one word step per
// character of b; the four alignment scores go through the kernel
// backend's integer align_scores (docs/kernels.md). Jaro is uncapped and
// bit-parallel over ceil(|b| / 64) words.

#ifndef ALEM_SIM_EDIT_BASED_H_
#define ALEM_SIM_EDIT_BASED_H_

#include <cstddef>
#include <string_view>

#include "sim/similarity.h"

namespace alem {

// Maximum prefix length, in bytes, that every function here except Identity
// and Jaro(-Winkler) considers.
inline constexpr size_t kMaxAlignmentLength = 64;

// Exact string equality on the normalized text (Simmetrics "Identity").
class IdentitySimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "Identity"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// 1 - levenshtein(a, b) / max(|a|, |b|).
class LevenshteinSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "Levenshtein"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// Optimal-string-alignment variant of Damerau-Levenshtein (adjacent
// transpositions cost 1), normalized like Levenshtein.
class DamerauLevenshteinSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "DamerauLevenshtein"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// Jaro similarity.
class JaroSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "Jaro"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// Jaro-Winkler with the standard prefix scale 0.1 and max prefix 4.
class JaroWinklerSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "JaroWinkler"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// Global alignment (Needleman-Wunsch) with match +1, mismatch -1, gap -1,
// normalized to [0, 1] by (score + maxLen) / (2 * maxLen).
class NeedlemanWunschSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "NeedlemanWunsch"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
  void EvaluateChunk(const AttributeProfile* const* left,
                     const AttributeProfile* const* right, size_t begin,
                     size_t end, float* out) const override;
};

// Local alignment (Smith-Waterman) with match +1, mismatch -1, gap -0.5,
// normalized by min(|a|, |b|).
class SmithWatermanSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "SmithWaterman"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
  void EvaluateChunk(const AttributeProfile* const* left,
                     const AttributeProfile* const* right, size_t begin,
                     size_t end, float* out) const override;
};

// Smith-Waterman with Gotoh affine gaps (open -0.5, extend -0.25),
// normalized by min(|a|, |b|).
class SmithWatermanGotohSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "SmithWatermanGotoh"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
  void EvaluateChunk(const AttributeProfile* const* left,
                     const AttributeProfile* const* right, size_t begin,
                     size_t end, float* out) const override;
};

// Longest common subsequence: 2 * lcs / (|a| + |b|).
class LongestCommonSubsequenceSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override {
    return "LongestCommonSubsequence";
  }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// Longest common contiguous substring: lcstr / max(|a|, |b|).
class LongestCommonSubstringSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "LongestCommonSubstring"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
  void EvaluateChunk(const AttributeProfile* const* left,
                     const AttributeProfile* const* right, size_t begin,
                     size_t end, float* out) const override;
};

namespace internal_edit {

// Raw Jaro similarity on string views (shared with Monge-Elkan's inner
// metric). Exposed for tests.
double JaroRaw(std::string_view a, std::string_view b);

// Raw Jaro-Winkler on string views (Monge-Elkan's inner metric).
double JaroWinklerRaw(std::string_view a, std::string_view b);

// Raw Levenshtein distance (uncapped). Exposed for tests.
int LevenshteinDistance(std::string_view a, std::string_view b);

}  // namespace internal_edit

}  // namespace alem

#endif  // ALEM_SIM_EDIT_BASED_H_
