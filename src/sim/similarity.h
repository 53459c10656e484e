// Similarity-function interface and registry.
//
// The paper's feature extractor applies the 21 similarity functions of the
// Java Simmetrics library to every aligned attribute pair. This module
// provides from-scratch implementations with uniform semantics:
//   * results are clamped to [0, 1], 1 meaning "identical";
//   * if either attribute value is null/missing, the similarity is 0
//     (Section 3 of the paper);
//   * functions consume pre-tokenized AttributeProfiles so tokenization cost
//     is paid once per record attribute, not once per function call.

#ifndef ALEM_SIM_SIMILARITY_H_
#define ALEM_SIM_SIMILARITY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "text/profile.h"

namespace alem {

// Base class for all similarity functions.
class SimilarityFunction {
 public:
  virtual ~SimilarityFunction() = default;

  // Similarity in [0, 1]; 0 when either profile is null.
  double Similarity(const AttributeProfile& a,
                    const AttributeProfile& b) const {
    if (a.is_null || b.is_null) return 0.0;
    return std::clamp(ComputeNonNull(a, b), 0.0, 1.0);
  }

  // Structure-of-arrays batch evaluation: out[i] = float(Similarity(
  // *left[i], *right[i])) for every i in [0, left.size()). Chunked over the
  // deterministic thread pool (region "sim.batch") when it is engaged;
  // results are bitwise-identical to per-pair Similarity() calls at any
  // thread count. `out` must hold left.size() floats; left/right must have
  // equal length.
  void EvaluateBatch(std::span<const AttributeProfile* const> left,
                     std::span<const AttributeProfile* const> right,
                     float* out) const;

  // Stable, human-readable name (appears in feature and rule-atom names).
  virtual std::string_view name() const = 0;

 protected:
  // Core computation; inputs are guaranteed non-null. May return slightly
  // out-of-range values due to floating-point error; the caller clamps.
  virtual double ComputeNonNull(const AttributeProfile& a,
                                const AttributeProfile& b) const = 0;

  // One contiguous chunk of EvaluateBatch. The default loops Similarity();
  // the alignment functions override it to score the whole chunk through
  // the kernel backend (kernels::KernelOps::align_scores) with the exact
  // integer arithmetic of their per-pair path.
  virtual void EvaluateChunk(const AttributeProfile* const* left,
                             const AttributeProfile* const* right,
                             size_t begin, size_t end, float* out) const;
};

// Number of similarity functions in the registry (matches the paper's 21).
inline constexpr int kNumSimilarityFunctions = 21;

// Bump whenever any similarity function changes semantics (or the registry
// changes order/membership): persistent feature-matrix caches key on the
// registry fingerprint, so a bump invalidates every cached matrix.
inline constexpr uint32_t kSimRegistryVersion = 1;

// Stable 64-bit fingerprint of the registry: kSimRegistryVersion plus the
// ordered function names. Feature caches mix it into their content hash so
// cached matrices go stale the moment the similarity semantics could have
// moved (see docs/featurization.md).
uint64_t SimRegistryFingerprint();

// The full registry, in a stable order. Index i of a feature vector block
// corresponds to AllSimilarityFunctions()[i]. The returned objects live for
// the duration of the program.
const std::vector<const SimilarityFunction*>& AllSimilarityFunctions();

// Indices (into AllSimilarityFunctions) of the 3 functions supported by the
// rule-based learner of Qian et al.: equality, Jaro-Winkler, and Jaccard
// (Section 3 of the paper).
const std::vector<int>& RuleSimilarityIndices();

// Looks up a registry index by function name; returns -1 when absent.
int SimilarityIndexByName(std::string_view name);

}  // namespace alem

#endif  // ALEM_SIM_SIMILARITY_H_
