#include "sim/similarity.h"

#include "parallel/pool.h"
#include "util/byte_codec.h"
#include "util/check.h"

namespace alem {
namespace {

// Chunk size for batch evaluation. Large enough that per-chunk overhead
// (span bookkeeping, the alignment kernels' 16-pair groups) is amortized,
// small enough that a few thousand pairs still fan out across workers.
constexpr size_t kBatchGrain = 256;

}  // namespace

void SimilarityFunction::EvaluateBatch(
    std::span<const AttributeProfile* const> left,
    std::span<const AttributeProfile* const> right, float* out) const {
  ALEM_CHECK_EQ(left.size(), right.size());
  if (left.empty()) return;
  parallel::ParallelFor(
      0, left.size(), kBatchGrain,
      [this, &left, &right, out](size_t begin, size_t end, size_t chunk) {
        (void)chunk;
        EvaluateChunk(left.data(), right.data(), begin, end, out);
      },
      "sim.batch");
}

void SimilarityFunction::EvaluateChunk(const AttributeProfile* const* left,
                                       const AttributeProfile* const* right,
                                       size_t begin, size_t end,
                                       float* out) const {
  for (size_t i = begin; i < end; ++i) {
    out[i] = static_cast<float>(Similarity(*left[i], *right[i]));
  }
}

uint64_t SimRegistryFingerprint() {
  // FNV-1a over the registry version and the ordered function names.
  const uint32_t version = kSimRegistryVersion;
  uint64_t hash = Fnv1a(&version, sizeof(version));
  for (const SimilarityFunction* function : AllSimilarityFunctions()) {
    const std::string_view name = function->name();
    hash = Fnv1a(name.data(), name.size(), hash);
    hash = Fnv1a("|", 1, hash);
  }
  return hash;
}

}  // namespace alem
