#include "sim/similarity.h"

#include "obs/profile.h"
#include "parallel/pool.h"
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
  // Roofline accounting (obs/profile.h): one pair per output slot, input
  // bytes = both sides' raw text. The scope covers the ParallelFor fan-out,
  // so the region's seconds are the caller-observed batch wall time.
  static obs::profile::Region& profile_region =
      obs::profile::GetRegion("sim.batch");
  obs::profile::ScopedWork profile_scope(profile_region);
  if (profile_scope.engaged()) {
    uint64_t bytes = 0;
    for (size_t i = 0; i < left.size(); ++i) {
      bytes += left[i]->text.size() + right[i]->text.size();
    }
    profile_scope.Add(left.size(), bytes);
  }
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
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  const uint32_t version = kSimRegistryVersion;
  mix(&version, sizeof(version));
  for (const SimilarityFunction* function : AllSimilarityFunctions()) {
    const std::string_view name = function->name();
    mix(name.data(), name.size());
    mix("|", 1);
  }
  return hash;
}

}  // namespace alem
