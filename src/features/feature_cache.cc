#include "features/feature_cache.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <utility>

#include "obs/obs.h"
#include "util/byte_codec.h"

namespace alem {
namespace {

void CountCacheHit() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("featurize.cache.hit");
  counter.Add(1);
}

void CountCacheMiss() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("featurize.cache.miss");
  counter.Add(1);
}

void CountCacheWrite() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("featurize.cache.write");
  counter.Add(1);
}

}  // namespace

std::string FeatureCacheKey::FileName() const {
  // Digest every field the matrix is a function of; the double is hashed
  // by bit pattern (scales are exact user inputs, not computed values).
  uint64_t hash = Fnv1a(dataset_name.data(), dataset_name.size());
  hash = Fnv1a(&profile_fingerprint, sizeof(profile_fingerprint), hash);
  hash = Fnv1a(&data_seed, sizeof(data_seed), hash);
  hash = Fnv1a(&scale, sizeof(scale), hash);
  hash = Fnv1a(&sim_fingerprint, sizeof(sim_fingerprint), hash);
  hash = Fnv1a(&num_dims, sizeof(num_dims), hash);

  std::string sanitized;
  sanitized.reserve(dataset_name.size());
  for (const char c : dataset_name) {
    sanitized.push_back(
        std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(hash));
  return sanitized + "-" + digest + ".fmat";
}

FeatureCache::FeatureCache(std::string dir) : dir_(std::move(dir)) {}

std::string FeatureCache::ResolveDir(const std::string& override_dir) {
  if (!override_dir.empty()) return override_dir;
  const char* env = std::getenv("ALEM_CACHE_DIR");
  return (env != nullptr && *env != '\0') ? std::string(env) : std::string();
}

std::string FeatureCache::EntryPath(const FeatureCacheKey& key) const {
  return dir_ + "/" + key.FileName();
}

bool FeatureCache::Load(const FeatureCacheKey& key, FeatureMatrix* out) const {
  if (!enabled()) {
    CountCacheMiss();
    return false;
  }
  std::ifstream file(EntryPath(key), std::ios::binary | std::ios::ate);
  if (!file.is_open()) {
    CountCacheMiss();
    return false;
  }
  // The payload is read straight into the matrix: a multi-MB entry takes
  // no intermediate buffer.
  const std::streamoff size = file.tellg();
  file.seekg(0);
  FeatureMatrix parsed;
  if (size < 0 ||
      !FeatureMatrix::DeserializeFrom(file, static_cast<size_t>(size),
                                      &parsed) ||
      parsed.dims() != key.num_dims) {
    CountCacheMiss();
    return false;
  }
  *out = std::move(parsed);
  CountCacheHit();
  return true;
}

bool FeatureCache::Store(const FeatureCacheKey& key,
                         const FeatureMatrix& matrix) const {
  if (!enabled()) return false;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return false;

  const std::string path = EntryPath(key);
  // Process-unique temp name so concurrent writers never interleave; the
  // rename publishes a complete file or nothing.
  const std::string tmp_path =
      path + ".tmp." +
      std::to_string(static_cast<unsigned long long>(
          std::hash<std::string>{}(path) ^
          static_cast<unsigned long long>(
              std::chrono::steady_clock::now().time_since_epoch().count())));
  {
    std::ofstream file(tmp_path, std::ios::binary | std::ios::trunc);
    if (!file.is_open()) return false;
    if (!matrix.SerializeTo(file)) {
      file.close();
      std::filesystem::remove(tmp_path, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    return false;
  }
  CountCacheWrite();
  return true;
}

}  // namespace alem
