#include "core/oracle.h"

#include <utility>

#include "obs/obs.h"
#include "util/byte_codec.h"
#include "util/check.h"

namespace alem {
namespace {

// "ORCL" for the noisy oracles: the query count (u64), the RNG stream
// (Rng::SaveState, as a length-prefixed string), and the flip cache's
// resolved entries as a u64 count and then, in ascending row order, each
// row (u64) and its label (u8).
std::string SaveNoisyState(size_t queries, const Rng& rng,
                           const std::vector<int8_t>& cached) {
  ByteWriter w;
  w.U64(queries);
  w.Str(rng.SaveState());
  uint64_t resolved = 0;
  for (const int8_t entry : cached) resolved += entry >= 0 ? 1 : 0;
  w.U64(resolved);
  for (size_t row = 0; row < cached.size(); ++row) {
    if (cached[row] < 0) continue;
    w.U64(row);
    w.U8(static_cast<uint8_t>(cached[row]));
  }
  return w.Take();
}

// Rejects a row past the pool, a row out of ascending order, and a label
// other than 0 or 1, leaving the oracle unchanged.
bool RestoreNoisyState(std::string_view state, size_t* queries, Rng* rng,
                       std::vector<int8_t>* cached) {
  ByteReader r(state);
  uint64_t query_count = 0;
  std::string rng_state;
  Rng restored_rng(0);
  uint64_t resolved = 0;
  if (!r.U64(&query_count) || !r.Str(&rng_state) ||
      !restored_rng.RestoreState(rng_state) ||
      !r.Count(&resolved, sizeof(uint64_t) + sizeof(uint8_t))) {
    return false;
  }
  std::vector<int8_t> restored_cache(cached->size(), -1);
  uint64_t next_row = 0;
  for (uint64_t i = 0; i < resolved; ++i) {
    uint64_t row = 0;
    uint8_t label = 0;
    if (!r.U64(&row) || !r.U8(&label) || row < next_row ||
        row >= restored_cache.size() || label > 1) {
      return false;
    }
    restored_cache[row] = static_cast<int8_t>(label);
    next_row = row + 1;
  }
  if (!r.AtEnd()) return false;
  *queries = static_cast<size_t>(query_count);
  *rng = restored_rng;
  *cached = std::move(restored_cache);
  return true;
}

}  // namespace

void Oracle::CountQuery() {
  ++queries_;
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("oracle.queries");
  counter.Increment();
}

std::string Oracle::SaveState() const {
  ByteWriter w;
  w.U64(queries_);
  return w.Take();
}

bool Oracle::RestoreState(const std::string& state) {
  ByteReader r(state);
  uint64_t query_count = 0;
  if (!r.U64(&query_count) || !r.AtEnd()) return false;
  queries_ = static_cast<size_t>(query_count);
  return true;
}

PerfectOracle::PerfectOracle(std::vector<int> truth)
    : truth_(std::move(truth)) {}

int PerfectOracle::Label(size_t row) {
  ALEM_CHECK_LT(row, truth_.size());
  CountQuery();
  return truth_[row];
}

NoisyOracle::NoisyOracle(std::vector<int> truth, double noise, uint64_t seed)
    : truth_(std::move(truth)),
      cached_(truth_.size(), -1),
      noise_(noise),
      rng_(seed) {
  ALEM_CHECK_GE(noise, 0.0);
  ALEM_CHECK_LE(noise, 1.0);
}

int NoisyOracle::Label(size_t row) {
  ALEM_CHECK_LT(row, truth_.size());
  CountQuery();
  if (cached_[row] < 0) {
    const bool flip = rng_.NextBernoulli(noise_);
    cached_[row] = static_cast<int8_t>(flip ? 1 - truth_[row] : truth_[row]);
  }
  return cached_[row];
}

std::string NoisyOracle::SaveState() const {
  return SaveNoisyState(queries(), rng_, cached_);
}

bool NoisyOracle::RestoreState(const std::string& state) {
  size_t query_count = 0;
  if (!RestoreNoisyState(state, &query_count, &rng_, &cached_)) return false;
  set_queries(query_count);
  return true;
}

MajorityVoteOracle::MajorityVoteOracle(std::vector<int> truth, double noise,
                                       int num_voters, uint64_t seed)
    : truth_(std::move(truth)),
      cached_(truth_.size(), -1),
      noise_(noise),
      num_voters_(num_voters),
      rng_(seed) {
  ALEM_CHECK_GE(noise, 0.0);
  ALEM_CHECK_LE(noise, 1.0);
  ALEM_CHECK_GE(num_voters, 1);
  ALEM_CHECK_EQ(num_voters % 2, 1);  // Odd, so the majority is defined.
}

int MajorityVoteOracle::Label(size_t row) {
  ALEM_CHECK_LT(row, truth_.size());
  CountQuery();
  if (cached_[row] < 0) {
    int positive_votes = 0;
    for (int voter = 0; voter < num_voters_; ++voter) {
      const bool flip = rng_.NextBernoulli(noise_);
      positive_votes += flip ? 1 - truth_[row] : truth_[row];
    }
    cached_[row] =
        static_cast<int8_t>(2 * positive_votes > num_voters_ ? 1 : 0);
  }
  return cached_[row];
}

std::string MajorityVoteOracle::SaveState() const {
  return SaveNoisyState(queries(), rng_, cached_);
}

bool MajorityVoteOracle::RestoreState(const std::string& state) {
  size_t query_count = 0;
  if (!RestoreNoisyState(state, &query_count, &rng_, &cached_)) return false;
  set_queries(query_count);
  return true;
}

}  // namespace alem
