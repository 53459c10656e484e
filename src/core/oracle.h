// Oracles: the labeling authority queried by the active learner.
//
// PerfectOracle returns ground-truth labels. NoisyOracle models
// crowd-sourced labeling (Section 6.2): with a fixed probability the
// returned label is flipped. Flips are decided once per example and cached,
// so repeated queries are consistent, and the whole noise pattern is
// reproducible from the seed.

#ifndef ALEM_CORE_ORACLE_H_
#define ALEM_CORE_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace alem {

class Oracle {
 public:
  virtual ~Oracle() = default;

  // Label in {0, 1} for pool row `row`.
  virtual int Label(size_t row) = 0;

  // Number of labels handed out so far.
  size_t queries() const { return queries_; }

  // Serializes the oracle's mutable state in binary (the query count as a
  // u64; the noisy oracles add the RNG stream and the resolved flip-cache
  // entries), so a restored labeling session hands out the exact labels
  // the uninterrupted run would have (docs/sessions.md). RestoreState
  // returns false on malformed input, including the state of another kind
  // of oracle. The base implementations cover stateless oracles.
  virtual std::string SaveState() const;
  virtual bool RestoreState(const std::string& state);

 protected:
  // Bumps both the per-instance count and the global "oracle.queries"
  // metric (defined in oracle.cc to keep obs out of this header).
  void CountQuery();

  void set_queries(size_t n) { queries_ = n; }

 private:
  size_t queries_ = 0;
};

// Returns ground truth labels unchanged.
class PerfectOracle final : public Oracle {
 public:
  explicit PerfectOracle(std::vector<int> truth);
  int Label(size_t row) override;

 private:
  std::vector<int> truth_;
};

// Flips the ground-truth label with probability `noise`; the flip decision
// per row is made lazily on first query and cached.
class NoisyOracle final : public Oracle {
 public:
  NoisyOracle(std::vector<int> truth, double noise, uint64_t seed);
  int Label(size_t row) override;

  double noise() const { return noise_; }

  std::string SaveState() const override;
  bool RestoreState(const std::string& state) override;

 private:
  std::vector<int> truth_;
  std::vector<int8_t> cached_;  // -1 = not yet queried, else the label.
  double noise_;
  Rng rng_;
};

// Majority voting over independent noisy labelers — the label-correction
// technique the paper's Section 6.2 points to for practical crowdsourcing
// ("crowd-sourcing in practical scenarios warrant ... error correction
// techniques such as majority voting"). Each query asks `num_voters`
// (odd) independent noisy workers and returns the majority label; the
// effective flip rate drops from p to P[Binomial(n, p) > n/2].
class MajorityVoteOracle final : public Oracle {
 public:
  MajorityVoteOracle(std::vector<int> truth, double noise, int num_voters,
                     uint64_t seed);
  int Label(size_t row) override;

  int num_voters() const { return num_voters_; }

  std::string SaveState() const override;
  bool RestoreState(const std::string& state) override;

 private:
  std::vector<int> truth_;
  std::vector<int8_t> cached_;
  double noise_;
  int num_voters_;
  Rng rng_;
};

}  // namespace alem

#endif  // ALEM_CORE_ORACLE_H_
