#include "blocking/jaccard_blocking.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "obs/obs.h"
#include "text/tokenizer.h"
#include "util/check.h"

namespace alem {
namespace internal_blocking {
namespace {

// Interns tokens across both tables so records hold compact int ids.
class TokenDictionary {
 public:
  int Intern(const std::string& token) {
    const auto [it, inserted] =
        ids_.emplace(token, static_cast<int>(ids_.size()));
    (void)inserted;
    return it->second;
  }
  size_t size() const { return ids_.size(); }

 private:
  std::unordered_map<std::string, int> ids_;
};

std::vector<std::vector<int>> TokenizeWithDictionary(
    const Table& table, const std::vector<int>& columns,
    TokenDictionary* dictionary) {
  std::vector<std::vector<int>> result(table.num_rows());
  std::string concatenated;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    concatenated.clear();
    for (const int column : columns) {
      concatenated.append(table.Value(row, static_cast<size_t>(column)));
      concatenated.push_back(' ');
    }
    std::vector<int>& ids = result[row];
    for (const std::string& token : TokenizeWords(concatenated)) {
      ids.push_back(dictionary->Intern(token));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  return result;
}

struct TokenizedDataset {
  std::vector<std::vector<int>> left;
  std::vector<std::vector<int>> right;
};

TokenizedDataset TokenizeDataset(const EmDataset& dataset) {
  std::vector<int> left_columns;
  std::vector<int> right_columns;
  for (const MatchedColumns& mc : dataset.matched_columns) {
    left_columns.push_back(mc.left_column);
    right_columns.push_back(mc.right_column);
  }
  TokenDictionary dictionary;
  TokenizedDataset tokenized;
  tokenized.left =
      TokenizeWithDictionary(dataset.left, left_columns, &dictionary);
  tokenized.right =
      TokenizeWithDictionary(dataset.right, right_columns, &dictionary);
  return tokenized;
}

}  // namespace

std::vector<std::vector<int>> TokenizeRecords(const Table& table,
                                              const std::vector<int>& columns) {
  TokenDictionary dictionary;
  return TokenizeWithDictionary(table, columns, &dictionary);
}

double SortedJaccard(const std::vector<int>& a, const std::vector<int>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t i = 0, j = 0, intersection = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++intersection;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t unions = a.size() + b.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(unions);
}

}  // namespace internal_blocking

namespace {

// Reports the size of an offline-blocking result to the metrics registry.
void CountCandidatePairs(size_t pairs) {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("blocking.candidate_pairs");
  counter.Add(pairs);
}

}  // namespace

std::vector<RecordPair> JaccardBlocking(const EmDataset& dataset,
                                        const BlockingConfig& config) {
  obs::ObsSpan span("blocking.jaccard", "blocking");
  using internal_blocking::TokenizeDataset;
  ALEM_CHECK_GT(config.jaccard_threshold, 0.0);
  const auto tokenized = TokenizeDataset(dataset);

  // Inverted index: token id -> right-record ids containing it.
  std::unordered_map<int, std::vector<uint32_t>> index;
  for (uint32_t r = 0; r < tokenized.right.size(); ++r) {
    for (const int token : tokenized.right[r]) {
      index[token].push_back(r);
    }
  }

  std::vector<RecordPair> pairs;
  std::unordered_map<uint32_t, int> overlap;  // right id -> shared tokens.
  for (uint32_t l = 0; l < tokenized.left.size(); ++l) {
    const std::vector<int>& left_tokens = tokenized.left[l];
    if (left_tokens.empty()) continue;
    overlap.clear();
    for (const int token : left_tokens) {
      const auto it = index.find(token);
      if (it == index.end()) continue;
      for (const uint32_t r : it->second) ++overlap[r];
    }
    for (const auto& [r, shared] : overlap) {
      const size_t unions =
          left_tokens.size() + tokenized.right[r].size() -
          static_cast<size_t>(shared);
      const double jaccard =
          static_cast<double>(shared) / static_cast<double>(unions);
      if (jaccard >= config.jaccard_threshold) {
        pairs.push_back(RecordPair{l, r});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const RecordPair& a,
                                           const RecordPair& b) {
    return a.left != b.left ? a.left < b.left : a.right < b.right;
  });
  CountCandidatePairs(pairs.size());
  return pairs;
}

std::vector<RecordPair> JaccardBlockingBruteForce(
    const EmDataset& dataset, const BlockingConfig& config) {
  obs::ObsSpan span("blocking.brute_force", "blocking");
  using internal_blocking::SortedJaccard;
  using internal_blocking::TokenizeDataset;
  const auto tokenized = TokenizeDataset(dataset);

  std::vector<RecordPair> pairs;
  for (uint32_t l = 0; l < tokenized.left.size(); ++l) {
    if (tokenized.left[l].empty()) continue;
    for (uint32_t r = 0; r < tokenized.right.size(); ++r) {
      if (tokenized.right[r].empty()) continue;
      if (SortedJaccard(tokenized.left[l], tokenized.right[r]) >=
          config.jaccard_threshold) {
        pairs.push_back(RecordPair{l, r});
      }
    }
  }
  return pairs;
}

double BlockingRecall(const EmDataset& dataset,
                      const std::vector<RecordPair>& pairs) {
  if (dataset.truth.num_matches() == 0) return 1.0;
  size_t retained = 0;
  for (const RecordPair& pair : pairs) {
    if (dataset.truth.IsMatch(pair)) ++retained;
  }
  return static_cast<double>(retained) /
         static_cast<double>(dataset.truth.num_matches());
}

}  // namespace alem
