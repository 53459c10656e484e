#include "blocking/jaccard_blocking.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
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
  size_t vocabulary = 0;  // Distinct tokens of both tables; ids are below.
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
  tokenized.vocabulary = dictionary.size();
  return tokenized;
}

}  // namespace

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
  const size_t vocabulary = tokenized.vocabulary;
  const size_t num_right = tokenized.right.size();

  // Inverted index in CSR form: the right records holding token t are
  // postings[offsets[t] .. offsets[t + 1]), ascending because records are
  // appended in id order.
  std::vector<uint32_t> offsets(vocabulary + 1, 0);
  std::vector<uint32_t> right_sizes(num_right);
  for (size_t r = 0; r < num_right; ++r) {
    right_sizes[r] = static_cast<uint32_t>(tokenized.right[r].size());
    for (const int token : tokenized.right[r]) ++offsets[token + 1];
  }
  for (size_t t = 0; t < vocabulary; ++t) offsets[t + 1] += offsets[t];
  std::vector<uint32_t> postings(offsets[vocabulary]);
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (uint32_t r = 0; r < num_right; ++r) {
    for (const int token : tokenized.right[r]) postings[cursor[token]++] = r;
  }

  // Shared-token count per right record for the current left record, and
  // the right records it made nonzero; only those are reset. Every probe
  // writes its right id to the next touched slot, and the slot advances on
  // a first touch only, so the probe loop has no data-dependent branch
  // (the one spare slot takes the writes once every right record is in).
  std::vector<uint32_t> overlap(num_right, 0);
  std::vector<uint32_t> touched(num_right + 1);
  uint32_t* const counts = overlap.data();
  uint32_t* const touched_ids = touched.data();
  std::vector<RecordPair> pairs;
  for (uint32_t l = 0; l < tokenized.left.size(); ++l) {
    const std::vector<int>& left_tokens = tokenized.left[l];
    size_t num_touched = 0;
    for (const int token : left_tokens) {
      const uint32_t* posting = postings.data() + offsets[token];
      const uint32_t* const end = postings.data() + offsets[token + 1];
      for (; posting != end; ++posting) {
        touched_ids[num_touched] = *posting;
        num_touched += counts[*posting]++ == 0 ? 1 : 0;
      }
    }
    const size_t first = pairs.size();
    for (size_t k = 0; k < num_touched; ++k) {
      const uint32_t r = touched_ids[k];
      const size_t shared = counts[r];
      counts[r] = 0;
      // SortedJaccard's arithmetic, so every decision matches the
      // brute-force reference.
      const size_t unions = left_tokens.size() + right_sizes[r] - shared;
      if (static_cast<double>(shared) / static_cast<double>(unions) >=
          config.jaccard_threshold) {
        pairs.push_back(RecordPair{l, r});
      }
    }
    std::sort(pairs.begin() + static_cast<std::ptrdiff_t>(first), pairs.end(),
              [](const RecordPair& a, const RecordPair& b) {
                return a.right < b.right;
              });
  }
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
