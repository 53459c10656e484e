// Offline blocking (Section 6 of the paper).
//
// The paper prunes the Cartesian product of record pairs with a Jaccard
// similarity threshold over the tokenized attributes of each pair (threshold
// 0.1875 on Abt-Buy/DBLP-ACM/DBLP-Scholar, 0.12 on Amazon-GoogleProducts,
// 0.16 on Cora and Walmart-Amazon). This module implements that step as one
// exact join: the right records' token ids form CSR posting lists, and each
// left record counts its shared tokens per right record in a dense counter
// array, so only pairs sharing at least one token are scored. A brute-force
// reference implementation lets the tests verify exact equivalence.

#ifndef ALEM_BLOCKING_JACCARD_BLOCKING_H_
#define ALEM_BLOCKING_JACCARD_BLOCKING_H_

#include <vector>

#include "data/dataset.h"

namespace alem {

struct BlockingConfig {
  // Minimum token-set Jaccard similarity for a pair to survive blocking.
  double jaccard_threshold = 0.1875;
};

// Candidate pairs whose tokenized matched-column concatenation has Jaccard
// similarity >= threshold. Output is sorted by (left, right).
std::vector<RecordPair> JaccardBlocking(const EmDataset& dataset,
                                        const BlockingConfig& config);

// O(|left| * |right|) reference implementation; identical output.
std::vector<RecordPair> JaccardBlockingBruteForce(const EmDataset& dataset,
                                                  const BlockingConfig& config);

// Fraction of ground-truth matches retained by `pairs` (blocking recall).
double BlockingRecall(const EmDataset& dataset,
                      const std::vector<RecordPair>& pairs);

namespace internal_blocking {

// Jaccard over two sorted unique int vectors.
double SortedJaccard(const std::vector<int>& a, const std::vector<int>& b);

}  // namespace internal_blocking

}  // namespace alem

#endif  // ALEM_BLOCKING_JACCARD_BLOCKING_H_
