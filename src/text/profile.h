// AttributeProfile: a cached, pre-tokenized view of one attribute value.
//
// The feature extractor applies 21 similarity functions to every attribute
// pair of every candidate record pair. Re-tokenizing the same attribute value
// for each of those calls would dominate runtime, so each record attribute is
// profiled exactly once (lower-cased string, word tokens, token multiset,
// 2-gram multiset) and the similarity functions consume profiles.

#ifndef ALEM_TEXT_PROFILE_H_
#define ALEM_TEXT_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace alem {

// Multiset stored as a flat array of (key, count) entries sorted by key,
// with cached aggregate statistics. Every pairwise operation is one linear
// merge of the two arrays. Counts are integers, so Dot, SquaredL2Distance
// and norm are exact sums of integers (well below 2^53) and come out the
// same whatever order the entries are visited in.
template <typename Key>
class FlatMultiset {
 public:
  FlatMultiset() = default;
  // Counts `items`; their order does not matter.
  explicit FlatMultiset(std::vector<Key> items);

  // Total number of items, with multiplicity.
  int total() const { return total_; }
  // Number of distinct items.
  size_t distinct() const { return entries_.size(); }
  // Euclidean norm of the count vector.
  double norm() const { return norm_; }

  int CountOf(const Key& item) const;

  // Size of the multiset intersection (sum of min counts).
  static int MultisetIntersection(const FlatMultiset& a,
                                  const FlatMultiset& b);
  // Number of distinct items present in both.
  static int SetIntersection(const FlatMultiset& a, const FlatMultiset& b);
  // Dot product of the two count vectors.
  static double Dot(const FlatMultiset& a, const FlatMultiset& b);
  // L1 distance between the count vectors.
  static int L1Distance(const FlatMultiset& a, const FlatMultiset& b);
  // Squared L2 distance between the count vectors.
  static double SquaredL2Distance(const FlatMultiset& a,
                                  const FlatMultiset& b);

 private:
  struct Entry {
    Key key;
    int count;
  };

  std::vector<Entry> entries_;  // Strictly ascending keys, counts > 0.
  int total_ = 0;
  double norm_ = 0.0;
};

extern template class FlatMultiset<std::string>;
extern template class FlatMultiset<uint16_t>;

// Multiset of word tokens.
using CountedMultiset = FlatMultiset<std::string>;

// Multiset of padded character bigrams (QGrams(text, 2)); the bigram "xy"
// is stored as the code (x << 8) | y of its two bytes.
using BigramMultiset = FlatMultiset<uint16_t>;

// Pre-tokenized view of one attribute value.
struct AttributeProfile {
  // True when the source value was empty/missing; every similarity function
  // evaluates to 0 against a null profile (Section 3 of the paper).
  bool is_null = true;

  // Lower-cased raw text.
  std::string text;

  // Word tokens, in order (for Monge-Elkan).
  std::vector<std::string> tokens;

  // Token multiset (for Jaccard/Dice/cosine/overlap/block/Euclidean).
  CountedMultiset token_counts;

  // Padded character 2-gram multiset (for the q-gram family).
  BigramMultiset bigram_counts;

  // Builds a profile; `raw` is stripped and lower-cased first.
  static AttributeProfile Build(std::string_view raw);
};

}  // namespace alem

#endif  // ALEM_TEXT_PROFILE_H_
