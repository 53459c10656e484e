#include "text/profile.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "text/tokenizer.h"
#include "util/string_util.h"

namespace alem {
namespace {

// Walks two sorted entry arrays in key order, calling both(ca, cb) for a
// key present in both and only(c) for a key present in one.
template <typename Entry, typename Both, typename Only>
void MergeCounts(const std::vector<Entry>& a, const std::vector<Entry>& b,
                 Both both, Only only) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].key < b[j].key) {
      only(a[i++].count);
    } else if (b[j].key < a[i].key) {
      only(b[j++].count);
    } else {
      both(a[i++].count, b[j++].count);
    }
  }
  for (; i < a.size(); ++i) only(a[i].count);
  for (; j < b.size(); ++j) only(b[j].count);
}

// Padded character bigrams of already lower-cased text, as codes: the
// same grams QGrams(text, 2) returns, in the same order.
std::vector<uint16_t> BigramCodes(std::string_view text) {
  std::vector<uint16_t> codes;
  if (text.empty()) return codes;
  codes.reserve(text.size() + 1);
  unsigned previous = '#';
  for (const char c : text) {
    const unsigned current = static_cast<unsigned char>(c);
    codes.push_back(static_cast<uint16_t>((previous << 8) | current));
    previous = current;
  }
  codes.push_back(static_cast<uint16_t>((previous << 8) | '#'));
  return codes;
}

}  // namespace

template <typename Key>
FlatMultiset<Key>::FlatMultiset(std::vector<Key> items) {
  std::sort(items.begin(), items.end());
  for (Key& item : items) {
    if (entries_.empty() || entries_.back().key < item) {
      entries_.push_back({std::move(item), 0});
    }
    ++entries_.back().count;
    ++total_;
  }
  double sum_squares = 0.0;
  for (const Entry& entry : entries_) {
    sum_squares += static_cast<double>(entry.count) * entry.count;
  }
  norm_ = std::sqrt(sum_squares);
}

template <typename Key>
int FlatMultiset<Key>::CountOf(const Key& item) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), item,
      [](const Entry& entry, const Key& key) { return entry.key < key; });
  return it != entries_.end() && !(item < it->key) ? it->count : 0;
}

template <typename Key>
int FlatMultiset<Key>::MultisetIntersection(const FlatMultiset& a,
                                            const FlatMultiset& b) {
  int intersection = 0;
  MergeCounts(
      a.entries_, b.entries_,
      [&](int ca, int cb) { intersection += std::min(ca, cb); }, [](int) {});
  return intersection;
}

template <typename Key>
int FlatMultiset<Key>::SetIntersection(const FlatMultiset& a,
                                       const FlatMultiset& b) {
  int intersection = 0;
  MergeCounts(
      a.entries_, b.entries_, [&](int, int) { ++intersection; }, [](int) {});
  return intersection;
}

template <typename Key>
double FlatMultiset<Key>::Dot(const FlatMultiset& a, const FlatMultiset& b) {
  double dot = 0.0;
  MergeCounts(
      a.entries_, b.entries_,
      [&](int ca, int cb) { dot += static_cast<double>(ca) * cb; },
      [](int) {});
  return dot;
}

template <typename Key>
int FlatMultiset<Key>::L1Distance(const FlatMultiset& a,
                                  const FlatMultiset& b) {
  int distance = 0;
  MergeCounts(
      a.entries_, b.entries_,
      [&](int ca, int cb) { distance += std::abs(ca - cb); },
      [&](int c) { distance += c; });
  return distance;
}

template <typename Key>
double FlatMultiset<Key>::SquaredL2Distance(const FlatMultiset& a,
                                            const FlatMultiset& b) {
  double distance = 0.0;
  MergeCounts(
      a.entries_, b.entries_,
      [&](int ca, int cb) {
        const double diff = ca - cb;
        distance += diff * diff;
      },
      [&](int c) { distance += static_cast<double>(c) * c; });
  return distance;
}

template class FlatMultiset<std::string>;
template class FlatMultiset<uint16_t>;

AttributeProfile AttributeProfile::Build(std::string_view raw) {
  AttributeProfile profile;
  const std::string_view stripped = StripAsciiWhitespace(raw);
  if (stripped.empty()) {
    return profile;  // is_null stays true.
  }
  profile.is_null = false;
  profile.text = ToLowerAscii(stripped);
  profile.tokens = TokenizeWords(profile.text);
  profile.token_counts = CountedMultiset(profile.tokens);
  profile.bigram_counts = BigramMultiset(BigramCodes(profile.text));
  return profile;
}

}  // namespace alem
