#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "blocking/jaccard_blocking.h"
#include "sim/edit_based.h"
#include "sim/qgram_based.h"
#include "sim/similarity.h"
#include "sim/token_based.h"
#include "synth/generator.h"
#include "synth/profiles.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace alem {
namespace {

AttributeProfile P(const std::string& s) { return AttributeProfile::Build(s); }

double Sim(const SimilarityFunction& f, const std::string& a,
           const std::string& b) {
  return f.Similarity(P(a), P(b));
}

// ---- Registry ----

TEST(RegistryTest, ExactlyTwentyOneFunctions) {
  EXPECT_EQ(AllSimilarityFunctions().size(),
            static_cast<size_t>(kNumSimilarityFunctions));
}

TEST(RegistryTest, NamesAreUniqueAndLookupWorks) {
  const auto& functions = AllSimilarityFunctions();
  for (size_t i = 0; i < functions.size(); ++i) {
    EXPECT_EQ(SimilarityIndexByName(functions[i]->name()),
              static_cast<int>(i));
  }
  EXPECT_EQ(SimilarityIndexByName("NoSuchFunction"), -1);
}

TEST(RegistryTest, RuleFunctionsAreEqualityJaroWinklerJaccard) {
  const std::vector<int>& indices = RuleSimilarityIndices();
  ASSERT_EQ(indices.size(), 3u);
  EXPECT_EQ(AllSimilarityFunctions()[indices[0]]->name(), "Identity");
  EXPECT_EQ(AllSimilarityFunctions()[indices[1]]->name(), "JaroWinkler");
  EXPECT_EQ(AllSimilarityFunctions()[indices[2]]->name(), "Jaccard");
}

// ---- Parameterized properties over all 21 functions ----

class SimilarityPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  const SimilarityFunction& function() const {
    return *AllSimilarityFunctions()[static_cast<size_t>(GetParam())];
  }
};

TEST_P(SimilarityPropertyTest, IdenticalStringsScoreOne) {
  for (const std::string& s :
       {"sony", "digital camera dsc w55", "a", "299.99", "kx-200 zoom"}) {
    EXPECT_NEAR(Sim(function(), s, s), 1.0, 1e-9)
        << function().name() << " on '" << s << "'";
  }
}

TEST_P(SimilarityPropertyTest, RangeIsZeroOne) {
  const std::vector<std::string> samples = {
      "sony camera", "canon powershot", "x", "aaaa bbbb cccc", "42",
      "totally unrelated text here", "sony", "sny camra", ""};
  for (const auto& a : samples) {
    for (const auto& b : samples) {
      const double sim = Sim(function(), a, b);
      EXPECT_GE(sim, 0.0) << function().name();
      EXPECT_LE(sim, 1.0) << function().name();
    }
  }
}

TEST_P(SimilarityPropertyTest, BatchMatchesScalarBitwise) {
  const std::vector<std::string> samples = {
      "sony camera", "canon powershot", "x",  "aaaa bbbb cccc",
      "42",          "sny camra",       "",   "digital camera dsc w55",
      "kx-200 zoom", "299.99",          "sony"};
  std::vector<AttributeProfile> profiles;
  profiles.reserve(samples.size());
  for (const auto& s : samples) profiles.push_back(P(s));

  // Cross product, repeated past the batch chunk size (256) so EvaluateBatch
  // splits the work across multiple ParallelFor chunks.
  std::vector<const AttributeProfile*> left;
  std::vector<const AttributeProfile*> right;
  while (left.size() < 600) {
    for (const auto& a : profiles) {
      for (const auto& b : profiles) {
        left.push_back(&a);
        right.push_back(&b);
      }
    }
  }
  std::vector<float> batch(left.size(), -1.0f);
  function().EvaluateBatch(left, right, batch.data());
  for (size_t i = 0; i < left.size(); ++i) {
    const float scalar =
        static_cast<float>(function().Similarity(*left[i], *right[i]));
    EXPECT_EQ(batch[i], scalar)
        << function().name() << " diverges at pair " << i;
  }
}

TEST_P(SimilarityPropertyTest, Symmetric) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"sony camera", "canon camera"},
      {"abcd", "abdc"},
      {"digital zoom lens", "zoom lens kit pro"},
      {"a", "abcdef"},
  };
  for (const auto& [a, b] : pairs) {
    EXPECT_NEAR(Sim(function(), a, b), Sim(function(), b, a), 1e-9)
        << function().name();
  }
}

TEST_P(SimilarityPropertyTest, NullProfileScoresZero) {
  EXPECT_EQ(function().Similarity(P(""), P("something")), 0.0);
  EXPECT_EQ(function().Similarity(P("something"), P("")), 0.0);
  EXPECT_EQ(function().Similarity(P(""), P("")), 0.0);
}

TEST_P(SimilarityPropertyTest, SimilarBeatsDissimilar) {
  // Every function should rank a near-duplicate above unrelated text.
  // Identity is the degenerate exception: both pairs score 0 because the
  // strings are not exactly equal.
  const double near = Sim(function(), "sony cybershot dsc w55 camera",
                          "sony cyber-shot dsc-w55 camera");
  const double far = Sim(function(), "sony cybershot dsc w55 camera",
                         "leather office chair brown");
  if (function().name() == "Identity") {
    EXPECT_GE(near, far);
  } else {
    EXPECT_GT(near, far) << function().name();
  }
}

// ---- Reference exactness pin ----
//
// The similarity functions were once straightforward: double-valued
// O(n*m) dynamic programs, an unordered_map multiset and a linear Jaro
// window scan. The code below keeps that implementation verbatim as the
// reference. The production kernels (bit-parallel edit distances and Jaro,
// integer alignment DPs on every kernel backend, sorted flat multisets)
// must return the same float bits for every input, which is what keeps
// kSimRegistryVersion, cached feature matrices and golden replays valid.

namespace reference {

constexpr size_t kMaxAlignmentLength = 64;

class CountedMultiset {
 public:
  CountedMultiset() = default;
  explicit CountedMultiset(const std::vector<std::string>& items) {
    for (const std::string& item : items) {
      ++counts_[item];
      ++total_;
    }
    double sum_squares = 0.0;
    for (const auto& [item, count] : counts_) {
      sum_squares += static_cast<double>(count) * count;
    }
    norm_ = std::sqrt(sum_squares);
  }
  int total() const { return total_; }
  size_t distinct() const { return counts_.size(); }
  double norm() const { return norm_; }
  int CountOf(const std::string& item) const {
    const auto it = counts_.find(item);
    return it == counts_.end() ? 0 : it->second;
  }

  static int MultisetIntersection(const CountedMultiset& a,
                                  const CountedMultiset& b) {
    const CountedMultiset& small =
        a.counts_.size() <= b.counts_.size() ? a : b;
    const CountedMultiset& large =
        a.counts_.size() <= b.counts_.size() ? b : a;
    int intersection = 0;
    for (const auto& [item, count] : small.counts_) {
      intersection += std::min(count, large.CountOf(item));
    }
    return intersection;
  }
  static int SetIntersection(const CountedMultiset& a,
                             const CountedMultiset& b) {
    const CountedMultiset& small =
        a.counts_.size() <= b.counts_.size() ? a : b;
    const CountedMultiset& large =
        a.counts_.size() <= b.counts_.size() ? b : a;
    int intersection = 0;
    for (const auto& [item, count] : small.counts_) {
      (void)count;
      if (large.CountOf(item) > 0) ++intersection;
    }
    return intersection;
  }
  static double Dot(const CountedMultiset& a, const CountedMultiset& b) {
    const CountedMultiset& small =
        a.counts_.size() <= b.counts_.size() ? a : b;
    const CountedMultiset& large =
        a.counts_.size() <= b.counts_.size() ? b : a;
    double dot = 0.0;
    for (const auto& [item, count] : small.counts_) {
      dot += static_cast<double>(count) * large.CountOf(item);
    }
    return dot;
  }
  static int L1Distance(const CountedMultiset& a, const CountedMultiset& b) {
    int distance = 0;
    for (const auto& [item, count] : a.counts_) {
      distance += std::abs(count - b.CountOf(item));
    }
    for (const auto& [item, count] : b.counts_) {
      if (a.CountOf(item) == 0) distance += count;
    }
    return distance;
  }
  static double SquaredL2Distance(const CountedMultiset& a,
                                  const CountedMultiset& b) {
    double distance = 0.0;
    for (const auto& [item, count] : a.counts_) {
      const double diff = count - b.CountOf(item);
      distance += diff * diff;
    }
    for (const auto& [item, count] : b.counts_) {
      if (a.CountOf(item) == 0) {
        distance += static_cast<double>(count) * count;
      }
    }
    return distance;
  }

 private:
  std::unordered_map<std::string, int> counts_;
  int total_ = 0;
  double norm_ = 0.0;
};

struct Profile {
  bool is_null = true;
  std::string text;
  std::vector<std::string> tokens;
  CountedMultiset token_counts;
  CountedMultiset bigram_counts;

  static Profile Build(std::string_view raw) {
    Profile profile;
    const std::string_view stripped = StripAsciiWhitespace(raw);
    if (stripped.empty()) return profile;
    profile.is_null = false;
    profile.text = ToLowerAscii(stripped);
    profile.tokens = TokenizeWords(profile.text);
    profile.token_counts = CountedMultiset(profile.tokens);
    profile.bigram_counts = CountedMultiset(QGrams(profile.text, 2));
    return profile;
  }
};

std::string_view Capped(const std::string& s) {
  return std::string_view(s).substr(0, kMaxAlignmentLength);
}

int LevenshteinDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int>(m);
  if (m == 0) return static_cast<int>(n);
  std::vector<int> previous(m + 1, 0);
  std::vector<int> current(m + 1, 0);
  for (size_t j = 0; j <= m; ++j) previous[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    current[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int substitution = previous[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      current[j] =
          std::min({previous[j] + 1, current[j - 1] + 1, substitution});
    }
    std::swap(previous, current);
  }
  return previous[m];
}

double JaroRaw(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;

  const size_t window = std::max<size_t>(1, std::max(n, m) / 2) - 1;
  std::vector<uint8_t> a_matched(n, 0);
  std::vector<uint8_t> b_matched(m, 0);
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(m, i + window + 1);
    size_t j = lo;
    while (j < hi && !(b_matched[j] == 0 && b[j] == a[i])) ++j;
    if (j < hi) {
      a_matched[i] = 1;
      b_matched[j] = 1;
      ++matches;
    }
  }
  if (matches == 0) return 0.0;

  size_t transpositions = 0;
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a_matched[i] == 0) continue;
    while (b_matched[k] == 0) ++k;
    if (a[i] != b[k]) ++transpositions;
    ++k;
  }
  const double dm = static_cast<double>(matches);
  return (dm / n + dm / m + (dm - transpositions / 2.0) / dm) / 3.0;
}

double JaroWinklerRaw(std::string_view a, std::string_view b) {
  const double jaro = JaroRaw(a, b);
  constexpr double kPrefixScale = 0.1;
  constexpr size_t kMaxPrefix = 4;
  size_t prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), kMaxPrefix});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * kPrefixScale * (1.0 - jaro);
}

double Levenshtein(const Profile& a, const Profile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t max_len = std::max(sa.size(), sb.size());
  if (max_len == 0) return 1.0;
  const int distance = LevenshteinDistance(sa, sb);
  return 1.0 - static_cast<double>(distance) / static_cast<double>(max_len);
}

double DamerauLevenshtein(const Profile& a, const Profile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  const size_t max_len = std::max(n, m);
  if (max_len == 0) return 1.0;
  if (n == 0 || m == 0) {
    return 1.0 - static_cast<double>(std::max(n, m)) /
                     static_cast<double>(max_len);
  }
  std::vector<int> two_back(m + 1, 0);
  std::vector<int> previous(m + 1, 0);
  std::vector<int> current(m + 1, 0);
  for (size_t j = 0; j <= m; ++j) previous[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    current[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int cost = sa[i - 1] == sb[j - 1] ? 0 : 1;
      int best = std::min({previous[j] + 1, current[j - 1] + 1,
                           previous[j - 1] + cost});
      if (i > 1 && j > 1 && sa[i - 1] == sb[j - 2] && sa[i - 2] == sb[j - 1]) {
        best = std::min(best, two_back[j - 2] + 1);
      }
      current[j] = best;
    }
    std::swap(two_back, previous);
    std::swap(previous, current);
  }
  return 1.0 -
         static_cast<double>(previous[m]) / static_cast<double>(max_len);
}

double NeedlemanWunsch(const Profile& a, const Profile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  const double max_len = static_cast<double>(std::max(n, m));
  if (max_len == 0) return 1.0;

  constexpr double kGap = -1.0;
  std::vector<double> previous(m + 1, 0.0);
  std::vector<double> current(m + 1, 0.0);
  for (size_t j = 0; j <= m; ++j) previous[j] = kGap * static_cast<double>(j);
  for (size_t i = 1; i <= n; ++i) {
    current[0] = kGap * static_cast<double>(i);
    for (size_t j = 1; j <= m; ++j) {
      const double match = sa[i - 1] == sb[j - 1] ? 1.0 : -1.0;
      current[j] = std::max({previous[j - 1] + match, previous[j] + kGap,
                             current[j - 1] + kGap});
    }
    std::swap(previous, current);
  }
  const double score = previous[m];
  return (score + max_len) / (2.0 * max_len);
}

double SmithWaterman(const Profile& a, const Profile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  const double min_len = static_cast<double>(std::min(n, m));
  if (min_len == 0) return n == m ? 1.0 : 0.0;

  constexpr double kGap = -0.5;
  std::vector<double> previous(m + 1, 0.0);
  std::vector<double> current(m + 1, 0.0);
  double best = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    current[0] = 0.0;
    for (size_t j = 1; j <= m; ++j) {
      const double match = sa[i - 1] == sb[j - 1] ? 1.0 : -1.0;
      current[j] = std::max({0.0, previous[j - 1] + match, previous[j] + kGap,
                             current[j - 1] + kGap});
      best = std::max(best, current[j]);
    }
    std::swap(previous, current);
  }
  return best / min_len;
}

double SmithWatermanGotoh(const Profile& a, const Profile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  const double min_len = static_cast<double>(std::min(n, m));
  if (min_len == 0) return n == m ? 1.0 : 0.0;

  constexpr double kGapOpen = -0.5;
  constexpr double kGapExtend = -0.25;
  constexpr double kNegInf = -1e30;
  std::vector<double> h_prev(m + 1, 0.0);
  std::vector<double> h_cur(m + 1, 0.0);
  std::vector<double> f_prev(m + 1, kNegInf);
  std::vector<double> f_cur(m + 1, kNegInf);
  double best = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    double e = kNegInf;
    h_cur[0] = 0.0;
    for (size_t j = 1; j <= m; ++j) {
      e = std::max(e + kGapExtend, h_cur[j - 1] + kGapOpen);
      f_cur[j] = std::max(f_prev[j] + kGapExtend, h_prev[j] + kGapOpen);
      const double match = sa[i - 1] == sb[j - 1] ? 1.0 : -1.0;
      h_cur[j] = std::max({0.0, h_prev[j - 1] + match, e, f_cur[j]});
      best = std::max(best, h_cur[j]);
    }
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
  }
  return best / min_len;
}

double LongestCommonSubsequence(const Profile& a, const Profile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  if (n + m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  std::vector<int> previous(m + 1, 0);
  std::vector<int> current(m + 1, 0);
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      current[j] = sa[i - 1] == sb[j - 1]
                       ? previous[j - 1] + 1
                       : std::max(previous[j], current[j - 1]);
    }
    std::swap(previous, current);
  }
  return 2.0 * previous[m] / static_cast<double>(n + m);
}

double LongestCommonSubstring(const Profile& a, const Profile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  const size_t max_len = std::max(n, m);
  if (max_len == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  std::vector<int> previous(m + 1, 0);
  std::vector<int> current(m + 1, 0);
  int best = 0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      current[j] = sa[i - 1] == sb[j - 1] ? previous[j - 1] + 1 : 0;
      best = std::max(best, current[j]);
    }
    std::swap(previous, current);
  }
  return static_cast<double>(best) / static_cast<double>(max_len);
}

double QGram(const Profile& a, const Profile& b) {
  const int total = a.bigram_counts.total() + b.bigram_counts.total();
  if (total == 0) return 1.0;
  const int distance =
      CountedMultiset::L1Distance(a.bigram_counts, b.bigram_counts);
  return 1.0 - static_cast<double>(distance) / static_cast<double>(total);
}

double CosineQGrams(const Profile& a, const Profile& b) {
  const double denom = a.bigram_counts.norm() * b.bigram_counts.norm();
  if (denom == 0.0) {
    return a.bigram_counts.total() == b.bigram_counts.total() ? 1.0 : 0.0;
  }
  return CountedMultiset::Dot(a.bigram_counts, b.bigram_counts) / denom;
}

double SimonWhite(const Profile& a, const Profile& b) {
  const int total = a.bigram_counts.total() + b.bigram_counts.total();
  if (total == 0) return 1.0;
  const int intersection =
      CountedMultiset::MultisetIntersection(a.bigram_counts, b.bigram_counts);
  return 2.0 * intersection / static_cast<double>(total);
}

double Jaccard(const Profile& a, const Profile& b) {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const int unions = static_cast<int>(a.token_counts.distinct()) +
                     static_cast<int>(b.token_counts.distinct()) -
                     intersection;
  if (unions == 0) return 1.0;
  return static_cast<double>(intersection) / unions;
}

double Dice(const Profile& a, const Profile& b) {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const size_t denom = a.token_counts.distinct() + b.token_counts.distinct();
  if (denom == 0) return 1.0;
  return 2.0 * intersection / static_cast<double>(denom);
}

double OverlapCoefficient(const Profile& a, const Profile& b) {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const size_t denom =
      std::min(a.token_counts.distinct(), b.token_counts.distinct());
  if (denom == 0) {
    return a.token_counts.distinct() == b.token_counts.distinct() ? 1.0 : 0.0;
  }
  return static_cast<double>(intersection) / static_cast<double>(denom);
}

double CosineTokens(const Profile& a, const Profile& b) {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const double denom =
      std::sqrt(static_cast<double>(a.token_counts.distinct()) *
                static_cast<double>(b.token_counts.distinct()));
  if (denom == 0.0) {
    return a.token_counts.distinct() == b.token_counts.distinct() ? 1.0 : 0.0;
  }
  return intersection / denom;
}

double MatchingCoefficient(const Profile& a, const Profile& b) {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const size_t denom =
      std::max(a.token_counts.distinct(), b.token_counts.distinct());
  if (denom == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(denom);
}

double BlockDistance(const Profile& a, const Profile& b) {
  const int total = a.token_counts.total() + b.token_counts.total();
  if (total == 0) return 1.0;
  const int distance =
      CountedMultiset::L1Distance(a.token_counts, b.token_counts);
  return 1.0 - static_cast<double>(distance) / static_cast<double>(total);
}

double Euclidean(const Profile& a, const Profile& b) {
  const double ta = a.token_counts.total();
  const double tb = b.token_counts.total();
  const double bound = std::sqrt(ta * ta + tb * tb);
  if (bound == 0.0) return 1.0;
  const double distance = std::sqrt(
      CountedMultiset::SquaredL2Distance(a.token_counts, b.token_counts));
  return 1.0 - distance / bound;
}

double MongeElkan(const Profile& a, const Profile& b) {
  constexpr size_t kMaxTokens = 30;
  const size_t na = std::min(a.tokens.size(), kMaxTokens);
  const size_t nb = std::min(b.tokens.size(), kMaxTokens);
  if (na == 0 || nb == 0) return na == nb ? 1.0 : 0.0;
  auto directed = [](const std::vector<std::string>& from,
                     const std::vector<std::string>& to, size_t nf,
                     size_t nt) {
    double sum = 0.0;
    for (size_t i = 0; i < nf; ++i) {
      double best = 0.0;
      for (size_t j = 0; j < nt; ++j) {
        best = std::max(best, JaroWinklerRaw(from[i], to[j]));
        if (best >= 1.0) break;
      }
      sum += best;
    }
    return sum / static_cast<double>(nf);
  };
  return 0.5 * (directed(a.tokens, b.tokens, na, nb) +
                directed(b.tokens, a.tokens, nb, na));
}

// Similarity(): 0 for a null side, else the function clamped to [0, 1].
double Similarity(std::string_view name, const Profile& a, const Profile& b) {
  if (a.is_null || b.is_null) return 0.0;
  double value = 0.0;
  if (name == "Identity") {
    value = a.text == b.text ? 1.0 : 0.0;
  } else if (name == "Levenshtein") {
    value = Levenshtein(a, b);
  } else if (name == "DamerauLevenshtein") {
    value = DamerauLevenshtein(a, b);
  } else if (name == "Jaro") {
    value = JaroRaw(a.text, b.text);
  } else if (name == "JaroWinkler") {
    value = JaroWinklerRaw(a.text, b.text);
  } else if (name == "NeedlemanWunsch") {
    value = NeedlemanWunsch(a, b);
  } else if (name == "SmithWaterman") {
    value = SmithWaterman(a, b);
  } else if (name == "SmithWatermanGotoh") {
    value = SmithWatermanGotoh(a, b);
  } else if (name == "LongestCommonSubsequence") {
    value = LongestCommonSubsequence(a, b);
  } else if (name == "LongestCommonSubstring") {
    value = LongestCommonSubstring(a, b);
  } else if (name == "QGram") {
    value = QGram(a, b);
  } else if (name == "CosineQGrams") {
    value = CosineQGrams(a, b);
  } else if (name == "SimonWhite") {
    value = SimonWhite(a, b);
  } else if (name == "Jaccard") {
    value = Jaccard(a, b);
  } else if (name == "Dice") {
    value = Dice(a, b);
  } else if (name == "OverlapCoefficient") {
    value = OverlapCoefficient(a, b);
  } else if (name == "CosineTokens") {
    value = CosineTokens(a, b);
  } else if (name == "MatchingCoefficient") {
    value = MatchingCoefficient(a, b);
  } else if (name == "BlockDistance") {
    value = BlockDistance(a, b);
  } else if (name == "Euclidean") {
    value = Euclidean(a, b);
  } else if (name == "MongeElkan") {
    value = MongeElkan(a, b);
  } else {
    ADD_FAILURE() << "no reference for " << name;
  }
  return std::clamp(value, 0.0, 1.0);
}

}  // namespace reference

// A named list of raw string pairs with both kinds of profile built.
struct PairCorpus {
  std::string name;
  std::vector<std::string> left_raw;
  std::vector<std::string> right_raw;
  std::vector<AttributeProfile> left;
  std::vector<AttributeProfile> right;
  std::vector<reference::Profile> left_reference;
  std::vector<reference::Profile> right_reference;

  void Add(std::string a, std::string b) {
    left_raw.push_back(std::move(a));
    right_raw.push_back(std::move(b));
  }
  void BuildProfiles() {
    for (size_t i = 0; i < left_raw.size(); ++i) {
      left.push_back(AttributeProfile::Build(left_raw[i]));
      right.push_back(AttributeProfile::Build(right_raw[i]));
      left_reference.push_back(reference::Profile::Build(left_raw[i]));
      right_reference.push_back(reference::Profile::Build(right_raw[i]));
    }
  }
};

// Seeded random strings of length 0..140, so the 64-byte cap and the
// second and third Jaro words are all crossed, over alphabets from two
// symbols (long matches, many ties) to raw bytes >= 0x80; plus fixed
// pairs such as OSA's non-metric "ca"/"abc".
PairCorpus RandomCorpus() {
  PairCorpus corpus;
  corpus.name = "random";
  std::string raw_bytes;
  for (int c = 0x80; c <= 0xff; ++c) raw_bytes.push_back(static_cast<char>(c));
  const std::string alphabets[] = {"ab", "abcd",
                                   "abcdefghijklmnopqrstuvwxyz ", raw_bytes};
  Rng rng(20261017);
  for (const std::string& alphabet : alphabets) {
    for (int round = 0; round < 300; ++round) {
      std::string texts[2];
      for (std::string& text : texts) {
        const size_t length = rng.NextBelow(141);
        for (size_t k = 0; k < length; ++k) {
          text.push_back(alphabet[rng.NextBelow(alphabet.size())]);
        }
      }
      // Every third pair shares a prefix, so near-duplicates show up too.
      if (round % 3 == 0 && !texts[0].empty()) {
        texts[1] = texts[0].substr(0, rng.NextBelow(texts[0].size() + 1)) +
                   texts[1].substr(0, rng.NextBelow(texts[1].size() + 1));
      }
      corpus.Add(texts[0], texts[1]);
    }
  }
  const std::pair<std::string, std::string> fixed[] = {
      {"ca", "abc"},     {"abc", "ca"},       {"abcd", "abdc"},
      {"a", "a"},        {"", "x"},           {"x", ""},
      {"martha", "marhta"}, {"dixon", "dicksonx"},
      {std::string(64, 'a'), std::string(64, 'a')},
      {std::string(65, 'a'), std::string(200, 'a')},
      {std::string(140, 'b'), "b"},
  };
  for (const auto& [a, b] : fixed) corpus.Add(a, b);
  corpus.BuildProfiles();
  return corpus;
}

// Every candidate pair x matched column of a generated dataset.
PairCorpus DatasetCorpus(const SynthProfile& profile) {
  PairCorpus corpus;
  corpus.name = profile.name;
  const EmDataset dataset = GenerateDataset(profile, 7, 0.25);
  BlockingConfig blocking;
  blocking.jaccard_threshold = profile.blocking_threshold;
  const std::vector<RecordPair> pairs = JaccardBlocking(dataset, blocking);
  for (const MatchedColumns& columns : dataset.matched_columns) {
    for (const RecordPair& pair : pairs) {
      corpus.Add(
          std::string(dataset.left.Value(
              pair.left, static_cast<size_t>(columns.left_column))),
          std::string(dataset.right.Value(
              pair.right, static_cast<size_t>(columns.right_column))));
    }
  }
  corpus.BuildProfiles();
  return corpus;
}

const std::vector<PairCorpus>& ReferenceCorpora() {
  static const auto& corpora = *new std::vector<PairCorpus>{
      RandomCorpus(), DatasetCorpus(AbtBuyProfile()),
      DatasetCorpus(CoraProfile())};
  return corpora;
}

TEST_P(SimilarityPropertyTest, MatchesReferenceBitwise) {
  for (const PairCorpus& corpus : ReferenceCorpora()) {
    ASSERT_GT(corpus.left.size(), 0u) << corpus.name;
    std::vector<const AttributeProfile*> left;
    std::vector<const AttributeProfile*> right;
    for (size_t i = 0; i < corpus.left.size(); ++i) {
      left.push_back(&corpus.left[i]);
      right.push_back(&corpus.right[i]);
    }
    std::vector<float> batch(left.size());
    function().EvaluateBatch(left, right, batch.data());
    size_t mismatches = 0;
    for (size_t i = 0; i < left.size() && mismatches < 5; ++i) {
      const uint32_t expected = std::bit_cast<uint32_t>(
          static_cast<float>(reference::Similarity(
              function().name(), corpus.left_reference[i],
              corpus.right_reference[i])));
      const uint32_t scalar = std::bit_cast<uint32_t>(static_cast<float>(
          function().Similarity(corpus.left[i], corpus.right[i])));
      const uint32_t batched = std::bit_cast<uint32_t>(batch[i]);
      if (scalar != expected || batched != expected) {
        ++mismatches;
        ADD_FAILURE() << function().name() << " on " << corpus.name
                      << " pair " << i << " ('" << corpus.left_raw[i]
                      << "' vs '" << corpus.right_raw[i] << "'): reference "
                      << std::bit_cast<float>(expected) << ", Similarity "
                      << std::bit_cast<float>(scalar) << ", EvaluateBatch "
                      << batch[i];
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctions, SimilarityPropertyTest,
    ::testing::Range(0, kNumSimilarityFunctions),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(
          AllSimilarityFunctions()[static_cast<size_t>(info.param)]->name());
    });

// ---- Specific function values ----

TEST(EditBasedTest, LevenshteinDistanceValues) {
  using internal_edit::LevenshteinDistance;
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0);
}

TEST(EditBasedTest, LevenshteinSimilarityNormalized) {
  LevenshteinSimilarity f;
  EXPECT_NEAR(Sim(f, "kitten", "sitting"), 1.0 - 3.0 / 7.0, 1e-9);
}

TEST(EditBasedTest, DamerauCountsTranspositionAsOne) {
  DamerauLevenshteinSimilarity damerau;
  LevenshteinSimilarity levenshtein;
  // "abcd" -> "abdc" is 1 transposition (Damerau) but 2 edits (Levenshtein).
  EXPECT_NEAR(Sim(damerau, "abcd", "abdc"), 0.75, 1e-9);
  EXPECT_NEAR(Sim(levenshtein, "abcd", "abdc"), 0.5, 1e-9);
}

TEST(EditBasedTest, JaroKnownValue) {
  using internal_edit::JaroRaw;
  EXPECT_NEAR(JaroRaw("martha", "marhta"), 0.9444444, 1e-6);
  EXPECT_NEAR(JaroRaw("dixon", "dicksonx"), 0.7666667, 1e-6);
  EXPECT_EQ(JaroRaw("abc", "xyz"), 0.0);
}

TEST(EditBasedTest, JaroWinklerBoostsSharedPrefix) {
  using internal_edit::JaroRaw;
  using internal_edit::JaroWinklerRaw;
  EXPECT_GT(JaroWinklerRaw("martha", "marhta"), JaroRaw("martha", "marhta"));
  EXPECT_NEAR(JaroWinklerRaw("martha", "marhta"), 0.9611111, 1e-6);
}

TEST(EditBasedTest, SmithWatermanFindsLocalMatch) {
  SmithWatermanSimilarity f;
  // "w55" embedded in a longer string aligns perfectly.
  EXPECT_NEAR(Sim(f, "w55", "camera w55 zoom"), 1.0, 1e-9);
}

TEST(EditBasedTest, LongestCommonSubstring) {
  LongestCommonSubstringSimilarity f;
  // "abcdef" vs "zzabcq": longest common substring "abc" (3) / max len 6.
  EXPECT_NEAR(Sim(f, "abcdef", "zzabcq"), 0.5, 1e-9);
}

TEST(EditBasedTest, LongestCommonSubsequence) {
  LongestCommonSubsequenceSimilarity f;
  // lcs("abcde", "ace") = 3 -> 2*3/(5+3).
  EXPECT_NEAR(Sim(f, "abcde", "ace"), 0.75, 1e-9);
}

TEST(EditBasedTest, NeedlemanWunschPerfectAndDisjoint) {
  NeedlemanWunschSimilarity f;
  EXPECT_NEAR(Sim(f, "abcd", "abcd"), 1.0, 1e-9);
  EXPECT_LT(Sim(f, "aaaa", "zzzz"), 0.3);
}

TEST(TokenBasedTest, JaccardValues) {
  JaccardTokenSimilarity f;
  // {a, b, c} vs {b, c, d}: 2 / 4.
  EXPECT_NEAR(Sim(f, "a b c", "b c d"), 0.5, 1e-9);
  EXPECT_NEAR(Sim(f, "a b", "a b"), 1.0, 1e-9);
  EXPECT_EQ(Sim(f, "a b", "c d"), 0.0);
}

TEST(TokenBasedTest, DiceValues) {
  DiceTokenSimilarity f;
  EXPECT_NEAR(Sim(f, "a b c", "b c d"), 2.0 * 2 / 6, 1e-9);
}

TEST(TokenBasedTest, OverlapCoefficientUsesMinSize) {
  OverlapCoefficientSimilarity f;
  // {a} subset of {a, b, c, d} -> overlap 1.0.
  EXPECT_NEAR(Sim(f, "a", "a b c d"), 1.0, 1e-9);
}

TEST(TokenBasedTest, MatchingCoefficientUsesMaxSize) {
  MatchingCoefficientSimilarity f;
  EXPECT_NEAR(Sim(f, "a", "a b c d"), 0.25, 1e-9);
}

TEST(TokenBasedTest, CosineTokensValue) {
  CosineTokenSimilarity f;
  // |∩|=1, sqrt(1*4) = 2 -> 0.5.
  EXPECT_NEAR(Sim(f, "a", "a b c d"), 0.5, 1e-9);
}

TEST(TokenBasedTest, BlockDistanceValue) {
  BlockDistanceSimilarity f;
  // counts: (a,b) vs (a,c): L1 = 2, totals = 4 -> 1 - 0.5.
  EXPECT_NEAR(Sim(f, "a b", "a c"), 0.5, 1e-9);
}

TEST(TokenBasedTest, MongeElkanForgivesTokenTypos) {
  MongeElkanSimilarity f;
  const double sim = Sim(f, "sony camera", "sonny camera");
  EXPECT_GT(sim, 0.9);
}

TEST(QGramBasedTest, QGramDisjoint) {
  QGramSimilarity f;
  EXPECT_LT(Sim(f, "aaaa", "zzzz"), 0.01);
}

TEST(QGramBasedTest, SimonWhiteSharedBigrams) {
  SimonWhiteSimilarity f;
  const double sim = Sim(f, "healed", "sealed");
  EXPECT_GT(sim, 0.7);  // Classic Simon White example pair.
}

TEST(QGramBasedTest, CosineQGramMatchesManualValue) {
  CosineQGramSimilarity f;
  const double sim = Sim(f, "ab", "ab");
  EXPECT_NEAR(sim, 1.0, 1e-9);
}

TEST(EditBasedTest, LongInputsAreCappedNotCrashing) {
  const std::string long_a(5000, 'a');
  const std::string long_b(5000, 'b');
  for (const SimilarityFunction* f : AllSimilarityFunctions()) {
    const double sim = f->Similarity(P(long_a), P(long_b));
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0);
  }
}

}  // namespace
}  // namespace alem
