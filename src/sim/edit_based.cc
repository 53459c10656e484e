#include "sim/edit_based.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/backend.h"

namespace alem {
namespace {

static_assert(kMaxAlignmentLength == kernels::kMaxAlignLength,
              "the alignment kernels are sized for the similarity cap");

constexpr size_t kWordBits = 64;

std::string_view Capped(const std::string& s) {
  return std::string_view(s).substr(0, kMaxAlignmentLength);
}

// Where each byte value occurs in `s`, as bit masks over ceil(|s| / 64)
// words: bit j % 64 of Of(c)[j / 64] is set iff s[j] == c. A string of at
// most one word uses a per-thread table that is all zero between uses, so
// building and clearing cost O(|s|), not 256 words; longer strings (only
// Jaro's, which is uncapped) get a zeroed table of their own. At most one
// CharMasks may be alive per thread.
class CharMasks {
 public:
  explicit CharMasks(std::string_view s)
      : s_(s), words_((s.size() + kWordBits - 1) / kWordBits) {
    if (words_ > 1) {
      owned_.assign(256 * words_, 0);
      table_ = owned_.data();
    }
    for (size_t j = 0; j < s.size(); ++j) {
      Row(s[j])[j / kWordBits] |= uint64_t{1} << (j % kWordBits);
    }
  }
  ~CharMasks() {
    if (!owned_.empty()) return;
    for (const char c : s_) Row(c)[0] = 0;
  }
  CharMasks(const CharMasks&) = delete;
  CharMasks& operator=(const CharMasks&) = delete;

  const uint64_t* Of(char c) const { return Row(c); }

 private:
  static uint64_t* OneWordTable() {
    thread_local uint64_t table[256] = {};
    return table;
  }
  uint64_t* Row(char c) const {
    return table_ + static_cast<unsigned char>(c) * words_;
  }

  std::string_view s_;
  size_t words_;
  std::vector<uint64_t> owned_;
  uint64_t* table_ = OneWordTable();
};

// ---- Bit-parallel edit distances (|a| <= 64, a and b non-empty) --------
//
// Each keeps one word per column of the DP matrix over `b`: bit i stands
// for row i + 1 (a's character i), and a column step costs a fixed handful
// of word operations. Carries and left shifts only move information from
// low bits to high bits, so bits at and above |a| never disturb the
// in-range ones.

uint64_t LowBits(size_t n) {
  return n == kWordBits ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

// Levenshtein distance: Myers' algorithm as formulated by Hyyrö, with
// vertical (pv/mv) and horizontal (ph/mh) +1/-1 delta vectors; `score`
// tracks the last row, D[|a|][j].
int MyersLevenshtein(std::string_view a, std::string_view b) {
  const CharMasks peq(a);
  const uint64_t last = uint64_t{1} << (a.size() - 1);
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  int score = static_cast<int>(a.size());
  for (const char c : b) {
    const uint64_t eq = peq.Of(c)[0];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    score += (ph & last) != 0;
    score -= (mh & last) != 0;
    ph = (ph << 1) | 1;  // Row 0 is D[0][j] = j: +1 per column.
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

// Optimal-string-alignment distance (Hyyrö 2003): Myers' step plus a
// transposition term, which needs the previous column's match mask and
// diagonal-zero vector.
int OsaDistance(std::string_view a, std::string_view b) {
  const CharMasks peq(a);
  const uint64_t last = uint64_t{1} << (a.size() - 1);
  uint64_t vp = ~uint64_t{0};
  uint64_t vn = 0;
  uint64_t d0 = 0;
  uint64_t previous_pm = 0;
  int score = static_cast<int>(a.size());
  for (const char c : b) {
    const uint64_t pm = peq.Of(c)[0];
    const uint64_t transposition = ((~d0 & pm) << 1) & previous_pm;
    d0 = (((pm & vp) + vp) ^ vp) | pm | vn | transposition;
    uint64_t hp = vn | ~(d0 | vp);
    uint64_t hn = d0 & vp;
    score += (hp & last) != 0;
    score -= (hn & last) != 0;
    hp = (hp << 1) | 1;
    hn <<= 1;
    vp = hn | ~(d0 | hp);
    vn = hp & d0;
    previous_pm = pm;
  }
  return score;
}

// Longest common subsequence length (Hyyrö 2004; Allison-Dix): the zero
// bits of `s` below |a| mark the rows where the LCS grows.
int LcsLength(std::string_view a, std::string_view b) {
  const CharMasks peq(a);
  uint64_t s = ~uint64_t{0};
  for (const char c : b) {
    const uint64_t u = s & peq.Of(c)[0];
    s = (s + u) | (s - u);
  }
  return std::popcount(~s & LowBits(a.size()));
}

// ---- Bit-parallel Jaro ---------------------------------------------------

struct JaroMatches {
  size_t matches = 0;
  size_t transpositions = 0;
};

// Jaro's greedy matching over ceil(|b| / 64) words: for each a[i] in
// order, the lowest unmatched b[j] == a[i] inside the match window is
// taken, exactly the position a left-to-right scan of the window finds.
// `b_matched` holds ceil(|b| / 64) zeroed words; `a_chars` room for
// min(|a|, |b|) characters (a's matched characters, in order of i).
JaroMatches MatchJaro(std::string_view a, std::string_view b, size_t window,
                      uint64_t* b_matched, char* a_chars) {
  const CharMasks masks(b);
  const size_t m = b.size();
  JaroMatches result;
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t lo = i > window ? i - window : 0;
    if (lo >= m) break;  // Every later window starts past b's end too.
    const size_t hi = std::min(m, i + window + 1);
    const uint64_t* row = masks.Of(a[i]);
    for (size_t w = lo / kWordBits; w * kWordBits < hi; ++w) {
      uint64_t candidates = row[w] & ~b_matched[w];
      if (w == lo / kWordBits) candidates &= ~uint64_t{0} << (lo % kWordBits);
      if (hi - w * kWordBits < kWordBits) {
        candidates &= LowBits(hi - w * kWordBits);
      }
      if (candidates != 0) {
        b_matched[w] |= candidates & (~candidates + 1);  // Lowest set bit.
        a_chars[result.matches++] = a[i];
        break;
      }
    }
  }
  // Transpositions: the k-th matched character of a against the k-th
  // matched position of b.
  size_t k = 0;
  for (size_t w = 0; w * kWordBits < m; ++w) {
    for (uint64_t bits = b_matched[w]; bits != 0; bits &= bits - 1) {
      const size_t j =
          w * kWordBits + static_cast<size_t>(std::countr_zero(bits));
      if (a_chars[k++] != b[j]) ++result.transpositions;
    }
  }
  return result;
}

int LevenshteinCapped(std::string_view a, std::string_view b) {
  if (a.empty()) return static_cast<int>(b.size());
  if (b.empty()) return static_cast<int>(a.size());
  return MyersLevenshtein(a, b);
}

// ---- Alignment similarities (kernels::align_scores) ----------------------

// The similarity of one pair from its integer alignment score (see
// kernels::Alignment for the units); n and m are the capped lengths.
double FromAlignmentScore(kernels::Alignment kind, size_t n, size_t m,
                          int score) {
  switch (kind) {
    case kernels::Alignment::kNeedlemanWunsch: {
      const double max_len = static_cast<double>(std::max(n, m));
      if (max_len == 0) return 1.0;
      return (score + max_len) / (2.0 * max_len);
    }
    case kernels::Alignment::kSmithWaterman:
    case kernels::Alignment::kSmithWatermanGotoh: {
      const double min_len = static_cast<double>(std::min(n, m));
      if (min_len == 0) return n == m ? 1.0 : 0.0;
      const double unit =
          kind == kernels::Alignment::kSmithWaterman ? 2.0 : 4.0;
      const double best = score / unit;
      return best / min_len;
    }
    case kernels::Alignment::kLongestCommonSubstring: {
      const size_t max_len = std::max(n, m);
      if (max_len == 0) return 1.0;
      if (n == 0 || m == 0) return 0.0;
      return static_cast<double>(score) / static_cast<double>(max_len);
    }
  }
  return 0.0;
}

double AlignmentSim(kernels::Alignment kind, const AttributeProfile& a,
                    const AttributeProfile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  return FromAlignmentScore(kind, sa.size(), sb.size(),
                            kernels::AlignmentScore(kind, sa, sb));
}

// One EvaluateBatch chunk of an alignment similarity: the non-null pairs'
// capped texts go to the active backend's align_scores in blocks of up to
// 256 pairs, then each score takes the per-pair path's formula, null check,
// clamp and float cast.
void AlignmentChunk(kernels::Alignment kind,
                    const AttributeProfile* const* left,
                    const AttributeProfile* const* right, size_t begin,
                    size_t end, float* out) {
  constexpr size_t kBlock = 256;
  std::string_view a[kBlock];
  std::string_view b[kBlock];
  size_t slot[kBlock];
  int scores[kBlock];
  const kernels::KernelOps& ops = kernels::Active();
  for (size_t block = begin; block < end; block += kBlock) {
    const size_t block_end = std::min(end, block + kBlock);
    size_t count = 0;
    for (size_t i = block; i < block_end; ++i) {
      if (left[i]->is_null || right[i]->is_null) {
        out[i] = 0.0f;
        continue;
      }
      a[count] = Capped(left[i]->text);
      b[count] = Capped(right[i]->text);
      slot[count++] = i;
    }
    ops.align_scores(kind, a, b, count, scores);
    for (size_t k = 0; k < count; ++k) {
      out[slot[k]] = static_cast<float>(std::clamp(
          FromAlignmentScore(kind, a[k].size(), b[k].size(), scores[k]), 0.0,
          1.0));
    }
  }
}

}  // namespace

namespace internal_edit {

int LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() <= kWordBits) return LevenshteinCapped(a, b);
  // Both longer than one word (never the case for capped inputs): the
  // textbook two-row dynamic program.
  std::vector<int> previous(b.size() + 1);
  std::vector<int> current(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) previous[j] = static_cast<int>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    current[0] = static_cast<int>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      current[j] = std::min({previous[j] + 1, current[j - 1] + 1,
                             previous[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
    std::swap(previous, current);
  }
  return previous[b.size()];
}

double JaroRaw(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;

  const size_t window =
      std::max<size_t>(1, std::max(n, m) / 2) - 1;  // Match window.
  JaroMatches counts;
  if (m <= kWordBits) {
    uint64_t b_matched = 0;
    char a_chars[kWordBits];
    counts = MatchJaro(a, b, window, &b_matched, a_chars);
  } else {
    std::vector<uint64_t> b_matched((m + kWordBits - 1) / kWordBits, 0);
    std::string a_chars(std::min(n, m), '\0');
    counts = MatchJaro(a, b, window, b_matched.data(), a_chars.data());
  }
  if (counts.matches == 0) return 0.0;
  const double dm = static_cast<double>(counts.matches);
  return (dm / n + dm / m + (dm - counts.transpositions / 2.0) / dm) / 3.0;
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

}  // namespace internal_edit

double IdentitySimilarity::ComputeNonNull(const AttributeProfile& a,
                                          const AttributeProfile& b) const {
  return a.text == b.text ? 1.0 : 0.0;
}

double LevenshteinSimilarity::ComputeNonNull(const AttributeProfile& a,
                                             const AttributeProfile& b) const {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t max_len = std::max(sa.size(), sb.size());
  if (max_len == 0) return 1.0;
  const int distance = LevenshteinCapped(sa, sb);
  return 1.0 - static_cast<double>(distance) / static_cast<double>(max_len);
}

double DamerauLevenshteinSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
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
  return 1.0 - static_cast<double>(OsaDistance(sa, sb)) /
                   static_cast<double>(max_len);
}

double JaroSimilarity::ComputeNonNull(const AttributeProfile& a,
                                      const AttributeProfile& b) const {
  return internal_edit::JaroRaw(a.text, b.text);
}

double JaroWinklerSimilarity::ComputeNonNull(const AttributeProfile& a,
                                             const AttributeProfile& b) const {
  return internal_edit::JaroWinklerRaw(a.text, b.text);
}

double NeedlemanWunschSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  return AlignmentSim(kernels::Alignment::kNeedlemanWunsch, a, b);
}

void NeedlemanWunschSimilarity::EvaluateChunk(
    const AttributeProfile* const* left, const AttributeProfile* const* right,
    size_t begin, size_t end, float* out) const {
  AlignmentChunk(kernels::Alignment::kNeedlemanWunsch, left, right, begin,
                 end, out);
}

double SmithWatermanSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  return AlignmentSim(kernels::Alignment::kSmithWaterman, a, b);
}

void SmithWatermanSimilarity::EvaluateChunk(
    const AttributeProfile* const* left, const AttributeProfile* const* right,
    size_t begin, size_t end, float* out) const {
  AlignmentChunk(kernels::Alignment::kSmithWaterman, left, right, begin, end,
                 out);
}

double SmithWatermanGotohSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  return AlignmentSim(kernels::Alignment::kSmithWatermanGotoh, a, b);
}

void SmithWatermanGotohSimilarity::EvaluateChunk(
    const AttributeProfile* const* left, const AttributeProfile* const* right,
    size_t begin, size_t end, float* out) const {
  AlignmentChunk(kernels::Alignment::kSmithWatermanGotoh, left, right, begin,
                 end, out);
}

double LongestCommonSubsequenceSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  if (n + m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  return 2.0 * LcsLength(sa, sb) / static_cast<double>(n + m);
}

double LongestCommonSubstringSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  return AlignmentSim(kernels::Alignment::kLongestCommonSubstring, a, b);
}

void LongestCommonSubstringSimilarity::EvaluateChunk(
    const AttributeProfile* const* left, const AttributeProfile* const* right,
    size_t begin, size_t end, float* out) const {
  AlignmentChunk(kernels::Alignment::kLongestCommonSubstring, left, right,
                 begin, end, out);
}

}  // namespace alem
