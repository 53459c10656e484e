// Differential harness for the runtime-dispatched kernel backends
// (src/kernels/). For every backend available on this host, each kernel is
// driven over randomized inputs — seeded RNG, odd lengths, unaligned
// tails, empty and single-row chunks, denormal-adjacent magnitudes — and
// compared against the scalar reference (kernel_scalar.cc).
//
// Equivalence contract (docs/kernels.md): every kernel registered today is
// REORDER-FREE, so the comparisons below assert exact equality — EXPECT_EQ
// on doubles/floats, i.e. 0 ULP. The UlpDistance helper exists so a future
// reassociating backend (e.g. an FMA-tiled GEMV) can be held to a
// documented nonzero ULP bound instead of silently weakening the bitwise
// tests; until such a backend exists, it doubles as a second witness that
// the distance really is zero.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "kernels/backend.h"
#include "ml/linear_svm.h"
#include "ml/neural_net.h"
#include "sim/similarity.h"
#include "util/rng.h"

namespace alem {
namespace {

// Forces a backend for the scope of one test body and restores the
// previously active backend on destruction.
class BackendScope {
 public:
  explicit BackendScope(std::string_view name)
      : previous_(kernels::BackendName()) {
    ok_ = kernels::SetBackend(name, &error_);
  }
  ~BackendScope() { kernels::SetBackend(previous_, nullptr); }
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

 private:
  std::string previous_;
  std::string error_;
  bool ok_ = false;
};

std::vector<std::string> NonScalarBackends() {
  std::vector<std::string> names;
  for (const std::string_view name : kernels::AvailableBackendNames()) {
    if (name != "scalar") names.emplace_back(name);
  }
  return names;
}

// Raw bit pattern; the strongest possible equality (distinguishes -0.0
// from +0.0 and one NaN payload from another).
uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// ULP distance between two doubles: 0 for numerically equal values (so
// +0.0 and -0.0 are distance 0), max() when either is NaN.
uint64_t UlpDistance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<uint64_t>::max();
  }
  auto ordered = [](double v) {
    int64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    // Map the sign-magnitude double ordering onto the integer line.
    return bits < 0 ? std::numeric_limits<int64_t>::min() - bits : bits;
  };
  const int64_t ia = ordered(a);
  const int64_t ib = ordered(b);
  return ia > ib ? static_cast<uint64_t>(ia) - static_cast<uint64_t>(ib)
                 : static_cast<uint64_t>(ib) - static_cast<uint64_t>(ia);
}

TEST(UlpDistanceTest, BehavesAsDocumented) {
  EXPECT_EQ(UlpDistance(1.0, 1.0), 0u);
  EXPECT_EQ(UlpDistance(0.0, -0.0), 0u);
  EXPECT_EQ(UlpDistance(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(UlpDistance(-1.0, std::nextafter(-1.0, -2.0)), 1u);
  EXPECT_EQ(UlpDistance(std::nan(""), 1.0),
            std::numeric_limits<uint64_t>::max());
}

// ---- Dispatch semantics ------------------------------------------------

TEST(KernelDispatchTest, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(kernels::BackendAvailable(kernels::Backend::kScalar));
  const auto names = kernels::AvailableBackendNames();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "scalar");
}

TEST(KernelDispatchTest, AutoNeverSelectsUnavailableBackend) {
  BackendScope scope("auto");
  ASSERT_TRUE(scope.ok());
  EXPECT_TRUE(kernels::BackendAvailable(kernels::ActiveBackend()));
}

TEST(KernelDispatchTest, EveryAvailableBackendIsSelectable) {
  for (const std::string_view name : kernels::AvailableBackendNames()) {
    BackendScope scope(name);
    EXPECT_TRUE(scope.ok()) << name << ": " << scope.error();
    EXPECT_EQ(kernels::BackendName(), name);
    EXPECT_STREQ(kernels::Active().name, std::string(name).c_str());
  }
}

TEST(KernelDispatchTest, UnknownBackendIsRejected) {
  const std::string before(kernels::BackendName());
  std::string error;
  EXPECT_FALSE(kernels::SetBackend("sse9", &error));
  EXPECT_NE(error.find("sse9"), std::string::npos);
  EXPECT_EQ(kernels::BackendName(), before);  // Active selection unchanged.
}

TEST(KernelDispatchTest, UnavailableBackendIsRejected) {
  if (kernels::BackendAvailable(kernels::Backend::kAvx2)) {
    GTEST_SKIP() << "avx2 is available on this host";
  }
  std::string error;
  EXPECT_FALSE(kernels::SetBackend("avx2", &error));
  EXPECT_NE(error.find("avx2"), std::string::npos);
}

TEST(KernelDispatchTest, BackendNamesRoundTrip) {
  EXPECT_EQ(kernels::BackendToName(kernels::Backend::kScalar), "scalar");
  EXPECT_EQ(kernels::BackendToName(kernels::Backend::kAvx2), "avx2");
}

// ---- Per-kernel randomized differential tests --------------------------
//
// Each test fetches the scalar table once, then replays identical inputs
// through every available non-scalar backend's table and demands exact
// agreement. Inputs deliberately cover empty ranges, single elements,
// sizes straddling the vector widths (4/8/16 lanes), and misaligned
// pointers (the kernels use unaligned loads; slicing buffers at odd
// offsets would catch any alignment assumption).

const kernels::KernelOps& OpsFor(const std::string& name) {
  // BackendScope flips the active table; grab the pointer while forced.
  BackendScope scope(name);
  EXPECT_TRUE(scope.ok()) << scope.error();
  return kernels::Active();
}

TEST(KernelDifferentialTest, AlignScoresMatchScalarBitwise) {
  const kernels::KernelOps& scalar = OpsFor("scalar");
  const kernels::Alignment kinds[] = {
      kernels::Alignment::kNeedlemanWunsch,
      kernels::Alignment::kSmithWaterman,
      kernels::Alignment::kSmithWatermanGotoh,
      kernels::Alignment::kLongestCommonSubstring,
  };
  // Few symbols => long matches and many ties; raw bytes >= 0x80 check
  // that no byte is mistaken for the lanes' out-of-byte-range padding.
  const std::string alphabets[] = {"ab", "abcd", "abcdefghijklmnopqrstuvwxyz ",
                                   "\x80\xc3\xa9\xff\xfe"};
  // Counts straddle the 16-lane groups and the 256-pair sort blocks.
  const size_t counts[] = {0, 1, 15, 16, 17, 255, 256, 257, 600};
  for (const std::string& backend : NonScalarBackends()) {
    const kernels::KernelOps& ops = OpsFor(backend);
    Rng rng(99);
    for (const size_t count : counts) {
      std::vector<std::string> a_text(count);
      std::vector<std::string> b_text(count);
      for (size_t i = 0; i < count; ++i) {
        const std::string& alphabet =
            alphabets[rng.NextBelow(std::size(alphabets))];
        for (std::string* text : {&a_text[i], &b_text[i]}) {
          // Lengths 0..64 (the kernel's cap), biased toward the cap and
          // toward empty so both extremes share groups.
          const size_t length = rng.NextBernoulli(0.2)
                                    ? (rng.NextBernoulli(0.5) ? 0 : 64)
                                    : rng.NextBelow(65);
          for (size_t k = 0; k < length; ++k) {
            text->push_back(alphabet[rng.NextBelow(alphabet.size())]);
          }
        }
      }
      std::vector<std::string_view> a(a_text.begin(), a_text.end());
      std::vector<std::string_view> b(b_text.begin(), b_text.end());
      for (const kernels::Alignment kind : kinds) {
        std::vector<int> expected(count + 1, -1000);
        std::vector<int> actual(count + 1, -2000);
        scalar.align_scores(kind, a.data(), b.data(), count, expected.data());
        ops.align_scores(kind, a.data(), b.data(), count, actual.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(expected[i], kernels::AlignmentScore(kind, a[i], b[i]));
          ASSERT_EQ(actual[i], expected[i])
              << backend << " kind " << static_cast<int>(kind) << " count "
              << count << " pair " << i << ": '" << a[i] << "' vs '" << b[i]
              << "'";
        }
        // Nothing past `count` is written.
        ASSERT_EQ(actual[count], -2000);
      }
    }
  }
}

// Values spanning ~600 orders of magnitude, including denormal-adjacent
// magnitudes: any double-rounding or flush-to-zero difference in a backend
// would surface as a ULP gap here.
double RandomMagnitude(Rng& rng) {
  static const double magnitudes[] = {
      0.0,    1e-320, 5e-310, 2.2250738585072014e-308,  // Denormal range.
      1e-30,  1e-3,   0.5,    1.0,
      3.7,    1e3,    1e30,   1e300,
  };
  double v = magnitudes[rng.NextBelow(12)] *
             (0.5 + rng.NextDouble());  // Perturb off the round numbers.
  return rng.NextBernoulli(0.5) ? v : -v;
}

// Same idea within float range (float-denormal-adjacent at 1e-40), so
// double->float conversion of test inputs never overflows.
float RandomFloatMagnitude(Rng& rng) {
  static const double magnitudes[] = {0.0, 1e-40, 1e-30, 1e-3, 0.5,
                                      1.0, 3.7,   1e3,   1e30};
  const double v = magnitudes[rng.NextBelow(9)] * (0.5 + rng.NextDouble());
  return static_cast<float>(rng.NextBernoulli(0.5) ? v : -v);
}

TEST(KernelDifferentialTest, SvmMarginBlockMatchesScalarBitwise) {
  const kernels::KernelOps& scalar = OpsFor("scalar");
  for (const std::string& backend : NonScalarBackends()) {
    const kernels::KernelOps& ops = OpsFor(backend);
    Rng rng(7);
    const size_t dims[] = {0, 1, 3, 7, 8, 9, 16, 17, 63, 64, 65};
    for (const size_t d : dims) {
      for (size_t nrows = 0; nrows <= kernels::kSvmMarginBlock; ++nrows) {
        std::vector<double> w(d + 1);
        for (double& v : w) v = RandomMagnitude(rng);
        // One misaligned backing buffer; rows start at odd offsets.
        std::vector<float> storage(kernels::kSvmMarginBlock * (d + 3));
        for (float& v : storage) v = RandomFloatMagnitude(rng);
        const float* x[kernels::kSvmMarginBlock];
        for (size_t r = 0; r < nrows; ++r) {
          x[r] = storage.data() + r * (d + 3) + (r % 3);
        }
        const double bias = RandomMagnitude(rng);
        std::vector<double> expected(nrows + 1, -1.0);
        std::vector<double> actual(nrows + 1, -2.0);
        scalar.svm_margin_block(w.data(), d, bias, x, nrows, expected.data());
        ops.svm_margin_block(w.data(), d, bias, x, nrows, actual.data());
        for (size_t r = 0; r < nrows; ++r) {
          // Raw-bit equality: extreme magnitudes can overflow to inf/NaN,
          // and even those must propagate identically in every backend.
          ASSERT_EQ(DoubleBits(actual[r]), DoubleBits(expected[r]))
              << backend << " d=" << d << " nrows=" << nrows << " row " << r
              << ": " << actual[r] << " vs " << expected[r];
          if (!std::isnan(expected[r])) {
            ASSERT_EQ(UlpDistance(actual[r], expected[r]), 0u);
          }
        }
      }
    }
  }
}

// Row blocks of 1..8 rows over every (in, out) pair of the widths, float
// and double inputs at misaligned row starts; the inputs past 256 take the
// AVX2 kernel's second transposed tile.
TEST(KernelDifferentialTest, NnAffineBlockMatchesScalarBitwise) {
  const kernels::KernelOps& scalar = OpsFor("scalar");
  const size_t widths[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33};
  const size_t inputs[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 257, 520};
  for (const std::string& backend : NonScalarBackends()) {
    const kernels::KernelOps& ops = OpsFor(backend);
    Rng rng(11);
    for (const size_t in : inputs) {
      for (const size_t out : widths) {
        std::vector<double> w(in * out);
        for (double& v : w) v = RandomMagnitude(rng);
        std::vector<double> bias(out);
        for (double& v : bias) v = RandomMagnitude(rng);
        const size_t stride = in + 3;
        std::vector<float> x32_storage(kernels::kNnRowBlock * stride);
        std::vector<double> x64_storage(kernels::kNnRowBlock * stride);
        for (float& v : x32_storage) v = RandomFloatMagnitude(rng);
        for (double& v : x64_storage) v = RandomMagnitude(rng);
        const float* x32[kernels::kNnRowBlock];
        const double* x64[kernels::kNnRowBlock];
        for (size_t r = 0; r < kernels::kNnRowBlock; ++r) {
          x32[r] = x32_storage.data() + r * stride + (r % 3);
          x64[r] = x64_storage.data() + r * stride + (r % 3);
        }
        for (size_t nrows = 1; nrows <= kernels::kNnRowBlock; ++nrows) {
          for (const bool f32 : {true, false}) {
            // One sentinel past the block: nothing beyond nrows * out is
            // written.
            std::vector<double> expected(nrows * out + 1, -1.0);
            std::vector<double> actual(nrows * out + 1, -2.0);
            if (f32) {
              scalar.nn_affine_block_f32(w.data(), bias.data(), in, out, x32,
                                         nrows, expected.data());
              ops.nn_affine_block_f32(w.data(), bias.data(), in, out, x32,
                                      nrows, actual.data());
            } else {
              scalar.nn_affine_block_f64(w.data(), bias.data(), in, out, x64,
                                         nrows, expected.data());
              ops.nn_affine_block_f64(w.data(), bias.data(), in, out, x64,
                                      nrows, actual.data());
            }
            for (size_t k = 0; k < nrows * out; ++k) {
              ASSERT_EQ(DoubleBits(actual[k]), DoubleBits(expected[k]))
                  << backend << (f32 ? " f32" : " f64") << " in=" << in
                  << " out=" << out << " nrows=" << nrows << " row "
                  << k / out << " unit " << k % out << ": " << actual[k]
                  << " vs " << expected[k];
              if (!std::isnan(expected[k])) {
                ASSERT_EQ(UlpDistance(actual[k], expected[k]), 0u);
              }
            }
            ASSERT_EQ(actual[nrows * out], -2.0);
          }
        }
      }
    }
  }
}

// Gradients mix regular magnitudes with exact 0.0 and -0.0, which the
// kernel must skip exactly as the scalar reference does (a -0.0 product
// added to a +0.0 sum would otherwise show in the bits); row counts past 8
// take several row groups, and 0 rows must still write every element.
TEST(KernelDifferentialTest, NnWeightGradMatchesScalarBitwise) {
  const kernels::KernelOps& scalar = OpsFor("scalar");
  const size_t widths[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33};
  const size_t row_counts[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17};
  for (const std::string& backend : NonScalarBackends()) {
    const kernels::KernelOps& ops = OpsFor(backend);
    Rng rng(13);
    for (const size_t in : widths) {
      for (const size_t out : widths) {
        for (const size_t nrows : row_counts) {
          std::vector<double> g(nrows * out);
          for (double& v : g) {
            const size_t pick = rng.NextBelow(4);
            v = pick == 0 ? 0.0 : pick == 1 ? -0.0 : RandomMagnitude(rng);
          }
          const size_t stride = in + 3;
          std::vector<double> x_storage(std::max<size_t>(nrows, 1) * stride);
          for (double& v : x_storage) {
            v = rng.NextBernoulli(0.2) ? -0.0 : RandomMagnitude(rng);
          }
          std::vector<const double*> x(nrows);
          for (size_t r = 0; r < nrows; ++r) {
            x[r] = x_storage.data() + r * stride + (r % 3);
          }
          // Garbage-filled outputs: every element must be overwritten, and
          // the sentinel past the end must survive.
          std::vector<double> expected(out * in + 1, -1.0);
          std::vector<double> actual(out * in + 1, -2.0);
          scalar.nn_weight_grad(g.data(), nrows, out, x.data(), in,
                                expected.data());
          ops.nn_weight_grad(g.data(), nrows, out, x.data(), in,
                             actual.data());
          for (size_t k = 0; k < out * in; ++k) {
            ASSERT_EQ(DoubleBits(actual[k]), DoubleBits(expected[k]))
                << backend << " in=" << in << " out=" << out
                << " nrows=" << nrows << " unit " << k / in << " input "
                << k % in << ": " << actual[k] << " vs " << expected[k];
          }
          ASSERT_EQ(actual[out * in], -2.0);
        }
      }
    }
  }
}

// One to four Pegasos lanes over widths straddling the 4-wide column
// transpose, sampled through index lists or straight from the matrix,
// balanced or not, last iterate or tail-averaged. Each lane starts from
// its own garbage weights and bias (the kernel trains in place): extreme
// magnitudes in odd lanes, small ones in even lanes. Rows of random
// magnitudes are packed at the width one float past the buffer's start,
// and a sentinel after each lane's weights must survive. The strong
// regularizer projects on many steps.
TEST(KernelDifferentialTest, SvmPegasosMatchesScalarBitwise) {
  const kernels::KernelOps& scalar = OpsFor("scalar");
  const size_t widths[] = {0, 1, 3, 4, 5, 7, 8, 9, 17, 33};
  for (const std::string& backend : NonScalarBackends()) {
    const kernels::KernelOps& ops = OpsFor(backend);
    Rng rng(17);
    for (const size_t d : widths) {
      for (size_t nlanes = 1; nlanes <= kernels::kSvmLanes; ++nlanes) {
        for (const bool averaged : {false, true}) {
          const size_t rows = 1 + rng.NextBelow(12);
          std::vector<float> storage(rows * d + 1);
          for (float& v : storage) v = RandomFloatMagnitude(rng);
          std::vector<int> labels(rows);
          for (int& label : labels) label = rng.NextBernoulli(0.3) ? 1 : 0;
          const kernels::SvmSchedule schedule{
              rng.NextBernoulli(0.5) ? 1e-2 : 3.0,
              rng.NextBelow(60),
              rows * (1 + rng.NextBelow(8)),
              d,
              rng.NextBernoulli(0.7),
              averaged};
          std::vector<std::vector<size_t>> samples(nlanes);
          std::vector<std::vector<int>> sample_labels(nlanes);
          std::vector<std::vector<double>> expected_w(nlanes);
          std::vector<double> expected_b(nlanes);
          for (size_t l = 0; l < nlanes; ++l) {
            // Lane 0 reads the matrix rows directly; the others resample.
            const size_t n = l == 0 ? rows : 1 + rng.NextBelow(2 * rows);
            if (l > 0) samples[l] = rng.SampleWithReplacement(rows, n);
            for (size_t i = 0; i < n; ++i) {
              sample_labels[l].push_back(labels[l == 0 ? i : samples[l][i]]);
            }
            expected_w[l].resize(d + 1);
            for (double& v : expected_w[l]) {
              v = l % 2 == 1 ? RandomMagnitude(rng) : rng.NextDouble() - 0.5;
            }
            expected_b[l] = RandomMagnitude(rng);
          }
          std::vector<double> sentinels(nlanes);
          for (size_t l = 0; l < nlanes; ++l) sentinels[l] = expected_w[l][d];
          std::vector<std::vector<double>> actual_w = expected_w;
          std::vector<double> actual_b = expected_b;
          auto lanes = [&](std::vector<std::vector<double>>& w,
                           std::vector<double>& b) {
            std::vector<kernels::SvmLane> out(nlanes);
            for (size_t l = 0; l < nlanes; ++l) {
              out[l] = {storage.data() + 1,
                        l == 0 ? nullptr : samples[l].data(),
                        sample_labels[l].data(),
                        sample_labels[l].size(),
                        1000 + 7 * l + d,
                        w[l].data(),
                        &b[l]};
            }
            return out;
          };
          const std::vector<kernels::SvmLane> expected_lanes =
              lanes(expected_w, expected_b);
          const std::vector<kernels::SvmLane> actual_lanes =
              lanes(actual_w, actual_b);
          scalar.svm_pegasos(schedule, expected_lanes.data(), nlanes);
          ops.svm_pegasos(schedule, actual_lanes.data(), nlanes);
          for (size_t l = 0; l < nlanes; ++l) {
            for (size_t j = 0; j <= d; ++j) {
              ASSERT_EQ(DoubleBits(actual_w[l][j]),
                        DoubleBits(expected_w[l][j]))
                  << backend << " d=" << d << " lanes=" << nlanes
                  << " averaged=" << averaged << " lane " << l << " weight "
                  << j << ": " << actual_w[l][j] << " vs "
                  << expected_w[l][j];
            }
            ASSERT_EQ(DoubleBits(actual_b[l]), DoubleBits(expected_b[l]))
                << backend << " d=" << d << " lanes=" << nlanes << " lane "
                << l << " bias";
            ASSERT_EQ(DoubleBits(actual_w[l][d]), DoubleBits(sentinels[l]));
          }
        }
      }
    }
  }
}

// ---- EvaluateBatch differential + chunk-boundary fuzz ------------------
//
// All 21 similarity functions, run through the public batch entry point
// under every available backend and compared bitwise against the forced-
// scalar result. Pair counts straddle the 16-pair groups of the AVX2
// alignment kernel and the sim.batch grain (256): 0, 1, 15, 16, 17, 255,
// 256, 257. String material includes empty, single-char, multi-byte
// UTF-8 (odd q-gram tails), and strings at/over the kMaxAlignmentLength
// cap of the edit-based functions.

std::vector<AttributeProfile> FuzzProfiles() {
  std::vector<std::string> samples = {
      "",
      "x",
      "sony camera",
      "canon powershot sx",
      "299.99",
      "kx-200 zoom",
      // Multi-byte UTF-8: q-gram windows land mid-codepoint.
      "caf\xc3\xa9 m\xc3\xbcnchen stra\xc3\x9f",
      "\xe6\x9d\xb1\xe4\xba\xac\xe9\x83\xbd",
      std::string(63, 'a'),
      std::string(64, 'b'),
      // Over the kMaxAlignmentLength=64 cap; edit sims truncate these.
      std::string(65, 'c') + "tail",
      std::string(300, 'd') + " tokens here too",
  };
  std::vector<AttributeProfile> profiles;
  profiles.reserve(samples.size());
  for (const std::string& s : samples) {
    profiles.push_back(AttributeProfile::Build(s));
  }
  return profiles;
}

TEST(KernelBatchDifferentialTest, AllSimilaritiesMatchScalarAtChunkEdges) {
  const std::vector<AttributeProfile> profiles = FuzzProfiles();
  Rng rng(42);
  const size_t pair_counts[] = {0, 1, 15, 16, 17, 255, 256, 257};
  const std::vector<std::string> backends = NonScalarBackends();
  for (const SimilarityFunction* function : AllSimilarityFunctions()) {
    for (const size_t count : pair_counts) {
      std::vector<const AttributeProfile*> left(count);
      std::vector<const AttributeProfile*> right(count);
      for (size_t i = 0; i < count; ++i) {
        left[i] = &profiles[rng.NextBelow(profiles.size())];
        right[i] = &profiles[rng.NextBelow(profiles.size())];
      }
      std::vector<float> reference(count + 1, -1.0f);
      {
        BackendScope scope("scalar");
        ASSERT_TRUE(scope.ok());
        function->EvaluateBatch(left, right, reference.data());
      }
      for (const std::string& backend : backends) {
        BackendScope scope(backend);
        ASSERT_TRUE(scope.ok()) << scope.error();
        std::vector<float> candidate(count + 1, -2.0f);
        function->EvaluateBatch(left, right, candidate.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(candidate[i], reference[i])
              << function->name() << " under " << backend << " pair " << i
              << " count=" << count;
        }
      }
    }
  }
}

// ---- End-to-end learner differential -----------------------------------
//
// Models are trained once under the active backend, then batch inference
// under every backend must reproduce the scalar per-row Margin bit for
// bit — the same pin ml_batch_test enforces for the batch path itself,
// here extended across backends. (Training under each backend is pinned
// against the reference training loop in ml_nn_reference_test.)

void MakeBlobs(size_t n, size_t dims, uint64_t seed, FeatureMatrix* features,
               std::vector<int>* labels) {
  Rng rng(seed);
  *features = FeatureMatrix(n, dims);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    const double center = positive ? 0.8 : 0.2;
    for (size_t d = 0; d < dims; ++d) {
      const float v = static_cast<float>(center + rng.NextGaussian() * 0.15);
      features->Set(i, d, rng.NextBernoulli(0.1) ? 0.0f : v);
    }
    (*labels)[i] = positive ? 1 : 0;
  }
}

TEST(KernelLearnerDifferentialTest, SvmMarginBatchBitwiseAcrossBackends) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeBlobs(300, 13, 5, &features, &labels);  // 13 dims: vector tail of 5.
  LinearSvm svm(LinearSvmConfig{});
  svm.Fit(features, labels);
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), 0u);

  for (const std::string_view backend : kernels::AvailableBackendNames()) {
    BackendScope scope(backend);
    ASSERT_TRUE(scope.ok()) << scope.error();
    std::vector<double> batch(rows.size());
    svm.MarginBatch(features, rows, batch.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(batch[i], svm.Margin(features.Row(rows[i])))
          << backend << " row " << i;
    }
  }
}

TEST(KernelLearnerDifferentialTest, NeuralNetMarginBatchBitwiseAcrossBackends) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeBlobs(200, 9, 6, &features, &labels);
  for (const bool batch_norm : {false, true}) {
    NeuralNetConfig config;
    config.epochs = 10;
    config.hidden_sizes = {17, 5};  // Unit tails of the 4-unit passes.
    config.use_batch_norm = batch_norm;
    NeuralNetwork net(config);
    net.Fit(features, labels);
    std::vector<size_t> rows(features.rows());
    std::iota(rows.begin(), rows.end(), 0u);

    for (const std::string_view backend : kernels::AvailableBackendNames()) {
      BackendScope scope(backend);
      ASSERT_TRUE(scope.ok()) << scope.error();
      std::vector<double> batch(rows.size());
      net.MarginBatch(features, rows, batch.data());
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(batch[i], net.Margin(features.Row(rows[i])))
            << backend << " bn=" << batch_norm << " row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace alem
