// Per-dataset generation profiles.
//
// Each profile replicates one of the paper's evaluation datasets (Table 1):
// the same matched-column schema, the same domain flavor (product vs
// publication vs social media), an approximated class skew, and a hardness
// level chosen so the paper's qualitative outcomes (which classifiers
// struggle, which datasets are "challenging") carry over. Record counts are
// scaled down from the originals so the full benchmark grid runs on a laptop
// core; every generator accepts a scale multiplier.

#ifndef ALEM_SYNTH_PROFILES_H_
#define ALEM_SYNTH_PROFILES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace alem {

// What a column contains; drives canonical value generation + perturbation.
enum class ColumnKind {
  kName,         // Product name: brand + category + model + filler.
  kDescription,  // Long free text containing the name tokens.
  kShortText,    // Shorter free text.
  kBrand,
  kModel,
  kPrice,
  kCategory,
  kTitle,        // Publication title.
  kAuthors,
  kVenue,
  kYear,
  kAddress,
  kPublisher,
  kEditor,
  kDate,
  kVolume,
  kPages,
  kPersonName,
  kEmail,
  kOccupation,
  kGender,
  kUrl,
  kCity,
  kAbv,          // Alcohol-by-volume style small decimal.
  kStyle,
  kDimensions,
  kWeight,
  kBoolean,
};

struct ColumnSpec {
  std::string name;
  ColumnKind kind;
};

enum class DomainKind { kProduct, kPublication, kSocial };

struct SynthProfile {
  std::string name;
  DomainKind domain = DomainKind::kProduct;
  std::vector<ColumnSpec> columns;

  // Entities present in both tables (each yields >= 1 matching pair).
  int num_matched_entities = 300;
  // Entities present in only one table.
  int num_left_only = 50;
  int num_right_only = 50;

  // Fraction of matched entities with multiple right-side copies, and the
  // copy-count cap (models Cora-style citation clusters).
  double multi_match_rate = 0.0;
  int max_right_copies = 1;

  // Perturbation strengths in [0, 1] applied when rendering records.
  double left_noise = 0.08;
  double right_noise = 0.25;
  // Probability that a rendered attribute is nulled out.
  double null_rate = 0.04;

  // Entities are generated in "families" (product lines, paper series,
  // household members) sharing brand/category/title stems and description
  // vocabulary. Within-family cross pairs survive blocking as hard
  // negatives, so the post-blocking class skew is roughly 1 / family_size.
  // 1 disables family structure.
  int family_size = 1;

  // Fraction of description/free-text tokens drawn from the family's shared
  // vocabulary (rather than the global pool). Higher values make
  // within-family non-matches more similar, increasing the number of hard
  // negatives that survive blocking (lowering class skew).
  double family_desc_share = 0.5;

  // When true, right-side renders pick one of three heterogeneous noise
  // modes (heavy-name-noise, heavy-description-noise, or balanced+price
  // jitter). Matches then form multiple clusters in similarity space that no
  // single linear boundary separates from the hard negatives — reproducing
  // the paper's gap between tree ensembles (F1 ~1.0) and linear/NN/rule
  // models (F1 0.2-0.7) on the product datasets.
  bool heterogeneous_modes = false;

  // Fraction of matched entities that also spawn a near-duplicate sibling
  // (same brand/category or title stem, different model/year) placed in the
  // right table as a hard negative.
  double sibling_rate = 0.6;

  // Offline blocking threshold used for this dataset (Section 6).
  double blocking_threshold = 0.1875;

  // Seed for the vocabulary pools (fixed per dataset so the "world" of
  // brands/venues is stable across runs; the record-level seed is a
  // GenerateDataset argument).
  uint64_t vocab_seed = 42;
};

// The five perfect-oracle datasets (Sections 6.1, Table 2).
SynthProfile AbtBuyProfile();
SynthProfile AmazonGoogleProfile();
SynthProfile DblpAcmProfile();
SynthProfile DblpScholarProfile();
SynthProfile CoraProfile();

// The Magellan/DeepMatcher datasets (Sections 6.2, Figs. 15-16).
SynthProfile WalmartAmazonProfile();
SynthProfile AmazonBestBuyProfile();
SynthProfile BeerProfile();
SynthProfile BabyProductsProfile();

// The enterprise/social-media matching task of Fig. 19.
SynthProfile SocialMediaProfile();

// All nine public-dataset profiles, in Table 1 order.
std::vector<SynthProfile> AllPublicProfiles();

// Looks a profile up by its dataset name; nullopt for an unknown name.
std::optional<SynthProfile> ProfileByName(const std::string& name);

// Stable 64-bit fingerprint over every profile field that influences the
// generated records. The persistent feature-matrix cache mixes it into its
// key, so editing a profile automatically invalidates cached matrices for
// that dataset (see docs/featurization.md).
uint64_t ProfileFingerprint(const SynthProfile& profile);

}  // namespace alem

#endif  // ALEM_SYNTH_PROFILES_H_
