// Approach specifications: named (learner, example selector) combinations.
//
// An ApproachSpec captures one cell of the paper's comparison grid, e.g.
// "Trees(20)" = random forest of 20 trees + learner-aware QBC, or
// "Linear-Margin(Ensemble)" = linear SVM + margin selection + active
// ensemble. The factory enforces the learner/selector compatibility encoded
// in the class hierarchy (Fig. 2).

#ifndef ALEM_CORE_APPROACHES_H_
#define ALEM_CORE_APPROACHES_H_

#include <memory>
#include <string>

#include "core/learner.h"
#include "core/selector.h"

namespace alem {

enum class LearnerKind {
  kLinearSvm,
  kNeuralNet,
  kRandomForest,
  kRules,
  kDeepMatcherProxy,  // Deeper supervised NN (Fig. 16 baseline).
};

enum class SelectorKind {
  kMargin,
  kQbc,        // Learner-agnostic bootstrap QBC.
  kForestQbc,  // Learner-aware QBC (trees are the committee).
  kLfpLfn,
  kRandom,     // Supervised-learning baseline.
};

struct ApproachSpec {
  LearnerKind learner = LearnerKind::kRandomForest;
  SelectorKind selector = SelectorKind::kForestQbc;

  // QBC bootstrap committee size (SelectorKind::kQbc).
  int committee_size = 2;
  // Forest size (LearnerKind::kRandomForest).
  int num_trees = 10;
  // Margin selection-time blocking dimensions; 0 = no blocking.
  size_t blocking_dims = 0;
  // Learn an active ensemble (margin learners only, Section 5.2).
  bool active_ensemble = false;
  double ensemble_precision = 0.85;

  // Display name matching the paper's figure legends, e.g.
  // "Trees(20)", "Linear-Margin(1Dim)", "NN-QBC(2)", "Rules(LFP/LFN)".
  std::string DisplayName() const;
};

// Common specs used throughout the evaluation section.
ApproachSpec TreesSpec(int num_trees);
ApproachSpec LinearMarginSpec(size_t blocking_dims = 0);
ApproachSpec LinearMarginEnsembleSpec(double precision = 0.85);
ApproachSpec LinearQbcSpec(int committee_size);
ApproachSpec NeuralMarginSpec();
// Active ensemble of neural networks — the paper's Section 5.2 notes the
// technique "can be applied as discussed without much modification".
ApproachSpec NeuralMarginEnsembleSpec(double precision = 0.85);
ApproachSpec NeuralQbcSpec(int committee_size);
ApproachSpec RulesLfpLfnSpec();
ApproachSpec RulesQbcSpec(int committee_size);
ApproachSpec SupervisedTreesSpec(int num_trees);
ApproachSpec DeepMatcherSpec();

// Parses a CLI-friendly approach name into a spec. Accepted names:
//   trees<N>                   e.g. trees20
//   linear-margin              margin, no blocking
//   linear-margin-<K>dim       margin with K blocking dimensions
//   linear-margin-ensemble     active ensemble (tau 0.85)
//   linear-qbc<B>              bootstrap QBC with B members
//   nn-margin, nn-qbc<B>       neural network variants
//   rules                      LFP/LFN rule learning
//   rules-qbc<B>               rules with bootstrap QBC
//   supervised-trees<N>        random selection baseline
//   deepmatcher                supervised deep proxy
// Returns false for unknown names.
bool ApproachFromName(const std::string& name, ApproachSpec* spec);

// Instantiated approach: a learner plus a compatible selector.
struct Approach {
  std::unique_ptr<Learner> learner;
  std::unique_ptr<ExampleSelector> selector;
};

// Whether MakeApproach can build `spec`. False with *error naming the
// field otherwise: a QBC committee_size outside [2, 4096], a forest's
// num_trees outside [1, 4096], a selector whose CompatibleWith rejects
// the learner (Fig. 2), an active_ensemble without a margin learner, or
// an ensemble_precision outside (0, 1].
bool CheckApproach(const ApproachSpec& spec, std::string* error);

// Builds learner + selector per the spec; aborts on a spec CheckApproach
// rejects. `seed` drives all stochastic components.
Approach MakeApproach(const ApproachSpec& spec, uint64_t seed);

}  // namespace alem

#endif  // ALEM_CORE_APPROACHES_H_
