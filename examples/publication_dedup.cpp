// Bibliography deduplication with interpretable rules.
//
// Publication datasets (DBLP vs ACM here) are clean enough that concise
// matching rules work well, and in settings where a human must sign off on
// the matching logic, an explainable model beats a slightly more accurate
// black box. This example learns a monotone-DNF rule ensemble with the
// LFP/LFN heuristic, prints it, and contrasts its size with the DNF a
// random forest would imply (the paper's interpretability metric).

#include <cstdio>

#include "core/evaluator.h"
#include "core/harness.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "core/session.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;

  const PreparedDataset data = PrepareDataset({DblpAcmProfile(), /*seed=*/3});
  std::printf("dataset %s: %zu pairs, %zu matches\n\n", data.name.c_str(),
              data.pairs.size(), data.num_matches);

  // Learn rules with LFP/LFN (keeps the final model for inspection).
  ActivePool pool(data.boolean_features);
  PerfectOracle oracle(data.truth);
  ProgressiveEvaluator evaluator(data.truth);
  RuleLearner rules;
  LfpLfnSelector selector;
  ActiveLearningConfig loop_config;
  loop_config.max_labels = 300;
  LabelingSession session(rules, selector, oracle, evaluator, pool,
                          loop_config);
  session.Run();
  const auto curve = std::move(session).TakeCurve();

  std::printf("rules terminated after %zu iterations (%zu labels), "
              "progressive F1 = %.3f\n",
              curve.size(), curve.back().labels_used,
              curve.back().metrics.f1);
  std::printf("\nlearned rule ensemble (%zu DNF atoms):\n  %s\n",
              rules.dnf().NumAtoms(),
              rules.dnf().ToString(*data.featurizer).c_str());

  // The accuracy-vs-interpretability trade-off against trees.
  RunConfig config;
  config.approach = TreesSpec(20);
  config.max_labels = 300;
  const RunResult trees = RunActiveLearning(data, config);
  std::printf(
      "\nTrees(20): best F1 %.3f, but its implied DNF has %zu atoms "
      "(vs %zu for rules) at depth %d —\n"
      "three orders of magnitude harder for a human to audit.\n",
      trees.best_f1, trees.curve.back().dnf_atoms, rules.dnf().NumAtoms(),
      trees.curve.back().tree_depth);
  return 0;
}
