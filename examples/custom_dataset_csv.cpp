// Bring your own data: running the pipeline on CSV files.
//
// The other examples use the built-in synthetic dataset profiles. This one
// shows the full manual path for user data:
//   1. load left/right tables from CSV (header row = schema),
//   2. align columns by name and declare ground truth (for evaluation),
//   3. block, extract features, and run active learning with the low-level
//      loop API (instead of the PrepareDataset/RunActiveLearning harness).
// For the demo the CSVs are first written to a temp directory.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "blocking/jaccard_blocking.h"
#include "core/evaluator.h"
#include "core/learner.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "core/session.h"
#include "features/feature_extractor.h"
#include "util/csv.h"

namespace {

// A miniature two-catalog product dataset.
constexpr const char* kLeftCsv =
    "name,price\n"
    "sonix powershot z20 camera,199.99\n"
    "sonix powershot z30 camera,249.99\n"
    "velar office chair black,89.00\n"
    "velar office chair white,91.00\n"
    "kordo usb c cable 2m,9.99\n"
    "kordo usb c cable 1m,7.99\n"
    "mistral desk lamp led,34.50\n"
    "mistral floor lamp led,54.50\n";

constexpr const char* kRightCsv =
    "name,price\n"
    "sonix power-shot z20 digital camera,199\n"
    "sonix powershot z30,250.00\n"
    "velar chair black office,89\n"
    "kordo usbc cable 2 m,9.95\n"
    "mistral led desk lamp,34.99\n"
    "garmix running watch,129.00\n";

}  // namespace

int main() {
  using namespace alem;

  // 1. Write and load the CSVs.
  const std::string dir = "/tmp/alem_custom_dataset";
  std::system(("mkdir -p " + dir).c_str());
  WriteCsvFile(dir + "/left.csv", ParseCsv(kLeftCsv));
  WriteCsvFile(dir + "/right.csv", ParseCsv(kRightCsv));

  EmDataset dataset;
  dataset.name = "custom-products";
  if (!Table::FromCsvFile(dir + "/left.csv", &dataset.left) ||
      !Table::FromCsvFile(dir + "/right.csv", &dataset.right)) {
    std::fprintf(stderr, "failed to load CSVs\n");
    return 1;
  }

  // 2. Align columns by name; declare the known matches (left row, right
  //    row) for evaluation / as the Oracle's answer key.
  dataset.matched_columns = EmDataset::AlignByName(dataset.left,
                                                   dataset.right);
  dataset.truth.AddMatch({0, 0});
  dataset.truth.AddMatch({1, 1});
  dataset.truth.AddMatch({2, 2});
  dataset.truth.AddMatch({4, 3});
  dataset.truth.AddMatch({6, 4});

  // 3. Block and featurize.
  const auto pairs = JaccardBlocking(dataset, BlockingConfig{0.15});
  FeatureExtractor extractor(dataset);
  std::printf("%zu candidate pairs after blocking, %zu features each\n",
              pairs.size(), extractor.num_dims());

  ActivePool pool(extractor.ExtractAll(pairs));
  const std::vector<int> truth = dataset.LabelsFor(pairs);
  PerfectOracle oracle(truth);
  ProgressiveEvaluator evaluator(truth);

  RandomForestConfig forest_config;
  forest_config.num_trees = 10;
  ForestLearner learner(forest_config);
  ForestQbcSelector selector(/*seed=*/1);

  ActiveLearningConfig config;
  config.seed_size = 6;   // The toy dataset has very few pairs.
  config.batch_size = 2;
  config.max_labels = 16;
  LabelingSession session(learner, selector, oracle, evaluator, pool, config);
  session.Run();
  const auto curve = std::move(session).TakeCurve();

  std::printf("\n%8s %8s\n", "#labels", "F1");
  for (const IterationStats& it : curve) {
    std::printf("%8zu %8.3f\n", it.labels_used, it.metrics.f1);
  }

  // The trained model can now label the remaining pairs.
  std::printf("\npredicted matches among candidate pairs:\n");
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (learner.Predict(pool.features().Row(i)) == 1) {
      std::printf("  left[%u] '%s'  <->  right[%u] '%s'%s\n", pairs[i].left,
                  std::string(dataset.left.Value(pairs[i].left, 0)).c_str(),
                  pairs[i].right,
                  std::string(dataset.right.Value(pairs[i].right, 0)).c_str(),
                  dataset.truth.IsMatch(pairs[i]) ? "" : "   (FALSE POSITIVE)");
    }
  }
  return 0;
}
