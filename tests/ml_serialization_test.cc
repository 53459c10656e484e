#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>

#include "ml/metrics.h"
#include "ml/serialization.h"
#include "util/rng.h"

namespace alem {
namespace {

void MakeXor(size_t n, uint64_t seed, FeatureMatrix* features,
             std::vector<int>* labels) {
  Rng rng(seed);
  *features = FeatureMatrix(n, 2);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool a = rng.NextBernoulli(0.5);
    const bool b = rng.NextBernoulli(0.5);
    features->Set(i, 0,
                  static_cast<float>((a ? 0.8 : 0.2) + rng.NextGaussian() * 0.05));
    features->Set(i, 1,
                  static_cast<float>((b ? 0.8 : 0.2) + rng.NextGaussian() * 0.05));
    (*labels)[i] = (a != b) ? 1 : 0;
  }
}

TEST(SerializationTest, SvmRoundTripPreservesPredictions) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeXor(200, 1, &features, &labels);
  LinearSvm original(LinearSvmConfig{});
  original.Fit(features, labels);

  LinearSvm restored;
  ASSERT_TRUE(DeserializeSvm(SerializeSvm(original), &restored));
  ASSERT_TRUE(restored.trained());
  EXPECT_EQ(restored.weights(), original.weights());
  EXPECT_DOUBLE_EQ(restored.bias(), original.bias());
  for (size_t i = 0; i < features.rows(); ++i) {
    EXPECT_DOUBLE_EQ(restored.Margin(features.Row(i)),
                     original.Margin(features.Row(i)));
  }
}

TEST(SerializationTest, TreeRoundTripPreservesPredictions) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeXor(300, 2, &features, &labels);
  DecisionTreeConfig config;
  config.max_features = -1;
  DecisionTree original(config);
  original.Fit(features, labels);

  DecisionTree restored;
  ASSERT_TRUE(DeserializeTree(SerializeTree(original), &restored));
  EXPECT_EQ(restored.depth(), original.depth());
  EXPECT_EQ(restored.num_nodes(), original.num_nodes());
  for (size_t i = 0; i < features.rows(); ++i) {
    EXPECT_EQ(restored.Predict(features.Row(i)),
              original.Predict(features.Row(i)));
  }
}

TEST(SerializationTest, ForestRoundTripPreservesVotes) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeXor(250, 3, &features, &labels);
  RandomForestConfig config;
  config.num_trees = 7;
  RandomForest original(config);
  original.Fit(features, labels);

  RandomForest restored;
  ASSERT_TRUE(DeserializeForest(SerializeForest(original), &restored));
  EXPECT_EQ(restored.trees().size(), original.trees().size());
  for (size_t i = 0; i < features.rows(); ++i) {
    EXPECT_DOUBLE_EQ(restored.PositiveFraction(features.Row(i)),
                     original.PositiveFraction(features.Row(i)));
  }
}

TEST(SerializationTest, NeuralNetRoundTripPreservesMargins) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeXor(200, 4, &features, &labels);
  NeuralNetConfig config;
  config.hidden_sizes = {16, 8};
  NeuralNetwork original(config);
  original.Fit(features, labels);

  NeuralNetwork restored;
  ASSERT_TRUE(DeserializeNeuralNet(SerializeNeuralNet(original), &restored));
  for (size_t i = 0; i < features.rows(); ++i) {
    EXPECT_DOUBLE_EQ(restored.Margin(features.Row(i)),
                     original.Margin(features.Row(i)));
  }
}

// Shapes of a hand-built alem-nn blob (format version 1) over 2 inputs;
// every vector entry is 0.25. The defaults describe a consistent
// two-layer network.
struct NnBlobShape {
  struct Layer {
    int in, out;
    size_t weights, bias, gamma, beta, running_mean, running_var;
  };
  std::vector<int> hidden_sizes = {4, 3};
  std::vector<Layer> layers = {{2, 4, 8, 4, 4, 4, 4, 4},
                               {4, 3, 12, 3, 3, 3, 3, 3}};
  size_t out_weights = 3;
};

std::string NnBlob(const NnBlobShape& shape) {
  std::ostringstream out;
  auto vector = [&out](size_t count) {
    out << count;
    for (size_t i = 0; i < count; ++i) out << " 0.25";
    out << '\n';
  };
  out << "alem-nn\n1\n" << shape.hidden_sizes.size();
  for (const int size : shape.hidden_sizes) out << ' ' << size;
  // epochs, batch_size, learning rate, decay, momentum, dropout, batch
  // norm, positive-weight cap, seed.
  out << "\n50\n8\n0.001\n0.99\n0.95\n0.5\n1\n10\n1\n";
  out << shape.layers.size() << '\n';
  for (const NnBlobShape::Layer& layer : shape.layers) {
    out << layer.in << '\n' << layer.out << '\n';
    for (const size_t count : {layer.weights, layer.bias, layer.gamma,
                               layer.beta, layer.running_mean,
                               layer.running_var}) {
      vector(count);
    }
  }
  vector(shape.out_weights);
  out << "0.125\n";
  return out.str();
}

// One row per shape rule of DeserializeNeuralNet, each breaking only that
// rule, plus the consistent blob. An accepted model must be usable: its
// margins are computed (under ASan, without reading past any buffer).
TEST(SerializationTest, NeuralNetRejectsInconsistentShapes) {
  using Mutation = std::function<void(NnBlobShape&)>;
  const struct {
    const char* name;
    Mutation mutate;
    bool accepted;
  } cases[] = {
      {"consistent", [](NnBlobShape&) {}, true},
      {"short bias", [](NnBlobShape& s) { s.layers[0].bias = 1; }, false},
      {"short gamma", [](NnBlobShape& s) { s.layers[1].gamma = 2; }, false},
      {"short beta", [](NnBlobShape& s) { s.layers[0].beta = 3; }, false},
      {"short running_mean",
       [](NnBlobShape& s) { s.layers[1].running_mean = 0; }, false},
      {"short running_var",
       [](NnBlobShape& s) { s.layers[0].running_var = 1; }, false},
      {"weights not in x out", [](NnBlobShape& s) { s.layers[0].weights = 7; },
       false},
      {"width differs from hidden_sizes",
       [](NnBlobShape& s) { s.hidden_sizes[1] = 5; }, false},
      {"input differs from previous output",
       [](NnBlobShape& s) {
         s.layers[1].in = 3;
         s.layers[1].weights = 9;
       },
       false},
      {"short out_weights", [](NnBlobShape& s) { s.out_weights = 1; }, false},
      {"no hidden layer",
       [](NnBlobShape& s) {
         s.hidden_sizes.clear();
         s.layers.clear();
         s.out_weights = 2;
       },
       false},
  };
  FeatureMatrix features(3, 2);
  for (size_t i = 0; i < 3; ++i) {
    features.Set(i, 0, 0.1f * static_cast<float>(i));
    features.Set(i, 1, 0.9f);
  }
  const std::vector<size_t> rows = {0, 1, 2};
  for (const auto& c : cases) {
    NnBlobShape shape;
    c.mutate(shape);
    NeuralNetwork model;
    ASSERT_EQ(DeserializeNeuralNet(NnBlob(shape), &model), c.accepted)
        << c.name;
    if (!c.accepted) continue;
    double margins[3];
    model.MarginBatch(features, rows, margins);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(std::isfinite(margins[i])) << c.name;
      EXPECT_EQ(margins[i], model.Margin(features.Row(i))) << c.name;
    }
  }
}

TEST(SerializationTest, DnfRoundTrip) {
  Dnf original;
  original.conjunctions.push_back(Conjunction{{0, 3, 7}});
  original.conjunctions.push_back(Conjunction{{2}});
  Dnf restored;
  ASSERT_TRUE(DeserializeDnf(SerializeDnf(original), &restored));
  ASSERT_EQ(restored.conjunctions.size(), 2u);
  EXPECT_EQ(restored.conjunctions[0].atoms, original.conjunctions[0].atoms);
  EXPECT_EQ(restored.conjunctions[1].atoms, original.conjunctions[1].atoms);
}

TEST(SerializationTest, EmptyDnfRoundTrip) {
  Dnf original;
  Dnf restored;
  ASSERT_TRUE(DeserializeDnf(SerializeDnf(original), &restored));
  EXPECT_TRUE(restored.conjunctions.empty());
}

TEST(SerializationTest, RejectsWrongTag) {
  LinearSvm svm;
  EXPECT_FALSE(DeserializeSvm("alem-tree\n1\n", &svm));
  DecisionTree tree;
  EXPECT_FALSE(DeserializeTree("alem-svm\n1\n", &tree));
  Dnf dnf;
  EXPECT_FALSE(DeserializeDnf("", &dnf));
}

TEST(SerializationTest, RejectsTruncatedBlob) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeXor(100, 5, &features, &labels);
  LinearSvm original(LinearSvmConfig{});
  original.Fit(features, labels);
  const std::string blob = SerializeSvm(original);
  LinearSvm restored;
  EXPECT_FALSE(DeserializeSvm(blob.substr(0, blob.size() / 2), &restored));
}

TEST(SerializationTest, RejectsCorruptNodeIndices) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeXor(100, 6, &features, &labels);
  DecisionTree original;
  original.Fit(features, labels);
  std::string blob = SerializeTree(original);
  // Corrupt the node count to something absurd.
  const size_t pos = blob.find('\n', blob.find("alem-tree"));
  (void)pos;
  DecisionTree restored;
  EXPECT_FALSE(DeserializeTree("alem-tree\n1\n0 2 0 1\n0\n0\n999999999\n",
                               &restored));
}

TEST(SerializationTest, FileRoundTrip) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeXor(150, 7, &features, &labels);
  RandomForestConfig config;
  config.num_trees = 3;
  RandomForest original(config);
  original.Fit(features, labels);

  const std::string path = ::testing::TempDir() + "/alem_model.txt";
  ASSERT_TRUE(SaveToFile(path, SerializeForest(original)));
  std::string blob;
  ASSERT_TRUE(LoadFromFile(path, &blob));
  RandomForest restored;
  ASSERT_TRUE(DeserializeForest(blob, &restored));
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(restored.Predict(features.Row(i)),
              original.Predict(features.Row(i)));
  }
}

}  // namespace
}  // namespace alem
