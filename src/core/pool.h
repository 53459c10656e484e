// ActivePool: the labeled / unlabeled example state of an active-learning
// run over a fixed post-blocking pair space.

#ifndef ALEM_CORE_POOL_H_
#define ALEM_CORE_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "features/feature_matrix.h"

namespace alem {

// The feature matrix of all post-blocking pairs plus per-row state:
// unlabeled (selectable), labeled (training data), excluded (never
// selectable: held-out test rows, or rows covered by an accepted
// active-ensemble classifier).
class ActivePool {
 public:
  // Owns `features`.
  explicit ActivePool(FeatureMatrix features);
  // Views `*features`, which must outlive the pool: a run's pool over its
  // PreparedDataset's matrix, so building or restoring a run copies none.
  explicit ActivePool(const FeatureMatrix* features);

  size_t size() const { return features_->rows(); }
  const FeatureMatrix& features() const { return *features_; }

  // --- Labeling ---

  // Marks `row` labeled with `label` (from the Oracle). The row must be
  // currently unlabeled.
  void AddLabel(size_t row, int label);

  bool IsLabeled(size_t row) const;
  // Oracle-provided label; row must be labeled.
  int LabelOf(size_t row) const;
  size_t num_labeled() const { return labeled_.size(); }

  // Rows labeled so far, in labeling order.
  const std::vector<size_t>& labeled_rows() const { return labeled_; }

  // Currently selectable rows (not labeled, not excluded). Rebuilt on
  // demand; invalidated by AddLabel/Exclude.
  const std::vector<size_t>& unlabeled_rows() const;

  // Gathered training data over the *active* labeled rows (excluded labeled
  // rows — e.g. covered by an accepted ensemble member — are omitted).
  FeatureMatrix ActiveLabeledFeatures() const;
  std::vector<int> ActiveLabeledLabels() const;
  std::vector<size_t> ActiveLabeledRows() const;

  // --- Exclusion ---

  // Removes a row from both the selectable set and the active training set.
  // Used for held-out test rows and for active-ensemble coverage removal.
  void Exclude(size_t row);
  bool IsExcluded(size_t row) const;

 private:
  enum class RowState : uint8_t { kUnlabeled, kLabeled };

  explicit ActivePool(std::unique_ptr<const FeatureMatrix> owned);

  std::unique_ptr<const FeatureMatrix> owned_;  // Null for a view.
  const FeatureMatrix* features_;               // *owned_ or the view.
  std::vector<RowState> state_;
  std::vector<char> excluded_;
  std::vector<int> labels_;
  std::vector<size_t> labeled_;  // In labeling order.
  mutable std::vector<size_t> unlabeled_cache_;
  mutable bool unlabeled_cache_valid_ = false;
};

}  // namespace alem

#endif  // ALEM_CORE_POOL_H_
