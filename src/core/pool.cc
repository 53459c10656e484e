#include "core/pool.h"

#include <utility>

#include "util/check.h"

namespace alem {

ActivePool::ActivePool(FeatureMatrix features)
    : ActivePool(std::make_unique<const FeatureMatrix>(std::move(features))) {}

ActivePool::ActivePool(std::unique_ptr<const FeatureMatrix> owned)
    : ActivePool(owned.get()) {
  owned_ = std::move(owned);
}

ActivePool::ActivePool(const FeatureMatrix* features)
    : features_(features),
      state_(features_->rows(), RowState::kUnlabeled),
      excluded_(features_->rows(), 0),
      labels_(features_->rows(), -1) {}

void ActivePool::AddLabel(size_t row, int label) {
  ALEM_CHECK_LT(row, size());
  ALEM_CHECK(state_[row] == RowState::kUnlabeled);
  state_[row] = RowState::kLabeled;
  labels_[row] = label;
  labeled_.push_back(row);
  unlabeled_cache_valid_ = false;
}

bool ActivePool::IsLabeled(size_t row) const {
  ALEM_CHECK_LT(row, size());
  return state_[row] == RowState::kLabeled;
}

int ActivePool::LabelOf(size_t row) const {
  ALEM_CHECK(IsLabeled(row));
  return labels_[row];
}

const std::vector<size_t>& ActivePool::unlabeled_rows() const {
  if (!unlabeled_cache_valid_) {
    unlabeled_cache_.clear();
    for (size_t row = 0; row < size(); ++row) {
      if (state_[row] == RowState::kUnlabeled && excluded_[row] == 0) {
        unlabeled_cache_.push_back(row);
      }
    }
    unlabeled_cache_valid_ = true;
  }
  return unlabeled_cache_;
}

std::vector<size_t> ActivePool::ActiveLabeledRows() const {
  std::vector<size_t> rows;
  rows.reserve(labeled_.size());
  for (const size_t row : labeled_) {
    if (excluded_[row] == 0) rows.push_back(row);
  }
  return rows;
}

FeatureMatrix ActivePool::ActiveLabeledFeatures() const {
  return features_->Gather(ActiveLabeledRows());
}

std::vector<int> ActivePool::ActiveLabeledLabels() const {
  std::vector<int> labels;
  labels.reserve(labeled_.size());
  for (const size_t row : labeled_) {
    if (excluded_[row] == 0) labels.push_back(labels_[row]);
  }
  return labels;
}

void ActivePool::Exclude(size_t row) {
  ALEM_CHECK_LT(row, size());
  excluded_[row] = 1;
  unlabeled_cache_valid_ = false;
}

bool ActivePool::IsExcluded(size_t row) const {
  ALEM_CHECK_LT(row, size());
  return excluded_[row] != 0;
}

}  // namespace alem
