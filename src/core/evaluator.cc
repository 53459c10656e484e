#include "core/evaluator.h"

#include <numeric>
#include <utility>

#include "util/check.h"

namespace alem {

ProgressiveEvaluator::ProgressiveEvaluator(std::vector<int> truth)
    : truth_(std::move(truth)), rows_(truth_.size()) {
  std::iota(rows_.begin(), rows_.end(), 0u);
}

HoldoutEvaluator::HoldoutEvaluator(std::vector<size_t> test_rows,
                                   std::vector<int> truth)
    : rows_(std::move(test_rows)), truth_(std::move(truth)) {
  ALEM_CHECK_EQ(rows_.size(), truth_.size());
}

}  // namespace alem
