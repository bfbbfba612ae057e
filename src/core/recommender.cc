#include "src/core/recommender.h"

#include "src/eval/metrics.h"
#include "src/util/logging.h"

namespace smgcn {
namespace core {

eval::HerbScorer HerbRecommender::AsScorer() const {
  return [this](const std::vector<int>& symptom_set) {
    auto scores = Score(symptom_set);
    SMGCN_CHECK(scores.ok()) << name() << " scoring failed: "
                             << scores.status().ToString();
    return std::move(scores).value();
  };
}

Result<std::vector<std::size_t>> HerbRecommender::Recommend(
    const std::vector<int>& symptom_set, std::size_t k) const {
  ASSIGN_OR_RETURN(const std::vector<double> scores, Score(symptom_set));
  return eval::TopK(scores, k);
}

}  // namespace core
}  // namespace smgcn
