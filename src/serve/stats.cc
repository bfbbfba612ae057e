#include "src/serve/stats.h"

namespace smgcn {
namespace serve {

StatsRecorder::StatsRecorder(obs::Registry* registry, const std::string& prefix)
    : queries_(registry->GetCounter(prefix + "queries")),
      batches_(registry->GetCounter(prefix + "batches")),
      batched_queries_(registry->GetCounter(prefix + "batched_queries")),
      max_batch_size_(registry->GetGauge(prefix + "max_batch_size")),
      latency_(registry->GetHistogram(prefix + "latency.seconds")) {}

void StatsRecorder::RecordQuery(double latency_seconds) {
  latency_->Record(latency_seconds);
  queries_->Increment();
}

void StatsRecorder::RecordQueries(std::size_t count, double latency_seconds) {
  if (count == 0) return;
  latency_->Record(latency_seconds, count);
  queries_->Increment(count);
}

void StatsRecorder::RecordBatch(std::size_t batch_size) {
  batches_->Increment();
  batched_queries_->Increment(batch_size);
  max_batch_size_->SetToMax(static_cast<double>(batch_size));
}

}  // namespace serve
}  // namespace smgcn
