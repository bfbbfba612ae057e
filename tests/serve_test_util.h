// Test-only helpers shared by the serving and network suites: a Request
// builder, dense store scoring, a scoped process-wide thread count, and a
// peer that holds a ServingEngine's in-flight batch slots so the
// micro-batcher's dispatch decisions are deterministic.
#ifndef SMGCN_TESTS_SERVE_TEST_UTIL_H_
#define SMGCN_TESTS_SERVE_TEST_UTIL_H_

#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "src/serve/embedding_store.h"
#include "src/serve/engine.h"
#include "src/serve/request.h"
#include "src/util/parallel.h"

namespace smgcn {
namespace serve {

/// A ranked request for `symptoms`. The vector is constructed and moved
/// in: assigning a braced list to Request::symptoms instead instantiates an
/// out-of-line std::vector<int>::_M_assign_aux in which GCC 12 at -O3
/// reports a false -Wnonnull.
inline Request MakeRequest(std::vector<int> symptoms, std::size_t top_k) {
  Request request;
  request.symptoms = std::move(symptoms);
  request.top_k = top_k;
  return request;
}

/// Dense score rows for `batch` through the store's one scoring entry point.
inline std::vector<std::vector<double>> ScoreRows(
    const EmbeddingStore& store, const std::vector<CanonicalQuery>& batch) {
  std::vector<std::vector<double>> rows(batch.size());
  store.ScoreBatchInto(batch, rows.data());
  return rows;
}

/// One query's dense scores: ScoreBatchInto at batch size 1.
inline std::vector<double> ScoreRow(const EmbeddingStore& store,
                                    const CanonicalQuery& query) {
  return ScoreRows(store, {query}).front();
}

/// Sets the process-wide parallel worker count for a scope and restores the
/// previous count on exit, so a test leaves no thread count behind for the
/// tests after it, in whatever order they run. Engines size their pools at
/// Create: declare this before the engine so the engine is destroyed first.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(std::size_t n)
      : previous_(parallel::GetNumThreads()) {
    parallel::SetNumThreads(n);
  }
  ~ScopedNumThreads() { parallel::SetNumThreads(previous_); }
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  std::size_t previous_;
};

/// Occupies `slots` of an engine's in-flight batch slots until Release()
/// (or destruction), exactly as that many scoring batches would. With one
/// slot held the batcher coalesces behind it instead of dispatching at
/// once; with kAllSlots held it pops nothing, so submissions back up in the
/// admission queue. Take it while the engine is idle.
class ServingEngineTestPeer {
 public:
  static constexpr std::size_t kAllSlots = ServingEngine::kMaxBatchesInFlight;

  ServingEngineTestPeer(ServingEngine* engine, std::size_t slots)
      : engine_(engine), slots_(slots) {
    std::lock_guard<std::mutex> lock(engine_->queue_mu_);
    engine_->batches_in_flight_ += slots_;
  }
  ~ServingEngineTestPeer() { Release(); }
  ServingEngineTestPeer(const ServingEngineTestPeer&) = delete;
  ServingEngineTestPeer& operator=(const ServingEngineTestPeer&) = delete;

  /// Frees the slots and wakes the batcher, as a finishing batch does.
  void Release() {
    if (slots_ == 0) return;
    {
      std::lock_guard<std::mutex> lock(engine_->queue_mu_);
      engine_->batches_in_flight_ -= slots_;
    }
    slots_ = 0;
    engine_->queue_cv_.notify_all();
  }

 private:
  ServingEngine* engine_;
  std::size_t slots_;
};

}  // namespace serve
}  // namespace smgcn

#endif  // SMGCN_TESTS_SERVE_TEST_UTIL_H_
