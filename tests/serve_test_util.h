// Test-only helpers shared by the serving and network suites: a Request
// builder, and a peer that holds a ServingEngine's in-flight batch slots so
// the micro-batcher's dispatch decisions are deterministic.
#ifndef SMGCN_TESTS_SERVE_TEST_UTIL_H_
#define SMGCN_TESTS_SERVE_TEST_UTIL_H_

#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "src/serve/engine.h"
#include "src/serve/request.h"

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
