// EpochScheduler: drives the federated collection cadence. Fires a tick
// callback — epoch cut → snapshot ship, see RegionalNode — either on a
// fixed wall-clock period (the deployed mode) or only on explicit
// TriggerNow() calls (the deterministic mode tests and benches use).
// Ticks run on the scheduler's own thread, strictly serialized: a tick
// that runs long (e.g. a ship retrying against a dead central) delays the
// next tick instead of overlapping it, so there is never more than one cut
// in flight per region.
#ifndef LDPJS_FEDERATION_EPOCH_SCHEDULER_H_
#define LDPJS_FEDERATION_EPOCH_SCHEDULER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

#include "common/thread_annotations.h"

namespace ldpjs {

class EpochScheduler {
 public:
  /// `tick` receives the 0-based epoch index it is cutting. `period` == 0
  /// means manual mode: the thread only fires on TriggerNow().
  EpochScheduler(std::chrono::milliseconds period,
                 std::function<void(uint64_t epoch)> tick);
  ~EpochScheduler();

  EpochScheduler(const EpochScheduler&) = delete;
  EpochScheduler& operator=(const EpochScheduler&) = delete;

  void Start();

  /// Requests one immediate tick (coalesced if one is already pending) and
  /// returns once it has completed — the synchronous cut tests and final
  /// flushes rely on.
  void TriggerNow();

  /// Stops the thread; no tick runs after this returns. Idempotent.
  void Stop();

  uint64_t epochs_fired() const;

 private:
  void Loop();

  std::chrono::milliseconds period_;
  std::function<void(uint64_t)> tick_;
  std::thread thread_;

  mutable Mutex mu_;
  CondVar cv_;
  bool started_ LDPJS_GUARDED_BY(mu_) = false;
  bool stopping_ LDPJS_GUARDED_BY(mu_) = false;
  bool trigger_pending_ LDPJS_GUARDED_BY(mu_) = false;
  /// Epochs fired so far.
  uint64_t next_epoch_ LDPJS_GUARDED_BY(mu_) = 0;
  /// Ticks fully executed.
  uint64_t completed_ LDPJS_GUARDED_BY(mu_) = 0;
};

}  // namespace ldpjs

#endif  // LDPJS_FEDERATION_EPOCH_SCHEDULER_H_
