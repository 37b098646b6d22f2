#ifndef HOLIM_UTIL_DEADLINE_H_
#define HOLIM_UTIL_DEADLINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"

namespace holim {

/// \brief Time source behind wall-clock deadlines. Pluggable so tests can
/// fire a deadline (or jump the clock) deterministically; production code
/// uses the monotonic Real() clock.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual int64_t NowNanos() const = 0;

  /// Process-wide monotonic clock (steady_clock).
  static const Clock* Real();
};

/// \brief Test clock: time advances only when told to. Atomic so parallel
/// workers may poll it while a test thread jumps it forward.
class ManualClock : public Clock {
 public:
  explicit ManualClock(int64_t now_nanos = 0) : now_(now_nanos) {}
  int64_t NowNanos() const override {
    return now_.load(std::memory_order_relaxed);
  }
  void Advance(int64_t nanos) {
    now_.fetch_add(nanos, std::memory_order_relaxed);
  }
  void Set(int64_t nanos) { now_.store(nanos, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> now_;
};

/// \brief Caller-side cancellation handle. The requester keeps the token
/// and calls Cancel() (from any thread); the solve path polls it through
/// the Deadline it was folded into. Copyable — copies share one flag.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}
  void Cancel() const { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// \brief Cooperative deadline checked at kernel checkpoints (block/round
/// boundaries — never per edge).
///
/// Three modes:
///  * inactive (default) — every Check() is OK and costs one predictable
///    branch; the zero-deadline solve path stays byte-identical.
///  * wall clock — AfterMillis(ms, clock): Check() fails once the clock
///    passes the deadline (or the cancel token fires).
///  * work budget — WorkBudget(ticks): Check() consumes one tick and fails
///    when the budget is exhausted, independent of machine speed. The
///    B-th Check() on a budget of B is the one that fails, so degradation
///    under a work budget is bitwise-reproducible anywhere.
///
/// Expiry is sticky: once a Check fails, every later Check/StopRequested
/// reports expired. Ticks are only consumed by Check/CheckN, which must be
/// called from the serial driver thread; parallel workers poll the
/// read-only StopRequested() instead. Not copyable (one expiry state per
/// solve); the object lives on the caller's stack for the solve duration.
class Deadline {
 public:
  /// Inactive deadline: never expires.
  Deadline() = default;

  /// Wall-clock deadline `millis` from now on `clock` (Real() if null),
  /// optionally also observing `token` (borrowed; may be null). A deadline
  /// past the clock's range saturates at its maximum, so a huge finite
  /// `millis` never expires; zero, negative or NaN `millis` is due now.
  static Deadline AfterMillis(double millis, const Clock* clock = nullptr,
                              const CancelToken* token = nullptr);

  /// Deterministic work-budget deadline: the `ticks`-th Check() fails
  /// (ticks >= 1; the first `ticks - 1` checkpoints pass).
  static Deadline WorkBudget(uint64_t ticks,
                             const CancelToken* token = nullptr);

  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;
  Deadline(Deadline&&) = default;
  Deadline& operator=(Deadline&&) = default;

  bool active() const { return mode_ != Mode::kInactive; }

  /// One checkpoint: consumes one tick in work-budget mode, reads the
  /// clock in wall mode, polls the cancel token in both. OK, or the
  /// sticky DeadlineExceeded/Cancelled status that first tripped.
  Status Check() { return CheckN(1); }

  /// Checkpoint consuming `n` ticks at once — for wave dispatch where the
  /// wave groups a thread-count-dependent number of blocks: charging the
  /// block count keeps tick consumption (and thus the degradation point)
  /// invariant to thread count.
  Status CheckN(uint64_t n);

  /// Read-only expiry poll for parallel workers: true once a serial
  /// Check tripped, the token fired, or (wall mode) the clock passed the
  /// deadline. Never consumes ticks.
  bool StopRequested() const;

  /// The sticky status of the first failed Check ("OK" while alive).
  const Status& status() const { return status_; }

 private:
  enum class Mode { kInactive, kWall, kTicks };

  Status Trip(Status status);

  Mode mode_ = Mode::kInactive;
  const Clock* clock_ = nullptr;
  const CancelToken* token_ = nullptr;  // borrowed, may be null
  int64_t deadline_nanos_ = 0;
  uint64_t ticks_left_ = 0;
  bool expired_ = false;
  Status status_;
};

}  // namespace holim

#endif  // HOLIM_UTIL_DEADLINE_H_
