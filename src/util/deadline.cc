#include "util/deadline.h"

#include <chrono>
#include <cmath>
#include <limits>

namespace holim {

namespace {

class SteadyClock : public Clock {
 public:
  int64_t NowNanos() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

}  // namespace

const Clock* Clock::Real() {
  static const SteadyClock clock;
  return &clock;
}

Deadline Deadline::AfterMillis(double millis, const Clock* clock,
                               const CancelToken* token) {
  Deadline d;
  d.mode_ = Mode::kWall;
  d.clock_ = clock ? clock : Clock::Real();
  d.token_ = token;
  // Saturate at the clock's maximum rather than overflow into the past: a
  // budget beyond ~292 years of nanoseconds (1e300 ms is a valid finite
  // request) never expires. The maximum rounds up to 2^63 as a double, so
  // any smaller budget fits in int64.
  constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
  const int64_t now = d.clock_->NowNanos();
  const double nanos = millis * 1e6;
  if (!(nanos > 0.0)) {
    d.deadline_nanos_ = now;  // no budget (zero, negative or NaN): due now
  } else if (nanos >= static_cast<double>(kNever)) {
    d.deadline_nanos_ = kNever;
  } else {
    const int64_t budget = static_cast<int64_t>(nanos);
    d.deadline_nanos_ = now > kNever - budget ? kNever : now + budget;
  }
  return d;
}

Deadline Deadline::WorkBudget(uint64_t ticks, const CancelToken* token) {
  Deadline d;
  d.mode_ = Mode::kTicks;
  d.token_ = token;
  d.ticks_left_ = ticks;
  return d;
}

Status Deadline::Trip(Status status) {
  expired_ = true;
  status_ = std::move(status);
  return status_;
}

Status Deadline::CheckN(uint64_t n) {
  if (mode_ == Mode::kInactive) return Status::OK();
  if (expired_) return status_;
  if (token_ && token_->cancelled()) {
    return Trip(Status::Cancelled("solve cancelled by caller"));
  }
  if (mode_ == Mode::kTicks) {
    if (ticks_left_ <= n) {
      ticks_left_ = 0;
      return Trip(Status::DeadlineExceeded("work budget exhausted"));
    }
    ticks_left_ -= n;
    return Status::OK();
  }
  if (clock_->NowNanos() >= deadline_nanos_) {
    return Trip(Status::DeadlineExceeded("deadline exceeded"));
  }
  return Status::OK();
}

bool Deadline::StopRequested() const {
  if (mode_ == Mode::kInactive) return false;
  if (expired_) return true;
  if (token_ && token_->cancelled()) return true;
  // In tick mode expiry only happens at serial checkpoints, so workers see
  // the sticky flag; in wall mode they may observe the clock directly.
  return mode_ == Mode::kWall && clock_->NowNanos() >= deadline_nanos_;
}

}  // namespace holim
