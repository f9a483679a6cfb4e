// Outside-in instrumentation for the repository benchmark.
//
// Every layer is timed from outside, at the calls into it: a forwarding
// scheduler installed through core::SchedulerSpec::factory times the
// mac layer's calls into its scheduler, a wrapping sim::TraceConsumer
// times each streaming oracle, and a counting consumer tallies the
// committed trace records.  Nothing here reaches into the library; the
// wrappers only forward, so the simulated execution is unchanged.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/experiment.h"
#include "mac/scheduler.h"
#include "sim/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host seconds elapsed since `start`.
inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// This process's peak resident set size (VmHWM), in MiB.
double peakRssMb();
/// This process's current resident set size (VmRSS), in MiB.
double currentRssMb();

/// Host time and work counts of the calls the engine made into its
/// scheduler.
struct SchedulerTotals {
  double planS = 0.0;
  std::uint64_t plans = 0;
  std::uint64_t plannedDeliveries = 0;
  double pickS = 0.0;
  std::uint64_t picks = 0;

  SchedulerTotals& operator+=(const SchedulerTotals& other);
};

/// Forwards every call to `inner` and adds its host time to `totals`.
class TimedScheduler final : public ammb::mac::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<ammb::mac::Scheduler> inner,
                 SchedulerTotals& totals)
      : inner_(std::move(inner)), totals_(totals) {}

  void attach(ammb::mac::MacEngine& engine) override;
  ammb::mac::DeliveryPlan planBcast(
      const ammb::mac::Instance& instance) override;
  ammb::InstanceId pickProgressDelivery(
      ammb::NodeId receiver,
      const std::vector<ammb::InstanceId>& candidates) override;

 private:
  std::unique_ptr<ammb::mac::Scheduler> inner_;
  SchedulerTotals& totals_;
};

/// A SchedulerSpec that builds the scheduler `base` names, wrapped in a
/// TimedScheduler feeding `totals` (which must outlive the run).
ammb::core::SchedulerSpec timedScheduler(const ammb::core::SchedulerSpec& base,
                                         SchedulerTotals& totals);

/// Forwards each record to `inner` and accumulates the host time spent
/// there.
class TimedConsumer final : public ammb::sim::TraceConsumer {
 public:
  explicit TimedConsumer(ammb::sim::TraceConsumer& inner) : inner_(inner) {}

  void onRecord(const ammb::sim::TraceRecord& record) override {
    const Clock::time_point start = Clock::now();
    inner_.onRecord(record);
    seconds_ += secondsSince(start);
  }
  double seconds() const { return seconds_; }

 private:
  ammb::sim::TraceConsumer& inner_;
  double seconds_ = 0.0;
};

/// Counts committed records.
class RecordCounter final : public ammb::sim::TraceConsumer {
 public:
  void onRecord(const ammb::sim::TraceRecord&) override { ++records_; }
  std::uint64_t records() const { return records_; }

 private:
  std::uint64_t records_ = 0;
};

}  // namespace perfbench
