#include "ledger.h"

#include <fstream>
#include <string>

namespace perfbench {
namespace {

/// A "<key>: <n> kB" field of /proc/self/status, in MiB (0 if absent).
double statusFieldMb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::stod(line.substr(key.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double peakRssMb() { return statusFieldMb("VmHWM"); }
double currentRssMb() { return statusFieldMb("VmRSS"); }

SchedulerTotals& SchedulerTotals::operator+=(const SchedulerTotals& other) {
  planS += other.planS;
  plans += other.plans;
  plannedDeliveries += other.plannedDeliveries;
  pickS += other.pickS;
  picks += other.picks;
  return *this;
}

void TimedScheduler::attach(ammb::mac::MacEngine& engine) {
  Scheduler::attach(engine);
  inner_->attach(engine);
}

ammb::mac::DeliveryPlan TimedScheduler::planBcast(
    const ammb::mac::Instance& instance) {
  const Clock::time_point start = Clock::now();
  ammb::mac::DeliveryPlan plan = inner_->planBcast(instance);
  totals_.planS += secondsSince(start);
  ++totals_.plans;
  totals_.plannedDeliveries += plan.deliveries.size();
  return plan;
}

ammb::InstanceId TimedScheduler::pickProgressDelivery(
    ammb::NodeId receiver, const std::vector<ammb::InstanceId>& candidates) {
  const Clock::time_point start = Clock::now();
  const ammb::InstanceId pick =
      inner_->pickProgressDelivery(receiver, candidates);
  totals_.pickS += secondsSince(start);
  ++totals_.picks;
  return pick;
}

ammb::core::SchedulerSpec timedScheduler(const ammb::core::SchedulerSpec& base,
                                         SchedulerTotals& totals) {
  ammb::core::SchedulerSpec spec = base;
  const ammb::core::SchedulerKind kind = base.kind;
  const int lineLength = base.lowerBoundLineLength;
  SchedulerTotals* sink = &totals;
  spec.factory = [kind, lineLength, sink] {
    return std::make_unique<TimedScheduler>(
        ammb::core::makeScheduler(kind, lineLength), *sink);
  };
  return spec;
}

}  // namespace perfbench
