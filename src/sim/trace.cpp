#include "sim/trace.h"

#include <sstream>

#include "common/error.h"
#include "sim/trace_sink.h"

namespace ammb::sim {

namespace {
const char* kindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kWake: return "wake";
    case TraceKind::kArrive: return "arrive";
    case TraceKind::kBcast: return "bcast";
    case TraceKind::kRcv: return "rcv";
    case TraceKind::kAck: return "ack";
    case TraceKind::kAbort: return "abort";
    case TraceKind::kDeliver: return "deliver";
    case TraceKind::kEpoch: return "epoch";
  }
  return "?";
}
}  // namespace

std::string toString(const TraceRecord& record) {
  std::ostringstream os;
  os << "t=" << record.t << " " << kindName(record.kind) << " node="
     << record.node;
  if (record.instance != kNoInstance) os << " inst=" << record.instance;
  if (record.msg != kNoMsg) os << " msg=" << record.msg;
  return os.str();
}

std::string TraceMode::label() const {
  if (kind == Kind::kMem) return "mem";
  if (bufRecords == kDefaultSpoolBuf) return "spool";
  return "spool:" + std::to_string(bufRecords);
}

TraceMode TraceMode::fromLabel(const std::string& label) {
  if (label == "mem") return mem();
  if (label == "spool") return spool();
  const std::string prefix = "spool:";
  if (label.rfind(prefix, 0) == 0) {
    const std::string digits = label.substr(prefix.size());
    AMMB_REQUIRE(!digits.empty() &&
                     digits.find_first_not_of("0123456789") ==
                         std::string::npos,
                 "bad spool buffer size in \"" + label + "\"");
    const long buf = std::stol(digits);
    AMMB_REQUIRE(buf >= 1 && buf <= 1'000'000'000,
                 "spool buffer size out of range in \"" + label + "\"");
    return spool(static_cast<std::size_t>(buf));
  }
  throw Error("unknown trace mode \"" + label +
              "\" (expected mem, spool, or spool:N)");
}

Trace::Trace(bool enabled, TraceMode mode) : enabled_(enabled), mode_(mode) {
  if (enabled_ && mode_.kind == TraceMode::Kind::kSpool) {
    spool_ = std::make_unique<SpoolTraceSink>(mode_.bufRecords);
  }
}

Trace::~Trace() = default;
Trace::Trace(Trace&& other) noexcept = default;
Trace& Trace::operator=(Trace&& other) noexcept = default;

const std::vector<TraceRecord>& Trace::records() const {
  if (spool_ == nullptr) return records_;
  throw Error("Trace::records() needs the in-memory store; trace mode \"" +
              mode_.label() + "\" supports forEach() replay only");
}

std::size_t Trace::size() const {
  return spool_ != nullptr ? spool_->size() : records_.size();
}

Time Trace::lastTime() const {
  if (spool_ != nullptr) return spool_->lastTime();
  return records_.empty() ? 0 : records_.back().t;
}

void Trace::forEach(
    const std::function<void(const TraceRecord&)>& fn) const {
  if (spool_ != nullptr) {
    spool_->replay(fn);
    return;
  }
  for (const TraceRecord& record : records_) fn(record);
}

void Trace::attachConsumer(TraceConsumer* consumer) {
  if (consumer != nullptr) consumers_.push_back(consumer);
}

void Trace::spoolAdd(const TraceRecord& record) { spool_->append(record); }

}  // namespace ammb::sim
