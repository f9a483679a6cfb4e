#include "sim/trace_sink.h"

#include <cstring>

#include "common/error.h"

namespace ammb::sim {

namespace {

void putLe64(unsigned char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<unsigned char>(v >> (8 * i));
}

void putLe32(unsigned char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t getLe64(const unsigned char* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

std::uint32_t getLe32(const unsigned char* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}

}  // namespace

void SpoolTraceSink::encodeRecord(const TraceRecord& record,
                                  unsigned char* out) {
  putLe64(out + 0, static_cast<std::uint64_t>(record.t));
  putLe64(out + 8, static_cast<std::uint64_t>(record.instance));
  putLe32(out + 16, static_cast<std::uint32_t>(record.node));
  putLe32(out + 20, static_cast<std::uint32_t>(record.msg));
  out[24] = static_cast<unsigned char>(record.kind);
}

TraceRecord SpoolTraceSink::decodeRecord(const unsigned char* in) {
  AMMB_REQUIRE(in[24] <= static_cast<unsigned char>(TraceKind::kEpoch),
               "corrupt spool record: invalid kind byte " +
                   std::to_string(static_cast<int>(in[24])));
  TraceRecord r;
  r.t = static_cast<Time>(getLe64(in + 0));
  r.instance = static_cast<InstanceId>(getLe64(in + 8));
  r.node = static_cast<NodeId>(static_cast<std::int32_t>(getLe32(in + 16)));
  r.msg = static_cast<MsgId>(static_cast<std::int32_t>(getLe32(in + 20)));
  r.kind = static_cast<TraceKind>(in[24]);
  return r;
}

SpoolTraceSink::SpoolTraceSink(std::size_t bufRecords) {
  file_ = std::tmpfile();
  AMMB_REQUIRE(file_ != nullptr, "cannot create trace spool temp file");
  bufBytes_ = (bufRecords == 0 ? 1 : bufRecords) * kRecordBytes;
  buf_.reserve(bufBytes_);
}

SpoolTraceSink::SpoolTraceSink(const std::string& path,
                               std::size_t bufRecords) {
  // "ab+": create if absent, keep existing bytes, appends go to the
  // end — attaching to a previously written spool replays its
  // complete records and then extends it.
  file_ = std::fopen(path.c_str(), "ab+");
  AMMB_REQUIRE(file_ != nullptr, "cannot open trace spool \"" + path + "\"");
  bufBytes_ = (bufRecords == 0 ? 1 : bufRecords) * kRecordBytes;
  buf_.reserve(bufBytes_);
  std::fseek(file_, 0, SEEK_END);
  const long bytes = std::ftell(file_);
  if (bytes > 0) count_ = static_cast<std::size_t>(bytes) / kRecordBytes;
}

SpoolTraceSink::~SpoolTraceSink() {
  if (file_ != nullptr) {
    flush();
    std::fclose(file_);
  }
}

void SpoolTraceSink::append(const TraceRecord& record) {
  unsigned char encoded[kRecordBytes];
  encodeRecord(record, encoded);
  buf_.insert(buf_.end(), encoded, encoded + kRecordBytes);
  ++count_;
  lastT_ = record.t;
  if (buf_.size() >= bufBytes_) flush();
}

void SpoolTraceSink::flush() const {
  if (buf_.empty()) return;
  const std::size_t written =
      std::fwrite(buf_.data(), 1, buf_.size(), file_);
  AMMB_REQUIRE(written == buf_.size(), "trace spool write failed");
  buf_.clear();
}

void SpoolTraceSink::replay(
    const std::function<void(const TraceRecord&)>& fn) const {
  flush();
  AMMB_REQUIRE(std::fflush(file_) == 0, "trace spool flush failed");
  std::fseek(file_, 0, SEEK_SET);
  // Chunked sequential read; a short tail (torn final record from an
  // interrupted writer) is dropped silently, parseJournal-style.
  constexpr std::size_t kChunkRecords = 4096;
  std::vector<unsigned char> chunk(kChunkRecords * kRecordBytes);
  std::size_t pending = 0;
  while (true) {
    const std::size_t got =
        std::fread(chunk.data() + pending, 1, chunk.size() - pending, file_);
    const std::size_t avail = pending + got;
    std::size_t used = 0;
    while (avail - used >= kRecordBytes) {
      fn(decodeRecord(chunk.data() + used));
      used += kRecordBytes;
    }
    pending = avail - used;
    if (pending > 0) std::memmove(chunk.data(), chunk.data() + used, pending);
    if (got == 0) break;
  }
  std::fseek(file_, 0, SEEK_END);
}

}  // namespace ammb::sim
