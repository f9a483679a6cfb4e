#include "runner/emit.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runner/field_table.h"

namespace ammb::runner {

template <>
const Spelling<sim::RunStatus>& spelling<sim::RunStatus>() {
  static const Spelling<sim::RunStatus> s{
      "run status",
      spelledBy({sim::RunStatus::kDrained, sim::RunStatus::kStopped,
                 sim::RunStatus::kTimeLimit, sim::RunStatus::kEventLimit},
                [](auto status) -> std::string {
                  return sim::toString(status);
                })};
  return s;
}

namespace {

using core::RunResult;

// --- record codecs ----------------------------------------------------------

/// Per-message latency samples as [msg, arrive_at, complete_at] triples.
struct MessageTriples {
  static json::Value encode(const std::vector<core::MessageMetric>& samples) {
    json::Array items;
    items.reserve(samples.size());
    for (const core::MessageMetric& m : samples) {
      items.push_back(json::Array{m.msg, m.arriveAt, m.completeAt});
    }
    return items;
  }
  static void decode(std::vector<core::MessageMetric>& out,
                     const json::Value& v, const std::string& path) {
    const json::Array& items = v.asArray(path);
    out.assign(items.size(), {});
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::string at = path + "[" + std::to_string(i) + "]";
      const json::Array& triple = items[i].asArray(at);
      AMMB_REQUIRE(triple.size() == 3,
                   at + " must be a [msg, arrive_at, complete_at] triple");
      decodeValue(out[i].msg, triple[0], at + "[0]");
      decodeValue(out[i].arriveAt, triple[1], at + "[1]");
      decodeValue(out[i].completeAt, triple[2], at + "[2]");
    }
  }
};

/// A 64-bit hash as 16 hex digits.
struct Hex {
  static json::Value encode(std::uint64_t v) { return json::hexU64(v); }
  static void decode(std::uint64_t& out, const json::Value& v,
                     const std::string& path) {
    const std::string& text = v.asString(path);
    AMMB_REQUIRE(!text.empty() && text.size() <= 16,
                 path + " must be 1-16 hex digits");
    AMMB_REQUIRE(text.find_first_not_of("0123456789abcdefABCDEF") ==
                     std::string::npos,
                 path + " must be hex (got \"" + text + "\")");
    out = std::stoull(text, nullptr, 16);
  }
};

constexpr Field<core::MessageMetrics> kMessageFields[] = {
    field<&core::MessageMetrics::arrived>("arrived"),
    field<&core::MessageMetrics::completed>("completed"),
    field<&core::MessageMetrics::p50Latency>("p50_latency"),
    field<&core::MessageMetrics::p95Latency>("p95_latency"),
    field<&core::MessageMetrics::maxLatency>("max_latency"),
    field<&core::MessageMetrics::meanLatency>("mean_latency"),
    fieldAs<MessageTriples, &core::MessageMetrics::perMessage>("per_message"),
};

/// One run record, in serialization order.  Keys added after the format
/// began (react_idx, the realization/backend/trace provenance, realized,
/// retransmits) are omitted at their defaults and optional on read, so
/// every record file written before each existed parses and
/// re-serializes byte-identically.  "kernel" predates elision and is
/// always written, and optional on read.
constexpr Field<RunRecord> kRecordFields[] = {
    field<&RunRecord::point, &RunPoint::runIndex>("run_index"),
    field<&RunRecord::point, &RunPoint::cellIndex>("cell_index"),
    field<&RunRecord::point, &RunPoint::topoIdx>("topo_idx"),
    field<&RunRecord::point, &RunPoint::schedIdx>("sched_idx"),
    field<&RunRecord::point, &RunPoint::kIdx>("k_idx"),
    field<&RunRecord::point, &RunPoint::macIdx>("mac_idx"),
    field<&RunRecord::point, &RunPoint::wlIdx>("wl_idx"),
    field<&RunRecord::point, &RunPoint::dynIdx>("dyn_idx"),
    field<&RunRecord::point, &RunPoint::reactIdx>("react_idx", kOmitDefault),
    field<&RunRecord::point, &RunPoint::seed>("seed"),
    field<&RunRecord::kernel>("kernel").opt(),
    field<&RunRecord::realization>("mac_realization", kOmitDefault),
    field<&RunRecord::backend>("backend", kOmitDefault),
    field<&RunRecord::traceMode>("trace_mode", kOmitDefault),
    fieldAs<Nested<kRealizedFields>, &RunRecord::realized>(
        "realized", [](const RunRecord& r) { return !r.realized.measured(); }),
    field<&RunRecord::error>("error"),
    field<&RunRecord::result, &RunResult::solved>("solved"),
    field<&RunRecord::result, &RunResult::solveTime>("solve_time"),
    field<&RunRecord::result, &RunResult::endTime>("end_time"),
    field<&RunRecord::result, &RunResult::status>("status"),
    field<&RunRecord::result, &RunResult::retransmits>("retransmits",
                                                       kOmitDefault),
    fieldAs<Nested<kStatFields>, &RunRecord::result, &RunResult::stats>(
        "stats"),
    fieldAs<Nested<kMessageFields>, &RunRecord::result, &RunResult::messages>(
        "messages"),
    field<&RunRecord::checked>("checked"),
    fieldAs<Hex, &RunRecord::traceHash>("trace_hash"),
    field<&RunRecord::checkViolations>("check_violations"),
    field<&RunRecord::canonicalTrace>("canonical_trace"),
};

/// Shard document and journal headers, after the sweep name.
constexpr Field<RunDocHeader> kHeaderFields[] = {
    field<&RunDocHeader::specFingerprint>("spec_fingerprint"),
    field<&RunDocHeader::shard, &Shard::index>("shard_index"),
    field<&RunDocHeader::shard, &Shard::count>("shard_count"),
    field<&RunDocHeader::runCount>("run_count"),
};

// --- result documents -------------------------------------------------------

/// The result document's header.  Realization and backend are written
/// only for realized and net-backend sweeps, so every abstract/sim
/// baseline stays byte-identical.  Each row is also a column of every
/// line of the cells CSV, at its csvAt() position (shared with
/// kCellFields below; the CSV keeps its historic column order).
constexpr Field<SweepResult> kResultFields[] = {
    field<&SweepResult::name>("sweep").csvAt(1),
    field<&SweepResult::protocol>("protocol").csvAt(2),
    field<&SweepResult::realization>("realization", kOmitDefault).csvAt(30),
    field<&SweepResult::backend>("backend", kOmitDefault).csvAt(32),
    field<&SweepResult::seedBegin>("seed_begin").csvAt(10),
    field<&SweepResult::seedEnd>("seed_end").csvAt(11),
};

bool reactionFree(const CellAggregate& c) {
  return c.reaction.empty() || c.reaction == "none";
}
bool unmeasured(const CellAggregate& c) { return c.measuredRuns == 0; }

/// One cell of the result document.  The reaction (and its work
/// counter) is written only for reactive cells, and the realized bounds
/// only for measured ones, so pre-existing baselines stay byte-identical.
/// The csvAt() positions place each row in the cells CSV, where the
/// `stats` block expands to the engine counters and `measured_runs`
/// heads the realized-bound columns (see cellsCsv()).
constexpr Field<CellAggregate> kCellFields[] = {
    field<&CellAggregate::topology>("topology").csvAt(4),
    field<&CellAggregate::scheduler>("scheduler").csvAt(5),
    field<&CellAggregate::k>("k").csvAt(6),
    field<&CellAggregate::mac>("mac").csvAt(7),
    field<&CellAggregate::workload>("workload").csvAt(3),
    field<&CellAggregate::dynamics>("dynamics").csvAt(8),
    field<&CellAggregate::reaction>("reaction", reactionFree).csvAt(9),
    field<&CellAggregate::retransmits>("retransmits", reactionFree).csvAt(27),
    field<&CellAggregate::runs>("runs").csvAt(12),
    field<&CellAggregate::solved>("solved").csvAt(13),
    field<&CellAggregate::errors>("errors").csvAt(14),
    field<&CellAggregate::minSolve>("min_solve").csvAt(15),
    field<&CellAggregate::medianSolve>("median_solve").csvAt(16),
    field<&CellAggregate::meanSolve>("mean_solve").csvAt(17),
    field<&CellAggregate::p95Solve>("p95_solve").csvAt(18),
    field<&CellAggregate::maxSolve>("max_solve").csvAt(19),
    field<&CellAggregate::meanEndTime>("mean_end_time").csvAt(20),
    field<&CellAggregate::messages>("messages").csvAt(21),
    field<&CellAggregate::meanLatency>("mean_latency").csvAt(22),
    field<&CellAggregate::p50Latency>("p50_latency").csvAt(23),
    field<&CellAggregate::p95Latency>("p95_latency").csvAt(24),
    field<&CellAggregate::maxLatency>("max_latency").csvAt(25),
    field<&CellAggregate::checkedRuns>("checked_runs").csvAt(28),
    field<&CellAggregate::checkViolations>("check_violations").csvAt(29),
    field<&CellAggregate::measuredRuns>("measured_runs", unmeasured).csvAt(31),
    fieldAs<Nested<kRealizedFields>, &CellAggregate::realized>("realized",
                                                               unmeasured),
    fieldAs<Nested<kStatFields>, &CellAggregate::stats>("stats").csvAt(26),
};

/// Fixed-precision decimal for CSV/JSON doubles; identical input bits
/// give identical text, keeping emitted files diffable.
std::string fixed(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

std::string csvEscape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

/// `v` as one CSV cell (null: an empty cell; booleans: 1/0), or as a
/// one-line JSON value with ", " and ": " separators.  Doubles print
/// fixed-point in both.
void writeText(const json::Value& v, std::ostream& out, bool csv) {
  if (v.isNull()) return;
  if (v.isBool()) {
    out << (v.asBool() ? 1 : 0);
  } else if (v.isInt()) {
    out << v.asInt();
  } else if (v.isDouble()) {
    out << fixed(v.asDouble());
  } else if (v.isString()) {
    if (csv) out << csvEscape(v.asString());
    else out << '"' << json::escape(v.asString()) << '"';
  } else {
    out << '{';
    const char* sep = "";
    for (const json::Member& m : v.asObject()) {
      out << sep << '"' << m.first << "\": ";
      writeText(m.second, out, csv);
      sep = ", ";
    }
    out << '}';
  }
}

/// Pretty-printed document members, one `  "key": value,` line each.
void writeMembers(const json::Object& members, std::ostream& out) {
  for (const json::Member& m : members) {
    out << "  \"" << json::escape(m.first) << "\": ";
    json::dump(m.second, out);
    out << ",\n";
  }
}

// --- CSV tables -------------------------------------------------------------
// The cells CSV is laid out by the csvAt() positions of the result and
// cell rows above.  The runs CSV is its own column table: it writes the
// solve time only for solved runs and the trace hash in decimal and
// only for checked runs.  Both flatten the counter and bound blocks.

/// What one CSV line describes: a cell, or (runs CSV) one of its runs.
struct CsvRow {
  const SweepResult& result;
  const CellAggregate& cell;
  const RunRecord* run;
};

/// A CSV column.  A block column expands to a table's columns instead:
/// kStats to the engine counters; kRealized to the run count it heads
/// (header, value) and then the bound statistics, all empty when nothing
/// was measured so abstract rows don't print zeros that look like data.
struct Column {
  enum Block : std::uint8_t { kOne, kStats, kRealized };
  const char* header;
  json::Value (*value)(const CsvRow&);
  Block block = kOne;
  /// Cells-CSV columns read their kResultFields / kCellFields row
  /// instead of `value`.
  const Field<SweepResult>* resultField = nullptr;
  const Field<CellAggregate>* cellField = nullptr;

  json::Value at(const CsvRow& row) const {
    if (resultField != nullptr) return resultField->get(row.result);
    if (cellField != nullptr) return cellField->get(row.cell);
    return value(row);
  }
};

template <auto... Path>
json::Value ofCell(const CsvRow& row) {
  return encodeValue(At<Path...>::in(row.cell));
}
template <auto... Path>
json::Value ofRun(const CsvRow& row) {
  return encodeValue(At<Path...>::in(*row.run));
}

using Cell = CellAggregate;
using Messages = core::MessageMetrics;

/// The cells CSV columns: every result and cell row with a csvAt()
/// position, in position order (positions run 1..N without gaps).
const std::vector<Column>& cellsCsv() {
  static const std::vector<Column> columns = [] {
    std::vector<std::pair<int, Column>> placed;
    for (const Field<SweepResult>& f : kResultFields) {
      if (f.csvPos == 0) continue;
      placed.push_back({f.csvPos, {f.key, nullptr, Column::kOne, &f}});
    }
    for (const Field<CellAggregate>& f : kCellFields) {
      if (f.csvPos == 0) continue;
      const std::string key = f.key;
      const Column::Block block = key == "stats"           ? Column::kStats
                                  : key == "measured_runs" ? Column::kRealized
                                                           : Column::kOne;
      placed.push_back({f.csvPos, {f.key, nullptr, block, nullptr, &f}});
    }
    std::sort(placed.begin(), placed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Column> out;
    for (const auto& [pos, column] : placed) {
      AMMB_ASSERT(pos == static_cast<int>(out.size()) + 1);
      out.push_back(column);
    }
    return out;
  }();
  return columns;
}

constexpr Column kRunsCsv[] = {
    {"run_index", ofRun<&RunRecord::point, &RunPoint::runIndex>},
    {"cell_index", ofRun<&RunRecord::point, &RunPoint::cellIndex>},
    {"topology", ofCell<&Cell::topology>},
    {"scheduler", ofCell<&Cell::scheduler>},
    {"k", ofCell<&Cell::k>},
    {"mac", ofCell<&Cell::mac>},
    {"workload", ofCell<&Cell::workload>},
    {"dynamics", ofCell<&Cell::dynamics>},
    {"reaction", ofCell<&Cell::reaction>},
    {"seed", ofRun<&RunRecord::point, &RunPoint::seed>},
    {"solved", ofRun<&RunRecord::result, &RunResult::solved>},
    {"solve_time",
     [](const CsvRow& row) {
       return row.run->result.solved ? json::Value(row.run->result.solveTime)
                                     : json::Value();
     }},
    {"end_time", ofRun<&RunRecord::result, &RunResult::endTime>},
    {"status", ofRun<&RunRecord::result, &RunResult::status>},
    {"messages",
     ofRun<&RunRecord::result, &RunResult::messages, &Messages::completed>},
    {"p50_latency",
     ofRun<&RunRecord::result, &RunResult::messages, &Messages::p50Latency>},
    {"p95_latency",
     ofRun<&RunRecord::result, &RunResult::messages, &Messages::p95Latency>},
    {"max_latency",
     ofRun<&RunRecord::result, &RunResult::messages, &Messages::maxLatency>},
    {"retransmits", ofRun<&RunRecord::result, &RunResult::retransmits>},
    {"error", ofRun<&RunRecord::error>},
    {"checked", ofRun<&RunRecord::checked>},
    {"check_violations",
     [](const CsvRow& row) {
       return json::Value(row.run->checkViolations.size());
     }},
    {"trace_hash",
     [](const CsvRow& row) {
       return row.run->checked ? json::Value(std::to_string(row.run->traceHash))
                               : json::Value();
     }},
    {"realization", ofRun<&RunRecord::realization>},
    {"measured_samples",
     ofRun<&RunRecord::realized, &phys::RealizedBounds::ackSamples>,
     Column::kRealized},
    {"backend", ofRun<&RunRecord::backend>},
};

/// Writes the header line (row == nullptr) or one row of `columns`.
template <class Columns>
void writeCsvLine(const Columns& columns, const CsvRow* row,
                  std::ostream& out) {
  const char* sep = "";
  const auto put = [&](const char* header, const auto& value) {
    out << sep;
    sep = ",";
    if (row == nullptr) out << header;
    else writeText(value(), out, true);
  };
  for (const Column& col : columns) {
    if (col.block == Column::kStats) {
      for (const auto& f : kStatFields) {
        put(f.key, [&] { return f.get(row->cell.stats); });
      }
      continue;
    }
    if (col.block == Column::kOne) {
      put(col.header, [&] { return col.at(*row); });
      continue;
    }
    const phys::RealizedBounds* bounds =
        row == nullptr ? nullptr
                       : row->run != nullptr ? &row->run->realized
                                             : &row->cell.realized;
    const bool shown = bounds != nullptr && bounds->measured();
    put(col.header,
        [&] { return shown ? col.at(*row) : json::Value(); });
    for (const auto& f : kRealizedFields) {
      if (f.csvName == nullptr) continue;
      put(f.csvName, [&] { return shown ? f.get(*bounds) : json::Value(); });
    }
  }
  out << '\n';
}

}  // namespace

void emitCellsCsv(const SweepResult& result, std::ostream& out) {
  writeCsvLine(cellsCsv(), nullptr, out);
  for (const CellAggregate& cell : result.cells) {
    const CsvRow row{result, cell, nullptr};
    writeCsvLine(cellsCsv(), &row, out);
  }
}

void emitRunsCsv(const SweepResult& result, std::ostream& out) {
  writeCsvLine(kRunsCsv, nullptr, out);
  for (const RunRecord& run : result.runs) {
    const CsvRow row{result, result.cell(run.point.cellIndex), &run};
    writeCsvLine(kRunsCsv, &row, out);
  }
}

void emitJson(const SweepResult& result, std::ostream& out) {
  out << "{\n";
  writeMembers(encodeFields(kResultFields, result), out);
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    out << "    ";
    writeText(encodeFields(kCellFields, result.cells[i]), out, false);
    out << (i + 1 < result.cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

std::string cellsCsv(const SweepResult& result) {
  std::ostringstream out;
  emitCellsCsv(result, out);
  return out.str();
}

std::string runsCsv(const SweepResult& result) {
  std::ostringstream out;
  emitRunsCsv(result, out);
  return out.str();
}

std::string toJson(const SweepResult& result) {
  std::ostringstream out;
  emitJson(result, out);
  return out.str();
}

// --- mergeable per-run records ----------------------------------------------

json::Value recordToJson(const RunRecord& record) {
  return encodeFields(kRecordFields, record);
}

RunRecord recordFromJson(const json::Value& value,
                         const std::string& context) {
  RunRecord record;
  json::Reader r(value, context);
  readFields(kRecordFields, record, r);
  return record;
}

namespace {

/// A shard document's ("sweep") or journal's ("journal") header.
json::Object headerToJson(const RunDocHeader& header, const char* nameKey) {
  json::Object o = encodeFields(kHeaderFields, header);
  o.emplace(o.begin(), nameKey, header.sweep);
  return o;
}

RunDocHeader headerFromJson(json::Reader& r, const char* nameKey) {
  RunDocHeader header;
  header.sweep = r.require(nameKey).asString(r.path(nameKey));
  readFields(kHeaderFields, header, r);
  header.shard.validate();
  return header;
}

}  // namespace

// --- shard documents --------------------------------------------------------

void emitShardJson(const ShardDoc& doc, std::ostream& out) {
  doc.shard.validate();
  out << "{\n";
  writeMembers(headerToJson(doc, "sweep"), out);
  out << "  \"runs\": [";
  for (std::size_t i = 0; i < doc.records.size(); ++i) {
    out << (i == 0 ? "\n    " : ",\n    ");
    json::dump(recordToJson(doc.records[i]), out);
  }
  out << "\n  ]\n}\n";
}

std::string shardJson(const ShardDoc& doc) {
  std::ostringstream out;
  emitShardJson(doc, out);
  return out.str();
}

ShardDoc parseShardJson(const std::string& text) {
  const json::Value root = json::parse(text);
  json::Reader r(root, "shard document");
  ShardDoc doc;
  static_cast<RunDocHeader&>(doc) = headerFromJson(r, "sweep");
  const json::Array& runs = r.require("runs").asArray(r.path("runs"));
  doc.records.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    doc.records.push_back(
        recordFromJson(runs[i], "runs[" + std::to_string(i) + "]"));
  }
  return doc;
}

std::vector<RunRecord> mergeShardRecords(const SweepSpec& spec,
                                         const std::string& fingerprint,
                                         std::vector<ShardDoc> shards) {
  AMMB_REQUIRE(!shards.empty(), "merge needs at least one shard document");
  const std::size_t runCount = spec.runCount();
  const std::size_t shardCount = shards.front().shard.count;
  AMMB_REQUIRE(shards.size() == shardCount,
               "merge needs all " + std::to_string(shardCount) +
                   " shard documents (got " + std::to_string(shards.size()) +
                   ")");

  std::vector<bool> seenShard(shardCount, false);
  std::vector<bool> seenRun(runCount, false);
  std::vector<RunRecord> merged;
  merged.reserve(runCount);
  for (ShardDoc& doc : shards) {
    AMMB_REQUIRE(doc.sweep == spec.name,
                 "shard document is for sweep \"" + doc.sweep +
                     "\", expected \"" + spec.name + "\"");
    AMMB_REQUIRE(doc.specFingerprint == fingerprint,
                 "shard document spec fingerprint " + doc.specFingerprint +
                     " does not match the spec (" + fingerprint +
                     ") — regenerate the shard outputs");
    AMMB_REQUIRE(doc.shard.count == shardCount,
                 "shard documents disagree on the shard count");
    AMMB_REQUIRE(doc.runCount == runCount,
                 "shard document was produced from a grid of " +
                     std::to_string(doc.runCount) + " runs, expected " +
                     std::to_string(runCount));
    AMMB_REQUIRE(!seenShard[doc.shard.index],
                 "duplicate shard " + doc.shard.toString());
    seenShard[doc.shard.index] = true;
    for (RunRecord& record : doc.records) {
      const std::size_t i = record.point.runIndex;
      AMMB_REQUIRE(i < runCount, "shard record run index " +
                                     std::to_string(i) + " out of range");
      AMMB_REQUIRE(doc.shard.ownsRun(i),
                   "run " + std::to_string(i) + " does not belong to shard " +
                       doc.shard.toString());
      AMMB_REQUIRE(!seenRun[i],
                   "run " + std::to_string(i) + " appears twice");
      seenRun[i] = true;
      merged.push_back(std::move(record));
    }
  }
  for (std::size_t i = 0; i < runCount; ++i) {
    AMMB_REQUIRE(seenRun[i], "run " + std::to_string(i) +
                                 " is missing from the shard outputs");
  }
  return merged;
}

// --- run journal ------------------------------------------------------------

std::string journalHeaderLine(const JournalHeader& header) {
  return json::dump(headerToJson(header, "journal")) + "\n";
}

std::string journalRecordLine(const RunRecord& record) {
  return json::dump(recordToJson(record)) + "\n";
}

void appendJournalRecord(std::ostream& out, const RunRecord& record) {
  out << journalRecordLine(record);
  out.flush();
}

JournalDoc parseJournal(const std::string& text) {
  JournalDoc doc;
  std::size_t pos = 0;
  std::size_t lineNo = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const bool terminated = eol != std::string::npos;
    const std::string line =
        text.substr(pos, terminated ? eol - pos : std::string::npos);
    pos = terminated ? eol + 1 : text.size();
    ++lineNo;
    if (line.empty()) continue;

    json::Value value;
    try {
      value = json::parse(line);
    } catch (const std::exception& e) {
      // Only the final, unterminated line may be damaged — that is the
      // in-flight append a kill interrupts.  Anything else (including a
      // broken header) is corruption the caller must know about.
      if (!terminated && pos == text.size() && lineNo > 1) {
        doc.truncatedTail = true;
        break;
      }
      throw Error("journal line " + std::to_string(lineNo) +
                  " is malformed: " + e.what());
    }
    const std::string context = "journal line " + std::to_string(lineNo);
    if (lineNo == 1) {
      json::Reader r(value, context);
      doc.header = headerFromJson(r, "journal");
      continue;
    }
    doc.records.push_back(recordFromJson(value, context));
  }
  AMMB_REQUIRE(lineNo >= 1, "journal is empty (no header line)");
  return doc;
}

}  // namespace ammb::runner
