// Field tables: every serialized field of a runner document is one row
// {key, member, codec, elide-when}, and the encoders, decoders, CSV
// emitters and aggregation folds loop over the rows instead of naming
// each field themselves.
//
// A row names its member by a member-pointer path,
//
//   field<&RunRecord::result, &core::RunResult::endTime>("end_time")
//
// and the member's C++ type picks the codec:
//   * integers         JSON integers.  Decoding rejects what the member
//                      cannot hold (a negative unsigned counter, an int
//                      beyond 32 bits) with an error naming the key path;
//   * bool, double, std::string   JSON booleans, numbers, strings;
//   * enums            their spelling (spelling<E>(), below);
//   * std::vector<V>   arrays of V;
//   * other types      an encodeValue()/decodeValue() overload found by
//                      argument-dependent lookup (the spec's axis docs).
// fieldAs<Codec, ...> names a codec instead: Nested<kTable> for a
// nested object, and the few fields whose text is not their type's.
//
// Tables are constexpr or built once (function-local statics), so no
// call allocates to read them.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "phys/measurement.h"
#include "runner/json.h"
#include "runner/sweep_spec.h"

namespace ammb::runner {

// --- names ------------------------------------------------------------------

/// One spelling: an enum value (or a kind row) and its name.
template <class V, class Name = const char*>
struct Named {
  V value;
  Name name;
};

/// The "(expected ...)" list of `rows`: two names are joined by " or ",
/// more by ", ".
template <class Rows>
std::string expectedNames(const Rows& rows) {
  std::string list;
  std::size_t i = 0;
  for (const auto& row : rows) {
    if (i++ > 0) list += std::size(rows) == 2 ? " or " : ", ";
    list += row.name;
  }
  return list;
}

/// The row spelled `name`.  Throws `<context>: unknown <what> "<name>"
/// (expected ...)`; an empty context drops the prefix.
template <class Rows>
const auto& rowNamed(const Rows& rows, const std::string& name,
                     const char* what, const std::string& context = {}) {
  for (const auto& row : rows) {
    if (name == row.name) return row;
  }
  throw Error((context.empty() ? "" : context + ": ") + "unknown " + what +
              " \"" + name + "\" (expected " + expectedNames(rows) + ")");
}

/// The row of `value` (every table covers its enum).
template <class Rows, class V>
const auto& rowOf(const Rows& rows, V value) {
  for (const auto& row : rows) {
    if (row.value == value) return row;
  }
  throw Error("value missing from its name table");
}

/// The spellings of an enum the runner reads and writes by name.
template <class E>
struct Spelling {
  const char* what;  ///< noun for errors ("run status")
  std::vector<Named<E, std::string>> names;
};

/// Each enum's table.  The specializations are defined in spec_io.cpp,
/// except the run status's, in emit.cpp.
template <class E>
const Spelling<E>& spelling();
template <>
const Spelling<sim::RunStatus>& spelling<sim::RunStatus>();
template <>
const Spelling<core::ProtocolKind>& spelling<core::ProtocolKind>();
template <>
const Spelling<core::SchedulerKind>& spelling<core::SchedulerKind>();
template <>
const Spelling<core::QueueDiscipline>& spelling<core::QueueDiscipline>();
template <>
const Spelling<core::FmmbParams::Mode>& spelling<core::FmmbParams::Mode>();
template <>
const Spelling<mac::ModelVariant>& spelling<mac::ModelVariant>();
template <>
const Spelling<CheckMode>& spelling<CheckMode>();

/// Rows for an enum whose canonical spelling lives with the enum.
template <class E, class Spell>
std::vector<Named<E, std::string>> spelledBy(std::initializer_list<E> values,
                                              Spell spell) {
  std::vector<Named<E, std::string>> names;
  for (E v : values) names.push_back({v, spell(v)});
  return names;
}

template <class E>
const std::string& enumName(E value) {
  return rowOf(spelling<E>().names, value).name;
}

template <class E>
E enumFromName(const std::string& name, const std::string& context = {}) {
  return rowNamed(spelling<E>().names, name, spelling<E>().what, context)
      .value;
}

// --- value codecs -----------------------------------------------------------

inline json::Value encodeValue(bool v) { return v; }
inline json::Value encodeValue(double v) { return v; }
inline json::Value encodeValue(const std::string& v) { return v; }

template <class V>
json::Value encodeValue(const V& v) {
  if constexpr (std::is_enum_v<V>) {
    return enumName(v);
  } else if constexpr (std::is_integral_v<V>) {
    return static_cast<std::int64_t>(v);
  } else {
    json::Array items;
    items.reserve(v.size());
    for (const auto& item : v) items.push_back(encodeValue(item));
    return items;
  }
}

inline void decodeValue(bool& out, const json::Value& v,
                        const std::string& path) {
  out = v.asBool(path);
}
inline void decodeValue(double& out, const json::Value& v,
                        const std::string& path) {
  out = v.asDouble(path);
}
inline void decodeValue(std::string& out, const json::Value& v,
                        const std::string& path) {
  out = v.asString(path);
}

template <class V>
void decodeValue(V& out, const json::Value& v, const std::string& path) {
  if constexpr (std::is_enum_v<V>) {
    out = enumFromName<V>(v.asString(path), path);
  } else if constexpr (std::is_integral_v<V>) {
    static_assert(sizeof(V) == 8 || std::is_signed_v<V>);
    const std::int64_t x = v.asInt(path);
    if constexpr (std::is_unsigned_v<V>) {
      AMMB_REQUIRE(x >= 0, path + " must be non-negative");
    } else if constexpr (sizeof(V) < sizeof(x)) {
      AMMB_REQUIRE(x >= std::numeric_limits<V>::min() &&
                       x <= std::numeric_limits<V>::max(),
                   path + " out of 32-bit range");
    }
    out = static_cast<V>(x);
  } else {
    const json::Array& items = v.asArray(path);
    out.assign(items.size(), {});
    for (std::size_t i = 0; i < items.size(); ++i) {
      decodeValue(out[i], items[i], path + "[" + std::to_string(i) + "]");
    }
  }
}

/// The default codec: the member type's encodeValue/decodeValue.
struct ByType {
  template <class V>
  static json::Value encode(const V& v) {
    return encodeValue(v);
  }
  template <class V>
  static void decode(V& out, const json::Value& v, const std::string& path) {
    decodeValue(out, v, path);
  }
};

// --- rows -------------------------------------------------------------------

/// A bound a spec value must satisfy (checked on the JSON input).
enum class Range : std::uint8_t {
  kAny,
  kPositive,      ///< >= 1
  kNonNegative,   ///< >= 0
  kAboveZero,     ///< > 0
  kAtLeastOne,    ///< >= 1 (a real)
  kProbability,   ///< in [0, 1]
  kNonEmpty,      ///< a non-empty string or array
};

/// Throws `<path> must ...` unless `v` satisfies `range`.
inline void checkRange(Range range, const json::Value& v,
                       const std::string& path) {
  const auto require = [&](bool ok, const char* what) {
    AMMB_REQUIRE(ok, path + " must " + what);
  };
  const double x = v.isNumber() ? v.asDouble() : 0.0;
  switch (range) {
    case Range::kAny: break;
    case Range::kPositive: require(x >= 1, "be at least 1"); break;
    case Range::kNonNegative: require(x >= 0, "be non-negative"); break;
    case Range::kAboveZero: require(x > 0, "be positive"); break;
    case Range::kAtLeastOne: require(x >= 1, "be >= 1"); break;
    case Range::kProbability: require(x >= 0 && x <= 1, "be in [0, 1]"); break;
    case Range::kNonEmpty:
      require(!v.isString() || !v.asString().empty(), "be non-empty");
      require(!v.isArray() || !v.asArray().empty(),
              "not be an empty array");
      break;
  }
}

/// How aggregation folds one run's value into its cell's.
enum class Fold : std::uint8_t { kNone, kSum, kMax };

template <class T>
struct Field {
  const char* key = nullptr;
  json::Value (*get)(const T&) = nullptr;
  void (*set)(T&, const json::Value&, const std::string& path) = nullptr;
  /// Non-null: the key is omitted wherever this holds.
  bool (*elide)(const T&) = nullptr;
  /// Readers accept the key's absence (the member keeps its default).
  bool optional = false;
  Range range = Range::kAny;
  Fold fold = Fold::kNone;
  /// Applies `fold` (generated for arithmetic members).
  void (*combine)(T& into, const T& from, Fold fold) = nullptr;
  /// Header of the field's CSV column, where it has one.
  const char* csvName = nullptr;
  /// 1-based position of the field's column in its document's CSV
  /// (the cells CSV for result and cell rows); 0: not a column.
  int csvPos = 0;

  constexpr Field opt() const {
    Field f = *this;
    f.optional = true;
    return f;
  }
  constexpr Field in(Range r) const {
    Field f = *this;
    f.range = r;
    return f;
  }
  constexpr Field folded(Fold how) const {
    Field f = *this;
    f.fold = how;
    return f;
  }
  constexpr Field csvAs(const char* header) const {
    Field f = *this;
    f.csvName = header;
    return f;
  }
  constexpr Field csvAt(int pos) const {
    Field f = *this;
    f.csvPos = pos;
    return f;
  }
};

template <class M>
struct MemberOf;
template <class C, class V>
struct MemberOf<V C::*> {
  using Owner = C;
};

/// A member-pointer path from a record to one of its (nested) members.
template <auto First, auto... Rest>
struct At {
  using Owner = typename MemberOf<decltype(First)>::Owner;
  static const auto& in(const Owner& o) { return ((o.*First) .* ... .* Rest); }
  static auto& in(Owner& o) { return ((o.*First) .* ... .* Rest); }
};

template <class Codec, auto... Path>
json::Value getAt(const typename At<Path...>::Owner& o) {
  return Codec::encode(At<Path...>::in(o));
}

template <class Codec, auto... Path>
void setAt(typename At<Path...>::Owner& o, const json::Value& v,
           const std::string& path) {
  Codec::decode(At<Path...>::in(o), v, path);
}

template <auto... Path>
void combineAt(typename At<Path...>::Owner& into,
               const typename At<Path...>::Owner& from, Fold fold) {
  auto& a = At<Path...>::in(into);
  const auto& b = At<Path...>::in(from);
  if (fold == Fold::kSum) a += b;
  if (fold == Fold::kMax && b > a) a = b;
}

/// One default-constructed T, for comparing members against.
template <class T>
const T& defaults() {
  static const T* const value = new T();
  return *value;
}

template <auto... Path>
bool atDefault(const typename At<Path...>::Owner& o) {
  using Owner = typename At<Path...>::Owner;
  return At<Path...>::in(o) == At<Path...>::in(defaults<Owner>());
}

/// Elision rule for field(): omit the key where the member holds its
/// default value.
struct OmitDefault {};
inline constexpr OmitDefault kOmitDefault{};

template <class Codec, auto... Path>
constexpr Field<typename At<Path...>::Owner> fieldAs(const char* key) {
  using Owner = typename At<Path...>::Owner;
  using V = std::decay_t<decltype(At<Path...>::in(std::declval<Owner&>()))>;
  Field<Owner> f;
  f.key = key;
  f.get = &getAt<Codec, Path...>;
  f.set = &setAt<Codec, Path...>;
  if constexpr (std::is_arithmetic_v<V> && !std::is_same_v<V, bool>) {
    f.combine = &combineAt<Path...>;
  }
  return f;
}

/// A row omitted wherever `elide` holds (and so optional on read).
template <class Codec, auto... Path>
constexpr Field<typename At<Path...>::Owner> fieldAs(
    const char* key, bool (*elide)(const typename At<Path...>::Owner&)) {
  auto f = fieldAs<Codec, Path...>(key);
  f.elide = elide;
  f.optional = true;
  return f;
}

template <auto... Path>
constexpr auto field(const char* key) {
  return fieldAs<ByType, Path...>(key);
}

template <auto... Path>
constexpr auto field(const char* key,
                     bool (*elide)(const typename At<Path...>::Owner&)) {
  return fieldAs<ByType, Path...>(key, elide);
}

template <auto... Path>
constexpr auto field(const char* key, OmitDefault) {
  return fieldAs<ByType, Path...>(key, &atDefault<Path...>);
}

// --- table loops ------------------------------------------------------------

template <class Table, class T>
json::Object encodeFields(const Table& table, const T& obj) {
  json::Object o;
  for (const Field<T>& f : table) {
    if (f.key != nullptr && (f.elide == nullptr || !f.elide(obj))) {
      o.emplace_back(f.key, f.get(obj));
    }
  }
  return o;
}

/// Reads every row of `table` from `r` (rows with a null key are
/// skipped).  Unknown keys are left to the caller: r.rejectUnknown().
template <class Table, class T>
void readFields(const Table& table, T& obj, json::Reader& r) {
  for (const Field<T>& f : table) {
    if (f.key == nullptr) continue;
    const json::Value* v = f.optional ? r.find(f.key) : &r.require(f.key);
    if (v == nullptr) continue;
    const std::string path = r.path(f.key);
    f.set(obj, *v, path);
    checkRange(f.range, *v, path);
  }
}

/// Folds `from` into `into` by each row's rule.
template <class Table, class T>
void foldFields(const Table& table, T& into, const T& from) {
  for (const Field<T>& f : table) {
    if (f.fold != Fold::kNone) f.combine(into, from, f.fold);
  }
}

/// Codec of a nested object described by `Table`; readers of nested
/// objects ignore unknown keys, like the record readers around them.
template <const auto& Table>
struct Nested {
  template <class V>
  static json::Value encode(const V& v) {
    return encodeFields(Table, v);
  }
  template <class V>
  static void decode(V& out, const json::Value& v, const std::string& path) {
    json::Reader r(v, path);
    readFields(Table, out, r);
  }
};

// --- kinded documents -------------------------------------------------------

/// One kind of a kinded axis document: its name, its parameters, and
/// what it builds.
template <class Doc, class Built>
struct Kind {
  decltype(Doc::kind) value;
  const char* name;
  std::array<Field<Doc>, 4> params;  ///< unused rows have a null key
  Built (*build)(const Doc&);
  /// Cross-parameter check, run after the parameters are read.
  void (*check)(const Doc&, const json::Reader&) = nullptr;
};

/// {"kind": name, params...} of `doc`.
template <class Kinds, class Doc>
json::Object encodeKind(const Kinds& kinds, const Doc& doc) {
  const auto& kind = rowOf(kinds, doc.kind);
  json::Object o = encodeFields(kind.params, doc);
  o.emplace(o.begin(), "kind", kind.name);
  return o;
}

/// Reads "kind" and that kind's parameters from `r`.
template <class Kinds, class Doc>
void decodeKind(const Kinds& kinds, Doc& doc, json::Reader& r,
                const char* what) {
  const auto& kind = rowNamed(
      kinds, r.require("kind").asString(r.path("kind")), what, r.path("kind"));
  doc.kind = kind.value;
  readFields(kind.params, doc, r);
  if (kind.check != nullptr) kind.check(doc, r);
}

// --- tables shared by the aggregator and the emitters -----------------------

/// Engine counters; a cell sums them over its runs.
inline constexpr Field<mac::EngineStats> kStatFields[] = {
    field<&mac::EngineStats::bcasts>("bcasts").folded(Fold::kSum),
    field<&mac::EngineStats::rcvs>("rcvs").folded(Fold::kSum),
    field<&mac::EngineStats::forcedRcvs>("forced_rcvs").folded(Fold::kSum),
    field<&mac::EngineStats::acks>("acks").folded(Fold::kSum),
    field<&mac::EngineStats::aborts>("aborts").folded(Fold::kSum),
    field<&mac::EngineStats::delivers>("delivers").folded(Fold::kSum),
    field<&mac::EngineStats::arrives>("arrives").folded(Fold::kSum),
};

/// Realized Fprog/Fack bounds.  A cell keeps the worst (max) bound
/// statistic of its runs and sums their sample counts; only the bound
/// statistics are CSV columns.
inline constexpr Field<phys::RealizedBounds> kRealizedFields[] = {
    field<&phys::RealizedBounds::fprogP50>("fprog_p50")
        .folded(Fold::kMax).csvAs("realized_fprog_p50"),
    field<&phys::RealizedBounds::fprogP95>("fprog_p95")
        .folded(Fold::kMax).csvAs("realized_fprog_p95"),
    field<&phys::RealizedBounds::fprogMax>("fprog_max")
        .folded(Fold::kMax).csvAs("realized_fprog_max"),
    field<&phys::RealizedBounds::fackP50>("fack_p50")
        .folded(Fold::kMax).csvAs("realized_fack_p50"),
    field<&phys::RealizedBounds::fackP95>("fack_p95")
        .folded(Fold::kMax).csvAs("realized_fack_p95"),
    field<&phys::RealizedBounds::fackMax>("fack_max")
        .folded(Fold::kMax).csvAs("realized_fack_max"),
    field<&phys::RealizedBounds::fittedFprog>("fitted_fprog")
        .folded(Fold::kMax).csvAs("fitted_fprog"),
    field<&phys::RealizedBounds::fittedFack>("fitted_fack")
        .folded(Fold::kMax).csvAs("fitted_fack"),
    field<&phys::RealizedBounds::ackSamples>("ack_samples").folded(Fold::kSum),
    field<&phys::RealizedBounds::progSamples>("prog_samples")
        .folded(Fold::kSum),
};

}  // namespace ammb::runner
