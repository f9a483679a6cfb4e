// Minimal JSON value, parser, and writer for the sweep service.
//
// The sweep-service file formats (spec files, shard outputs, journals,
// result documents) need a JSON reader/writer without adding a
// third-party dependency.  This is a deliberately small subset of JSON
// tuned for those formats:
//
//   * objects preserve member order (vector of pairs, not a map), so a
//     parse -> dump round trip of a canonical document is byte-stable;
//   * integers and doubles are distinct: a number token without '.',
//     'e' or 'E' parses as std::int64_t (simulated times are exact
//     64-bit ticks, including the kTimeNever sentinel), everything
//     else as double;
//   * doubles print as the shortest decimal that parses back to the
//     same bits, so value identity implies text identity.
//
// Parse errors throw ammb::Error with line/column context.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.h"

namespace ammb::runner::json {

class Value;
using Array = std::vector<Value>;
using Member = std::pair<std::string, Value>;
/// Order-preserving object representation.  Lookup is linear, which is
/// fine at spec-file scale; duplicate keys are rejected by the parser.
using Object = std::vector<Member>;

/// A parsed JSON document node.
class Value {
 public:
  Value() : v_(nullptr) {}
  /*implicit*/ Value(std::nullptr_t) : v_(nullptr) {}
  /*implicit*/ Value(bool b) : v_(b) {}
  /*implicit*/ Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  /*implicit*/ Value(std::int64_t i) : v_(i) {}
  /*implicit*/ Value(std::size_t i) : v_(static_cast<std::int64_t>(i)) {}
  /*implicit*/ Value(double d) : v_(d) {}
  /*implicit*/ Value(const char* s) : v_(std::string(s)) {}
  /*implicit*/ Value(std::string s) : v_(std::move(s)) {}
  /*implicit*/ Value(Array a) : v_(std::move(a)) {}
  /*implicit*/ Value(Object o) : v_(std::move(o)) {}

  bool isNull() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool isBool() const { return std::holds_alternative<bool>(v_); }
  bool isInt() const { return std::holds_alternative<std::int64_t>(v_); }
  bool isDouble() const { return std::holds_alternative<double>(v_); }
  bool isNumber() const { return isInt() || isDouble(); }
  bool isString() const { return std::holds_alternative<std::string>(v_); }
  bool isArray() const { return std::holds_alternative<Array>(v_); }
  bool isObject() const { return std::holds_alternative<Object>(v_); }

  /// Typed accessors; throw ammb::Error on a type mismatch, naming
  /// `context` (a field path) in the message.
  bool asBool(const std::string& context = "value") const;
  std::int64_t asInt(const std::string& context = "value") const;
  /// Numeric accessor: integers promote to double.
  double asDouble(const std::string& context = "value") const;
  const std::string& asString(const std::string& context = "value") const;
  const Array& asArray(const std::string& context = "value") const;
  const Object& asObject(const std::string& context = "value") const;

  /// Object member lookup; nullptr when absent (requires isObject()).
  const Value* find(const std::string& key) const;

  bool operator==(const Value& other) const { return v_ == other.v_; }
  bool operator!=(const Value& other) const { return v_ != other.v_; }

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      v_;
};

/// Parses one JSON document (trailing whitespace allowed, nothing
/// else).  Throws ammb::Error with line/column on malformed input.
Value parse(const std::string& text);

/// Serializes a value.  `indent < 0` emits the compact one-line form;
/// `indent >= 0` pretty-prints with that many spaces per level.
void dump(const Value& value, std::ostream& out, int indent = -1);
std::string dump(const Value& value, int indent = -1);

/// The shortest decimal representation of `d` that strtod parses back
/// to the same bits (never scientific-only surprises like "1e+00" for
/// small integers: whole doubles in range print with a trailing ".0").
std::string numberToString(double d);

/// JSON string escaping (quotes not included).
std::string escape(const std::string& s);

/// `v` as 16 lowercase hex digits (fingerprints and trace hashes).
std::string hexU64(std::uint64_t v);

/// Member access for one JSON object; every error names `context.key`.
/// It remembers which members were read, so strict readers (spec
/// files) can reject unknown keys, while lenient ones (records, shards,
/// journals) skip that check and legacy keys keep parsing.
class Reader {
 public:
  /// Throws unless `value` is an object.
  Reader(const Value& value, std::string context);

  /// The member `key`, or nullptr when absent.
  const Value* find(const std::string& key);
  /// The member `key`; throws when absent.
  const Value& require(const std::string& key);
  std::string path(const std::string& key) const {
    return context_ + "." + key;
  }
  /// Throws on the first member neither find() nor require() read.
  void rejectUnknown() const;

 private:
  std::string context_;
  const Object& members_;
  std::vector<bool> used_;
};

}  // namespace ammb::runner::json
