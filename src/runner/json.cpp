#include "runner/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <sstream>

namespace ammb::runner::json {

namespace {

const char* typeName(const Value& v) {
  if (v.isNull()) return "null";
  if (v.isBool()) return "bool";
  if (v.isInt()) return "integer";
  if (v.isDouble()) return "number";
  if (v.isString()) return "string";
  if (v.isArray()) return "array";
  return "object";
}

[[noreturn]] void typeError(const Value& v, const char* wanted,
                            const std::string& context) {
  throw Error("JSON: " + context + " must be " + wanted + ", got " +
              typeName(v));
}

}  // namespace

bool Value::asBool(const std::string& context) const {
  if (!isBool()) typeError(*this, "a boolean", context);
  return std::get<bool>(v_);
}

std::int64_t Value::asInt(const std::string& context) const {
  if (!isInt()) typeError(*this, "an integer", context);
  return std::get<std::int64_t>(v_);
}

double Value::asDouble(const std::string& context) const {
  if (isInt()) return static_cast<double>(std::get<std::int64_t>(v_));
  if (!isDouble()) typeError(*this, "a number", context);
  return std::get<double>(v_);
}

const std::string& Value::asString(const std::string& context) const {
  if (!isString()) typeError(*this, "a string", context);
  return std::get<std::string>(v_);
}

const Array& Value::asArray(const std::string& context) const {
  if (!isArray()) typeError(*this, "an array", context);
  return std::get<Array>(v_);
}

const Object& Value::asObject(const std::string& context) const {
  if (!isObject()) typeError(*this, "an object", context);
  return std::get<Object>(v_);
}

const Value* Value::find(const std::string& key) const {
  for (const Member& m : asObject("member lookup target")) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

// --- parser -----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parseDocument() {
    Value v = parseValue(0);
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  // Nesting cap: parsing is recursive, and pathological inputs must
  // fail cleanly instead of overflowing the stack.
  static constexpr int kMaxDepth = 100;

  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw Error("JSON parse error at line " + std::to_string(line) +
                ", column " + std::to_string(col) + ": " + what);
  }

  void skipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else return;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consumeLiteral(const char* literal) {
    const std::size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  Value parseValue(int depth) {
    if (depth > kMaxDepth) fail("document nested too deeply");
    skipWhitespace();
    const char c = peek();
    switch (c) {
      case '{': return parseObject(depth);
      case '[': return parseArray(depth);
      case '"': return Value(parseString());
      case 't':
        if (consumeLiteral("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consumeLiteral("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consumeLiteral("null")) return Value(nullptr);
        fail("invalid literal");
      default: return parseNumber();
    }
  }

  Value parseObject(int depth) {
    expect('{');
    Object members;
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    while (true) {
      skipWhitespace();
      std::string key = parseString();
      for (const Member& m : members) {
        if (m.first == key) fail("duplicate object key \"" + key + "\"");
      }
      skipWhitespace();
      expect(':');
      members.emplace_back(std::move(key), parseValue(depth + 1));
      skipWhitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return Value(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parseArray(int depth) {
    expect('[');
    Array items;
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    while (true) {
      items.push_back(parseValue(depth + 1));
      skipWhitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return Value(std::move(items));
      }
      fail("expected ',' or ']' in array");
    }
  }

  unsigned hexDigit(char c) {
    if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
    fail("invalid \\u escape digit");
  }

  unsigned parseHex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) code = code * 16 + hexDigit(text_[pos_++]);
    return code;
  }

  void appendUtf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = parseHex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // UTF-16 surrogate pair.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired UTF-16 surrogate");
            }
            pos_ += 2;
            const unsigned low = parseHex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid UTF-16 low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate");
          }
          appendUtf8(out, code);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  Value parseNumber() {
    // Strict JSON grammar: -?int[.frac][(e|E)[+-]exp].  Sloppy tokens
    // like "+5" or "5." must not leak into committed spec files that
    // standard JSON consumers will read later.
    const std::size_t start = pos_;
    const auto digits = [&] {
      std::size_t count = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++count;
      }
      if (count == 0) fail("invalid number");
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t intStart = pos_;
    digits();
    if (text_[intStart] == '0' && pos_ > intStart + 1) {
      fail("invalid number (leading zero)");
    }
    bool isDouble = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      isDouble = true;
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      isDouble = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      digits();
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (!isDouble) {
      errno = 0;
      char* end = nullptr;
      const long long i = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Value(static_cast<std::int64_t>(i));
      }
      // Out of int64 range: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(d)) {
      fail("invalid number \"" + token + "\"");
    }
    return Value(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parseDocument(); }

// --- writer -----------------------------------------------------------------

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string hexU64(std::uint64_t v) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

Reader::Reader(const Value& value, std::string context)
    : context_(std::move(context)),
      members_(value.asObject(context_)),
      used_(members_.size(), false) {}

const Value* Reader::find(const std::string& key) {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].first == key) {
      used_[i] = true;
      return &members_[i].second;
    }
  }
  return nullptr;
}

const Value& Reader::require(const std::string& key) {
  const Value* v = find(key);
  if (v == nullptr) {
    throw Error(context_ + " is missing required field \"" + key + "\"");
  }
  return *v;
}

void Reader::rejectUnknown() const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!used_[i]) {
      throw Error(context_ + " has unknown field \"" + members_[i].first +
                  "\"");
    }
  }
}

std::string numberToString(double d) {
  AMMB_REQUIRE(std::isfinite(d), "JSON numbers must be finite");
  char buffer[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, d);
    if (std::strtod(buffer, nullptr) == d) break;
  }
  // Keep integral doubles visibly doubles so a round trip preserves the
  // int/double distinction.
  if (std::strcspn(buffer, ".eE") == std::strlen(buffer)) {
    std::strcat(buffer, ".0");
  }
  return buffer;
}

namespace {

void dumpValue(const Value& v, std::ostream& out, int indent, int depth) {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out << '\n';
    for (int i = 0; i < indent * d; ++i) out << ' ';
  };
  if (v.isNull()) {
    out << "null";
  } else if (v.isBool()) {
    out << (v.asBool() ? "true" : "false");
  } else if (v.isInt()) {
    out << v.asInt();
  } else if (v.isDouble()) {
    out << numberToString(v.asDouble());
  } else if (v.isString()) {
    out << '"' << escape(v.asString()) << '"';
  } else if (v.isArray()) {
    const Array& items = v.asArray();
    if (items.empty()) {
      out << "[]";
      return;
    }
    out << '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out << ',';
      newline(depth + 1);
      dumpValue(items[i], out, indent, depth + 1);
    }
    newline(depth);
    out << ']';
  } else {
    const Object& members = v.asObject();
    if (members.empty()) {
      out << "{}";
      return;
    }
    out << '{';
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i > 0) out << ',';
      newline(depth + 1);
      out << '"' << escape(members[i].first) << "\":";
      if (indent >= 0) out << ' ';
      dumpValue(members[i].second, out, indent, depth + 1);
    }
    newline(depth);
    out << '}';
  }
}

}  // namespace

void dump(const Value& value, std::ostream& out, int indent) {
  dumpValue(value, out, indent, 0);
  if (indent >= 0) out << '\n';
}

std::string dump(const Value& value, int indent) {
  std::ostringstream out;
  dump(value, out, indent);
  return out.str();
}

}  // namespace ammb::runner::json
