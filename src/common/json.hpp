// Minimal JSON reader for the repository's own machine-readable outputs
// (trace files, metrics dumps, bench tables). Recursive-descent, no external
// dependencies; numbers are stored as double (adequate for every value the
// simulator emits). Not a general-purpose validator: it accepts exactly the
// JSON grammar and reports the first error with its byte offset.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace narma::json {

class Value;
using Array = std::vector<Value>;
/// Ordered map so round-trips and test expectations are deterministic.
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Value(double d) : kind_(Kind::kNumber), num_(d) {}
  explicit Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  explicit Value(Array a)
      : kind_(Kind::kArray), arr_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : kind_(Kind::kObject), obj_(std::make_shared<Object>(std::move(o))) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  std::int64_t as_int() const { return static_cast<std::int64_t>(num_); }
  const std::string& as_string() const { return str_; }
  const Array& as_array() const {
    static const Array kEmpty;
    return arr_ ? *arr_ : kEmpty;
  }
  const Object& as_object() const {
    static const Object kEmpty;
    return obj_ ? *obj_ : kEmpty;
  }

  /// Object member access; a null Value when absent or not an object.
  const Value& operator[](const std::string& key) const;
  /// Array element access; a null Value when out of range or not an array.
  const Value& operator[](std::size_t i) const;

  /// Typed lookups with defaults, for tolerant consumers.
  double number_or(const std::string& key, double dflt) const;
  std::string string_or(const std::string& key,
                        const std::string& dflt) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::shared_ptr<Array> arr_;
  std::shared_ptr<Object> obj_;
};

struct ParseResult {
  bool ok = false;
  Value value;
  std::string error;       // first error, human-readable
  std::size_t error_pos = 0;  // byte offset of the error
};

/// Deepest nesting of arrays and objects parse() accepts.
constexpr int kMaxNesting = 256;

/// Parses a complete JSON document (trailing whitespace allowed). Deeper
/// nesting than kMaxNesting is an error, not a stack overflow.
ParseResult parse(std::string_view text);

/// Reads and parses a file; error mentions the path on I/O failure.
ParseResult parse_file(const std::string& path);

/// `s` as a JSON string literal: quoted, with quotes, backslashes and
/// control characters escaped.
std::string quote(std::string_view s);

/// Minimal streaming writer — the emit counterpart of parse() for the
/// repository's machine-readable outputs (flight-recorder time series).
/// Tracks nesting and comma placement; integers are emitted exactly (the
/// telescoping checks compare sums of 64-bit picosecond values), doubles
/// with enough digits to round-trip. Keys and string values are escaped.
class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();
  Writer& key(std::string_view k);
  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(double d);
  Writer& value(std::uint64_t v);
  Writer& value(std::int64_t v);
  Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Writer& value(bool b);

  /// Shorthand: key(k) followed by value(v).
  template <class T>
  Writer& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void separate();  // comma before a sibling element/key

  std::string out_;
  std::vector<bool> has_prev_;  // per nesting level
  bool after_key_ = false;
};

}  // namespace narma::json
