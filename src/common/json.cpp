#include "common/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace narma::json {

const Value& Value::operator[](const std::string& key) const {
  static const Value kNull;
  if (!obj_) return kNull;
  auto it = obj_->find(key);
  return it == obj_->end() ? kNull : it->second;
}

const Value& Value::operator[](std::size_t i) const {
  static const Value kNull;
  if (!arr_ || i >= arr_->size()) return kNull;
  return (*arr_)[i];
}

double Value::number_or(const std::string& key, double dflt) const {
  const Value& v = (*this)[key];
  return v.is_number() ? v.as_number() : dflt;
}

std::string Value::string_or(const std::string& key,
                             const std::string& dflt) const {
  const Value& v = (*this)[key];
  return v.is_string() ? v.as_string() : dflt;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ParseResult run() {
    ParseResult res;
    skip_ws();
    res.value = parse_value();
    if (ok_) {
      skip_ws();
      if (pos_ != text_.size()) fail("trailing characters after document");
    }
    res.ok = ok_;
    res.error = error_;
    res.error_pos = error_pos_;
    return res;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  void fail(const std::string& msg) {
    if (!ok_) return;  // keep the first error
    ok_ = false;
    error_ = msg;
    error_pos_ = pos_;
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect(char c, const char* what) {
    if (eat(c)) return true;
    fail(std::string("expected ") + what);
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value parse_value() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return {};
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Each level recurses once: bound it so hostile input cannot
      // exhaust the stack.
      if (depth_ == kMaxNesting) {
        fail("arrays and objects nested deeper than " +
             std::to_string(kMaxNesting) + " levels");
        return {};
      }
      ++depth_;
      Value v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return Value(parse_string());
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    if (literal("true")) return Value(true);
    if (literal("false")) return Value(false);
    if (literal("null")) return {};
    fail("unexpected character");
    return {};
  }

  Value parse_object() {
    Object obj;
    expect('{', "'{'");
    skip_ws();
    if (eat('}')) return Value(std::move(obj));
    while (ok_) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key string");
        break;
      }
      std::string key = parse_string();
      skip_ws();
      if (!expect(':', "':'")) break;
      skip_ws();
      obj[std::move(key)] = parse_value();
      skip_ws();
      if (eat(',')) continue;
      expect('}', "',' or '}'");
      break;
    }
    return Value(std::move(obj));
  }

  Value parse_array() {
    Array arr;
    expect('[', "'['");
    skip_ws();
    if (eat(']')) return Value(std::move(arr));
    while (ok_) {
      skip_ws();
      arr.push_back(parse_value());
      skip_ws();
      if (eat(',')) continue;
      expect(']', "',' or ']'");
      break;
    }
    return Value(std::move(arr));
  }

  /// Reads the 4 hex digits of a \uXXXX escape into `cp`; false on error.
  bool hex4(unsigned& cp) {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
      return false;
    }
    cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f')
        cp |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F')
        cp |= static_cast<unsigned>(h - 'A' + 10);
      else {
        fail("bad hex digit in \\u escape");
        return false;
      }
    }
    return true;
  }

  std::string parse_string() {
    std::string out;
    expect('"', "'\"'");
    while (ok_ && pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            // Decode \uXXXX to UTF-8. Non-BMP characters arrive as a
            // UTF-16 surrogate pair (\uD800-\uDBFF then \uDC00-\uDFFF) and
            // are combined; an unpaired surrogate is a parse error.
            unsigned cp = 0;
            if (!hex4(cp)) return out;
            if (cp >= 0xDC00 && cp <= 0xDFFF) {
              fail("unpaired low surrogate in \\u escape");
              return out;
            }
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                fail("unpaired high surrogate in \\u escape");
                return out;
              }
              pos_ += 2;
              unsigned lo = 0;
              if (!hex4(lo)) return out;
              if (lo < 0xDC00 || lo > 0xDFFF) {
                fail("high surrogate not followed by a low surrogate");
                return out;
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            }
            if (cp < 0x80) {
              out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else if (cp < 0x10000) {
              out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
              out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default:
            fail("bad escape character");
            return out;
        }
      } else {
        out.push_back(c);
      }
    }
    fail("unterminated string");
    return out;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (eat('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
      pos_ = start;
      fail("malformed number");
      return {};
    }
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open at pos_
  bool ok_ = true;
  std::string error_;
  std::size_t error_pos_ = 0;
};

}  // namespace

ParseResult parse(std::string_view text) { return Parser(text).run(); }

ParseResult parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ParseResult res;
    res.error = "cannot open " + path;
    return res;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  return parse(text);
}

// ------------------------------------------------------------------ Writer --

void Writer::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_prev_.empty()) {
    if (has_prev_.back()) out_ += ',';
    has_prev_.back() = true;
  }
}

Writer& Writer::begin_object() {
  separate();
  out_ += '{';
  has_prev_.push_back(false);
  return *this;
}

Writer& Writer::end_object() {
  out_ += '}';
  has_prev_.pop_back();
  return *this;
}

Writer& Writer::begin_array() {
  separate();
  out_ += '[';
  has_prev_.push_back(false);
  return *this;
}

Writer& Writer::end_array() {
  out_ += ']';
  has_prev_.pop_back();
  return *this;
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

Writer& Writer::key(std::string_view k) {
  separate();
  out_ += quote(k);
  out_ += ':';
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  separate();
  out_ += quote(s);
  return *this;
}

Writer& Writer::value(double d) {
  separate();
  // Shortest form that round-trips the double exactly.
  char buf[32];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
    double back = 0;
    std::sscanf(buf, "%lf", &back);
    if (back == d) break;
  }
  out_ += buf;
  return *this;
}

Writer& Writer::value(std::uint64_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

Writer& Writer::value(std::int64_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

Writer& Writer::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
  return *this;
}

}  // namespace narma::json
