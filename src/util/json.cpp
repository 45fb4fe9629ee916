#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace eta::util {

namespace {

void AppendEscaped(std::string& out, std::string_view s) {
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += "\\u00";
          out += "0123456789abcdef"[c >> 4];
          out += "0123456789abcdef"[c & 0xF];
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

}  // namespace

void JsonWriter::Separate(bool closing) {
  if (!closing && !after_key_ && !stack_.empty() && !stack_.back().empty) out_ += ',';
  if (pending_newline_) {
    pending_newline_ = false;
    out_ += '\n';
    out_.append(std::count_if(stack_.begin(), stack_.end(), [](Frame f) { return f.array; }),
                ' ');
  }
  after_key_ = false;
  if (!closing && !stack_.empty()) stack_.back().empty = false;
}

JsonWriter& JsonWriter::Open(char bracket, bool array) {
  Separate(/*closing=*/false);
  out_ += bracket;
  stack_.push_back({.array = array});
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  stack_.pop_back();
  Separate(/*closing=*/true);
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Separate(/*closing=*/false);
  out_ += '"';
  AppendEscaped(out_, key);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Separate(/*closing=*/false);
  out_ += '"';
  AppendEscaped(out_, value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) { return Raw(std::to_string(value)); }

JsonWriter& JsonWriter::Uint(uint64_t value) { return Raw(std::to_string(value)); }

JsonWriter& JsonWriter::Double(double value, int precision) {
  Separate(/*closing=*/false);
  // Fixed notation of a finite double has at most 309 integer digits.
  const size_t base = out_.size();
  out_.resize(base + 312 + static_cast<size_t>(precision));
  const auto result = std::to_chars(out_.data() + base, out_.data() + out_.size(), value,
                                    std::chars_format::fixed, precision);
  out_.resize(static_cast<size_t>(result.ptr - out_.data()));
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) { return Raw(value ? "true" : "false"); }

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate(/*closing=*/false);
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::Newline() {
  pending_newline_ = true;
  return *this;
}

std::string JsonWriter::Take() {
  if (pending_newline_) Separate(/*closing=*/true);
  return std::move(out_);
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// Recursive-descent parser over a string_view; tracks the cursor so errors
/// can report a byte offset.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> Parse(std::string* error) {
    JsonValue value;
    if (!ParseValue(value) || (SkipWs(), pos_ != text_.size())) {
      if (pos_ == text_.size() && error_.empty()) error_ = "trailing garbage or truncated";
      if (error != nullptr) {
        *error = error_.empty() ? "invalid JSON" : error_;
        *error += " at offset " + std::to_string(pos_);
      }
      return std::nullopt;
    }
    return value;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Fail(const char* message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool ParseValue(JsonValue& out) {  // NOLINT(misc-no-recursion)
    SkipWs();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"': out.kind = JsonValue::Kind::kString; return ParseString(out.string);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return ConsumeWord("true") || Fail("bad literal");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return ConsumeWord("false") || Fail("bad literal");
      case 'n': out.kind = JsonValue::Kind::kNull; return ConsumeWord("null") || Fail("bad literal");
      default: return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue& out) {  // NOLINT(misc-no-recursion)
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(key)) {
        return Fail("expected object key");
      }
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue& out) {  // NOLINT(misc-no-recursion)
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(value)) return false;
      out.array.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string& out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return Fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // UTF-8 encode the code point (surrogate pairs are passed through
          // as-is: our emitters only \u-escape control characters).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return Fail("bad escape character");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue& out) {
    out.kind = JsonValue::Kind::kNumber;
    const size_t start = pos_;
    if (Consume('-')) {}
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Fail("expected number");
    }
    // JSON forbids leading zeros ("01"); strtod would accept them.
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
      return Fail("leading zero in number");
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (Consume('.')) {
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("expected fraction digits");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("expected exponent digits");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    const std::string slice(text_.substr(start, pos_ - start));
    out.number = std::strtod(slice.c_str(), nullptr);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> JsonParse(std::string_view text, std::string* error) {
  return Parser(text).Parse(error);
}

}  // namespace eta::util
