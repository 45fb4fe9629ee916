// Minimal JSON support shared by every emitter in the repo.
//
// Emission side: JsonWriter, the one writer behind every JSON document the
// repo emits — the serve report and its request-trace document, the
// etacheck and etaverify reports, trace events, the Chrome trace, the
// CLI's attempt timeline and the bench rows. It escapes every key and
// string value, places commas itself, and has no fixed buffers, so a long
// or hostile label can neither break nor truncate a document.
//
// Parse side: JsonParse, a strict recursive-descent parser used to
// round-trip-validate our own emitters in tests and tools (scripts/check.sh
// additionally validates with python3 when available). It is a validator
// first: no external documents, no extensions (comments, trailing commas,
// NaN) are accepted.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eta::util {

/// Streaming JSON writer. Values go into the innermost open container;
/// inside an object each value follows a Key(). Numbers are written
/// exactly (integers) or in fixed notation at the precision given per call
/// (doubles, same digits as printf's "%.Nf"), so a deterministic input
/// renders byte-identical text.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{', /*array=*/false); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('[', /*array=*/true); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(std::string_view key);
  /// ", \ and control characters become escape sequences; everything else
  /// (including UTF-8 multibyte sequences) passes through. Keys likewise.
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Double(double value, int precision);
  JsonWriter& Bool(bool value);
  /// A value that is already JSON (a pre-rendered event or number).
  JsonWriter& Raw(std::string_view json);
  /// Puts the next token on a new line, after its comma, indented one
  /// space per open array — the one-record-per-line layout. A break with
  /// no token after it ends the document with a newline.
  JsonWriter& Newline();

  /// The document so far, with any trailing Newline() applied.
  std::string Take();

 private:
  JsonWriter& Open(char bracket, bool array);
  JsonWriter& Close(char bracket);
  /// Writes the separator (and pending line break) before a token.
  void Separate(bool closing);

  struct Frame {
    bool array = false;
    bool empty = true;
  };
  std::string out_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
  bool pending_newline_ = false;
};

/// A parsed JSON document. Object members keep insertion order, so a
/// re-serialized document compares field-for-field with the original.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }

  /// First member with the given key, or nullptr (objects only).
  const JsonValue* Find(std::string_view key) const;
};

/// Parses strict JSON. On failure returns nullopt and, when `error` is
/// non-null, fills it with a message that includes the byte offset.
std::optional<JsonValue> JsonParse(std::string_view text, std::string* error = nullptr);

}  // namespace eta::util
