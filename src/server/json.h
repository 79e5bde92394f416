// Minimal dependency-free JSON for the wire API: one lexer (JsonCursor),
// a recursive-descent parser into a tagged value tree built on it, plus the
// escaping/formatting helpers the response writers need.
//
// Scope is deliberately small — exactly RFC 8259 syntax with two serving
// requirements layered on:
//  - Untrusted input: hard caps on nesting depth; the parser never recurses
//    past kMaxJsonDepth and reports a position-tagged error instead.
//  - Bit-exact doubles: AppendJsonNumber prints the shortest round-trip
//    form (std::to_chars), so parsing the text back recovers the exact bit
//    pattern, which is what lets the HTTP front end promise bit-identical
//    estimates end to end.
#ifndef RESEST_SERVER_JSON_H_
#define RESEST_SERVER_JSON_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace resest {

inline constexpr size_t kMaxJsonDepth = 48;

/// The JSON lexer: a cursor over one text with the token reads of RFC 8259
/// and byte-offset-tagged errors. JsonValue::Parse builds its tree on it;
/// a decoder that knows its schema walks a body with it directly and never
/// builds a tree. Every read that fails records the error (see error()) and
/// returns false; the cursor position is then unspecified.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text)
      : begin_(text.data()), p_(text.data()), end_(text.data() + text.size()) {}

  /// Skips whitespace and returns the next byte, or '\0' at the end.
  char Peek() {
    SkipSpace();
    return p_ < end_ ? *p_ : '\0';
  }
  bool at_end() const { return p_ == end_; }
  /// Byte offset of the cursor.
  size_t offset() const { return static_cast<size_t>(p_ - begin_); }

  /// Records "JSON error at byte <offset>: <message>"; returns false.
  /// Marked cold, like SkipValue: the compiler then keeps the error paths
  /// out of the hot decode loops (worth ~15% in a parse microbenchmark).
  __attribute__((cold)) bool Fail(const char* message);
  const std::string& error() const { return error_; }

  /// Reads the string literal at the cursor. *out is a slice of the text
  /// when the literal has no escape; otherwise the literal is decoded into
  /// *scratch and *out views that.
  bool ReadString(std::string_view* out, std::string* scratch);
  /// Reads the number at the cursor: strict JSON grammar, correctly rounded
  /// (std::from_chars), out-of-range values saturating as strtod does.
  bool ReadNumber(double* out);
  /// Consumes `literal` (e.g. "true") if the text continues with it.
  bool ReadLiteral(const char* literal);

  /// Walks the object whose '{' is at the cursor, calling
  /// `on_member(std::string_view key)` with the cursor just past each
  /// member's ':'; the callback must consume the value and return false
  /// only on an error.
  template <typename OnMember>
  bool ReadObject(OnMember&& on_member);
  /// Walks the array whose '[' is at the cursor, calling `on_item()` for
  /// each element; the callback must consume it and return false only on
  /// an error.
  template <typename OnItem>
  bool ReadArray(OnItem&& on_item);

  /// Consumes one value of any type at nesting `depth` (0 = the top-level
  /// value), with exactly JsonValue::Parse's syntax errors. It builds and
  /// discards a tree, so keep it off hot paths.
  __attribute__((cold)) bool SkipValue(size_t depth);
  /// Fails with "trailing characters" unless only whitespace remains.
  bool Finish();

 private:
  void SkipSpace() {
    // A local cursor lets the loop run in a register: a char read may
    // alias p_ itself, so a loop on p_ stores it on every step.
    const char* p = p_;
    while (p < end_ &&
           (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
    p_ = p;
  }
  bool ReadHex4(unsigned* out);
  /// Skips whitespace and consumes `c` if it comes next.
  bool Consume(char c) {
    SkipSpace();
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }

  const char* begin_;
  const char* p_;
  const char* end_;
  std::string error_;
};

template <typename OnMember>
bool JsonCursor::ReadObject(OnMember&& on_member) {
  ++p_;
  if (Consume('}')) return true;
  std::string scratch;
  do {
    SkipSpace();
    std::string_view key;
    if (!ReadString(&key, &scratch)) return false;
    if (!Consume(':')) return Fail("expected ':' in object");
    if (!on_member(key)) return false;
  } while (Consume(','));
  return Consume('}') || Fail("expected ',' or '}' in object");
}

template <typename OnItem>
bool JsonCursor::ReadArray(OnItem&& on_item) {
  ++p_;
  if (Consume(']')) return true;
  do {
    if (!on_item()) return false;
  } while (Consume(','));
  return Consume(']') || Fail("expected ',' or ']' in array");
}

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  /// Parses `text` (one JSON value, optionally whitespace-padded). On
  /// failure returns false and sets *error to a byte-offset-tagged message;
  /// *out is unspecified.
  static bool Parse(const std::string& text, JsonValue* out,
                    std::string* error);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }

  /// Object members in document order (empty for non-objects). Lets strict
  /// consumers reject keys they don't understand.
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Object member by key, or null if absent (or not an object). Duplicate
  /// keys resolve to the last occurrence, matching common parsers.
  const JsonValue* Find(const std::string& key) const;

 private:
  friend class JsonCursor;  // SkipValue parses into a discarded tree.

  /// Parses one value at nesting `depth` from `json` into *out.
  static bool ParseValue(JsonCursor& json, size_t depth, JsonValue* out);

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;                       ///< Array elements.
  std::vector<std::pair<std::string, JsonValue>> members_;  ///< Object.
};

/// Appends `s` as a JSON string literal (quotes included) with all
/// mandatory escapes.
void AppendJsonString(const std::string& s, std::string* out);

/// Appends a double in its shortest round-trip form: parsing the printed
/// text recovers the identical bit pattern for every finite value.
/// Non-finite values (unrepresentable in JSON) are emitted as null.
void AppendJsonNumber(double value, std::string* out);

}  // namespace resest

#endif  // RESEST_SERVER_JSON_H_
