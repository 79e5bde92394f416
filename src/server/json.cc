#include "src/server/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace resest {

namespace {

void AppendUtf8(unsigned cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

bool JsonCursor::Fail(const char* message) {
  error_ = "JSON error at byte " + std::to_string(offset()) + ": " + message;
  return false;
}

bool JsonCursor::ReadLiteral(const char* literal) {
  const char* q = literal;
  const char* save = p_;
  while (*q != '\0') {
    if (p_ >= end_ || *p_ != *q) {
      p_ = save;
      return false;
    }
    ++p_;
    ++q;
  }
  return true;
}

bool JsonCursor::ReadHex4(unsigned* out) {
  unsigned value = 0;
  for (int i = 0; i < 4; ++i) {
    if (p_ >= end_) return false;
    const char c = *p_++;
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<unsigned>(c - 'A' + 10);
    } else {
      return false;
    }
  }
  *out = value;
  return true;
}

bool JsonCursor::ReadString(std::string_view* out, std::string* scratch) {
  if (p_ >= end_ || *p_ != '"') return Fail("expected string");
  ++p_;
  // Wire strings (keys, operator names) rarely carry escapes: scan for the
  // closing quote and hand out a slice of the text, copying nothing.
  const char* start = p_;
  while (p_ < end_) {
    const unsigned char c = static_cast<unsigned char>(*p_);
    if (c == '"') {
      *out = std::string_view(start, static_cast<size_t>(p_ - start));
      ++p_;
      return true;
    }
    if (c == '\\') break;
    if (c < 0x20) return Fail("unescaped control character in string");
    ++p_;
  }
  scratch->assign(start, p_);
  while (p_ < end_) {
    const unsigned char c = static_cast<unsigned char>(*p_);
    if (c == '"') {
      ++p_;
      *out = *scratch;
      return true;
    }
    if (c == '\\') {
      ++p_;
      if (p_ >= end_) break;
      const char esc = *p_++;
      switch (esc) {
        case '"': scratch->push_back('"'); break;
        case '\\': scratch->push_back('\\'); break;
        case '/': scratch->push_back('/'); break;
        case 'b': scratch->push_back('\b'); break;
        case 'f': scratch->push_back('\f'); break;
        case 'n': scratch->push_back('\n'); break;
        case 'r': scratch->push_back('\r'); break;
        case 't': scratch->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!ReadHex4(&cp)) return Fail("bad \\u escape");
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require the paired low surrogate.
            unsigned lo = 0;
            if (p_ + 1 < end_ && p_[0] == '\\' && p_[1] == 'u') {
              p_ += 2;
              if (!ReadHex4(&lo) || lo < 0xDC00 || lo > 0xDFFF) {
                return Fail("bad surrogate pair");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return Fail("unpaired surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired surrogate");
          }
          AppendUtf8(cp, scratch);
          break;
        }
        default:
          return Fail("bad escape character");
      }
      continue;
    }
    if (c < 0x20) return Fail("unescaped control character in string");
    scratch->push_back(static_cast<char>(c));
    ++p_;
  }
  return Fail("unterminated string");
}

bool JsonCursor::ReadNumber(double* out) {
  const char* start = p_;
  if (p_ < end_ && *p_ == '-') ++p_;
  if (p_ >= end_ || *p_ < '0' || *p_ > '9') return Fail("bad number");
  if (*p_ == '0') {
    ++p_;
  } else {
    while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
  }
  if (p_ < end_ && *p_ == '.') {
    ++p_;
    if (p_ >= end_ || *p_ < '0' || *p_ > '9') return Fail("bad fraction");
    while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
  }
  if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
    ++p_;
    if (p_ < end_ && (*p_ == '+' || *p_ == '-')) ++p_;
    if (p_ >= end_ || *p_ < '0' || *p_ > '9') return Fail("bad exponent");
    while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
  }
  // The grammar check above guarantees the token is exactly [start, p_);
  // from_chars is correctly rounded (same double strtod would produce)
  // and needs no NUL-terminated copy — numbers dominate estimate bodies,
  // so this path must not allocate.
  const auto result = std::from_chars(start, p_, *out);
  if (result.ec == std::errc::result_out_of_range) {
    // Overflow/underflow saturate the way strtod does (±HUGE_VAL / 0).
    std::string token(start, p_);
    *out = std::strtod(token.c_str(), nullptr);
  }
  return true;
}

bool JsonCursor::SkipValue(size_t depth) {
  JsonValue discarded;
  return JsonValue::ParseValue(*this, depth, &discarded);
}

bool JsonCursor::Finish() {
  SkipSpace();
  return p_ == end_ || Fail("trailing characters");
}

bool JsonValue::ParseValue(JsonCursor& json, size_t depth, JsonValue* out) {
  if (depth >= kMaxJsonDepth) return json.Fail("nesting too deep");
  const char next = json.Peek();
  if (json.at_end()) return json.Fail("unexpected end of input");
  switch (next) {
    case 'n':
      if (!json.ReadLiteral("null")) return json.Fail("bad literal");
      out->type_ = Type::kNull;
      return true;
    case 't':
      if (!json.ReadLiteral("true")) return json.Fail("bad literal");
      out->type_ = Type::kBool;
      out->bool_ = true;
      return true;
    case 'f':
      if (!json.ReadLiteral("false")) return json.Fail("bad literal");
      out->type_ = Type::kBool;
      out->bool_ = false;
      return true;
    case '"': {
      out->type_ = Type::kString;
      std::string_view text;
      if (!json.ReadString(&text, &out->string_)) return false;
      if (text.data() != out->string_.data()) out->string_.assign(text);
      return true;
    }
    case '[':
      out->type_ = Type::kArray;
      return json.ReadArray([&] {
        out->items_.emplace_back();
        return ParseValue(json, depth + 1, &out->items_.back());
      });
    case '{':
      out->type_ = Type::kObject;
      return json.ReadObject([&](std::string_view key) {
        out->members_.emplace_back(std::string(key), JsonValue());
        return ParseValue(json, depth + 1, &out->members_.back().second);
      });
    default:
      out->type_ = Type::kNumber;
      return json.ReadNumber(&out->number_);
  }
}

bool JsonValue::Parse(const std::string& text, JsonValue* out,
                      std::string* error) {
  *out = JsonValue();
  JsonCursor json(text);
  if (ParseValue(json, 0, out) && json.Finish()) return true;
  if (error != nullptr) *error = json.error();
  return false;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  const JsonValue* found = nullptr;
  for (const auto& member : members_) {
    if (member.first == key) found = &member.second;
  }
  return found;
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const unsigned char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  // Shortest round-trip form: parsing the text recovers the identical bit
  // pattern (to_chars guarantees it), and it is ~5x cheaper than the
  // %.17g snprintf it replaced — response formatting runs on the serving
  // hot path.
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, static_cast<size_t>(result.ptr - buf));
}

}  // namespace resest
