#include "src/common/json_parse.h"

#include <cerrno>
#include <cstdlib>

namespace memtis {
namespace {

const std::string kEmptyString;
const JsonValue kNullValue;

}  // namespace

class JsonParser {
 public:
  JsonParser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool ParseDocument(JsonValue* out) {
    SkipWhitespace();
    if (!ParseValue(out, /*depth=*/0)) {
      return false;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing garbage after document");
    }
    return true;
  }

 private:
  // Deep enough for every document the runner emits; bounded so corrupt or
  // adversarial manifest lines cannot blow the stack.
  static constexpr int kMaxDepth = 96;

  bool Fail(const char* message) {
    if (error_ != nullptr) {
      *error_ = message;
      *error_ += " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("bad literal");
    }
    pos_ += word.size();
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of document");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind_ = JsonValue::Kind::kString;
        return ParseString(&out->scalar_);
      case 't':
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = true;
        return Literal("true");
      case 'f':
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = false;
        return Literal("false");
      case 'n':
        out->kind_ = JsonValue::Kind::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after key");
      }
      ++pos_;
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) {
        return false;
      }
      out->members_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) {
        return false;
      }
      out->items_.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) {
        return Fail("dangling escape");
      }
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          uint32_t code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<uint32_t>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<uint32_t>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<uint32_t>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape digit");
            }
          }
          pos_ += 4;
          // UTF-8 encode. JsonWriter only emits \u00xx for control bytes,
          // but accept the full BMP (no surrogate-pair recombination).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    out->kind_ = JsonValue::Kind::kNumber;
    out->scalar_ = std::string(text_.substr(start, pos_ - start));
    // Validate by round-tripping through strtod: rejects "-", "1.2.3", etc.
    errno = 0;
    char* end = nullptr;
    std::strtod(out->scalar_.c_str(), &end);
    if (end != out->scalar_.c_str() + out->scalar_.size()) {
      return Fail("malformed number");
    }
    return true;
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
};

bool JsonValue::Parse(std::string_view text, JsonValue* out,
                      std::string* error) {
  *out = JsonValue();
  JsonParser parser(text, error);
  return parser.ParseDocument(out);
}

bool JsonValue::AsBool(bool fallback) const {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

double JsonValue::AsDouble(double fallback) const {
  if (kind_ != Kind::kNumber) {
    return fallback;
  }
  return std::strtod(scalar_.c_str(), nullptr);
}

uint64_t JsonValue::AsUint(uint64_t fallback) const {
  if (kind_ != Kind::kNumber) {
    return fallback;
  }
  // Integer tokens re-parse exactly; scientific/fractional tokens (which the
  // writer only emits for doubles) fall back to the double path, and to
  // `fallback` when out of range (casting those is undefined behaviour).
  if (scalar_.find_first_of(".eE") != std::string::npos) {
    const double d = std::strtod(scalar_.c_str(), nullptr);
    return d >= 0.0 && d < 0x1p64 ? static_cast<uint64_t>(d) : fallback;
  }
  return std::strtoull(scalar_.c_str(), nullptr, 10);
}

int64_t JsonValue::AsInt(int64_t fallback) const {
  if (kind_ != Kind::kNumber) {
    return fallback;
  }
  if (scalar_.find_first_of(".eE") != std::string::npos) {
    const double d = std::strtod(scalar_.c_str(), nullptr);
    return d >= -0x1p63 && d < 0x1p63 ? static_cast<int64_t>(d) : fallback;
  }
  return std::strtoll(scalar_.c_str(), nullptr, 10);
}

const std::string& JsonValue::AsString() const {
  return kind_ == Kind::kString ? scalar_ : kEmptyString;
}

const JsonValue& JsonValue::at(size_t i) const {
  return i < items_.size() ? items_[i] : kNullValue;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

bool JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v == nullptr ? fallback : v->AsBool(fallback);
}

double JsonValue::GetDouble(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return v == nullptr ? fallback : v->AsDouble(fallback);
}

uint64_t JsonValue::GetUint(std::string_view key, uint64_t fallback) const {
  const JsonValue* v = Find(key);
  return v == nullptr ? fallback : v->AsUint(fallback);
}

int64_t JsonValue::GetInt(std::string_view key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  return v == nullptr ? fallback : v->AsInt(fallback);
}

std::string JsonValue::GetString(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString()
                                        : std::string(fallback);
}

}  // namespace memtis
