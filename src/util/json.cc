#include "util/json.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/logging.hh"

namespace fp
{

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
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
    return out;
}

void
JsonWriter::preValue()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (!needComma_.empty()) {
        if (needComma_.back())
            out_ += ',';
        needComma_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    preValue();
    out_ += '{';
    needComma_.push_back(false);
    ++depth_;
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    fp_assert(depth_ > 0, "JsonWriter: endObject at top level");
    out_ += '}';
    needComma_.pop_back();
    --depth_;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    preValue();
    out_ += '[';
    needComma_.push_back(false);
    ++depth_;
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    fp_assert(depth_ > 0, "JsonWriter: endArray at top level");
    out_ += ']';
    needComma_.pop_back();
    --depth_;
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    fp_assert(!pendingKey_, "JsonWriter: key after key");
    if (!needComma_.empty()) {
        if (needComma_.back())
            out_ += ',';
        needComma_.back() = true;
    }
    out_ += '"';
    out_ += escape(name);
    out_ += "\":";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    preValue();
    out_ += '"';
    out_ += escape(v);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    preValue();
    // Shortest representation that parses back to the same double:
    // most values fit 15 significant digits; fall back to the 17
    // digits that are always sufficient.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.15g", v);
    if (std::strtod(buf, nullptr) != v)
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    preValue();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    preValue();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    preValue();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::nullValue()
{
    preValue();
    out_ += "null";
    return *this;
}

std::string
JsonWriter::str() const
{
    fp_assert(depth_ == 0 && !pendingKey_,
              "JsonWriter: unbalanced document");
    return out_;
}

// --- parser ---------------------------------------------------------------

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    document()
    {
        JsonValue v = value();
        skipWs();
        fp_assert(pos_ == text_.size(),
                  "JSON: trailing garbage at offset %zu", pos_);
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        fp_assert(pos_ < text_.size(),
                  "JSON: unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        fp_assert(peek() == c,
                  "JSON: expected '%c' at offset %zu, got '%c'", c,
                  pos_, text_[pos_]);
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = std::strlen(lit);
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    value()
    {
        skipWs();
        const std::size_t start = pos_;
        char c = peek();
        switch (c) {
          case '{': {
            JsonValue v = object();
            v.srcOffset_ = start;
            return v;
          }
          case '[': {
            JsonValue v = array();
            v.srcOffset_ = start;
            return v;
          }
          case '"': {
            JsonValue v;
            v.type_ = JsonValue::Type::string;
            v.str_ = string();
            v.srcOffset_ = start;
            return v;
          }
          case 't': {
            fp_assert(consumeLiteral("true"),
                      "JSON: bad literal at offset %zu", pos_);
            JsonValue v;
            v.type_ = JsonValue::Type::boolean;
            v.bool_ = true;
            v.srcOffset_ = start;
            return v;
          }
          case 'f': {
            fp_assert(consumeLiteral("false"),
                      "JSON: bad literal at offset %zu", pos_);
            JsonValue v;
            v.type_ = JsonValue::Type::boolean;
            v.bool_ = false;
            v.srcOffset_ = start;
            return v;
          }
          case 'n': {
            fp_assert(consumeLiteral("null"),
                      "JSON: bad literal at offset %zu", pos_);
            JsonValue v;
            v.srcOffset_ = start;
            return v;
          }
          default: {
            JsonValue v = number();
            v.srcOffset_ = start;
            return v;
          }
        }
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.type_ = JsonValue::Type::object;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            v.obj_.emplace_back(std::move(key), value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.type_ = JsonValue::Type::array;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.arr_.push_back(value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            char c = peek();
            ++pos_;
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            char esc = peek();
            ++pos_;
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                fp_assert(pos_ + 4 <= text_.size(),
                          "JSON: truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fp_panic("JSON: bad \\u digit at offset %zu",
                                 pos_ - 1);
                }
                // The writer only emits \u for control characters;
                // decode the BMP subset as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fp_panic("JSON: bad escape '\\%c' at offset %zu", esc,
                         pos_ - 1);
            }
        }
    }

    JsonValue
    number()
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        fp_assert(pos_ > start, "JSON: bad value at offset %zu", start);
        char *end = nullptr;
        std::string token = text_.substr(start, pos_ - start);
        double d = std::strtod(token.c_str(), &end);
        fp_assert(end && *end == '\0',
                  "JSON: bad number '%s' at offset %zu", token.c_str(),
                  start);
        JsonValue v;
        v.type_ = JsonValue::Type::number;
        v.num_ = d;
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

JsonValue
JsonValue::parse(const std::string &text)
{
    return JsonParser(text).document();
}

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue out;
    out.type_ = Type::boolean;
    out.bool_ = v;
    return out;
}

JsonValue
JsonValue::makeNumber(double v)
{
    JsonValue out;
    out.type_ = Type::number;
    out.num_ = v;
    return out;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue out;
    out.type_ = Type::string;
    out.str_ = std::move(v);
    return out;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue out;
    out.type_ = Type::array;
    out.arr_ = std::move(items);
    return out;
}

void
JsonValue::replace(const std::string &key, JsonValue v)
{
    fp_assert(isObject(), "JsonValue: replace on a non-object");
    for (auto &[name, value] : obj_) {
        if (name == key) {
            value = std::move(v);
            return;
        }
    }
    fp_panic("JsonValue: no member '%s' to replace", key.c_str());
}

std::size_t
jsonLineOf(const std::string &text, std::size_t offset)
{
    std::size_t line = 1;
    const std::size_t end = std::min(offset, text.size());
    for (std::size_t i = 0; i < end; ++i) {
        if (text[i] == '\n')
            ++line;
    }
    return line;
}

bool
JsonValue::asBool() const
{
    fp_assert(type_ == Type::boolean, "JsonValue: not a boolean");
    return bool_;
}

double
JsonValue::asNumber() const
{
    fp_assert(type_ == Type::number, "JsonValue: not a number");
    return num_;
}

bool
JsonValue::isUint64() const
{
    return isNumber() && num_ >= 0.0 && num_ < 18446744073709551616.0 &&
           num_ == static_cast<double>(static_cast<std::uint64_t>(num_));
}

std::uint64_t
JsonValue::asUint64() const
{
    double d = asNumber();
    fp_assert(d >= 0.0, "JsonValue: negative where uint expected");
    return static_cast<std::uint64_t>(d);
}

const std::string &
JsonValue::asString() const
{
    fp_assert(type_ == Type::string, "JsonValue: not a string");
    return str_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    fp_assert(type_ == Type::array, "JsonValue: not an array");
    return arr_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    fp_assert(type_ == Type::object, "JsonValue: not an object");
    return obj_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type_ != Type::object)
        return nullptr;
    for (const auto &[k, v] : obj_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    fp_assert(v != nullptr, "JsonValue: missing key '%s'",
              key.c_str());
    return *v;
}

const JsonValue &
JsonValue::at(std::size_t index) const
{
    fp_assert(type_ == Type::array && index < arr_.size(),
              "JsonValue: index %zu out of range", index);
    return arr_[index];
}

std::size_t
JsonValue::size() const
{
    if (type_ == Type::array)
        return arr_.size();
    if (type_ == Type::object)
        return obj_.size();
    return 0;
}

} // namespace fp
