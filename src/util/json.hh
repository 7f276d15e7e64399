/**
 * @file
 * Minimal JSON support: a streaming document writer for exporting run
 * results, traces and statistics, plus a small recursive-descent
 * parser (JsonValue) used by round-trip tests and trace validation.
 * Neither sits on a simulation hot path.
 */

#ifndef FP_UTIL_JSON_HH
#define FP_UTIL_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace fp
{

/**
 * Streaming JSON builder with explicit begin/end nesting. Produces
 * compact output; keys are escaped; doubles render with enough
 * precision to round-trip.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Key inside an object; must be followed by a value. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v) { return value(std::int64_t{v}); }
    JsonWriter &value(bool v);
    JsonWriter &nullValue();

    /** Convenience: key + value. */
    template <typename T>
    JsonWriter &
    field(const std::string &name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** The finished document (all scopes must be closed). */
    std::string str() const;

    static std::string escape(const std::string &s);

  private:
    void preValue();

    std::string out_;
    /** Per-nesting-level "needs comma" flags; true after a value. */
    std::vector<bool> needComma_;
    bool pendingKey_ = false;
    int depth_ = 0;
};

/**
 * A parsed JSON document node. Numbers are held as doubles (every
 * quantity the simulator exports fits a double exactly); object keys
 * keep their source order so parse -> serialise round-trips stay
 * byte-comparable.
 */
class JsonValue
{
  public:
    enum class Type { null, boolean, number, string, array, object };

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::null; }
    bool isObject() const { return type_ == Type::object; }
    bool isArray() const { return type_ == Type::array; }
    bool isNumber() const { return type_ == Type::number; }
    bool isString() const { return type_ == Type::string; }
    bool isBool() const { return type_ == Type::boolean; }
    /** A non-negative integral number below 2^64, so asUint64() is
     *  exact. */
    bool isUint64() const;

    /** Typed accessors; panic on type mismatch (test/tool code). */
    bool asBool() const;
    double asNumber() const;
    std::uint64_t asUint64() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &items() const;
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /**
     * Byte offset of this node's first character in the parsed
     * document (0 for values built outside the parser). Consumers
     * that validate documents semantically (e.g. experiment-spec
     * parsing) turn it into a line number via jsonLineOf for
     * human-facing error messages.
     */
    std::size_t sourceOffset() const { return srcOffset_; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
    /** Object member access; panics when absent. */
    const JsonValue &at(const std::string &key) const;
    /** Array element access; panics when out of range. */
    const JsonValue &at(std::size_t index) const;
    std::size_t size() const;

    /**
     * Parse a complete JSON document (trailing whitespace allowed,
     * trailing garbage is an error). Malformed input panics with the
     * byte offset — callers are tests and offline tools, for which
     * loud failure is the right behaviour.
     */
    static JsonValue parse(const std::string &text);

    /** Values built outside the parser (sourceOffset() is 0). */
    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray(std::vector<JsonValue> items);

    /** Replace the value of object member @p key; panics when this
     *  is not an object or has no such member. */
    void replace(const std::string &key, JsonValue v);

  private:
    Type type_ = Type::null;
    bool bool_ = false;
    double num_ = 0.0;
    std::size_t srcOffset_ = 0;
    std::string str_;
    std::vector<JsonValue> arr_;
    std::vector<std::pair<std::string, JsonValue>> obj_;

    friend class JsonParser;
};

/** 1-based line number of byte @p offset within @p text (offsets past
 *  the end land on the last line; an empty text is line 1). */
std::size_t jsonLineOf(const std::string &text, std::size_t offset);

} // namespace fp

#endif // FP_UTIL_JSON_HH
