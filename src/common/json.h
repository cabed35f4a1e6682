/**
 * @file
 * Minimal JSON support for the simulator's machine-readable outputs.
 *
 * JsonWriter is a streaming writer (objects, arrays, scalar values) used
 * by the attribution engine, the timeline recorder, reportAllJson and the
 * bench binaries' --json output. JsonValue is a small recursive-descent
 * parser used by tests and the json_check schema validator to read those
 * files back. Neither aims at full spec coverage: strings are escaped to
 * ASCII, numbers round-trip through double (exact below 2^53), and the
 * parser rejects anything malformed with SimFault(Parse).
 */

#ifndef PIMCACHE_COMMON_JSON_H_
#define PIMCACHE_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace pim {

/** Streaming JSON writer with automatic commas and indentation. */
class JsonWriter
{
  public:
    /** @param pretty Two-space indentation and newlines when true. */
    explicit JsonWriter(std::ostream& os, bool pretty = true);

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; the next value/begin* call is its value. */
    void key(const std::string& name);

    void value(const std::string& text);
    void value(const char* text);
    void value(double number);
    void value(std::uint64_t number);
    void value(std::int64_t number);
    void value(int number) { value(static_cast<std::int64_t>(number)); }
    void value(bool flag);
    void valueNull();

    /**
     * Emit @p literal verbatim as the next value. The caller guarantees
     * it is well-formed JSON (e.g. pre-rendered by another JsonWriter);
     * commas and keys around it are still managed by this writer.
     */
    void rawValue(const std::string& literal);

    /** key() + value() in one call. */
    template <typename T>
    void
    field(const std::string& name, T&& v)
    {
        key(name);
        value(std::forward<T>(v));
    }

    /** Escape and quote @p text as a JSON string literal. */
    static std::string quote(const std::string& text);

  private:
    enum class Scope : std::uint8_t { Object, Array };

    void separate(); ///< Comma/newline/indent before the next element.
    void indent();

    std::ostream& os_;
    bool pretty_;
    bool pendingKey_ = false; ///< A key was emitted, value comes next.
    std::vector<Scope> stack_;
    std::vector<bool> hasElement_; ///< Per scope: something emitted yet.
};

/** A parsed JSON document (tree of values). */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t {
        Null, Bool, Number, String, Array, Object,
    };

    /** Parse @p text. @throws SimFault (Parse) with offset on error. */
    static JsonValue parse(const std::string& text);

    /** Read and parse a whole file. @throws SimFault (Parse). */
    static JsonValue parseFile(const std::string& path);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Value accessors; fatal if the kind does not match. */
    bool asBool() const;
    double asNumber() const;
    const std::string& asString() const;
    const std::vector<JsonValue>& asArray() const;

    /** Object member by key (insertion order preserved), or nullptr. */
    const JsonValue* find(const std::string& name) const;

    /** Object member by key; fatal if absent or not an object. */
    const JsonValue& at(const std::string& name) const;

    /** Object member presence. */
    bool has(const std::string& name) const { return find(name) != nullptr; }

    /** Array element count (0 for non-arrays/objects). */
    std::size_t size() const;

    /** Array element by index; fatal if out of range. */
    const JsonValue& at(std::size_t index) const;

    /** Object members in document order. */
    const std::vector<std::pair<std::string, JsonValue>>& members() const
    {
        return members_;
    }

    /**
     * Resolve a dotted path, e.g. "rows.0.measured.cycles" (numeric
     * segments index arrays). @return nullptr when any hop is missing.
     */
    const JsonValue* findPath(const std::string& path) const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0;
    std::string string_;
    std::vector<JsonValue> elements_;
    std::vector<std::pair<std::string, JsonValue>> members_;

    friend class JsonParser;
};

} // namespace pim

#endif // PIMCACHE_COMMON_JSON_H_
