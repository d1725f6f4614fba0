/**
 * @file
 * Minimal JSON reader, the counterpart of JsonWriter: parses the
 * documents the simulator itself emits (stats JSON, prof JSON, why
 * ledgers, flight-recorder dumps) back into a DOM so tools like
 * mtsim_diff and the tests can consume them without an external
 * dependency. Full JSON per RFC 8259 minus surrogate-pair escapes
 * (\uXXXX maps each code unit to UTF-8 independently), which the
 * simulator never emits.
 */

#ifndef MTSIM_METRICS_JSON_PARSE_HH
#define MTSIM_METRICS_JSON_PARSE_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mtsim {

/** Raised on malformed input, carrying the byte offset. */
class JsonParseError : public std::runtime_error
{
  public:
    JsonParseError(const std::string &what, std::size_t offset)
        : std::runtime_error(what + " at offset " +
                             std::to_string(offset)),
          offset_(offset)
    {}

    std::size_t offset() const { return offset_; }

  private:
    std::size_t offset_;
};

/** One parsed JSON value; object members keep document order. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Member @p key of an object, or nullptr. */
    const JsonValue *find(const std::string &key) const;

    /** Member @p key, throwing std::out_of_range when absent. */
    const JsonValue &at(const std::string &key) const;

    double asDouble() const;
    std::uint64_t asU64() const;
    const std::string &asString() const;
};

/** Parse one JSON document (trailing whitespace only). */
JsonValue parseJson(const std::string &text);

/** Parse the file at @p path; throws std::runtime_error on I/O. */
JsonValue parseJsonFile(const std::string &path);

} // namespace mtsim

#endif // MTSIM_METRICS_JSON_PARSE_HH
