#include "profiling/trace_reader.h"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <utility>
#include <vector>

namespace rchdroid::profiling {

namespace {

/** Minimal JSON document model: just enough for trace files. */
struct JsonValue
{
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    Type type = Type::kNull;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *find(const std::string &key) const
    {
        for (const auto &[k, v] : object) {
            if (k == key)
                return &v;
        }
        return nullptr;
    }
};

class JsonParser
{
  public:
    /**
     * Most arrays/objects that may be open at once. The tracer writes
     * four levels; the bound keeps hostile input from recursing off the
     * end of the stack.
     */
    static constexpr int kMaxNesting = 64;

    explicit JsonParser(const std::string &text) : text_(text) {}

    bool parse(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing data after document");
        return true;
    }

    const std::string &error() const { return error_; }

  private:
    bool fail(const std::string &what)
    {
        if (error_.empty())
            error_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool consume(char expected)
    {
        if (pos_ < text_.size() && text_[pos_] == expected) {
            ++pos_;
            return true;
        }
        return fail(std::string("expected '") + expected + "'");
    }

    bool parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{':
          case '[': {
            if (depth_ == kMaxNesting)
                return fail("nesting deeper than " +
                            std::to_string(kMaxNesting));
            ++depth_;
            const bool ok = text_[pos_] == '{' ? parseObject(out)
                                               : parseArray(out);
            --depth_;
            return ok;
          }
          case '"':
            out.type = JsonValue::Type::kString;
            return parseString(out.str);
          case 't':
          case 'f': return parseBool(out);
          case 'n': return parseNull(out);
          default: return parseNumber(out);
        }
    }

    bool parseObject(JsonValue &out)
    {
        out.type = JsonValue::Type::kObject;
        if (!consume('{'))
            return false;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (!consume(':'))
                return false;
            skipWs();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.object.emplace_back(std::move(key), std::move(value));
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            return consume('}');
        }
    }

    bool parseArray(JsonValue &out)
    {
        out.type = JsonValue::Type::kArray;
        if (!consume('['))
            return false;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.array.push_back(std::move(value));
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            return consume(']');
        }
    }

    bool parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'n': out.push_back('\n'); break;
              case 't': out.push_back('\t'); break;
              case 'r': out.push_back('\r'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // The tracer only escapes control characters this way.
                out.push_back(static_cast<char>(code & 0x7f));
                break;
              }
              default: return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool parseBool(JsonValue &out)
    {
        out.type = JsonValue::Type::kBool;
        if (text_.compare(pos_, 4, "true") == 0) {
            out.boolean = true;
            pos_ += 4;
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            out.boolean = false;
            pos_ += 5;
            return true;
        }
        return fail("bad literal");
    }

    bool parseNull(JsonValue &out)
    {
        out.type = JsonValue::Type::kNull;
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return true;
        }
        return fail("bad literal");
    }

    bool parseNumber(JsonValue &out)
    {
        out.type = JsonValue::Type::kNumber;
        const std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
                c == '-' || c == '+')
                ++pos_;
            else
                break;
        }
        if (pos_ == start)
            return fail("expected number");
        try {
            out.number = std::stod(text_.substr(start, pos_ - start));
        } catch (...) {
            return fail("bad number");
        }
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

double
numberOr(const JsonValue *value, double fallback)
{
    return value && value->type == JsonValue::Type::kNumber ? value->number
                                                            : fallback;
}

/**
 * A numeric field as an integer, `value` scaled by `scale` and rounded;
 * 0 when absent or not a number. Nullopt when the result is not finite
 * or exceeds 2^53 in magnitude (or is negative with `non_negative`):
 * no tracer writes such a number, and it would overflow the integer
 * conversion or later timestamp arithmetic.
 */
std::optional<std::int64_t>
integerField(const JsonValue *value, double scale = 1.0,
             bool non_negative = false)
{
    constexpr double kLimit = 9007199254740992.0; // 2^53
    const double scaled = numberOr(value, 0) * scale;
    if (!(std::fabs(scaled) <= kLimit) || (non_negative && scaled < 0))
        return std::nullopt;
    return std::llround(scaled);
}

std::string
stringOr(const JsonValue *value, const std::string &fallback)
{
    return value && value->type == JsonValue::Type::kString ? value->str
                                                            : fallback;
}

} // namespace

ReadResult
parseChromeTrace(const std::string &json)
{
    ReadResult result;
    JsonValue doc;
    JsonParser parser(json);
    if (!parser.parse(doc)) {
        result.error = "JSON parse error: " + parser.error();
        return result;
    }
    const JsonValue *events = doc.find("traceEvents");
    if (!events || events->type != JsonValue::Type::kArray) {
        result.error = "missing traceEvents array";
        return result;
    }

    // Lanes are keyed (pid, tid); display names come from thread_name
    // metadata, which the tracer emits ahead of all events.
    std::map<std::pair<std::int64_t, std::int64_t>, std::uint32_t> lane_index;
    std::map<std::pair<std::int64_t, std::int64_t>, std::string> lane_names;
    auto laneFor = [&](std::int64_t pid,
                       std::int64_t tid) -> std::uint32_t {
        const auto key = std::make_pair(pid, tid);
        auto it = lane_index.find(key);
        if (it != lane_index.end())
            return it->second;
        const auto id =
            static_cast<std::uint32_t>(result.input.lanes.size());
        lane_index.emplace(key, id);
        auto name = lane_names.find(key);
        if (name != lane_names.end()) {
            result.input.lanes.push_back(name->second);
        } else {
            // Appended, not `"p" + std::to_string(pid)`: GCC 12 reports a
            // false -Wrestrict on that concatenation in Release builds.
            std::string lane = "p";
            lane += std::to_string(pid);
            lane += ".t";
            lane += std::to_string(tid);
            result.input.lanes.push_back(std::move(lane));
        }
        return id;
    };

    for (const JsonValue &entry : events->array) {
        if (entry.type != JsonValue::Type::kObject)
            continue;
        const std::string ph = stringOr(entry.find("ph"), "");
        if (ph.size() != 1)
            continue;
        // ts is microseconds with three decimals: an exact nanosecond
        // round-trip through llround.
        const auto pid = integerField(entry.find("pid"));
        const auto tid = integerField(entry.find("tid"));
        const auto ts = integerField(entry.find("ts"), 1000.0);
        const auto id = integerField(entry.find("id"), 1.0, true);
        if (!pid || !tid || !ts || !id) {
            result.input = {};
            result.error = "event " +
                           std::to_string(&entry - events->array.data()) +
                           ": pid, tid, ts or id out of range";
            return result;
        }
        const JsonValue *args = entry.find("args");
        if (ph == "M") {
            if (stringOr(entry.find("name"), "") == "thread_name" && args)
                lane_names[{*pid, *tid}] = stringOr(args->find("name"), "");
            continue;
        }
        ProfileEvent event;
        event.phase = ph[0];
        event.lane = laneFor(*pid, *tid);
        event.ts = *ts;
        event.id = static_cast<std::uint64_t>(*id);
        event.bind_enclosing = stringOr(entry.find("bp"), "") == "e";
        event.name = stringOr(entry.find("name"), "");
        event.cat = stringOr(entry.find("cat"), "");
        if (args)
            event.arg = stringOr(args->find("detail"), "");
        result.input.events.push_back(std::move(event));
    }
    return result;
}

ReadResult
readChromeTraceFile(const std::string &path)
{
    ReadResult result;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        result.error = "cannot open " + path;
        return result;
    }
    // A directory opens but fails its first read (EISDIR): say so
    // rather than parse the empty text read so far.
    std::string text;
    char chunk[1 << 14];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, file)) > 0)
        text.append(chunk, got);
    const int error = std::ferror(file) ? errno : 0;
    std::fclose(file);
    if (error != 0) {
        result.error = "cannot read " + path + ": " + std::strerror(error);
        return result;
    }
    return parseChromeTrace(text);
}

} // namespace rchdroid::profiling
