/**
 * @file
 * The one JSON reader of the tree: a minimal recursive-descent parser
 * for the simulator's own output (stats reports, run records, profile,
 * span and time-series sections, heartbeat events, Chrome traces).
 * Header-only and free of simulator linkage, so `rowsim_report` stays
 * standalone and tests can check the JSON the simulator writes.
 * Objects keep no key order (lookups go through a map); \u escapes
 * decode to '?'. Throws std::runtime_error on malformed input.
 */

#ifndef ROWSIM_TOOLS_JSON_HH
#define ROWSIM_TOOLS_JSON_HH

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace rowsim
{

struct Json
{
    enum Type { Null, Bool, Number, String, Array, Object } type = Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    const Json &
    at(const std::string &key) const
    {
        static const Json null;
        auto it = obj.find(key);
        return it == obj.end() ? null : it->second;
    }

    bool has(const std::string &key) const { return obj.count(key) != 0; }

    /** Numbers arrive as doubles or as hex strings ("0x10"). */
    unsigned long long
    asU64() const
    {
        if (type == Number)
            return static_cast<unsigned long long>(num);
        if (type == String)
            return std::strtoull(str.c_str(), nullptr, 0);
        return 0;
    }

    double asDouble() const { return type == Number ? num : 0.0; }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s(text) {}

    Json
    parse()
    {
        Json v = value();
        ws();
        if (pos != s.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why)
    {
        throw std::runtime_error("JSON error at offset " +
                                 std::to_string(pos) + ": " + why);
    }

    void
    ws()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            pos++;
    }

    char
    peek()
    {
        if (pos >= s.size())
            fail("unexpected end");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        pos++;
    }

    Json
    value()
    {
        ws();
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true", Json::Bool, true);
          case 'f': return literal("false", Json::Bool, false);
          case 'n': return literal("null", Json::Null, false);
          default: return number();
        }
    }

    Json
    literal(const char *word, Json::Type t, bool b)
    {
        if (s.compare(pos, std::strlen(word), word) != 0)
            fail("bad literal");
        pos += std::strlen(word);
        Json j;
        j.type = t;
        j.b = b;
        return j;
    }

    Json
    object()
    {
        Json j;
        j.type = Json::Object;
        expect('{');
        ws();
        if (peek() == '}') {
            pos++;
            return j;
        }
        while (true) {
            ws();
            Json key = string();
            ws();
            expect(':');
            j.obj[key.str] = value();
            ws();
            if (peek() == ',') {
                pos++;
                continue;
            }
            expect('}');
            return j;
        }
    }

    Json
    array()
    {
        Json j;
        j.type = Json::Array;
        expect('[');
        ws();
        if (peek() == ']') {
            pos++;
            return j;
        }
        while (true) {
            j.arr.push_back(value());
            ws();
            if (peek() == ',') {
                pos++;
                continue;
            }
            expect(']');
            return j;
        }
    }

    Json
    string()
    {
        Json j;
        j.type = Json::String;
        expect('"');
        while (true) {
            char c = peek();
            pos++;
            if (c == '"')
                return j;
            if (c == '\\') {
                char e = peek();
                pos++;
                switch (e) {
                  case '"': j.str += '"'; break;
                  case '\\': j.str += '\\'; break;
                  case '/': j.str += '/'; break;
                  case 'n': j.str += '\n'; break;
                  case 't': j.str += '\t'; break;
                  case 'r': j.str += '\r'; break;
                  case 'u':
                    if (pos + 4 > s.size())
                        fail("bad \\u escape");
                    pos += 4;
                    j.str += '?';
                    break;
                  default: fail("bad escape");
                }
            } else {
                j.str += c;
            }
        }
    }

    Json
    number()
    {
        std::size_t start = pos;
        if (peek() == '-')
            pos++;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-')) {
            pos++;
        }
        if (pos == start)
            fail("expected number");
        Json j;
        j.type = Json::Number;
        j.num = std::strtod(s.substr(start, pos - start).c_str(), nullptr);
        return j;
    }

    const std::string &s;
    std::size_t pos = 0;
};

} // namespace rowsim

#endif // ROWSIM_TOOLS_JSON_HH
