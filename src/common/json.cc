#include "common/json.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace oscache
{

namespace
{

/** Shared immutable null for safe missing-key chaining. */
const Json &
nullValue()
{
    static const Json null;
    return null;
}

const std::string &
emptyString()
{
    static const std::string empty;
    return empty;
}

/** Nesting depth cap: frames come from untrusted peers. */
constexpr int maxParseDepth = 64;

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    explicit Parser(const std::string &t) : text(t) {}

    bool
    fail(const std::string &why)
    {
        if (error.empty()) {
            std::ostringstream os;
            os << "byte " << pos << ": " << why;
            error = os.str();
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::char_traits<char>::length(word);
        if (text.compare(pos, len, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos += len;
        return true;
    }

    /** Append @p cp to @p out as UTF-8. */
    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += char(cp);
        } else if (cp < 0x800) {
            out += char(0xC0 | (cp >> 6));
            out += char(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += char(0xE0 | (cp >> 12));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        } else {
            out += char(0xF0 | (cp >> 18));
            out += char(0x80 | ((cp >> 12) & 0x3F));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        }
    }

    bool
    hex4(unsigned &out)
    {
        if (pos + 4 > text.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text[pos++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= unsigned(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= unsigned(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= unsigned(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        ++pos; // opening quote
        out.clear();
        while (true) {
            if (pos >= text.size())
                return fail("unterminated string");
            const char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                ++pos;
                continue;
            }
            ++pos;
            if (pos >= text.size())
                return fail("truncated escape");
            const char esc = text[pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  unsigned cp = 0;
                  if (!hex4(cp))
                      return false;
                  if (cp >= 0xD800 && cp < 0xDC00) {
                      // High surrogate: require the low half.
                      if (pos + 1 >= text.size() || text[pos] != '\\' ||
                          text[pos + 1] != 'u')
                          return fail("unpaired surrogate");
                      pos += 2;
                      unsigned low = 0;
                      if (!hex4(low))
                          return false;
                      if (low < 0xDC00 || low > 0xDFFF)
                          return fail("bad low surrogate");
                      cp = 0x10000 + ((cp - 0xD800) << 10) +
                           (low - 0xDC00);
                  } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                      return fail("unpaired surrogate");
                  }
                  appendUtf8(out, cp);
                  break;
              }
              default:
                  return fail("unknown escape");
            }
        }
    }

    bool
    parseNumber(Json &out)
    {
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        if (pos >= text.size() ||
            !(text[pos] >= '0' && text[pos] <= '9'))
            return fail("malformed number");
        // Leading zero may not be followed by digits (strict JSON).
        if (text[pos] == '0' && pos + 1 < text.size() &&
            text[pos + 1] >= '0' && text[pos + 1] <= '9')
            return fail("leading zero");
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9')
            ++pos;
        bool integral = true;
        if (pos < text.size() && text[pos] == '.') {
            integral = false;
            ++pos;
            if (pos >= text.size() ||
                !(text[pos] >= '0' && text[pos] <= '9'))
                return fail("digits required after decimal point");
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            integral = false;
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (pos >= text.size() ||
                !(text[pos] >= '0' && text[pos] <= '9'))
                return fail("digits required in exponent");
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
        }
        const std::string image = text.substr(start, pos - start);
        if (integral) {
            errno = 0;
            const long long v = std::strtoll(image.c_str(), nullptr, 10);
            if (errno == 0) {
                out = Json(std::int64_t(v));
                return true;
            }
        }
        out = Json(std::strtod(image.c_str(), nullptr));
        return true;
    }

    bool
    parseValue(Json &out, int depth)
    {
        if (depth > maxParseDepth)
            return fail("nesting too deep");
        skipSpace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        switch (c) {
          case 'n':
              if (!literal("null"))
                  return false;
              out = Json();
              return true;
          case 't':
              if (!literal("true"))
                  return false;
              out = Json(true);
              return true;
          case 'f':
              if (!literal("false"))
                  return false;
              out = Json(false);
              return true;
          case '"': {
              std::string s;
              if (!parseString(s))
                  return false;
              out = Json(std::move(s));
              return true;
          }
          case '[': {
              ++pos;
              out = Json::array();
              skipSpace();
              if (pos < text.size() && text[pos] == ']') {
                  ++pos;
                  return true;
              }
              while (true) {
                  Json element;
                  if (!parseValue(element, depth + 1))
                      return false;
                  out.push(std::move(element));
                  skipSpace();
                  if (pos >= text.size())
                      return fail("unterminated array");
                  if (text[pos] == ',') {
                      ++pos;
                      continue;
                  }
                  if (text[pos] == ']') {
                      ++pos;
                      return true;
                  }
                  return fail("expected ',' or ']'");
              }
          }
          case '{': {
              ++pos;
              out = Json::object();
              skipSpace();
              if (pos < text.size() && text[pos] == '}') {
                  ++pos;
                  return true;
              }
              while (true) {
                  skipSpace();
                  if (pos >= text.size() || text[pos] != '"')
                      return fail("expected member name");
                  std::string key;
                  if (!parseString(key))
                      return false;
                  skipSpace();
                  if (pos >= text.size() || text[pos] != ':')
                      return fail("expected ':'");
                  ++pos;
                  Json value;
                  if (!parseValue(value, depth + 1))
                      return false;
                  out.set(key, std::move(value));
                  skipSpace();
                  if (pos >= text.size())
                      return fail("unterminated object");
                  if (text[pos] == ',') {
                      ++pos;
                      continue;
                  }
                  if (text[pos] == '}') {
                      ++pos;
                      return true;
                  }
                  return fail("expected ',' or '}'");
              }
          }
          case '-':
          case '0':
          case '1':
          case '2':
          case '3':
          case '4':
          case '5':
          case '6':
          case '7':
          case '8':
          case '9':
              return parseNumber(out);
          default:
              return fail("unexpected character");
        }
    }
};

} // namespace

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

bool
Json::asBool(bool fallback) const
{
    return type_ == Type::Bool ? bool_ : fallback;
}

double
Json::asDouble(double fallback) const
{
    return type_ == Type::Number ? num_ : fallback;
}

std::int64_t
Json::asInt(std::int64_t fallback) const
{
    if (type_ != Type::Number)
        return fallback;
    return integral_ ? int_ : std::int64_t(num_);
}

const std::string &
Json::asString() const
{
    return type_ == Type::String ? str_ : emptyString();
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return arr_.size();
    if (type_ == Type::Object)
        return obj_.size();
    return 0;
}

const Json &
Json::at(std::size_t index) const
{
    if (type_ != Type::Array || index >= arr_.size())
        return nullValue();
    return arr_[index];
}

void
Json::push(Json value)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    arr_.push_back(std::move(value));
}

const Json &
Json::get(const std::string &key) const
{
    if (type_ == Type::Object) {
        for (const auto &[k, v] : obj_)
            if (k == key)
                return v;
    }
    return nullValue();
}

bool
Json::has(const std::string &key) const
{
    if (type_ != Type::Object)
        return false;
    for (const auto &[k, v] : obj_) {
        (void)v;
        if (k == key)
            return true;
    }
    return false;
}

void
Json::set(const std::string &key, Json value)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    for (auto &[k, v] : obj_) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    obj_.emplace_back(key, std::move(value));
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    static const std::vector<std::pair<std::string, Json>> empty;
    return type_ == Type::Object ? obj_ : empty;
}

bool
Json::parse(const std::string &text, Json &out, std::string *error)
{
    Parser p(text);
    if (!p.parseValue(out, 0)) {
        if (error != nullptr)
            *error = p.error;
        return false;
    }
    p.skipSpace();
    if (p.pos != text.size()) {
        p.fail("trailing content after value");
        if (error != nullptr)
            *error = p.error;
        return false;
    }
    return true;
}

std::string
jsonEscapeString(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
              if (static_cast<unsigned char>(c) < 0x20) {
                  char buf[8];
                  std::snprintf(buf, sizeof buf, "\\u%04x", c);
                  out += buf;
              } else {
                  out += c;
              }
        }
    }
    return out;
}

} // namespace oscache
