#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/sim_fault.h"
#include "common/xassert.h"

namespace pim {

// ---------------------------------------------------------------- writer

JsonWriter::JsonWriter(std::ostream& os, bool pretty)
    : os_(os), pretty_(pretty)
{
}

std::string
JsonWriter::quote(const std::string& text)
{
    std::string out = "\"";
    for (unsigned char c : text) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
    return out;
}

void
JsonWriter::indent()
{
    if (!pretty_)
        return;
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i)
        os_ << "  ";
}

void
JsonWriter::separate()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return; // the key already positioned us
    }
    if (stack_.empty())
        return;
    if (hasElement_.back())
        os_ << ',';
    hasElement_.back() = true;
    indent();
}

void
JsonWriter::beginObject()
{
    separate();
    os_ << '{';
    stack_.push_back(Scope::Object);
    hasElement_.push_back(false);
}

void
JsonWriter::endObject()
{
    PIM_ASSERT(!stack_.empty() && stack_.back() == Scope::Object,
               "endObject outside an object");
    const bool had = hasElement_.back();
    stack_.pop_back();
    hasElement_.pop_back();
    if (had)
        indent();
    os_ << '}';
}

void
JsonWriter::beginArray()
{
    separate();
    os_ << '[';
    stack_.push_back(Scope::Array);
    hasElement_.push_back(false);
}

void
JsonWriter::endArray()
{
    PIM_ASSERT(!stack_.empty() && stack_.back() == Scope::Array,
               "endArray outside an array");
    const bool had = hasElement_.back();
    stack_.pop_back();
    hasElement_.pop_back();
    if (had)
        indent();
    os_ << ']';
}

void
JsonWriter::key(const std::string& name)
{
    PIM_ASSERT(!stack_.empty() && stack_.back() == Scope::Object,
               "key outside an object");
    separate();
    os_ << quote(name) << (pretty_ ? ": " : ":");
    pendingKey_ = true;
}

void
JsonWriter::value(const std::string& text)
{
    separate();
    os_ << quote(text);
}

void
JsonWriter::value(const char* text)
{
    value(std::string(text));
}

void
JsonWriter::value(double number)
{
    separate();
    if (!std::isfinite(number)) {
        // JSON has no inf/nan; emit null so the document stays parseable.
        os_ << "null";
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", number);
    os_ << buf;
}

void
JsonWriter::value(std::uint64_t number)
{
    separate();
    os_ << number;
}

void
JsonWriter::value(std::int64_t number)
{
    separate();
    os_ << number;
}

void
JsonWriter::value(bool flag)
{
    separate();
    os_ << (flag ? "true" : "false");
}

void
JsonWriter::valueNull()
{
    separate();
    os_ << "null";
}

void
JsonWriter::rawValue(const std::string& literal)
{
    separate();
    os_ << literal;
}

// ---------------------------------------------------------------- parser

class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    JsonValue
    parseDocument()
    {
        JsonValue value = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters after the document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string& what)
    {
        throw PIM_SIM_FAULT(SimFaultKind::Parse, "json: ", what,
                            " at offset ", pos_);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeWord(const char* word)
    {
        const std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        skipSpace();
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': {
            JsonValue v;
            v.kind_ = JsonValue::Kind::String;
            v.string_ = parseString();
            return v;
          }
          case 't':
          case 'f': {
            JsonValue v;
            v.kind_ = JsonValue::Kind::Bool;
            if (consumeWord("true"))
                v.bool_ = true;
            else if (consumeWord("false"))
                v.bool_ = false;
            else
                fail("bad literal");
            return v;
          }
          case 'n': {
            if (!consumeWord("null"))
                fail("bad literal");
            return JsonValue{};
          }
          default:
            return parseNumber();
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            c = text_[pos_++];
            switch (c) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("short \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // ASCII only; anything above is replaced (the writer
                // never produces non-ASCII escapes).
                out += code < 0x80 ? static_cast<char>(code) : '?';
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        bool any = false;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '-' ||
                text_[pos_] == '+')) {
            ++pos_;
            any = true;
        }
        if (!any)
            fail("expected a value");
        JsonValue v;
        v.kind_ = JsonValue::Kind::Number;
        try {
            v.number_ = std::stod(text_.substr(start, pos_ - start));
        } catch (const std::exception&) {
            fail("bad number");
        }
        return v;
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind_ = JsonValue::Kind::Object;
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipSpace();
            std::string name = parseString();
            skipSpace();
            expect(':');
            v.members_.emplace_back(std::move(name), parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind_ = JsonValue::Kind::Array;
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.elements_.push_back(parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

JsonValue
JsonValue::parse(const std::string& text)
{
    return JsonParser(text).parseDocument();
}

JsonValue
JsonValue::parseFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw PIM_SIM_FAULT(SimFaultKind::Parse, "json: cannot open '",
                            path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        throw PIM_SIM_FAULT(SimFaultKind::Parse, "json: value is not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::Number)
        throw PIM_SIM_FAULT(SimFaultKind::Parse,
                            "json: value is not a number");
    return number_;
}

const std::string&
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        throw PIM_SIM_FAULT(SimFaultKind::Parse,
                            "json: value is not a string");
    return string_;
}

const std::vector<JsonValue>&
JsonValue::asArray() const
{
    if (kind_ != Kind::Array)
        throw PIM_SIM_FAULT(SimFaultKind::Parse,
                            "json: value is not an array");
    return elements_;
}

const JsonValue*
JsonValue::find(const std::string& name) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto& [key, value] : members_) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

const JsonValue&
JsonValue::at(const std::string& name) const
{
    const JsonValue* v = find(name);
    if (v == nullptr)
        throw PIM_SIM_FAULT(SimFaultKind::Parse, "json: no member '", name,
                            "'");
    return *v;
}

std::size_t
JsonValue::size() const
{
    if (kind_ == Kind::Array)
        return elements_.size();
    if (kind_ == Kind::Object)
        return members_.size();
    return 0;
}

const JsonValue&
JsonValue::at(std::size_t index) const
{
    if (kind_ != Kind::Array || index >= elements_.size())
        throw PIM_SIM_FAULT(SimFaultKind::Parse, "json: no array element ",
                            index);
    return elements_[index];
}

const JsonValue*
JsonValue::findPath(const std::string& path) const
{
    const JsonValue* node = this;
    std::size_t start = 0;
    while (start <= path.size()) {
        const std::size_t dot = path.find('.', start);
        const std::string seg =
            path.substr(start, dot == std::string::npos ? std::string::npos
                                                        : dot - start);
        if (!seg.empty()) {
            if (node->isArray()) {
                std::size_t index = 0;
                try {
                    index = std::stoul(seg);
                } catch (const std::exception&) {
                    return nullptr;
                }
                if (index >= node->elements_.size())
                    return nullptr;
                node = &node->elements_[index];
            } else {
                node = node->find(seg);
                if (node == nullptr)
                    return nullptr;
            }
        }
        if (dot == std::string::npos)
            break;
        start = dot + 1;
    }
    return node;
}

} // namespace pim
