/**
 * @file
 * Tests for the Chrome trace-event span layer
 * (`src/common/trace_span.hh`): spans must cost nothing and record
 * nothing while disabled, stay balanced across exceptions and
 * explicit early `end()`, flush to well-formed Chrome trace JSON,
 * honor VALLEY_TRACE, and — the contract the whole harness leans
 * on — leave grid results bit-identical with tracing on or off.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/trace_span.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"

using namespace valley;

namespace {

/**
 * Minimal JSON well-formedness checker (objects, arrays, strings,
 * numbers, literals) — enough to catch unbalanced braces, stray
 * commas, and unescaped quotes in the flushed trace without pulling
 * in a JSON library.
 */
class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : s(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos == s.size();
    }

  private:
    bool
    value()
    {
        if (pos >= s.size())
            return false;
        switch (s[pos]) {
        case '{':
            return object();
        case '[':
            return array();
        case '"':
            return string();
        case 't':
            return literal("true");
        case 'f':
            return literal("false");
        case 'n':
            return literal("null");
        default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == '}') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos; // '['
        skipWs();
        if (peek() == ']') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == ']') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\')
                ++pos;
            ++pos;
        }
        if (pos >= s.size())
            return false;
        ++pos; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos;
        if (peek() == '-')
            ++pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-'))
            ++pos;
        return pos > start;
    }

    bool
    literal(const std::string &word)
    {
        if (s.compare(pos, word.size(), word) != 0)
            return false;
        pos += word.size();
        return true;
    }

    char
    peek() const
    {
        return pos < s.size() ? s[pos] : '\0';
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\t' ||
                s[pos] == '\r'))
            ++pos;
    }

    const std::string &s;
    std::size_t pos = 0;
};

std::size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = haystack.find(needle);
         at != std::string::npos;
         at = haystack.find(needle, at + needle.size()))
        ++n;
    return n;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::stringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Fresh trace state and a per-test output path. */
class TraceSpanTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        unsetenv("VALLEY_TRACE");
        trace::resetForTesting();
        path = std::filesystem::temp_directory_path() /
               ("valley_trace_test_" + std::to_string(::getpid()) +
                ".json");
        std::filesystem::remove(path);
    }

    void
    TearDown() override
    {
        trace::resetForTesting();
        unsetenv("VALLEY_TRACE");
        std::filesystem::remove(path);
    }

    std::filesystem::path path;
};

} // namespace

TEST_F(TraceSpanTest, DisabledSpansRecordNothing)
{
    ASSERT_FALSE(trace::enabled());
    {
        trace::Span a("outer", "test");
        trace::Span b(std::string("inner"), "test");
        trace::instant("marker", "test");
        b.end();
    }
    EXPECT_EQ(trace::pendingEventCountForTesting(), 0u);
    // Flush without a path fails cleanly and writes nothing.
    EXPECT_FALSE(trace::flush());
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(TraceSpanTest, FlushEmitsValidChromeTraceJson)
{
    trace::enable(path.string());
    {
        trace::Span outer("outer", "test");
        trace::Span inner(std::string("inner \"quoted\"\n"), "test");
        trace::instant("restart", "test");
    }
    EXPECT_EQ(trace::pendingEventCountForTesting(), 3u);
    ASSERT_TRUE(trace::flush());
    const std::string text = readFile(path);
    EXPECT_TRUE(JsonValidator(text).valid()) << text;
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(countOccurrences(text, "\"ph\": \"X\""), 2u);
    EXPECT_EQ(countOccurrences(text, "\"ph\": \"i\""), 1u);
    EXPECT_NE(text.find("\"outer\""), std::string::npos);
    // The quote and the newline come out escaped, not raw.
    EXPECT_NE(text.find("inner \\\"quoted\\\"\\n"), std::string::npos);
    EXPECT_NE(text.find("\"droppedEvents\": 0"), std::string::npos);
    // Flush drains the buffers.
    EXPECT_EQ(trace::pendingEventCountForTesting(), 0u);
}

TEST_F(TraceSpanTest, SpansStayBalancedAcrossExceptions)
{
    trace::enable(path.string());
    try {
        trace::Span s("doomed", "test");
        throw std::runtime_error("boom");
    } catch (const std::runtime_error &) {
    }
    ASSERT_TRUE(trace::flush());
    const std::string text = readFile(path);
    EXPECT_TRUE(JsonValidator(text).valid()) << text;
    // Complete events are emitted at destruction, so unwinding still
    // produces exactly one balanced event.
    EXPECT_EQ(countOccurrences(text, "\"ph\": \"X\""), 1u);
    EXPECT_NE(text.find("\"doomed\""), std::string::npos);
}

TEST_F(TraceSpanTest, ExplicitEndIsIdempotent)
{
    trace::enable(path.string());
    {
        trace::Span s("phase", "test");
        s.end();
        s.end(); // second end and the destructor must both no-op
    }
    EXPECT_EQ(trace::pendingEventCountForTesting(), 1u);
}

TEST_F(TraceSpanTest, DisableFreezesRecordingMidstream)
{
    trace::enable(path.string());
    trace::instant("before", "test");
    trace::disable();
    {
        trace::Span s("after", "test");
        trace::instant("after", "test");
    }
    EXPECT_EQ(trace::pendingEventCountForTesting(), 1u);
}

TEST_F(TraceSpanTest, InitFromEnvHonorsValleyTrace)
{
    setenv("VALLEY_TRACE", path.string().c_str(), 1);
    trace::initFromEnv();
    EXPECT_TRUE(trace::enabled());
    trace::instant("env", "test");
    ASSERT_TRUE(trace::flush());
    const std::string text = readFile(path);
    EXPECT_TRUE(JsonValidator(text).valid()) << text;
    EXPECT_NE(text.find("\"env\""), std::string::npos);
}

TEST_F(TraceSpanTest, GridResultsBitIdenticalWithTracingOnAndOff)
{
    // The observability layer must never feed back into computation:
    // the same grid, traced and untraced, serializes to identical
    // results byte for byte (the cache wire format is exhaustive —
    // cycles, power, energy — so string equality is bit identity).
    harness::GridOptions base;
    base.workloads = {"SC"};
    base.mappers = {mapping::kBase, mapping::kPm};
    base.scale = 0.25;

    ASSERT_FALSE(trace::enabled());
    harness::GridOptions off = base;
    const harness::Grid untraced = harness::runGrid(std::move(off));

    trace::enable(path.string());
    harness::GridOptions on = base;
    const harness::Grid traced = harness::runGrid(std::move(on));
    ASSERT_TRUE(trace::flush());
    trace::disable();

    for (const std::string &w : base.workloads)
        for (const std::string &s : base.mappers)
            EXPECT_EQ(harness::serializeResult(untraced.at(w, s)),
                      harness::serializeResult(traced.at(w, s)))
                << w;

    // And the traced run produced a loadable trace with cell spans.
    const std::string text = readFile(path);
    EXPECT_TRUE(JsonValidator(text).valid());
    EXPECT_NE(text.find("\"cat\": \"grid\""), std::string::npos);
    EXPECT_NE(text.find("cell SC/"), std::string::npos);
}
