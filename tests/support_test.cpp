// Unit tests for the support library.
#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <cwchar>

using namespace mha;

TEST(StringUtils, StrFmt) {
  EXPECT_EQ(strfmt("x=%d", 42), "x=42");
  EXPECT_EQ(strfmt("%s-%s", "a", "b"), "a-b");
  EXPECT_EQ(strfmt("%.2f", 1.5), "1.50");
  EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(StringUtils, Split) {
  EXPECT_EQ(splitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(splitString("a,,c", ','), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(splitString("a,,c", ',', /*keepEmpty=*/true),
            (std::vector<std::string>{"a", "", "c"}));
  EXPECT_TRUE(splitString("", ',').empty());
  EXPECT_EQ(splitString("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\ta b\n"), "a b");
}

TEST(StringUtils, FirstLine) {
  EXPECT_EQ(firstLine("one\ntwo\nthree"), "one");
  EXPECT_EQ(firstLine("no newline"), "no newline");
  EXPECT_EQ(firstLine("\nafter"), "");
  EXPECT_EQ(firstLine(""), "");
}

TEST(StringUtils, StartsEndsWith) {
  EXPECT_TRUE(startsWith("llvm.memcpy", "llvm."));
  EXPECT_FALSE(startsWith("l", "llvm."));
  EXPECT_TRUE(endsWith("foo.f32", ".f32"));
  EXPECT_FALSE(endsWith("f32", "xf32"));
}

TEST(StringUtils, Join) {
  EXPECT_EQ(joinStrings({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(joinStrings({}, ","), "");
  EXPECT_EQ(joinStrings({"only"}, ","), "only");
}

TEST(StringUtils, ValidIdentifier) {
  EXPECT_TRUE(isValidIdentifier("foo"));
  EXPECT_TRUE(isValidIdentifier("_x1"));
  EXPECT_TRUE(isValidIdentifier("a.b"));
  EXPECT_FALSE(isValidIdentifier(""));
  EXPECT_FALSE(isValidIdentifier("1a"));
  EXPECT_FALSE(isValidIdentifier("a b"));
}

TEST(StringUtils, ParseIntAcceptsStrictIntegers) {
  EXPECT_EQ(parseInt("0"), 0);
  EXPECT_EQ(parseInt("42"), 42);
  EXPECT_EQ(parseInt("-7"), -7);
  EXPECT_EQ(parseInt("+7"), std::nullopt); // from_chars: no leading '+'
  EXPECT_EQ(parseInt("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parseInt("-9223372036854775808"), INT64_MIN);
}

TEST(StringUtils, ParseIntRejectsGarbageAtoiWouldAccept) {
  // atoi("abc") == 0 and atoi("12abc") == 12 — both must be rejected.
  EXPECT_EQ(parseInt(""), std::nullopt);
  EXPECT_EQ(parseInt("abc"), std::nullopt);
  EXPECT_EQ(parseInt("12abc"), std::nullopt);
  EXPECT_EQ(parseInt("1.5"), std::nullopt);
  EXPECT_EQ(parseInt(" 4"), std::nullopt);
  EXPECT_EQ(parseInt("4 "), std::nullopt);
  EXPECT_EQ(parseInt("-"), std::nullopt);
  EXPECT_EQ(parseInt("9223372036854775808"), std::nullopt); // overflow
  EXPECT_EQ(parseInt("0x10"), std::nullopt);
}

TEST(StringUtils, ParseDoubleAcceptsStrictLiterals) {
  EXPECT_EQ(parseDouble("0"), 0.0);
  EXPECT_EQ(parseDouble("1.5"), 1.5);
  EXPECT_EQ(parseDouble("-2.25"), -2.25);
  EXPECT_EQ(parseDouble("1e10"), 1e10);
  EXPECT_EQ(parseDouble("2.5E-3"), 2.5e-3);
  EXPECT_EQ(parseDouble("0.1"), 0.1);
}

TEST(StringUtils, ParseDoubleRejectsWhatStodWouldAccept) {
  // std::stod throws on overflow, honours LC_NUMERIC, accepts trailing
  // garbage via its pos out-param, and parses "inf"/"nan"/hex floats.
  // The strict parser rejects all of these.
  EXPECT_EQ(parseDouble(""), std::nullopt);
  EXPECT_EQ(parseDouble("abc"), std::nullopt);
  EXPECT_EQ(parseDouble("1.5x"), std::nullopt);
  EXPECT_EQ(parseDouble(" 1.5"), std::nullopt);
  EXPECT_EQ(parseDouble("1,5"), std::nullopt);
  EXPECT_EQ(parseDouble("inf"), std::nullopt);
  EXPECT_EQ(parseDouble("nan"), std::nullopt);
  EXPECT_EQ(parseDouble("0x1p4"), std::nullopt);
  EXPECT_EQ(parseDouble("1e999"), std::nullopt); // overflow, not throw
}

TEST(Json, EscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json::escape("\t\r\b\f"), "\\t\\r\\b\\f");
  EXPECT_EQ(json::escape(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
  // Non-control bytes pass through untouched.
  EXPECT_EQ(json::escape("ok: {x} [y], 100%"), "ok: {x} [y], 100%");
}

TEST(Json, NumberFormatsWithDotAndPrecision) {
  EXPECT_EQ(json::number(1.5), "1.500");
  EXPECT_EQ(json::number(0.0), "0.000");
  EXPECT_EQ(json::number(-2.25, 2), "-2.25");
  EXPECT_EQ(json::number(3.14159, 1), "3.1");
  // JSON has no NaN/Inf; they degrade to zero rather than break parsers.
  EXPECT_EQ(json::number(std::nan("")), "0.000");
}

TEST(Json, NumberIgnoresDecimalCommaLocales) {
  // Under e.g. de_DE, printf("%.3f", 1.5) yields "1,500" — invalid JSON.
  // number() must emit '.' regardless of LC_NUMERIC.
  const char *old = std::setlocale(LC_NUMERIC, nullptr);
  std::string saved = old ? old : "C";
  bool haveLocale = std::setlocale(LC_NUMERIC, "de_DE.UTF-8") != nullptr ||
                    std::setlocale(LC_NUMERIC, "de_DE.utf8") != nullptr;
  if (!haveLocale) {
    std::setlocale(LC_NUMERIC, saved.c_str());
    GTEST_SKIP() << "no decimal-comma locale installed";
  }
  std::string formatted = json::number(1234.5);
  std::string escaped = json::escape("x");
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_EQ(formatted, "1234.500");
  EXPECT_EQ(escaped, "x");
}

TEST(Json, ValidateAcceptsWellFormedDocuments) {
  EXPECT_TRUE(json::validate("{}"));
  EXPECT_TRUE(json::validate("[]"));
  EXPECT_TRUE(json::validate("  {\"a\": [1, 2.5, -3e2], \"b\": {\"c\": "
                             "null}, \"d\": [true, false]}  "));
  EXPECT_TRUE(json::validate("\"just a string\""));
  EXPECT_TRUE(json::validate("-0.5"));
  EXPECT_TRUE(json::validate("{\"esc\": \"a\\n\\\"b\\u00e9\"}"));
}

TEST(Json, ValidateRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(json::validate("", &error));
  EXPECT_FALSE(json::validate("{", &error));
  EXPECT_FALSE(json::validate("{\"a\": }", &error));
  EXPECT_FALSE(json::validate("[1, 2,]", &error));
  EXPECT_FALSE(json::validate("{\"a\" 1}", &error));
  EXPECT_FALSE(json::validate("{} trailing", &error));
  EXPECT_FALSE(json::validate("{\"a\": 1,500}", &error)); // the locale bug
  EXPECT_FALSE(json::validate("nulL", &error));
  EXPECT_FALSE(json::validate("\"unterminated", &error));
  EXPECT_FALSE(json::validate("\"bad\\escape\"", &error));
  EXPECT_FALSE(json::validate("01", &error));
  // The error message carries an offset for debugging.
  EXPECT_FALSE(json::validate("[1, x]", &error));
  EXPECT_NE(error.find("offset"), std::string::npos);
}

TEST(Json, ParseBuildsValueTree) {
  std::string error;
  std::optional<json::Value> doc = json::parse(
      R"(  {"name": "dse", "count": 3, "ratio": -2.5, "on": true,
           "off": false, "none": null, "list": [1, 2, 3]}  )",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->isObject());
  EXPECT_EQ(doc->get("name")->asString(), "dse");
  EXPECT_EQ(doc->get("count")->asInt(), 3);
  EXPECT_DOUBLE_EQ(doc->get("ratio")->asDouble(), -2.5);
  EXPECT_TRUE(doc->get("on")->asBool());
  EXPECT_FALSE(doc->get("off")->asBool(true));
  EXPECT_TRUE(doc->get("none")->isNull());
  ASSERT_TRUE(doc->get("list")->isArray());
  ASSERT_EQ(doc->get("list")->elements().size(), 3u);
  EXPECT_EQ(doc->get("list")->elements()[2].asInt(), 3);
  EXPECT_EQ(doc->get("missing"), nullptr);
}

TEST(Json, AsIntAcceptsOnlyIntegralNumbersInInt64Range) {
  auto asInt = [](const char *text) {
    std::optional<json::Value> doc = json::parse(text);
    EXPECT_TRUE(doc.has_value()) << text;
    return doc ? doc->asInt() : std::nullopt;
  };
  EXPECT_EQ(asInt("3"), 3);
  EXPECT_EQ(asInt("-0"), 0);
  EXPECT_EQ(asInt("1e18"), 1000000000000000000);
  EXPECT_EQ(asInt("-9223372036854775808"), INT64_MIN);
  // 2^63 and beyond do not fit; neither does a fraction or a non-number.
  EXPECT_EQ(asInt("9223372036854775808"), std::nullopt);
  EXPECT_EQ(asInt("1e300"), std::nullopt);
  EXPECT_EQ(asInt("-1e300"), std::nullopt);
  EXPECT_EQ(asInt("2.5"), std::nullopt);
  EXPECT_EQ(asInt("\"7\""), std::nullopt);
  EXPECT_EQ(asInt("true"), std::nullopt);
  EXPECT_EQ(asInt("null"), std::nullopt);
}

TEST(Json, ParsePreservesMemberOrderAndDecodesEscapes) {
  std::optional<json::Value> doc = json::parse(
      "{\"z\": 1, \"a\": 2, \"s\": \"tab\\tquote\\\"u\\u00e9\"}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->members().size(), 3u);
  EXPECT_EQ(doc->members()[0].first, "z"); // emission order, not sorted
  EXPECT_EQ(doc->members()[1].first, "a");
  // é re-encodes as two-byte UTF-8.
  EXPECT_EQ(doc->get("s")->asString(), "tab\tquote\"u\xc3\xa9");
}

TEST(Json, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(json::parse("", &error).has_value());
  EXPECT_FALSE(json::parse("{", &error).has_value());
  EXPECT_FALSE(json::parse("[1, 2,]", &error).has_value());
  EXPECT_FALSE(json::parse("{} trailing", &error).has_value());
  EXPECT_FALSE(json::parse("{\"a\": 1,5}", &error).has_value());
  EXPECT_FALSE(json::parse("\"unterminated", &error).has_value());
  EXPECT_FALSE(json::parse("01", &error).has_value());
}

TEST(Json, ParseRoundTripsEmittedDocuments) {
  // Whatever the emission helpers produce, the parser reads back.
  std::string text = "{\"label\": \"" + json::escape("a\"b\\c\nd") +
                     "\", \"value\": " + json::number(12.625) + "}";
  ASSERT_TRUE(json::validate(text));
  std::optional<json::Value> doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("label")->asString(), "a\"b\\c\nd");
  EXPECT_DOUBLE_EQ(doc->get("value")->asDouble(), 12.625);
}

TEST(Json, ValidateAndParseShareOneGrammar) {
  // validate() is parse()'s check-only mode: both accept the same inputs
  // and reject the rest with the same words at the same offset.
  std::string atLimit = std::string(129, '[') + std::string(129, ']');
  std::string pastLimit = std::string(130, '[') + std::string(130, ']');
  struct Case {
    std::string text;
    bool ok;
  };
  const Case cases[] = {
      {"01", false},           {"1.5.5", false},
      {"-", false},            {"1e", false},
      {"1e+", false},          {"-0", true},
      {"2E-3", true},          {"1e999", false},
      {"\"\\u00e9\"", true},   {"\"\\uZZ\"", false},
      {"\"\\q\"", false},      {"\"a\tb\"", false},
      {atLimit, true},         {pastLimit, false},
      {"[1] x", false},        {"", false},
  };
  for (const Case &c : cases) {
    std::string validateError = "unset", parseError = "unset";
    bool valid = json::validate(c.text, &validateError);
    bool parsed = json::parse(c.text, &parseError).has_value();
    EXPECT_EQ(valid, c.ok) << c.text << ": " << validateError;
    EXPECT_EQ(parsed, c.ok) << c.text << ": " << parseError;
    if (!c.ok) {
      EXPECT_EQ(validateError, parseError) << c.text;
    }
  }
  std::string error;
  EXPECT_FALSE(json::validate("01", &error));
  EXPECT_EQ(error, "trailing characters after value at offset 1");
  EXPECT_FALSE(json::validate(pastLimit, &error));
  EXPECT_EQ(error, "nesting too deep at offset 129");
}

TEST(Json, WriteFileValidatesThenWrites) {
  const std::string path = "json_write_file_test.json";
  std::remove(path.c_str());
  std::string error;
  ASSERT_TRUE(json::writeFile(path, "{\"a\": [1, 2]}\n", &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "{\"a\": [1, 2]}\n");
  in.close();
  std::remove(path.c_str());

  EXPECT_FALSE(json::writeFile("/nonexistent-dir-for-json-test/a.json",
                               "{}", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;

  // Malformed text is refused before the file is created.
  EXPECT_FALSE(json::writeFile(path, "{\"a\": }", &error));
  EXPECT_NE(error.find("not well-formed JSON"), std::string::npos) << error;
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(Diagnostics, CollectsAndCounts) {
  DiagnosticEngine diags;
  EXPECT_FALSE(diags.hadError());
  diags.warning("careful");
  EXPECT_FALSE(diags.hadError());
  diags.error("boom", {3, 7});
  EXPECT_TRUE(diags.hadError());
  EXPECT_EQ(diags.errorCount(), 1u);
  EXPECT_EQ(diags.diagnostics().size(), 2u);
  EXPECT_NE(diags.str().find("3:7: error: boom"), std::string::npos);
  EXPECT_NE(diags.str().find("warning: careful"), std::string::npos);
  diags.clear();
  EXPECT_FALSE(diags.hadError());
  EXPECT_TRUE(diags.diagnostics().empty());
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelFor) {
  ThreadPool pool(3);
  std::vector<int> data(257, 0);
  parallelFor(pool, data.size(), [&](size_t i) { data[i] = static_cast<int>(i); });
  long long sum = std::accumulate(data.begin(), data.end(), 0ll);
  EXPECT_EQ(sum, 257ll * 256 / 2);
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] { counter++; });
  pool.wait();
  pool.submit([&] { counter++; });
  pool.wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, ThrowingTaskDoesNotHangWait) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The error state is cleared and the pool stays usable.
  std::atomic<int> counter{0};
  pool.submit([&] { counter++; });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, FirstExceptionSurvivesManyThrows) {
  ThreadPool pool(4);
  for (int i = 0; i < 32; ++i)
    pool.submit([] { throw std::runtime_error("boom"); });
  try {
    pool.wait();
    FAIL() << "wait() must rethrow";
  } catch (const std::runtime_error &e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  pool.wait(); // all work already drained; no stale exception
}

TEST(ThreadPool, StressMixedThrowingTasks) {
  ThreadPool pool(8);
  std::atomic<int> completed{0};
  for (int i = 0; i < 500; ++i)
    pool.submit([&completed, i] {
      if (i % 7 == 0)
        throw std::runtime_error("x");
      completed.fetch_add(1);
    });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  EXPECT_EQ(completed.load(), 500 - 72); // every 7th task threw
}

TEST(ThreadPool, TasksSubmittingTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i)
    pool.submit([&] {
      counter.fetch_add(1);
      pool.submit([&] { counter.fetch_add(1); });
    });
  pool.wait();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, RepeatedWaitReuseCycles) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int i = 0; i < 8; ++i)
      pool.submit([&] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), (cycle + 1) * 8);
  }
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallelFor(pool, 8,
                           [](size_t i) {
                             if (i == 3)
                               throw std::runtime_error("iteration 3");
                           }),
               std::runtime_error);
  // The pool is unaffected afterwards.
  std::atomic<int> counter{0};
  parallelFor(pool, 4, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 4);
}

TEST(ThreadPool, ConcurrentParallelForWaitsOnlyItsOwnWork) {
  // Regression: parallelFor used to call pool.wait(), which waits for ALL
  // in-flight work. Here two of four workers sit blocked on a gate that
  // only opens after the second parallelFor returned — if the second call
  // waited for the gated group too, this test would deadlock.
  ThreadPool pool(4);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::thread blocked([&] {
    parallelFor(pool, 2, [&](size_t) { gate.wait(); });
  });
  std::atomic<int> fast{0};
  parallelFor(pool, 16, [&](size_t) { fast.fetch_add(1); });
  EXPECT_EQ(fast.load(), 16);
  release.set_value();
  blocked.join();
}

TEST(ThreadPool, TaskGroupIsolatesExceptions) {
  ThreadPool pool(2);
  TaskGroup bad(pool);
  TaskGroup good(pool);
  bad.submit([] { throw std::runtime_error("bad group"); });
  std::atomic<int> counter{0};
  good.submit([&] { counter.fetch_add(1); });
  good.wait(); // must not observe the other group's exception
  EXPECT_EQ(counter.load(), 1);
  EXPECT_THROW(bad.wait(), std::runtime_error);
  pool.wait(); // group errors never leak into the pool-level wait
}

TEST(ThreadPool, WorkerIndexVisibleInTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(ThreadPool::currentWorkerIndex(), -1);
  std::mutex mutex;
  std::set<int> seen;
  parallelFor(pool, 64, [&](size_t) {
    int index = ThreadPool::currentWorkerIndex();
    std::lock_guard<std::mutex> lock(mutex);
    seen.insert(index);
  });
  EXPECT_FALSE(seen.empty());
  for (int index : seen) {
    EXPECT_GE(index, 0);
    EXPECT_LT(index, 3);
  }
}

TEST(StringUtils, StrFmtSurfacesEncodingErrors) {
  // An out-of-range wide character makes vsnprintf("%ls", ...) fail with
  // a negative length (EILSEQ). The result must flag the failure in-band
  // instead of returning an empty or garbage string.
  wchar_t bad[2] = {static_cast<wchar_t>(0x110000), L'\0'};
  std::string out = strfmt("ctx %ls", bad);
  if (out == "ctx \xEF\xBF\xBF" || out.rfind("ctx ", 0) == 0)
    GTEST_SKIP() << "libc formats out-of-range wchar_t without error";
  EXPECT_EQ(out.rfind("<strfmt-error:", 0), 0u) << out;
}

TEST(Json, ShortestDoubleRoundTripsExactly) {
  for (double v : {0.0, -0.0, 1.0, 0.5, 0.1, 1e20, -1e-20, 3.14159,
                   1.0 / 3.0, 2.2250738585072014e-308}) {
    std::string s = json::shortestDouble(v);
    double back = std::strtod(s.c_str(), nullptr);
    EXPECT_EQ(back, v) << s;
    // Parsers of the IR grammar require a '.' or exponent marker.
    EXPECT_TRUE(s.find('.') != std::string::npos ||
                s.find('e') != std::string::npos ||
                s.find('E') != std::string::npos)
        << s;
  }
  EXPECT_EQ(json::shortestDouble(1.0), "1.0");
  EXPECT_EQ(json::shortestDouble(0.5), "0.5");
  EXPECT_EQ(json::shortestDouble(std::nan("")), "nan");
  EXPECT_EQ(json::shortestDouble(HUGE_VAL), "inf");
  EXPECT_EQ(json::shortestDouble(-HUGE_VAL), "-inf");
}

TEST(Json, ShortestDoubleIgnoresDecimalCommaLocales) {
  // Float constants printed into IR text must lex back; a ','-decimal
  // locale would corrupt them if the formatter went through printf.
  const char *old = std::setlocale(LC_NUMERIC, nullptr);
  std::string saved = old ? old : "C";
  bool haveLocale = std::setlocale(LC_NUMERIC, "de_DE.UTF-8") != nullptr ||
                    std::setlocale(LC_NUMERIC, "de_DE.utf8") != nullptr;
  if (!haveLocale) {
    std::setlocale(LC_NUMERIC, saved.c_str());
    GTEST_SKIP() << "no decimal-comma locale installed";
  }
  std::string half = json::shortestDouble(0.5);
  std::string big = json::shortestDouble(1234.5);
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_EQ(half, "0.5");
  EXPECT_EQ(big, "1234.5");
}

TEST(Hash, BuilderDistinguishesBoundariesAndBitPatterns) {
  EXPECT_EQ(hashString("abc"), hashString("abc"));
  EXPECT_NE(hashString("abc"), hashString("abd"));
  // Length-prefixed strings: ("ab","c") != ("a","bc").
  EXPECT_NE(HashBuilder().str("ab").str("c").get(),
            HashBuilder().str("a").str("bc").get());
  // Bit-pattern float hashing keeps +0.0/-0.0 and NaNs distinct.
  EXPECT_NE(HashBuilder().f64Bits(0.0).get(),
            HashBuilder().f64Bits(-0.0).get());
  EXPECT_EQ(HashBuilder().f64Bits(std::nan("")).get(),
            HashBuilder().f64Bits(std::nan("")).get());
  EXPECT_EQ(HashBuilder().u64(7).boolean(true).get(),
            HashBuilder().u64(7).boolean(true).get());
  EXPECT_NE(HashBuilder().u64(7).boolean(true).get(),
            HashBuilder().u64(7).boolean(false).get());
}

namespace {
struct DtorCounter {
  explicit DtorCounter(int *counter) : counter(counter) {}
  ~DtorCounter() { ++*counter; }
  int *counter;
  // Non-trivial payload so the arena must register a destructor.
  std::string payload = "payload";
};
} // namespace

TEST(Arena, AllocatesAlignsAndRunsDestructors) {
  int destroyed = 0;
  {
    BumpAllocator arena;
    for (int i = 0; i < 100; ++i)
      arena.create<DtorCounter>(&destroyed);
    // Alignment for over-aligned types.
    void *p = arena.allocate(64, 64);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
    // Large allocation forces a dedicated slab.
    void *big = arena.allocate(1 << 21, 8);
    EXPECT_NE(big, nullptr);
    EXPECT_GT(arena.bytesAllocated(), 0u);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 100);
}

TEST(Arena, InternerDeduplicatesStrings) {
  BumpAllocator arena;
  StringInterner interner(arena);
  std::string a = "hello";
  std::string b = "hello";
  std::string_view ia = interner.intern(a);
  std::string_view ib = interner.intern(b);
  EXPECT_EQ(ia, "hello");
  EXPECT_EQ(ia.data(), ib.data()); // same storage
  EXPECT_NE(interner.intern("world").data(), ia.data());
}
