/**
 * @file
 * String helpers and the TablePrinter shared by every bench binary.
 */
#include <gtest/gtest.h>

#include "platform/strings.h"

namespace rchdroid {
namespace {

TEST(Strings, SplitKeepsEmptyFields)
{
    const auto parts = splitString("a||b|", '|');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField)
{
    const auto parts = splitString("solo", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "solo");
}

TEST(Strings, JoinRoundTrip)
{
    const std::vector<std::string> parts = {"x", "y", "z"};
    EXPECT_EQ(joinStrings(parts, "|"), "x|y|z");
    EXPECT_EQ(splitString(joinStrings(parts, "|"), '|'), parts);
}

TEST(Strings, JoinEmpty)
{
    EXPECT_EQ(joinStrings({}, ", "), "");
}

TEST(Strings, StartsWith)
{
    EXPECT_TRUE(startsWith("@string/title", "@string/"));
    EXPECT_FALSE(startsWith("@str", "@string/"));
    EXPECT_TRUE(startsWith("abc", ""));
}

TEST(Strings, ParseIntegerAcceptsWholeInRangeNumbers)
{
    EXPECT_EQ(parseInteger("16", 1, 64, "--depth").value(), 16);
    EXPECT_EQ(parseInteger("-3", -5, 5, "n").value(), -3);
    EXPECT_EQ(parseInteger("9223372036854775807", 0, INT64_MAX, "n").value(),
              INT64_MAX);
}

TEST(Strings, ParseIntegerRejectsEverythingElse)
{
    for (const char *bad : {"", "abc", "1x", " 1", "+1", "1.5", "0", "65",
                            "99999999999999999999"}) {
        const Result<std::int64_t> parsed = parseInteger(bad, 1, 64, "--depth");
        ASSERT_FALSE(parsed) << '"' << bad << '"';
        EXPECT_EQ(parsed.status().code(), StatusCode::InvalidArgument);
        EXPECT_EQ(parsed.status().message(),
                  std::string("--depth: expected an integer in [1, 64], "
                              "got \"") +
                      bad + "\"");
    }
}

TEST(Strings, JsonEscapeHandlesQuotesAndControlChars)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
    EXPECT_EQ(jsonEscape(std::string("\x1f\0", 2)), "\\u001f\\u0000");
}

TEST(Strings, FormatDouble)
{
    EXPECT_EQ(formatDouble(1.2345, 2), "1.23");
    EXPECT_EQ(formatDouble(1.0, 0), "1");
    EXPECT_EQ(formatDouble(-0.5, 1), "-0.5");
}

TEST(Strings, Padding)
{
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("abcdef", 3), "abcdef");
}

TEST(TablePrinter, RendersAlignedColumns)
{
    TablePrinter table({"name", "v"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22"});
    const std::string out = table.render();
    EXPECT_NE(out.find("name   v"), std::string::npos);
    EXPECT_NE(out.find("alpha  1"), std::string::npos);
    EXPECT_NE(out.find("b      22"), std::string::npos);
}

TEST(TablePrinter, HeaderOnlyStillRenders)
{
    TablePrinter table({"only"});
    const std::string out = table.render();
    EXPECT_NE(out.find("only"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

} // namespace
} // namespace rchdroid
