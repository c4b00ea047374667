/**
 * @file
 * Small string helpers shared by the framework layers and the bench
 * harness's table printer.
 */
#ifndef RCHDROID_PLATFORM_STRINGS_H
#define RCHDROID_PLATFORM_STRINGS_H

#include <cstdint>
#include <string>
#include <vector>

#include "platform/status.h"

namespace rchdroid {

/** Split on a single-character delimiter; keeps empty fields. */
std::vector<std::string> splitString(const std::string &text, char delim);

/** Join with a separator. */
std::string joinStrings(const std::vector<std::string> &parts,
                        const std::string &sep);

/** True if text begins with prefix. */
bool startsWith(const std::string &text, const std::string &prefix);

/**
 * Parse the whole of `text` as a base-10 integer in [min, max]. Empty
 * text, anything but an optional '-' and digits, and out-of-range
 * values are InvalidArgument errors whose message starts with `what`
 * (e.g. the command-line flag being parsed).
 */
Result<std::int64_t> parseInteger(const std::string &text, std::int64_t min,
                                  std::int64_t max, const std::string &what);

/** Fixed-point formatting, e.g. formatDouble(1.2345, 2) == "1.23". */
std::string formatDouble(double value, int decimals);

/** Left-pad/truncate to a column width (ASCII). */
std::string padRight(const std::string &text, std::size_t width);
std::string padLeft(const std::string &text, std::size_t width);

/**
 * Minimal fixed-width table printer used by every bench binary so the
 * reproduced tables share one look.
 */
class TablePrinter
{
  public:
    /** Define the header row; column widths auto-size to content. */
    explicit TablePrinter(std::vector<std::string> headers);

    /** Append one data row; must match the header arity. */
    void addRow(std::vector<std::string> cells);

    /** Render the table with a rule under the header. */
    std::string render() const;

    /** Render and write to stdout. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace rchdroid

#endif // RCHDROID_PLATFORM_STRINGS_H
