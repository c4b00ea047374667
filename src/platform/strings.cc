#include "platform/strings.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>

#include "platform/logging.h"

namespace rchdroid {

std::vector<std::string>
splitString(const std::string &text, char delim)
{
    std::vector<std::string> out;
    std::string current;
    for (char c : text) {
        if (c == delim) {
            out.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    out.push_back(current);
    return out;
}

Result<std::int64_t>
parseInteger(const std::string &text, std::int64_t min, std::int64_t max,
             const std::string &what)
{
    std::int64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ptr != end || ec != std::errc() || value < min ||
        value > max) {
        return Status::invalidArgument(
            what + ": expected an integer in [" + std::to_string(min) +
            ", " + std::to_string(max) + "], got \"" + text + "\"");
    }
    return value;
}

std::string
joinStrings(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.size() >= prefix.size() &&
           text.compare(0, prefix.size(), prefix) == 0;
}

std::string
formatDouble(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
padRight(const std::string &text, std::size_t width)
{
    if (text.size() >= width)
        return text;
    return text + std::string(width - text.size(), ' ');
}

std::string
padLeft(const std::string &text, std::size_t width)
{
    if (text.size() >= width)
        return text;
    return std::string(width - text.size(), ' ') + text;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    RCH_ASSERT(!headers_.empty(), "table needs at least one column");
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    RCH_ASSERT(cells.size() == headers_.size(),
               "row arity ", cells.size(), " vs header ", headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
TablePrinter::render() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << padRight(row[c], widths[c]);
            if (c + 1 < row.size())
                os << "  ";
        }
        os << '\n';
    };
    emit_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emit_row(row);
    return os.str();
}

void
TablePrinter::print() const
{
    std::fputs(render().c_str(), stdout);
}

} // namespace rchdroid
