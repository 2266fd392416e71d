#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace dcb::util {

std::vector<std::string>
split(std::string_view text, char delim)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            return out;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::vector<std::string>
split_whitespace(std::string_view text)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        const std::size_t start = i;
        while (i < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        if (i > start)
            out.emplace_back(text.substr(start, i - start));
    }
    return out;
}

std::string
join(const std::vector<std::string>& parts, std::string_view sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
to_lower(std::string_view text)
{
    std::string out(text);
    for (char& c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::string_view
trim(std::string_view text)
{
    std::size_t b = 0;
    std::size_t e = text.size();
    while (b < e && std::isspace(static_cast<unsigned char>(text[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1])))
        --e;
    return text.substr(b, e - b);
}

bool
starts_with(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

std::string
human_bytes(std::uint64_t bytes)
{
    static const char* const kUnits[] = {"B", "KB", "MB", "GB", "TB", "PB"};
    double v = static_cast<double>(bytes);
    int unit = 0;
    while (v >= 1024.0 && unit < 5) {
        v /= 1024.0;
        ++unit;
    }
    char buf[32];
    if (unit == 0)
        std::snprintf(buf, sizeof(buf), "%llu B",
                      static_cast<unsigned long long>(bytes));
    else
        std::snprintf(buf, sizeof(buf), "%.1f %s", v, kUnits[unit]);
    return buf;
}

std::optional<std::uint64_t>
parse_count(std::string_view text)
{
    // from_chars takes no sign or space for an unsigned value, fails on
    // an empty range and reports overflow instead of saturating.
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end)
        return std::nullopt;
    return value;
}

void
expect_at_most_arguments(int argc, char** argv, int max_args)
{
    if (argc <= max_args + 1)
        return;
    std::fprintf(stderr,
                 "error: unexpected argument (%s takes at most %d): %s\n",
                 argv[0], max_args, argv[max_args + 1]);
    std::exit(2);
}

std::string
with_commas(std::uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string out;
    const std::size_t n = digits.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (i && (n - i) % 3 == 0)
            out += ',';
        out += digits[i];
    }
    return out;
}

std::string
format_double(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

}  // namespace dcb::util
