#ifndef DCBENCH_UTIL_STRING_UTIL_H_
#define DCBENCH_UTIL_STRING_UTIL_H_

/**
 * @file
 * Small string helpers shared by the tokenizers, report writers and the
 * mini SQL engine.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dcb::util {

/** Split on a single delimiter; empty fields are preserved. */
std::vector<std::string> split(std::string_view text, char delim);

/** Split on runs of ASCII whitespace; empty tokens are dropped. */
std::vector<std::string> split_whitespace(std::string_view text);

/** Join parts with a separator. */
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/** ASCII lower-casing (locale-independent). */
std::string to_lower(std::string_view text);

/** Trim ASCII whitespace from both ends. */
std::string_view trim(std::string_view text);

/** True if text begins with prefix. */
bool starts_with(std::string_view text, std::string_view prefix);

/**
 * A whole decimal count: nullopt unless `text` is a nonempty run of
 * digits (no sign, space or suffix) whose value fits in 64 bits. The
 * one parser behind every count given on a command line.
 */
std::optional<std::uint64_t> parse_count(std::string_view text);

/**
 * The argument check of a program that takes at most `max_args`
 * positional arguments: when argv holds more, print the first extra one
 * to stderr and exit 2.
 */
void expect_at_most_arguments(int argc, char** argv, int max_args);

/** Human-readable byte count, e.g. "1.5 GB". */
std::string human_bytes(std::uint64_t bytes);

/** Human-readable count with thousands separators, e.g. "12,345,678". */
std::string with_commas(std::uint64_t value);

/** printf-style double formatting with fixed decimals. */
std::string format_double(double value, int decimals);

}  // namespace dcb::util

#endif  // DCBENCH_UTIL_STRING_UTIL_H_
