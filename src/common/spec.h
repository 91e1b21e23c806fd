// The one number codec and field splitter behind every input grammar,
// loader, CLI flag and export writer.
//
// Parsing is strict and locale-free (<charconv> underneath): a field
// must be consumed whole, so leading whitespace, a '+' sign, hex, trailing
// junk and (for integers) exponent or fraction forms are all rejected, as
// are values outside the caller's inclusive [lo, hi] and, for doubles,
// inf/nan. A parser returns std::nullopt on any of these; each caller turns
// that into its own error contract (std::invalid_argument for the spec
// grammars, a line-numbered std::runtime_error for the file loaders, exit
// status 2 naming the flag for the command-line tools).
//
// Formatting writes the shortest text that reads back to the same double,
// so every exported number round-trips exactly through the parsers above.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sb::spec {

/// Smallest positive double: `[kAboveZero, hi]` is the open-below range
/// (0, hi] in the inclusive-bounds parser API.
inline constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();

/// Decimal integer in [lo, hi]: an optional '-' then digits, nothing else.
std::optional<std::int64_t> parse_int(
    std::string_view s,
    std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max());

/// Decimal unsigned integer in [lo, hi]: digits only.
std::optional<std::uint64_t> parse_u64(
    std::string_view s, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/// Finite decimal double in [lo, hi] (fixed or exponent form).
std::optional<double> parse_double(
    std::string_view s, double lo = std::numeric_limits<double>::lowest(),
    double hi = std::numeric_limits<double>::max());

/// Splits on `delim`, keeping empty fields: "a::b:" -> {"a", "", "b", ""};
/// an empty string yields one empty field.
std::vector<std::string> split(std::string_view s, char delim);

/// Shortest round-trip rendering of `v` ("0.1", "1e-07", "300");
/// non-finite values render as "nan", "inf" or "-inf".
void append_double(std::string& out, double v);
void append_int(std::string& out, std::int64_t v);
void append_u64(std::string& out, std::uint64_t v);

/// JSON number: shortest round-trip text, or `null` for inf/nan (JSON has
/// no literal for them).
void json_number(std::ostream& os, double v);

/// JSON string: `s` in double quotes with '"' and '\\' backslash-escaped,
/// newline, tab and carriage return as \n, \t and \r, and every other
/// control character as \u00XX. The one escaper behind every JSON export.
void json_string(std::ostream& os, std::string_view s);

/// Command-line flag values for the tools and bench harnesses: the parsed
/// value or, for anything the matching parser rejects, a message on stderr
/// naming the tool and the flag and exit status 2, e.g.
/// "sbsim: --duration-ms: bad value '1e3' (want an integer in [1, 1000000])".
std::int64_t flag_int(std::string_view tool, std::string_view flag,
                      std::string_view value, std::int64_t lo,
                      std::int64_t hi);
std::uint64_t flag_u64(
    std::string_view tool, std::string_view flag, std::string_view value,
    std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());
double flag_double(std::string_view tool, std::string_view flag,
                   std::string_view value, double lo, double hi);

}  // namespace sb::spec
