#include "common/spec.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <system_error>
#include <type_traits>

namespace sb::spec {
namespace {

/// from_chars over the whole of `s`; nullopt unless every byte was used
/// and the value lies in [lo, hi] (a nan fails both comparisons).
template <typename T>
std::optional<T> whole(std::string_view s, T lo, T hi) {
  T v{};
  const char* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, v);
  if (res.ec != std::errc() || res.ptr != end || !(v >= lo) || !(v <= hi)) {
    return std::nullopt;
  }
  return v;
}

/// Shortest round-trip text of `v` into `buf`; returns the end pointer.
template <typename T>
char* print(char (&buf)[32], T v) {
  return std::to_chars(buf, buf + sizeof buf, v).ptr;
}

template <typename T>
void append(std::string& out, T v) {
  char buf[32];
  out.append(buf, print(buf, v));
}

[[noreturn]] void bad_flag(std::string_view tool, std::string_view flag,
                          std::string_view value, std::string_view want) {
  std::cerr << tool << ": " << flag << ": bad value '" << value << "' (want "
            << want << ")\n";
  std::exit(2);
}

template <typename T>
std::string range(const char* what, T lo, T hi) {
  // kAboveZero is how callers spell the open lower bound of (0, hi].
  const bool open = std::is_floating_point_v<T> && lo == kAboveZero;
  std::string out = what;
  out += open ? " in (0" : " in [";
  if (!open) append(out, lo);
  out += ", ";
  append(out, hi);
  out += ']';
  return out;
}

}  // namespace

std::optional<std::int64_t> parse_int(std::string_view s, std::int64_t lo,
                                      std::int64_t hi) {
  return whole(s, lo, hi);
}

std::optional<std::uint64_t> parse_u64(std::string_view s, std::uint64_t lo,
                                       std::uint64_t hi) {
  return whole(s, lo, hi);
}

std::optional<double> parse_double(std::string_view s, double lo, double hi) {
  // Callers' bounds are finite, which already keeps inf out; the explicit
  // check holds the "finite" contract even for an infinite bound.
  const auto v = whole(s, lo, hi);
  if (v && !std::isfinite(*v)) return std::nullopt;
  return v;
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf");
    return;
  }
  append(out, v);
}

void append_int(std::string& out, std::int64_t v) { append(out, v); }

void append_u64(std::string& out, std::uint64_t v) { append(out, v); }

void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  os.write(buf, print(buf, v) - buf);
}

void json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

std::int64_t flag_int(std::string_view tool, std::string_view flag,
                      std::string_view value, std::int64_t lo,
                      std::int64_t hi) {
  const auto v = parse_int(value, lo, hi);
  if (!v) bad_flag(tool, flag, value, range("an integer", lo, hi));
  return *v;
}

std::uint64_t flag_u64(std::string_view tool, std::string_view flag,
                       std::string_view value, std::uint64_t lo,
                       std::uint64_t hi) {
  const auto v = parse_u64(value, lo, hi);
  if (!v) bad_flag(tool, flag, value, range("an integer", lo, hi));
  return *v;
}

double flag_double(std::string_view tool, std::string_view flag,
                   std::string_view value, double lo, double hi) {
  const auto v = parse_double(value, lo, hi);
  if (!v) bad_flag(tool, flag, value, range("a number", lo, hi));
  return *v;
}

}  // namespace sb::spec
