// Checks that every number in a JSON document reads back exactly: each
// number token must survive spec::parse_double -> spec::append_double
// byte for byte, i.e. be the shortest text of the double it parses to.
//
//   json_numbers_check [--min-digits=D] FILE
//
// With --min-digits, at least one number must carry D or more significant
// digits, so a writer that rounds every value to a few digits (printf
// "%.6g") cannot pass on short numbers alone. Exit 0 on success, 1 on a
// failed check, 2 on bad usage or an unreadable file.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/spec.h"

namespace {

/// Significant digits of a number token: mantissa digits without leading
/// or trailing zeros ("0.00120" -> 2, "1500000" -> 2, "1e-07" -> 1).
int significant_digits(std::string_view tok) {
  tok = tok.substr(0, tok.find_first_of("eE"));
  std::string digits;
  for (const char c : tok) {
    if (c >= '0' && c <= '9') digits += c;
  }
  const auto first = digits.find_first_not_of('0');
  if (first == std::string::npos) return 0;
  const auto last = digits.find_last_not_of('0');
  return static_cast<int>(last - first + 1);
}

bool is_number_char(char c) {
  return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
         c == 'e' || c == 'E';
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t min_digits = 0;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--min-digits=", 0) == 0) {
      min_digits = sb::spec::flag_int("json_numbers_check", "--min-digits",
                                      arg.substr(13), 1, 17);
    } else if (path.empty() && !arg.starts_with("--")) {
      path = arg;
    } else {
      std::cerr << "usage: json_numbers_check [--min-digits=D] FILE\n";
      return 2;
    }
  }
  std::ifstream in(path, std::ios::binary);
  if (path.empty() || !in) {
    std::cerr << "json_numbers_check: cannot read '" << path << "'\n";
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  int numbers = 0, bad = 0, widest = 0;
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (c == '"') {  // skip a string, escapes included
      for (++i; i < text.size() && text[i] != '"'; ++i) {
        if (text[i] == '\\') ++i;
      }
      ++i;
      continue;
    }
    if (c != '-' && (c < '0' || c > '9')) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && is_number_char(text[end])) ++end;
    const std::string_view tok(text.data() + i, end - i);
    i = end;
    ++numbers;
    std::string back;
    if (const auto v = sb::spec::parse_double(tok)) {
      sb::spec::append_double(back, *v);
    }
    if (back != tok) {
      ++bad;
      std::cerr << "json_numbers_check: " << path << ": '" << tok
                << "' reads back as '" << back << "'\n";
    }
    widest = std::max(widest, significant_digits(tok));
  }
  if (numbers == 0) {
    std::cerr << "json_numbers_check: " << path << ": no numbers\n";
    return 1;
  }
  if (widest < min_digits) {
    std::cerr << "json_numbers_check: " << path << ": widest of " << numbers
              << " numbers has " << widest << " significant digits, want >= "
              << min_digits << "\n";
    return 1;
  }
  return bad == 0 ? 0 : 1;
}
