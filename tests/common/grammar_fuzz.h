// Seeded mutation stream shared by the spec-grammar fuzz harnesses.
//
// SplitMix64 drives every choice, so a harness's (seed, alphabet, corpus)
// triple fixes its mutation stream independently of libc rand. Each edit
// draws from `alphabet`, which the harness biases toward its own grammar's
// bytes so mutations stay interesting; embedded NULs are allowed (build the
// view with fuzz_alphabet() to keep them).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace sb::testfuzz {

/// The whole of a string literal, embedded NULs included (but not the
/// terminating one).
template <std::size_t N>
constexpr std::string_view fuzz_alphabet(const char (&s)[N]) {
  return {s, N - 1};
}

/// An arbitrary double in [lo, hi] (finite, 0 <= lo <= hi) drawn from the
/// random word `r`: uniform over the bit patterns between the bounds, so
/// every binade (subnormals too when lo is 0) is as likely as any other.
inline double any_double_in(std::uint64_t r, double lo, double hi) {
  const auto a = std::bit_cast<std::uint64_t>(lo);
  const auto b = std::bit_cast<std::uint64_t>(hi);
  return std::bit_cast<double>(a + r % (b - a + 1));
}

class Mutator {
 public:
  Mutator(std::uint64_t seed, std::string_view alphabet)
      : state_(seed), alphabet_(alphabet) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

  char random_char() { return alphabet_[below(alphabet_.size())]; }

  /// One to four edits: flip, insert, delete, truncate, or duplicate a
  /// slice onto the end.
  std::string mutate(std::string s) {
    const int edits = 1 + static_cast<int>(below(4));
    for (int e = 0; e < edits; ++e) {
      switch (below(5)) {
        case 0:  // flip one byte
          if (!s.empty()) s[below(s.size())] = random_char();
          break;
        case 1:  // insert
          s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                                   below(s.size() + 1)),
                   random_char());
          break;
        case 2:  // delete
          if (!s.empty()) s.erase(below(s.size()), 1);
          break;
        case 3:  // truncate
          if (!s.empty()) s.resize(below(s.size()));
          break;
        case 4:  // duplicate a slice onto the end
          if (!s.empty()) {
            const std::size_t at = below(s.size());
            s += s.substr(at, below(s.size() - at) + 1);
          }
          break;
      }
    }
    return s;
  }

 private:
  std::uint64_t state_;
  std::string_view alphabet_;
};

}  // namespace sb::testfuzz
