#ifndef TENET_COMMON_STRING_UTIL_H_
#define TENET_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace tenet {

/// Lower-cases exactly the 26 ASCII uppercase letters and leaves every
/// other byte — including bytes >= 0x80, i.e. the middle of any UTF-8
/// sequence — untouched.  This is the only case fold the alias index may
/// use: std::tolower consults the global C locale, so a raw high-bit char
/// is undefined behavior (negative argument) and, under a Latin-1 locale,
/// would fold bytes inside multi-byte sequences and corrupt index keys.
constexpr char AsciiFoldChar(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c + ('a' - 'A')) : c;
}

// Locale-independent ASCII character classes.  The <cctype> functions
// consult the global C locale, so under e.g. a Latin-1 locale
// std::isalnum(0xE9) is true and the tokenizer would split tokens at
// different byte positions than the ASCII-only case fold assumes.  Every
// text-layer classifier routes through these instead: bytes >= 0x80 are
// never space / digit / alpha here, the same contract AsciiFoldChar keeps.

constexpr bool IsAsciiSpaceChar(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

constexpr bool IsAsciiDigitChar(char c) { return c >= '0' && c <= '9'; }

constexpr bool IsAsciiUpperChar(char c) { return c >= 'A' && c <= 'Z'; }

constexpr bool IsAsciiAlphaChar(char c) {
  return (c >= 'a' && c <= 'z') || IsAsciiUpperChar(c);
}

constexpr bool IsAsciiAlnumChar(char c) {
  return IsAsciiAlphaChar(c) || IsAsciiDigitChar(c);
}

// --- case-folding hash ------------------------------------------------------
// The one hash of every case-insensitive table (the frozen alias dict, the
// text lexicon, the gazetteer).  It folds 8 bytes per multiply with a SWAR
// AsciiFoldChar, where a byte-serial FNV-1a pays ~4 cycles per byte.
// Hashes are derived state, rebuilt on every build or load, never persisted.

/// AsciiFoldChar on 8 bytes at once: +0x20 to every byte in ['A','Z'],
/// every other byte (including >= 0x80) untouched.
inline uint64_t FoldChunk8(uint64_t x) {
  constexpr uint64_t kHigh = 0x8080808080808080ull;
  const uint64_t heptets = x & ~kHigh;
  const uint64_t ge_upper_a = heptets + 0x3f3f3f3f3f3f3f3full;  // >= 'A'
  const uint64_t gt_upper_z = heptets + 0x2525252525252525ull;  // >  'Z'
  const uint64_t is_upper = ge_upper_a & ~gt_upper_z & ~x & kHigh;
  return x + (is_upper >> 2);
}

/// Hash of `data[0, len)` equal for every casing (that of its AsciiToLower
/// form).  A non-null `folded_out` (capacity >= len rounded up to 8)
/// receives the folded bytes zero-padded to a whole word, for word-wise
/// confirms.
inline uint64_t AsciiFoldHash(const char* data, size_t len,
                              char* folded_out = nullptr) {
  constexpr uint64_t kMul = 0x2545f4914f6cdd1dull;
  uint64_t h = 0x9e3779b97f4a7c15ull ^ (static_cast<uint64_t>(len) * kMul);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t chunk;
    std::memcpy(&chunk, data + i, 8);
    chunk = FoldChunk8(chunk);
    if (folded_out != nullptr) std::memcpy(folded_out + i, &chunk, 8);
    h = (h ^ chunk) * kMul;
  }
  if (i < len) {
    uint64_t chunk = 0;
    std::memcpy(&chunk, data + i, len - i);
    chunk = FoldChunk8(chunk);
    if (folded_out != nullptr) std::memcpy(folded_out + i, &chunk, 8);
    h = (h ^ chunk) * kMul;
  }
  // murmur3 finalizer
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 29;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 32;
  return h;
}

/// Case-insensitive ASCII equality.
inline bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiFoldChar(a[i]) != AsciiFoldChar(b[i])) return false;
  }
  return true;
}

/// Transparent functors for a hash map keyed by folded strings: a probe of
/// any casing finds its key without a copy.
struct AsciiFoldHasher {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return AsciiFoldHash(s.data(), s.size());
  }
};
struct AsciiFoldEqual {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return EqualsIgnoreCase(a, b);
  }
};

/// Returns `s` with ASCII letters lower-cased (the alias index is
/// case-insensitive, following the paper's Solr setup).  Locale-independent
/// and byte-preserving outside [A-Z]; see AsciiFoldChar.
std::string AsciiToLower(std::string_view s);

/// Splits on `sep`, dropping empty pieces.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// Joins `pieces` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep);

/// Strips leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True if `s` starts with / ends with the given prefix or suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if every character of `s` is an ASCII digit (and `s` is non-empty).
bool IsAsciiNumber(std::string_view s);

/// True if the first character is an ASCII uppercase letter.
bool IsCapitalized(std::string_view s);

// Checked numeric parsing (std::from_chars under the hood): the whole
// string must be consumed, no leading whitespace, locale-independent.
// The CLI and the KB deserializers both route through these — "4x" is
// InvalidArgument, never silently 4 (atoi-style prefix parsing is how a
// typo'd flag or a corrupt field goes unnoticed).

/// Parses a signed decimal integer; InvalidArgument on empty input,
/// trailing garbage, or overflow.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a floating-point number ("1.5", "1e-3", "inf"); InvalidArgument
/// on empty input, trailing garbage, or out-of-range values.
Result<double> ParseFloat64(std::string_view s);

}  // namespace tenet

#endif  // TENET_COMMON_STRING_UTIL_H_
