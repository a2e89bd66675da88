#include "text/tokenizer.h"

#include <limits>

#include "common/string_util.h"
#include "common/utf8.h"

namespace tenet {
namespace text {
namespace {

bool IsWordChar(char c) { return IsAsciiAlnumChar(c) || c == '\''; }

bool IsSentenceTerminator(char c) { return c == '.' || c == '!' || c == '?'; }

bool IsPunct(char c) {
  switch (c) {
    case '.':
    case ',':
    case ':':
    case ';':
    case '!':
    case '?':
    case '(':
    case ')':
    case '"':
    case '-':
      return true;
    default:
      return false;
  }
}

// Width of the word-run step starting at s[i]: 1 for an ASCII word char,
// the sequence length for a valid multi-byte UTF-8 sequence, 1 for an
// intra-word hyphen whose right side is a word step, 0 if the run ends.
size_t WordStep(std::string_view s, size_t i, size_t begin) {
  const char c = s[i];
  if (IsWordChar(c)) return 1;
  if (static_cast<unsigned char>(c) >= 0x80) {
    const size_t len = Utf8SequenceLength(s.data() + i, s.size() - i);
    return len >= 2 ? len : 0;  // invalid byte ends the run
  }
  if (c == '-' && i > begin && i + 1 < s.size()) {
    // keep intra-word hyphens: "co-author"
    const char next = s[i + 1];
    if (IsWordChar(next)) return 1;
    if (static_cast<unsigned char>(next) >= 0x80 &&
        Utf8SequenceLength(s.data() + i + 1, s.size() - i - 1) >= 2) {
      return 1;
    }
  }
  return 0;
}

TokenizedDocument TokenizeImpl(std::string_view s, const TextLimits* limits,
                               TextGuardReport* report) {
  TokenizedDocument doc;
  const size_t max_token_bytes =
      limits != nullptr ? limits->max_token_bytes
                        : std::numeric_limits<size_t>::max();
  const int max_tokens = limits != nullptr ? limits->max_tokens
                                           : std::numeric_limits<int>::max();
  int sentence = 0;
  bool sentence_open = false;
  size_t i = 0;
  bool capped = false;
  auto emit = [&](std::string token_text, bool is_punct) {
    if (static_cast<int>(doc.tokens.size()) >= max_tokens) {
      capped = true;
      return false;
    }
    if (!sentence_open) {
      doc.sentence_begin.push_back(static_cast<int>(doc.tokens.size()));
      sentence_open = true;
    }
    doc.tokens.push_back(Token{std::move(token_text), sentence, is_punct});
    return true;
  };

  while (i < s.size() && !capped) {
    char c = s[i];
    if (IsAsciiSpaceChar(c)) {
      ++i;
      continue;
    }
    size_t step = WordStep(s, i, i);
    if (step > 0) {
      const size_t begin = i;
      // `cut` is the largest step boundary within the token-byte budget;
      // clipping there never splits a UTF-8 sequence.
      size_t cut = begin;
      while (i < s.size() && (step = WordStep(s, i, begin)) > 0) {
        i += step;
        if (i - begin <= max_token_bytes) cut = i;
      }
      if (i - begin > max_token_bytes) {
        // Oversized run: emit the clipped head, drop the remainder.
        if (report != nullptr) ++report->truncated_tokens;
        if (cut > begin) {
          emit(std::string(s.substr(begin, cut - begin)), /*is_punct=*/false);
        }
      } else {
        emit(std::string(s.substr(begin, i - begin)), /*is_punct=*/false);
      }
      continue;
    }
    if (IsPunct(c)) {
      if (!emit(std::string(1, c), /*is_punct=*/true)) break;
      ++i;
      if (IsSentenceTerminator(c) && sentence_open) {
        sentence_open = false;
        ++sentence;
      }
      continue;
    }
    // Unknown byte (invalid UTF-8 outside a word run): skip.
    ++i;
  }
  if (capped && report != nullptr) report->token_cap_hit = true;
  return doc;
}

}  // namespace

TokenizedDocument Tokenize(std::string_view s) {
  return TokenizeImpl(s, nullptr, nullptr);
}

TokenizedDocument Tokenize(std::string_view s, const TextLimits& limits,
                           TextGuardReport* report) {
  return TokenizeImpl(s, &limits, report);
}

}  // namespace text
}  // namespace tenet
