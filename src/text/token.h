#ifndef TENET_TEXT_TOKEN_H_
#define TENET_TEXT_TOKEN_H_

#include <string>
#include <vector>

namespace tenet {
namespace text {

// One token of a tokenized document.
struct Token {
  std::string t;          // the token text, original casing
  int sentence = 0;       // 0-based sentence index
  bool is_punct = false;  // true for punctuation tokens (".", ":", ...)
};

// A tokenized document: flat token list plus sentence boundaries.
struct TokenizedDocument {
  std::vector<Token> tokens;
  /// sentence_begin[s] is the index (into tokens) of sentence s's first
  /// token; sentence_begin.size() is the number of sentences.
  std::vector<int> sentence_begin;

  int num_sentences() const { return static_cast<int>(sentence_begin.size()); }

  /// Token index one past the end of sentence `s`.
  int SentenceEnd(int s) const {
    return s + 1 < num_sentences() ? sentence_begin[s + 1]
                                   : static_cast<int>(tokens.size());
  }
};

}  // namespace text
}  // namespace tenet

#endif  // TENET_TEXT_TOKEN_H_
