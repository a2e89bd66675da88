#ifndef TENET_TEXT_LEMMATIZER_H_
#define TENET_TEXT_LEMMATIZER_H_

#include <string>
#include <string_view>

namespace tenet {
namespace text {

// Rule + table-based verb lemmatizer (the NLTK WordNet-lemmatizer stand-in
// used on relational phrases, Sec. 6.1).  Listed forms resolve through the
// frozen lexicon (wordlists.h); unknown words fall back to suffix-stripping
// rules (-ies -> -y, -ed, -es, -s, -ing).  Always lower-cases.
std::string LemmatizeVerb(std::string_view word);

/// True when `word` (any inflection, case-insensitive) is a known verb.
bool IsKnownVerbForm(std::string_view word);

}  // namespace text
}  // namespace tenet

#endif  // TENET_TEXT_LEMMATIZER_H_
