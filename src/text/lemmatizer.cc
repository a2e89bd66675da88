#include "text/lemmatizer.h"

#include "common/string_util.h"
#include "text/wordlists.h"

namespace tenet {
namespace text {

std::string LemmatizeVerb(std::string_view word) {
  if (const VerbForms* v = LookupWord(word).verb) return std::string(v->lemma);
  // Fallback suffix rules for verbs outside the table.
  std::string lower = AsciiToLower(word);
  auto ends = [&lower](std::string_view suffix) {
    return EndsWith(lower, suffix) && lower.size() > suffix.size() + 1;
  };
  if (ends("ies")) return lower.substr(0, lower.size() - 3) + "y";
  if (ends("ied")) return lower.substr(0, lower.size() - 3) + "y";
  if (ends("ing") && lower.size() > 5) {
    std::string stem = lower.substr(0, lower.size() - 3);
    // doubled final consonant: "starring" -> "star"
    if (stem.size() >= 2 && stem[stem.size() - 1] == stem[stem.size() - 2]) {
      stem.pop_back();
    }
    return stem;
  }
  if (ends("ed")) {
    std::string stem = lower.substr(0, lower.size() - 2);
    if (stem.size() >= 2 && stem[stem.size() - 1] == stem[stem.size() - 2]) {
      stem.pop_back();
    }
    return stem;
  }
  if (ends("es") && (EndsWith(lower, "shes") || EndsWith(lower, "ches") ||
                     EndsWith(lower, "xes") || EndsWith(lower, "sses"))) {
    return lower.substr(0, lower.size() - 2);
  }
  if (ends("s") && !EndsWith(lower, "ss")) {
    return lower.substr(0, lower.size() - 1);
  }
  return lower;
}

bool IsKnownVerbForm(std::string_view word) {
  return LookupWord(word).verb != nullptr;
}

}  // namespace text
}  // namespace tenet
