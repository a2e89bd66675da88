#include "text/features.h"

#include "common/string_util.h"
#include "text/wordlists.h"

namespace tenet {
namespace text {

std::optional<Connector> ClassifyConnector(
    std::initializer_list<std::string_view> gap) {
  const std::string_view* w = gap.begin();
  if (gap.size() == 2) {  // preposition + determiner ("on the", "of the")
    const LexEntry& first = LookupWord(w[0]);
    const LexEntry& second = LookupWord(w[1]);
    if (!first.Has(kLexPreposition) || !second.Has(kLexDeterminer)) {
      return std::nullopt;
    }
    return Connector{ConnectorKind::kPreposition,
                     std::string(first.word) + " " + std::string(second.word)};
  }
  if (gap.size() != 1) return std::nullopt;
  // Conjunctions and prepositions join as their listed (folded) form.
  const LexEntry& lex = LookupWord(w[0]);
  if (lex.Has(kLexConjunction)) {
    return Connector{ConnectorKind::kConjunction, std::string(lex.word)};
  }
  if (lex.Has(kLexPreposition)) {
    return Connector{ConnectorKind::kPreposition, std::string(lex.word)};
  }
  if (IsAsciiNumber(w[0])) {
    return Connector{ConnectorKind::kNumber, std::string(w[0])};
  }
  if (lex.Has(kLexConnectorPunct)) {
    return Connector{ConnectorKind::kPunctuation, std::string(w[0])};
  }
  return std::nullopt;
}

}  // namespace text
}  // namespace tenet
