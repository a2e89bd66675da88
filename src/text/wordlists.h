#ifndef TENET_TEXT_WORDLISTS_H_
#define TENET_TEXT_WORDLISTS_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace tenet {
namespace text {

// Curated static word pools.  They play two roles:
//   * the linguistic lexicon consulted by the NLP substrate (tokenizer,
//     chunker, Open-IE-lite, lemmatizer, feature detector), standing in for
//     the NLTK/spaCy resources of the paper's pipeline; and
//   * the generative vocabulary of the synthetic KB / corpus generators,
//     which share this grammar with the extractor the way the paper's tools
//     share English.
//
// All pools are immutable, ASCII, and ordered deterministically.

// Inflection row of one verb.  Multi-word relational phrases are formed by
// appending a particle/preposition to a verb form ("work" + "at").
struct VerbForms {
  std::string_view lemma;
  std::string_view past;
  std::string_view third;   // third person singular present
  std::string_view gerund;  // -ing form
};

/// All verbs known to the lemmatizer / Open-IE extractor (~70 rows, both
/// regular and irregular).
const std::vector<VerbForms>& Verbs();

/// Subset of verb lemmas the synthetic KB uses for predicate surfaces.
const std::vector<std::string_view>& PredicateVerbLemmas();

/// Verb lemmas that never alias a predicate in the synthetic KB; the corpus
/// generator uses them to render non-linkable relational phrases.
const std::vector<std::string_view>& NonKbVerbLemmas();

/// Particles/prepositions that may follow a verb in a relational phrase.
const std::vector<std::string_view>& VerbParticles();

// ---- The frozen lexicon --------------------------------------------------
// One immutable hash from every function word, connector and verb form of
// the grammar to its class bits and verb row, built on first use.

// Class bits of a lexicon word; a word may carry several ("her").
enum LexClass : uint16_t {
  kLexStopword = 1u << 0,        // function word ignored by the chunker
  kLexDeterminer = 1u << 1,      // may prefix a mention ("the", "a")
  kLexPronoun = 1u << 2,         // resolved by coreference
  kLexParticle = 1u << 3,        // may follow a verb ("work at")
  kLexConjunction = 1u << 4,     // Sec. 5.1 connector "and"
  kLexPreposition = 1u << 5,     // Sec. 5.1 connector "of", "on", ...
  kLexConnectorPunct = 1u << 6,  // Sec. 5.1 connector ":", "-"
  kLexVerbForm = 1u << 7,        // any inflection of a Verbs() row
};

struct LexEntry {
  std::string_view word;            // as listed (lower case); empty on a miss
  const VerbForms* verb = nullptr;  // the row `word` inflects, if any
  uint16_t classes = 0;             // LexClass bits

  bool Has(uint16_t mask) const { return (classes & mask) != 0; }
};

/// The entry of `word` under the ASCII case fold (AsciiFoldHash, no
/// lowercase copy); on a miss, a static entry with no class bits.
const LexEntry& LookupWord(std::string_view word);

// ---- Name-generation pools (synthetic KB only) ---------------------------

const std::vector<std::string_view>& PersonFirstNames();
const std::vector<std::string_view>& PersonLastNames();
const std::vector<std::string_view>& OrganizationHeads();
const std::vector<std::string_view>& OrganizationSuffixes();
const std::vector<std::string_view>& LocationNames();
const std::vector<std::string_view>& LocationSuffixes();
const std::vector<std::string_view>& WorkHeadNouns();
const std::vector<std::string_view>& TopicAdjectives();
const std::vector<std::string_view>& TopicNouns();
const std::vector<std::string_view>& ProductHeads();
const std::vector<std::string_view>& EventHeads();

/// Looks up the inflection row of `lemma`; nullptr when unknown.
const VerbForms* FindVerbByLemma(std::string_view lemma);

}  // namespace text
}  // namespace tenet

#endif  // TENET_TEXT_WORDLISTS_H_
