// Tests for the NLP substrate: tokenizer, lemmatizer, features, gazetteer.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"
#include "text/features.h"
#include "text/gazetteer.h"
#include "text/lemmatizer.h"
#include "text/tokenizer.h"
#include "text/wordlists.h"

namespace tenet {
namespace text {
namespace {

// ---- Tokenizer ------------------------------------------------------------

TEST(TokenizerTest, SplitsWordsAndPunctuation) {
  TokenizedDocument doc = Tokenize("Rembrandt painted The Storm.");
  ASSERT_EQ(doc.tokens.size(), 5u);
  EXPECT_EQ(doc.tokens[0].t, "Rembrandt");
  EXPECT_EQ(doc.tokens[3].t, "Storm");
  EXPECT_EQ(doc.tokens[4].t, ".");
  EXPECT_TRUE(doc.tokens[4].is_punct);
  EXPECT_EQ(doc.num_sentences(), 1);
}

TEST(TokenizerTest, SentenceBoundaries) {
  TokenizedDocument doc = Tokenize("He left. She stayed! Done?");
  EXPECT_EQ(doc.num_sentences(), 3);
  EXPECT_EQ(doc.sentence_begin[0], 0);
  EXPECT_EQ(doc.tokens[doc.sentence_begin[1]].t, "She");
  EXPECT_EQ(doc.tokens[doc.sentence_begin[2]].t, "Done");
  // Every token's sentence field is consistent with boundaries.
  for (int s = 0; s < doc.num_sentences(); ++s) {
    for (int i = doc.sentence_begin[s]; i < doc.SentenceEnd(s); ++i) {
      EXPECT_EQ(doc.tokens[i].sentence, s);
    }
  }
}

TEST(TokenizerTest, ColonIsPunctuationButNotSentenceEnd) {
  TokenizedDocument doc = Tokenize("Winter Crown: Harvest Elegy is good.");
  EXPECT_EQ(doc.num_sentences(), 1);
  EXPECT_EQ(doc.tokens[2].t, ":");
  EXPECT_TRUE(doc.tokens[2].is_punct);
}

TEST(TokenizerTest, IntraWordHyphenKept) {
  TokenizedDocument doc = Tokenize("A co-author spoke - loudly.");
  bool found = false;
  for (const Token& t : doc.tokens) {
    if (t.t == "co-author") found = true;
  }
  EXPECT_TRUE(found);
  // Free-standing hyphen is punctuation.
  int hyphens = 0;
  for (const Token& t : doc.tokens) {
    if (t.t == "-" && t.is_punct) ++hyphens;
  }
  EXPECT_EQ(hyphens, 1);
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(Tokenize("").tokens.empty());
  EXPECT_TRUE(Tokenize("   \n\t ").tokens.empty());
  EXPECT_EQ(Tokenize("").num_sentences(), 0);
}

TEST(TokenizerTest, NumbersAreTokens) {
  TokenizedDocument doc = Tokenize("Apollo 11 mission");
  ASSERT_EQ(doc.tokens.size(), 3u);
  EXPECT_EQ(doc.tokens[1].t, "11");
  EXPECT_FALSE(doc.tokens[1].is_punct);
}

TEST(TokenizerTest, HighBitBytesAgreeWithAsciiCaseFold) {
  // The gazetteer folds surfaces with the ASCII-only AsciiToLower, so the
  // tokenizer must place identical token boundaries before and after the
  // fold — including through multi-byte UTF-8 (high-bit bytes are
  // word-continuation, never boundaries) and around stray invalid bytes
  // (skipped outside word runs).  A locale-leaking isalnum/tolower breaks
  // exactly this agreement.
  const char* kDocs[] = {
      "Caf\xC3\xA9 MAN visited Z\xC3\xBCrich.",   // é, ü mid-word
      "\xD0\x90pple met \xD0\x90PPLE",            // Cyrillic А lead byte
      "Smile \xF0\x9F\x99\x82 now!",              // 4-byte emoji island
      "A\x80Z mixed \xFFQ end",                   // stray invalid bytes
  };
  for (const char* raw : kDocs) {
    SCOPED_TRACE(raw);
    const std::string text = raw;
    TokenizedDocument upper = Tokenize(text);
    TokenizedDocument lower = Tokenize(AsciiToLower(text));
    ASSERT_EQ(upper.tokens.size(), lower.tokens.size());
    for (size_t i = 0; i < upper.tokens.size(); ++i) {
      EXPECT_EQ(AsciiToLower(upper.tokens[i].t), lower.tokens[i].t);
      EXPECT_EQ(upper.tokens[i].sentence, lower.tokens[i].sentence);
      EXPECT_EQ(upper.tokens[i].is_punct, lower.tokens[i].is_punct);
    }
    EXPECT_EQ(upper.num_sentences(), lower.num_sentences());
  }
}

// ---- Lemmatizer -----------------------------------------------------------

TEST(LemmatizerTest, IrregularVerbsFromTable) {
  EXPECT_EQ(LemmatizeVerb("wrote"), "write");
  EXPECT_EQ(LemmatizeVerb("taught"), "teach");
  EXPECT_EQ(LemmatizeVerb("won"), "win");
  EXPECT_EQ(LemmatizeVerb("led"), "lead");
  EXPECT_EQ(LemmatizeVerb("bought"), "buy");
}

TEST(LemmatizerTest, RegularInflections) {
  EXPECT_EQ(LemmatizeVerb("visited"), "visit");
  EXPECT_EQ(LemmatizeVerb("studies"), "study");
  EXPECT_EQ(LemmatizeVerb("studied"), "study");
  EXPECT_EQ(LemmatizeVerb("paints"), "paint");
  EXPECT_EQ(LemmatizeVerb("painting"), "paint");
  EXPECT_EQ(LemmatizeVerb("starred"), "star");
}

TEST(LemmatizerTest, CaseInsensitive) {
  EXPECT_EQ(LemmatizeVerb("Visited"), "visit");
  EXPECT_EQ(LemmatizeVerb("WROTE"), "write");
}

TEST(LemmatizerTest, LemmaIsFixpoint) {
  for (const VerbForms& v : Verbs()) {
    EXPECT_EQ(LemmatizeVerb(v.lemma), v.lemma);
    EXPECT_EQ(LemmatizeVerb(v.past), v.lemma);
    EXPECT_EQ(LemmatizeVerb(v.third), v.lemma);
    EXPECT_EQ(LemmatizeVerb(v.gerund), v.lemma);
  }
}

TEST(LemmatizerTest, KnownVerbForms) {
  EXPECT_TRUE(IsKnownVerbForm("painted"));
  EXPECT_TRUE(IsKnownVerbForm("Paints"));
  EXPECT_FALSE(IsKnownVerbForm("Rembrandt"));
  EXPECT_FALSE(IsKnownVerbForm("the"));
}

// ---- Connector features (Sec. 5.1) ----------------------------------------

TEST(FeaturesTest, ConjunctionConnector) {
  auto c = ClassifyConnector({"and"});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->kind, ConnectorKind::kConjunction);
  EXPECT_EQ(c->joining_text, "and");
}

TEST(FeaturesTest, PrepositionConnectors) {
  auto c1 = ClassifyConnector({"of"});
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->kind, ConnectorKind::kPreposition);

  auto c2 = ClassifyConnector({"on", "the"});
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->kind, ConnectorKind::kPreposition);
  EXPECT_EQ(c2->joining_text, "on the");

  auto c3 = ClassifyConnector({"Of", "The"});
  ASSERT_TRUE(c3.has_value());
  EXPECT_EQ(c3->joining_text, "of the");
}

TEST(FeaturesTest, NumberConnector) {
  auto c = ClassifyConnector({"11"});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->kind, ConnectorKind::kNumber);
  EXPECT_EQ(c->joining_text, "11");
}

TEST(FeaturesTest, PunctuationConnector) {
  auto c = ClassifyConnector({":"});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->kind, ConnectorKind::kPunctuation);
}

TEST(FeaturesTest, NonConnectors) {
  EXPECT_FALSE(ClassifyConnector({}).has_value());
  EXPECT_FALSE(ClassifyConnector({"painted"}).has_value());
  EXPECT_FALSE(ClassifyConnector({"quickly"}).has_value());
  EXPECT_FALSE(ClassifyConnector({"of", "quickly"}).has_value());
  EXPECT_FALSE(ClassifyConnector({"the", "of"}).has_value());
  EXPECT_FALSE(ClassifyConnector({"of", "the", "new"}).has_value());
  EXPECT_FALSE(ClassifyConnector({","}).has_value());
}

// ---- Frozen lexicon -------------------------------------------------------

// The closed-class grammar the lexicon is built from, restated as the spec.
struct PoolSpec {
  uint16_t bit;
  std::vector<std::string_view> words;
};

const std::vector<PoolSpec>& ClosedClassPools() {
  static const std::vector<PoolSpec>* pools = new std::vector<PoolSpec>{
      {kLexStopword,
       {"the", "a", "an", "of", "on", "in", "at", "for", "from", "by", "with",
        "under", "over", "and", "or", "to", "as", "is", "are", "was", "were",
        "be", "been", "he", "she", "it", "they", "him", "her", "them", "his",
        "its", "their", "this", "that", "also", "more", "than", "during",
        "after", "before", "new", "first", "last", "year", "years"}},
      {kLexDeterminer,
       {"the", "a", "an", "this", "that", "its", "his", "her", "their"}},
      {kLexPronoun, {"he", "she", "it", "they", "him", "her", "them"}},
      {kLexParticle, {"at", "in", "with", "for", "to"}},
      {kLexConjunction, {"and", "or"}},
      {kLexPreposition,
       {"of", "on", "in", "at", "for", "from", "by", "with", "under", "over"}},
      {kLexConnectorPunct, {":", "-"}},
  };
  return *pools;
}

std::string Upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

std::string Capitalized(std::string_view s) {
  std::string out(s);
  if (!out.empty() && out[0] >= 'a' && out[0] <= 'z') {
    out[0] = static_cast<char>(out[0] - 'a' + 'A');
  }
  return out;
}

TEST(LexiconTest, PoolWordsHaveExactlyTheirClassBits) {
  std::unordered_map<std::string_view, uint16_t> expected;
  for (const PoolSpec& pool : ClosedClassPools()) {
    for (std::string_view w : pool.words) expected[w] |= pool.bit;
  }
  for (const VerbForms& v : Verbs()) {
    for (std::string_view form : {v.lemma, v.past, v.third, v.gerund}) {
      if (expected.count(form) > 0) expected[form] |= kLexVerbForm;
    }
  }
  for (const auto& [word, bits] : expected) {
    for (const std::string& probe :
         {std::string(word), Upper(word), Capitalized(word)}) {
      const LexEntry& e = LookupWord(probe);
      EXPECT_EQ(e.classes, bits) << probe;
      EXPECT_EQ(e.word, word) << probe;
    }
  }
  EXPECT_EQ(LookupWord("her").classes,
            kLexStopword | kLexDeterminer | kLexPronoun);
}

TEST(LexiconTest, EveryVerbFormMapsToItsOwnRow) {
  for (const VerbForms& v : Verbs()) {
    for (std::string_view form : {v.lemma, v.past, v.third, v.gerund}) {
      for (const std::string& probe :
           {std::string(form), Upper(form), Capitalized(form)}) {
        const LexEntry& e = LookupWord(probe);
        EXPECT_EQ(e.verb, &v) << probe;
        EXPECT_TRUE(e.Has(kLexVerbForm)) << probe;
      }
    }
  }
}

TEST(LexiconTest, Misses) {
  std::string_view longest;
  for (const PoolSpec& pool : ClosedClassPools()) {
    for (std::string_view w : pool.words) {
      if (w.size() > longest.size()) longest = w;
    }
  }
  for (const VerbForms& v : Verbs()) {
    for (std::string_view form : {v.lemma, v.past, v.third, v.gerund}) {
      if (form.size() > longest.size()) longest = form;
    }
  }
  // One byte over the longest entry: rejected before any hashing.
  const std::string one_over = std::string(longest) + "s";
  for (const std::string& probe : std::vector<std::string>{
           "", one_over, Upper(one_over), std::string(300, 'a'),
           "caf\xC3\xA9", "th\xC3\xA9", "the\x80",
           // "THE" with the high bit set on every byte: a fold that ignored
           // the high bit would turn it into "the".
           "\xD4\xC8\xC5", "\xC1\xCE\xC4", ",", ".", ";", "!", "?",
           "(", ")", "\"", "'", "/", "--", "::", "quickly", "Rembrandt"}) {
    const LexEntry& e = LookupWord(probe);
    EXPECT_EQ(e.classes, 0) << probe;
    EXPECT_EQ(e.verb, nullptr) << probe;
    EXPECT_TRUE(e.word.empty()) << probe;
  }
}

// ---- Gazetteer --------------------------------------------------------------

TEST(GazetteerTest, TypeLookupCaseInsensitive) {
  Gazetteer g;
  g.AddSurface("Brooklyn", kb::EntityType::kLocation);
  EXPECT_EQ(g.LookupType("brooklyn"), kb::EntityType::kLocation);
  EXPECT_EQ(g.LookupType("BROOKLYN"), kb::EntityType::kLocation);
  EXPECT_FALSE(g.LookupType("Queens").has_value());
  EXPECT_TRUE(g.Contains("Brooklyn"));
  EXPECT_FALSE(g.Contains("Queens"));
}

TEST(GazetteerTest, LowercaseMentionFlag) {
  Gazetteer g;
  g.AddSurface("machine learning", kb::EntityType::kTopic,
               /*lowercase_mention=*/true);
  g.AddSurface("Brooklyn", kb::EntityType::kLocation);
  EXPECT_TRUE(g.IsLowercaseMention("machine learning"));
  EXPECT_FALSE(g.IsLowercaseMention("Brooklyn"));
  EXPECT_EQ(g.LowercaseMentionTokens("Machine"), 2);
  EXPECT_EQ(g.LowercaseMentionTokens("learning"), 0);
  EXPECT_EQ(g.LowercaseMentionTokens("brooklyn"), 0);
}

// Probes fold on the fly: every answer for a mixed-case or high-bit
// surface equals the answer for its AsciiToLower form.
TEST(GazetteerTest, FoldedProbesAgreeWithLowercaseCopies) {
  Gazetteer g;
  g.AddSurface("Brooklyn", kb::EntityType::kLocation);
  g.AddSurface("machine learning", kb::EntityType::kTopic, true);
  g.AddSurface("Caf\xC3\xA9 Noir", kb::EntityType::kOrganization);
  g.AddSurface("\xC3\x89" "cole Polytechnique de Montreal",
               kb::EntityType::kOrganization, true);
  g.AddSurface("The Storm on the Sea of Galilee", kb::EntityType::kWork);
  int hits = 0;
  for (const std::string& probe : std::vector<std::string>{
           "Brooklyn", "BROOKLYN", "bRoOkLyN", "Brooklyn ", "Brookly",
           "MACHINE LEARNING", "Machine Learning", "machine\xC2\xA0learning",
           "CAF\xC3\xA9 NOIR", "caf\xC3\xA9 noir", "CAF\xC3\x89 NOIR",
           "\xC3\x89" "COLE POLYTECHNIQUE DE MONTREAL",
           "\xC3\xA9" "cole polytechnique de montreal",
           "THE STORM ON THE SEA OF GALILEE", "the storm on the sea of galile",
           "\xC2\xC2\xCF\xCF", "", "\x80\x81\xFF"}) {
    const std::string lower = AsciiToLower(probe);
    EXPECT_EQ(g.LookupType(probe), g.LookupType(lower)) << probe;
    EXPECT_EQ(g.Contains(probe), g.Contains(lower)) << probe;
    EXPECT_EQ(g.IsLowercaseMention(probe), g.IsLowercaseMention(lower))
        << probe;
    EXPECT_EQ(g.LowercaseMentionType(probe), g.LowercaseMentionType(lower))
        << probe;
    if (g.Contains(probe)) ++hits;
  }
  EXPECT_EQ(hits, 9);
}

TEST(GazetteerTest, FirstTypeWinsButLowercaseFlagAccumulates) {
  Gazetteer g;
  g.AddSurface("jordan", kb::EntityType::kPerson);
  g.AddSurface("jordan", kb::EntityType::kLocation, true);
  EXPECT_EQ(g.LookupType("jordan"), kb::EntityType::kPerson);
  EXPECT_TRUE(g.IsLowercaseMention("jordan"));
}

// The predicate verb pool and non-KB verb pool must be disjoint and both
// subsets of the lemmatizer table — the corpus generator relies on it.
TEST(WordlistsTest, VerbPoolsAreConsistent) {
  for (std::string_view lemma : PredicateVerbLemmas()) {
    EXPECT_NE(FindVerbByLemma(lemma), nullptr) << lemma;
  }
  for (std::string_view lemma : NonKbVerbLemmas()) {
    EXPECT_NE(FindVerbByLemma(lemma), nullptr) << lemma;
    for (std::string_view kb_lemma : PredicateVerbLemmas()) {
      EXPECT_NE(lemma, kb_lemma);
    }
  }
}

}  // namespace
}  // namespace text
}  // namespace tenet
