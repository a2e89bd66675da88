#include "text/extraction.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace tenet {
namespace text {
namespace {

Gazetteer BuildGazetteer() {
  Gazetteer g;
  g.AddSurface("Michael Jordan", kb::EntityType::kPerson);
  g.AddSurface("Brooklyn", kb::EntityType::kLocation);
  g.AddSurface("AAAS", kb::EntityType::kOrganization);
  g.AddSurface("Fellow", kb::EntityType::kOther);
  g.AddSurface("Fellow of the AAAS", kb::EntityType::kOther);
  g.AddSurface("artificial intelligence", kb::EntityType::kTopic, true);
  g.AddSurface("machine learning", kb::EntityType::kTopic, true);
  g.AddSurface("Rembrandt", kb::EntityType::kPerson);
  g.AddSurface("The Storm", kb::EntityType::kWork);
  g.AddSurface("Sea", kb::EntityType::kLocation);
  g.AddSurface("Galilee", kb::EntityType::kLocation);
  return g;
}

std::vector<std::string> Surfaces(const ExtractionResult& r) {
  std::vector<std::string> out;
  for (const ShortMention& m : r.mentions) out.push_back(m.surface);
  return out;
}

bool SameExtraction(const ExtractionResult& a, const ExtractionResult& b) {
  if (a.mentions.size() != b.mentions.size() ||
      a.link_after.size() != b.link_after.size() ||
      a.relations.size() != b.relations.size()) {
    return false;
  }
  for (size_t i = 0; i < a.mentions.size(); ++i) {
    const ShortMention& x = a.mentions[i];
    const ShortMention& y = b.mentions[i];
    if (x.surface != y.surface || x.type != y.type ||
        x.sentence != y.sentence || x.token_begin != y.token_begin ||
        x.token_end != y.token_end) {
      return false;
    }
    if (a.link_after[i].has_value() != b.link_after[i].has_value()) {
      return false;
    }
    if (a.link_after[i].has_value() &&
        (a.link_after[i]->kind != b.link_after[i]->kind ||
         a.link_after[i]->joining_text != b.link_after[i]->joining_text)) {
      return false;
    }
  }
  for (size_t i = 0; i < a.relations.size(); ++i) {
    const ExtractedRelation& x = a.relations[i];
    const ExtractedRelation& y = b.relations[i];
    if (x.lemma != y.lemma || x.raw != y.raw || x.sentence != y.sentence ||
        x.token_begin != y.token_begin || x.token_end != y.token_end) {
      return false;
    }
  }
  return true;
}

// First in this file so the threads are the lexicon's first users: serving
// workers race to its lazily built static, and every one must see it whole.
TEST(ExtractionTest, ConcurrentFirstUseMatchesSerial) {
  Gazetteer g = BuildGazetteer();
  Extractor extractor(&g);
  const std::string text =
      "The Storm on the Sea of Galilee was painted by Rembrandt. "
      "He WORKED AT Brooklyn with Michael Jordan and the AAAS: Fellow.";
  constexpr int kThreads = 4;
  std::vector<ExtractionResult> results(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      results[t] = extractor.ExtractFromText(text);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  const ExtractionResult serial = extractor.ExtractFromText(text);
  EXPECT_FALSE(serial.relations.empty());
  for (const ExtractionResult& r : results) {
    EXPECT_TRUE(SameExtraction(r, serial));
  }
}

TEST(ExtractionTest, PaperFigureOneDocument) {
  Gazetteer g = BuildGazetteer();
  Extractor extractor(&g);
  ExtractionResult r = extractor.ExtractFromText(
      "Michael Jordan studies artificial intelligence and machine learning. "
      "He was awarded as the Fellow of the AAAS. "
      "He visited Brooklyn in April 2019.");

  std::vector<std::string> surfaces = Surfaces(r);
  // Short mentions: Michael Jordan, the two topics, Fellow, AAAS, Brooklyn,
  // April (fresh capitalized token).
  EXPECT_NE(std::find(surfaces.begin(), surfaces.end(), "Michael Jordan"),
            surfaces.end());
  EXPECT_NE(std::find(surfaces.begin(), surfaces.end(),
                      "artificial intelligence"),
            surfaces.end());
  EXPECT_NE(std::find(surfaces.begin(), surfaces.end(), "machine learning"),
            surfaces.end());
  EXPECT_NE(std::find(surfaces.begin(), surfaces.end(), "Fellow"),
            surfaces.end());
  EXPECT_NE(std::find(surfaces.begin(), surfaces.end(), "AAAS"),
            surfaces.end());
  EXPECT_NE(std::find(surfaces.begin(), surfaces.end(), "Brooklyn"),
            surfaces.end());
  // Pronouns are not mentions.
  EXPECT_EQ(std::find(surfaces.begin(), surfaces.end(), "He"),
            surfaces.end());

  // Relational phrases: "studies" and "visited" (lemmatized).
  ASSERT_GE(r.relations.size(), 2u);
  bool found_study = false;
  bool found_visit = false;
  for (const ExtractedRelation& rel : r.relations) {
    if (rel.lemma == "study") found_study = true;
    if (rel.lemma == "visit") found_visit = true;
  }
  EXPECT_TRUE(found_study);
  EXPECT_TRUE(found_visit);
}

TEST(ExtractionTest, FeatureLinksJoinFellowOfTheAaas) {
  Gazetteer g = BuildGazetteer();
  Extractor extractor(&g);
  ExtractionResult r = extractor.ExtractFromText(
      "He was awarded as the Fellow of the AAAS.");
  // Expect mentions Fellow and AAAS with a preposition link between them.
  ASSERT_EQ(r.mentions.size(), 2u);
  EXPECT_EQ(r.mentions[0].surface, "Fellow");
  EXPECT_EQ(r.mentions[1].surface, "AAAS");
  ASSERT_TRUE(r.link_after[0].has_value());
  EXPECT_EQ(r.link_after[0]->kind, ConnectorKind::kPreposition);
  EXPECT_EQ(r.link_after[0]->joining_text, "of the");
}

TEST(ExtractionTest, RembrandtStormExample) {
  Gazetteer g = BuildGazetteer();
  Extractor extractor(&g);
  ExtractionResult r = extractor.ExtractFromText(
      "Rembrandt painted The Storm on the Sea of Galilee.");
  std::vector<std::string> surfaces = Surfaces(r);
  ASSERT_EQ(surfaces.size(), 4u);
  EXPECT_EQ(surfaces[0], "Rembrandt");
  EXPECT_EQ(surfaces[1], "The Storm");
  EXPECT_EQ(surfaces[2], "Sea");
  EXPECT_EQ(surfaces[3], "Galilee");
  // Rembrandt -> The Storm gap is the verb "painted": no link.
  EXPECT_FALSE(r.link_after[0].has_value());
  // The Storm -(on the)- Sea -(of)- Galilee.
  ASSERT_TRUE(r.link_after[1].has_value());
  EXPECT_EQ(r.link_after[1]->joining_text, "on the");
  ASSERT_TRUE(r.link_after[2].has_value());
  EXPECT_EQ(r.link_after[2]->joining_text, "of");
  // "painted" links two noun phrases -> relational phrase "paint".
  ASSERT_EQ(r.relations.size(), 1u);
  EXPECT_EQ(r.relations[0].lemma, "paint");
  EXPECT_EQ(r.relations[0].raw, "painted");
}

TEST(ExtractionTest, FreshCapitalizedPhraseHasNoType) {
  Gazetteer g = BuildGazetteer();
  Extractor extractor(&g);
  ExtractionResult r =
      extractor.ExtractFromText("Brooklyn admired Zanthor Quibble.");
  ASSERT_EQ(r.mentions.size(), 2u);
  EXPECT_EQ(r.mentions[1].surface, "Zanthor Quibble");
  EXPECT_FALSE(r.mentions[1].type.has_value());
  EXPECT_TRUE(r.mentions[0].type.has_value());
}

TEST(ExtractionTest, VerbWithParticle) {
  Gazetteer g = BuildGazetteer();
  g.AddSurface("Meridian Institute", kb::EntityType::kOrganization);
  Extractor extractor(&g);
  ExtractionResult r = extractor.ExtractFromText(
      "Michael Jordan worked at Meridian Institute.");
  ASSERT_EQ(r.relations.size(), 1u);
  EXPECT_EQ(r.relations[0].raw, "worked at");
  EXPECT_EQ(r.relations[0].lemma, "work at");
}

TEST(ExtractionTest, RelationRequiresBothAnchors) {
  Gazetteer g = BuildGazetteer();
  Extractor extractor(&g);
  // Verb with no right-hand noun phrase: dropped.
  ExtractionResult r1 = extractor.ExtractFromText("Michael Jordan studies.");
  EXPECT_TRUE(r1.relations.empty());
  // Verb with no left-hand anchor (unbound pronoun subject): dropped.
  ExtractionResult r2 =
      extractor.ExtractFromText("They kept visiting Brooklyn.");
  EXPECT_TRUE(r2.relations.empty());
}

TEST(ExtractionTest, PronounResolvesAsLeftAnchor) {
  Gazetteer g = BuildGazetteer();
  Extractor extractor(&g);
  ExtractionResult r = extractor.ExtractFromText(
      "Michael Jordan lives here. He visited Brooklyn.");
  bool found_visit = false;
  for (const ExtractedRelation& rel : r.relations) {
    if (rel.lemma == "visit") found_visit = true;
  }
  EXPECT_TRUE(found_visit);
}

TEST(ExtractionTest, SentenceBoundaryBreaksLinks) {
  Gazetteer g = BuildGazetteer();
  Extractor extractor(&g);
  ExtractionResult r =
      extractor.ExtractFromText("He saw Brooklyn. And Galilee stayed.");
  // "Brooklyn" and "Galilee" are in different sentences: no link, even
  // though the gap tokens contain a conjunction.
  ASSERT_GE(r.mentions.size(), 2u);
  for (size_t i = 0; i + 1 < r.mentions.size(); ++i) {
    if (r.mentions[i].surface == "Brooklyn") {
      EXPECT_FALSE(r.link_after[i].has_value());
    }
  }
}

TEST(ExtractionTest, MentionsCarrySentenceIds) {
  Gazetteer g = BuildGazetteer();
  Extractor extractor(&g);
  ExtractionResult r = extractor.ExtractFromText(
      "Rembrandt painted Galilee. Brooklyn admired Rembrandt.");
  for (const ShortMention& m : r.mentions) {
    if (m.surface == "Brooklyn") EXPECT_EQ(m.sentence, 1);
    if (m.surface == "Galilee") EXPECT_EQ(m.sentence, 0);
  }
}

TEST(ExtractionTest, EmptyDocument) {
  Gazetteer g = BuildGazetteer();
  Extractor extractor(&g);
  ExtractionResult r = extractor.ExtractFromText("");
  EXPECT_TRUE(r.mentions.empty());
  EXPECT_TRUE(r.relations.empty());
  EXPECT_TRUE(r.link_after.empty());
}

}  // namespace
}  // namespace text
}  // namespace tenet
