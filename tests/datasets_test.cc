#include "datasets/corpus_generator.h"

#include <unordered_set>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "datasets/world.h"
#include "text/extraction.h"

namespace tenet {
namespace datasets {
namespace {

class CorpusTest : public ::testing::Test {
 protected:
  static const SyntheticWorld& World() {
    static const SyntheticWorld* world = new SyntheticWorld(BuildWorld());
    return *world;
  }
};

TEST_F(CorpusTest, WorldIsDeterministic) {
  SyntheticWorld a = BuildWorld();
  SyntheticWorld b = BuildWorld();
  ASSERT_EQ(a.kb().num_entities(), b.kb().num_entities());
  EXPECT_EQ(a.kb().entity(5).label, b.kb().entity(5).label);
  EXPECT_DOUBLE_EQ(
      a.embeddings.Cosine(kb::ConceptRef::Entity(0), kb::ConceptRef::Entity(1)),
      b.embeddings.Cosine(kb::ConceptRef::Entity(0),
                          kb::ConceptRef::Entity(1)));
}

TEST_F(CorpusTest, GeneratesRequestedDocumentCount) {
  CorpusGenerator gen(&World().kb_world);
  Rng rng(1);
  Dataset news = gen.Generate(NewsSpec(), rng);
  EXPECT_EQ(news.name, "News");
  EXPECT_EQ(static_cast<int>(news.documents.size()), NewsSpec().num_docs);
  EXPECT_TRUE(news.has_relation_gold);

  Dataset kore = gen.Generate(Kore50Spec(), rng);
  EXPECT_EQ(static_cast<int>(kore.documents.size()), 50);
  EXPECT_FALSE(kore.has_relation_gold);
}

TEST_F(CorpusTest, AdvertisementDocumentsMarked) {
  CorpusGenerator gen(&World().kb_world);
  Rng rng(2);
  Dataset news = gen.Generate(NewsSpec(), rng);
  int ads = 0;
  for (const Document& d : news.documents) ads += d.advertisement ? 1 : 0;
  EXPECT_EQ(ads, 6);  // 6 of 16, Sec. 6.1
}

TEST_F(CorpusTest, StatisticsTrackTheSpec) {
  CorpusGenerator gen(&World().kb_world);
  Rng rng(3);
  Dataset news = gen.Generate(NewsSpec(), rng);
  double mentions = 0.0;
  double words = 0.0;
  int nonlinkable = 0;
  int total = 0;
  for (const Document& d : news.documents) {
    mentions += static_cast<double>(d.gold_entities.size());
    words += d.num_words;
    nonlinkable += d.NumNonLinkableEntities();
    total += static_cast<int>(d.gold_entities.size());
  }
  mentions /= news.documents.size();
  words /= news.documents.size();
  // Loose envelopes: the generator targets the published statistics.
  EXPECT_GT(mentions, 5.0);
  EXPECT_LT(mentions, 13.0);
  EXPECT_GT(words, 120.0);
  EXPECT_LT(words, 260.0);
  double nl_rate = static_cast<double>(nonlinkable) / total;
  EXPECT_GT(nl_rate, 0.10);
  EXPECT_LT(nl_rate, 0.45);
}

TEST_F(CorpusTest, KoreDocumentsAreShort) {
  CorpusGenerator gen(&World().kb_world);
  Rng rng(4);
  Dataset kore = gen.Generate(Kore50Spec(), rng);
  double words = 0.0;
  for (const Document& d : kore.documents) words += d.num_words;
  words /= kore.documents.size();
  EXPECT_LT(words, 30.0);
}

TEST_F(CorpusTest, GoldEntitiesResolveInKb) {
  CorpusGenerator gen(&World().kb_world);
  Rng rng(5);
  Dataset trex = gen.Generate(TRex42Spec(), rng);
  for (const Document& d : trex.documents) {
    for (const GoldEntityLink& g : d.gold_entities) {
      if (!g.linkable()) continue;
      // The annotated surface must resolve to the gold entity among its KB
      // candidates (the annotation is consistent with the KB).
      std::vector<kb::EntityCandidate> candidates =
          World().view->CandidateEntities(g.surface, std::nullopt, 50);
      bool found = false;
      for (const kb::EntityCandidate& c : candidates) {
        if (c.entity == g.entity) found = true;
      }
      EXPECT_TRUE(found) << "surface '" << g.surface << "' gold " << g.entity;
    }
  }
}

TEST_F(CorpusTest, NonLinkableSurfacesAreAbsentFromKb) {
  CorpusGenerator gen(&World().kb_world);
  Rng rng(6);
  Dataset news = gen.Generate(NewsSpec(), rng);
  for (const Document& d : news.documents) {
    for (const GoldEntityLink& g : d.gold_entities) {
      if (g.linkable()) continue;
      EXPECT_TRUE(
          World().view->CandidateEntities(g.surface, std::nullopt, 5).empty())
          << "non-linkable surface '" << g.surface << "' found in KB";
    }
  }
}

TEST_F(CorpusTest, GoldSurfacesUniquePerDocument) {
  CorpusGenerator gen(&World().kb_world);
  Rng rng(7);
  Dataset msnbc = gen.Generate(Msnbc19Spec(), rng);
  for (const Document& d : msnbc.documents) {
    std::unordered_set<std::string> seen;
    for (const GoldEntityLink& g : d.gold_entities) {
      EXPECT_TRUE(seen.insert(AsciiToLower(g.surface)).second)
          << "duplicate gold surface " << g.surface;
    }
  }
}

TEST_F(CorpusTest, GoldPredicatesResolveInKb) {
  CorpusGenerator gen(&World().kb_world);
  Rng rng(8);
  Dataset news = gen.Generate(NewsSpec(), rng);
  int linkable = 0;
  int nonlinkable = 0;
  for (const Document& d : news.documents) {
    for (const GoldPredicateLink& g : d.gold_predicates) {
      if (g.linkable()) {
        ++linkable;
        std::vector<kb::PredicateCandidate> candidates =
            World().view->CandidatePredicates(g.lemma, 50);
        bool found = false;
        for (const kb::PredicateCandidate& c : candidates) {
          if (c.predicate == g.predicate) found = true;
        }
        EXPECT_TRUE(found);
      } else {
        ++nonlinkable;
        EXPECT_TRUE(World().view->CandidatePredicates(g.lemma, 5).empty());
      }
    }
  }
  EXPECT_GT(linkable, 0);
  // News has ~63% non-linkable relational phrases (Table 2).
  EXPECT_GT(nonlinkable, linkable / 2);
}

TEST_F(CorpusTest, DocumentTextMentionsEveryGoldSurface) {
  CorpusGenerator gen(&World().kb_world);
  Rng rng(9);
  Dataset kore = gen.Generate(Kore50Spec(), rng);
  for (const Document& d : kore.documents) {
    std::string lower_text = AsciiToLower(d.text);
    for (const GoldEntityLink& g : d.gold_entities) {
      EXPECT_NE(lower_text.find(AsciiToLower(g.surface)), std::string::npos)
          << "gold surface '" << g.surface << "' missing from text";
    }
  }
}

TEST_F(CorpusTest, ExtractionRecoversMostGoldMentions) {
  // End-to-end substrate sanity: the extractor (which never sees the gold)
  // finds the bulk of the annotated mentions as short mentions or via
  // feature-linked runs.
  CorpusGenerator gen(&World().kb_world);
  Rng rng(10);
  Dataset trex = gen.Generate(TRex42Spec(), rng);
  text::Extractor extractor(&World().gazetteer());
  int covered = 0;
  int total = 0;
  for (const Document& d : trex.documents) {
    text::ExtractionResult r = extractor.ExtractFromText(d.text);
    std::unordered_set<std::string> pieces;
    for (const text::ShortMention& m : r.mentions) {
      pieces.insert(AsciiToLower(m.surface));
    }
    for (const GoldEntityLink& g : d.gold_entities) {
      ++total;
      std::string surface = AsciiToLower(g.surface);
      if (pieces.count(surface) > 0) {
        ++covered;
        continue;
      }
      // Long-text golds are covered when all their feature-free fragments
      // were extracted (the canopy machinery rejoins them); approximate by
      // first-token membership.
      bool fragment = false;
      for (const std::string& p : pieces) {
        if (surface.find(p) != std::string::npos) {
          fragment = true;
          break;
        }
      }
      if (fragment) ++covered;
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(static_cast<double>(covered) / total, 0.9);
}

}  // namespace
}  // namespace datasets
}  // namespace tenet
