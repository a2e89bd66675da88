#include "core/pipeline.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "figure_one_world.h"

namespace tenet {
namespace core {
namespace {

using testing_support::BuildFigureOneWorld;
using testing_support::FigureOneWorld;

constexpr const char* kFigureOneText =
    "Michael Jordan studies artificial intelligence and machine learning. "
    "He was awarded as the Fellow of the AAAS. "
    "He visited Brooklyn in April 2019.";

const LinkedConcept* FindLink(const LinkingResult& result,
                              const std::string& surface) {
  for (const LinkedConcept& link : result.links) {
    if (link.surface == surface) return &link;
  }
  return nullptr;
}

TEST(PipelineTest, FigureOneHeadlineBehavior) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(world.view, &world.gazetteer);
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText);
  ASSERT_TRUE(result.ok()) << result.status();

  // The headline disambiguation: coherence overrides popularity, linking
  // Michael Jordan to the professor although the player has prior 0.7.
  const LinkedConcept* mj = FindLink(*result, "Michael Jordan");
  ASSERT_NE(mj, nullptr);
  EXPECT_TRUE(mj->concept_ref.is_entity());
  EXPECT_EQ(mj->concept_ref.id, world.professor);

  // Topics link to themselves.
  const LinkedConcept* ai = FindLink(*result, "artificial intelligence");
  ASSERT_NE(ai, nullptr);
  EXPECT_EQ(ai->concept_ref.id, world.ai);

  // Brooklyn links even though it is isolated from the academic cluster
  // (sparse coherence: no dense connection forced).
  const LinkedConcept* brooklyn = FindLink(*result, "Brooklyn");
  ASSERT_NE(brooklyn, nullptr);
  EXPECT_EQ(brooklyn->concept_ref.id, world.brooklyn);

  // "Fellow of the AAAS" is selected as one long mention (canopy machinery)
  // and linked; its short variants are not linked.
  const LinkedConcept* fellow = FindLink(*result, "Fellow of the AAAS");
  ASSERT_NE(fellow, nullptr);
  EXPECT_EQ(fellow->concept_ref.id, world.aaas_fellow);
  EXPECT_EQ(FindLink(*result, "Fellow"), nullptr);
  EXPECT_EQ(FindLink(*result, "AAAS"), nullptr);

  // Relation linking: "studies" -> field of study (coherence with the
  // academic cluster beats the tie), "visited" -> the visit predicate.
  const LinkedConcept* study = FindLink(*result, "study");
  ASSERT_NE(study, nullptr);
  EXPECT_TRUE(study->concept_ref.is_predicate());
  EXPECT_EQ(study->concept_ref.id, world.field_of_study);
  const LinkedConcept* visit = FindLink(*result, "visit");
  ASSERT_NE(visit, nullptr);
  EXPECT_EQ(visit->concept_ref.id, world.residence);

  // "April 2019" is a fresh phrase: reported isolated, not linked.
  bool april_isolated = false;
  for (int m : result->isolated_mentions) {
    if (result->mentions.mention(m).surface == "April 2019") {
      april_isolated = true;
    }
  }
  EXPECT_TRUE(april_isolated);
  EXPECT_EQ(FindLink(*result, "April 2019"), nullptr);
}

TEST(PipelineTest, TypeConstraintHolds) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(world.view, &world.gazetteer);
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText);
  ASSERT_TRUE(result.ok());
  for (const LinkedConcept& link : result->links) {
    if (link.kind == Mention::Kind::kNoun) {
      EXPECT_TRUE(link.concept_ref.is_entity());
    } else {
      EXPECT_TRUE(link.concept_ref.is_predicate());
    }
  }
}

TEST(PipelineTest, OneConceptPerMentionAndOneCanopyPerGroup) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(world.view, &world.gazetteer);
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText);
  ASSERT_TRUE(result.ok());

  std::set<int> linked_mentions;
  for (const LinkedConcept& link : result->links) {
    EXPECT_TRUE(linked_mentions.insert(link.mention_id).second)
        << "mention linked twice";
  }

  // For each group, the linked mentions must lie within a single canopy.
  const MentionSet& mentions = result->mentions;
  for (const MentionGroup& group : mentions.groups) {
    std::set<int> linked_members;
    for (int member : group.members) {
      if (linked_mentions.count(member)) linked_members.insert(member);
    }
    if (linked_members.empty()) continue;
    bool some_canopy_contains_all = false;
    for (const Canopy& canopy : group.canopies) {
      std::set<int> canopy_set(canopy.mentions.begin(),
                               canopy.mentions.end());
      bool all = std::all_of(
          linked_members.begin(), linked_members.end(),
          [&canopy_set](int m) { return canopy_set.count(m) > 0; });
      if (all) some_canopy_contains_all = true;
    }
    EXPECT_TRUE(some_canopy_contains_all);
  }
}

TEST(PipelineTest, DeterministicAcrossRuns) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(world.view, &world.gazetteer);
  Result<LinkingResult> a = tenet.LinkDocument(kFigureOneText);
  Result<LinkingResult> b = tenet.LinkDocument(kFigureOneText);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->links.size(), b->links.size());
  for (size_t i = 0; i < a->links.size(); ++i) {
    EXPECT_EQ(a->links[i].mention_id, b->links[i].mention_id);
    EXPECT_EQ(a->links[i].concept_ref, b->links[i].concept_ref);
  }
  EXPECT_EQ(a->isolated_mentions, b->isolated_mentions);
}

TEST(PipelineTest, EmptyDocument) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(world.view, &world.gazetteer);
  Result<LinkingResult> result = tenet.LinkDocument("");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->links.empty());
  EXPECT_TRUE(result->isolated_mentions.empty());
  EXPECT_EQ(result->mentions.num_mentions(), 0);
}

TEST(PipelineTest, DocumentWithOnlyUnknownPhrases) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(world.view, &world.gazetteer);
  Result<LinkingResult> result =
      tenet.LinkDocument("Zanthor Quibble admired Vexalia Prune.");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->links.empty());
  // Two fresh noun phrases plus the non-linkable relational phrase
  // "admire" are all reported as isolated.
  EXPECT_EQ(result->isolated_mentions.size(), 3u);
}

TEST(PipelineTest, MentionDetectionOutputsSelectedUnion) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(world.view, &world.gazetteer);
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText);
  ASSERT_TRUE(result.ok());
  std::set<int> expected;
  for (const LinkedConcept& link : result->links) {
    expected.insert(link.mention_id);
  }
  for (int m : result->isolated_mentions) expected.insert(m);
  std::set<int> actual(result->selected_mentions.begin(),
                       result->selected_mentions.end());
  EXPECT_EQ(actual, expected);
}

TEST(PipelineTest, CandidateCountOptionRespected) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetOptions options;
  options.graph.max_candidates_per_mention = 1;
  TenetPipeline tenet(world.view, &world.gazetteer,
                      options);
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText);
  ASSERT_TRUE(result.ok());
  // With k=1 only the popular player candidate exists, so coherence cannot
  // rescue the professor: Michael Jordan links to the player.
  const LinkedConcept* mj = FindLink(*result, "Michael Jordan");
  ASSERT_NE(mj, nullptr);
  EXPECT_EQ(mj->concept_ref.id, world.player);
}

TEST(PipelineTest, TimingsArePopulated) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(world.view, &world.gazetteer);
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->timings.extract_ms, 0.0);
  EXPECT_GE(result->timings.TotalMs(), result->timings.extract_ms);
  EXPECT_GT(result->used_bound, 0.0);
}

}  // namespace
}  // namespace core
}  // namespace tenet
