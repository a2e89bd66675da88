// Property tests of the full pipeline over randomly generated documents:
// the structural postconditions of Problem 3 / Algorithm 5 and the
// Lemma 4.2 bound must hold on every input, not just the curated ones.
#include <set>

#include <gtest/gtest.h>

#include "baselines/tenet_linker.h"
#include "datasets/corpus_generator.h"
#include "datasets/world.h"

namespace tenet {
namespace core {
namespace {

const datasets::SyntheticWorld& World() {
  static const datasets::SyntheticWorld* world =
      new datasets::SyntheticWorld(datasets::BuildWorld());
  return *world;
}

class PipelinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelinePropertyTest, StructuralInvariantsOnRandomDocuments) {
  datasets::CorpusGenerator gen(&World().kb_world);
  Rng rng(GetParam());
  datasets::DatasetSpec spec = datasets::NewsSpec();
  datasets::Document doc =
      gen.GenerateDocument(spec, "prop", GetParam() % 2 == 0, rng);

  baselines::BaselineSubstrate substrate{World().view, &World().gazetteer(),
                                         {}};
  baselines::TenetLinker tenet(substrate);
  Result<LinkingResult> result = tenet.LinkDocument(doc.text);
  ASSERT_TRUE(result.ok()) << result.status();

  const MentionSet& mentions = result->mentions;

  // (1) At most one concept per mention; type constraint holds.
  std::set<int> linked;
  for (const LinkedConcept& link : result->links) {
    EXPECT_TRUE(linked.insert(link.mention_id).second);
    const Mention& mention = mentions.mention(link.mention_id);
    EXPECT_EQ(mention.is_noun(), link.concept_ref.is_entity());
    EXPECT_EQ(mention.surface, link.surface);
    EXPECT_GE(link.prior, 0.0);
    EXPECT_LE(link.prior, 1.0 + 1e-12);
  }

  // (2) Isolated and linked are disjoint; both are "selected".
  std::set<int> isolated(result->isolated_mentions.begin(),
                         result->isolated_mentions.end());
  for (int m : isolated) {
    EXPECT_EQ(linked.count(m), 0u);
  }
  std::set<int> selected(result->selected_mentions.begin(),
                         result->selected_mentions.end());
  for (int m : linked) EXPECT_EQ(selected.count(m), 1u);
  for (int m : isolated) EXPECT_EQ(selected.count(m), 1u);
  EXPECT_EQ(selected.size(), linked.size() + isolated.size());

  // (3) Isolated mentions have no KB candidates of the right kind.
  for (int m : isolated) {
    const Mention& mention = mentions.mention(m);
    if (mention.is_noun()) {
      EXPECT_TRUE(
          World().view->CandidateEntities(mention.surface, mention.type, 4)
              .empty())
          << mention.surface;
    } else {
      EXPECT_TRUE(
          World().view->CandidatePredicates(mention.surface, 4).empty())
          << mention.surface;
    }
  }

  // (4) Per group, all linked members lie within one canopy.
  for (const MentionGroup& group : mentions.groups) {
    std::set<int> linked_members;
    for (int member : group.members) {
      if (linked.count(member)) linked_members.insert(member);
    }
    if (linked_members.empty()) continue;
    bool contained = false;
    for (const Canopy& canopy : group.canopies) {
      std::set<int> canopy_set(canopy.mentions.begin(),
                               canopy.mentions.end());
      bool all = true;
      for (int m : linked_members) {
        if (canopy_set.count(m) == 0) all = false;
      }
      if (all) contained = true;
    }
    EXPECT_TRUE(contained);
  }

  // (5) The used bound produced a cover within the Lemma 4.2 guarantee:
  // re-solve at that bound and check the cost directly.
  text::Extractor extractor(&World().gazetteer());
  MentionSet fresh = BuildMentionSet(extractor.ExtractFromText(doc.text),
                                     &World().gazetteer());
  CoherenceGraphBuilder builder(World().view);
  CoherenceGraph cg = builder.Build(std::move(fresh));
  Result<TreeCover> cover =
      TreeCoverSolver().Solve(cg, result->used_bound);
  ASSERT_TRUE(cover.ok());
  EXPECT_LE(cover->Cost(), 4.0 * result->used_bound + 1e-9);

  // (6) Determinism.
  Result<LinkingResult> again = tenet.LinkDocument(doc.text);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->links.size(), result->links.size());
  for (size_t i = 0; i < again->links.size(); ++i) {
    EXPECT_EQ(again->links[i].mention_id, result->links[i].mention_id);
    EXPECT_EQ(again->links[i].concept_ref, result->links[i].concept_ref);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Range<uint64_t>(100, 124));

}  // namespace
}  // namespace core
}  // namespace tenet
