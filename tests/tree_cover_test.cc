#include "core/tree_cover.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/canopy.h"
#include "core/pipeline.h"
#include "embedding/embedding_store.h"
#include "figure_one_world.h"
#include "kb/knowledge_base.h"
#include "kb/sharded_kb.h"
#include "text/extraction.h"

namespace tenet {
namespace core {
namespace {

constexpr const char* kFigureOneText =
    "Michael Jordan studies artificial intelligence and machine learning. "
    "He was awarded as the Fellow of the AAAS. "
    "He visited Brooklyn in April 2019.";

CoherenceGraph BuildFigureOneGraph(
    const testing_support::FigureOneWorld& world) {
  text::Extractor extractor(&world.gazetteer);
  MentionSet mentions =
      BuildMentionSet(extractor.ExtractFromText(kFigureOneText),
                      &world.gazetteer);
  CoherenceGraphBuilder builder(world.view);
  return builder.Build(std::move(mentions));
}

TEST(CoherenceGraphTest, FigureOneStructure) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);

  ASSERT_GT(cg.num_mentions(), 0);
  ASSERT_GT(cg.num_concept_nodes(), 0);

  // "Michael Jordan" has two candidates, ordered player-first by prior.
  int mj = -1;
  for (int m = 0; m < cg.num_mentions(); ++m) {
    if (cg.mentions().mention(m).surface == "Michael Jordan") mj = m;
  }
  ASSERT_GE(mj, 0);
  const std::vector<int>& candidates = cg.ConceptNodesOfMention(mj);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(cg.concept_node(candidates[0]).ref.id, world.player);
  EXPECT_NEAR(cg.concept_node(candidates[0]).prior, 0.7, 1e-9);
  // Mention-candidate edge weight = 1 - prior (Eq. 1).
  EXPECT_NEAR(cg.graph().EdgeWeight(mj, candidates[0], -1.0), 0.3, 1e-9);
  EXPECT_NEAR(cg.graph().EdgeWeight(mj, candidates[1], -1.0), 0.7, 1e-9);

  // No edge between two candidates of the same mention.
  EXPECT_FALSE(cg.graph().HasEdge(candidates[0], candidates[1]));

  // Every concept node belongs to its mention.
  for (int m = 0; m < cg.num_mentions(); ++m) {
    for (int node : cg.ConceptNodesOfMention(m)) {
      EXPECT_EQ(cg.MentionOfNode(node), m);
      EXPECT_FALSE(cg.IsMentionNode(node));
    }
  }
}

TEST(CoherenceGraphTest, SentenceRulesForPredicateEdges) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);

  // Locate the relational mentions "study" (sentence 0) and "visit"
  // (sentence 2).
  int study = -1;
  int visit = -1;
  for (int m = 0; m < cg.num_mentions(); ++m) {
    const Mention& mention = cg.mentions().mention(m);
    if (!mention.is_relational()) continue;
    if (mention.surface == "study") study = m;
    if (mention.surface == "visit") visit = m;
  }
  ASSERT_GE(study, 0);
  ASSERT_GE(visit, 0);

  // Predicates of different sentences are never connected (Eq. 4).
  for (int u : cg.ConceptNodesOfMention(study)) {
    for (int v : cg.ConceptNodesOfMention(visit)) {
      EXPECT_FALSE(cg.graph().HasEdge(u, v));
    }
  }

  // Entity-predicate edges require a shared sentence (Eq. 5): candidates of
  // "Brooklyn" (sentence 2) connect to "visit" but not to "study".
  int brooklyn = -1;
  for (int m = 0; m < cg.num_mentions(); ++m) {
    if (cg.mentions().mention(m).surface == "Brooklyn") brooklyn = m;
  }
  ASSERT_GE(brooklyn, 0);
  for (int u : cg.ConceptNodesOfMention(brooklyn)) {
    for (int v : cg.ConceptNodesOfMention(visit)) {
      EXPECT_TRUE(cg.graph().HasEdge(u, v));
    }
    for (int v : cg.ConceptNodesOfMention(study)) {
      EXPECT_FALSE(cg.graph().HasEdge(u, v));
    }
  }
}

TEST(TreeCoverTest, SolveSucceedsAtPaperBound) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);
  TreeCoverSolver solver;
  double bound = cg.num_mentions();  // B = |M|
  TreeCoverStats stats;
  Result<TreeCover> cover = solver.Solve(cg, bound, &stats);
  ASSERT_TRUE(cover.ok()) << cover.status();

  // One tree per mention, rooted correctly (Definition 6).
  ASSERT_EQ(static_cast<int>(cover->trees.size()), cg.num_mentions());
  for (int m = 0; m < cg.num_mentions(); ++m) {
    EXPECT_EQ(cover->trees[m].root, m);
    EXPECT_FALSE(cover->trees[m].nodes.empty());
    EXPECT_EQ(cover->trees[m].nodes.front(), m);
  }

  // Cover cost bounded by 4B (Lemma 4.2).
  EXPECT_LE(cover->Cost(), 4.0 * bound + 1e-9);

  // Every graph node appears in at least one tree (Definition 6).
  std::set<int> covered;
  for (const CoverTree& t : cover->trees) {
    covered.insert(t.nodes.begin(), t.nodes.end());
  }
  EXPECT_EQ(static_cast<int>(covered.size()), cg.num_nodes());
}

TEST(TreeCoverTest, TinyBoundYieldsFailureWarning) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);
  TreeCoverSolver solver;
  Result<TreeCover> cover = solver.Solve(cg, 1e-6);
  ASSERT_FALSE(cover.ok());
  EXPECT_TRUE(cover.status().IsBoundTooSmall());
}

TEST(TreeCoverTest, PruningBoundIsInclusive) {
  // Step (a) drops only edges strictly heavier than B: at B equal to the
  // heaviest edge weight nothing is pruned; just below it, every edge of
  // that weight is.
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);
  double heaviest = 0.0;
  for (const graph::Edge& e : cg.graph().edges()) {
    heaviest = std::max(heaviest, e.weight);
  }
  ASSERT_GT(heaviest, 0.0);
  const int at_heaviest = static_cast<int>(std::count_if(
      cg.graph().edges().begin(), cg.graph().edges().end(),
      [heaviest](const graph::Edge& e) { return e.weight == heaviest; }));
  TreeCoverSolver solver;
  TreeCoverStats stats;
  (void)solver.Solve(cg, heaviest, &stats);
  EXPECT_EQ(stats.pruned_edges, 0);
  TreeCoverStats below;
  (void)solver.Solve(cg, std::nextafter(heaviest, 0.0), &below);
  EXPECT_EQ(below.pruned_edges, at_heaviest);
}

TEST(TreeCoverTest, InvalidBoundRejected) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);
  TreeCoverSolver solver;
  EXPECT_TRUE(solver.Solve(cg, 0.0).status().IsInvalidArgument());
  EXPECT_TRUE(solver.Solve(cg, -1.0).status().IsInvalidArgument());
}

TEST(TreeCoverTest, IsolatedMentionsBecomeSingletons) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  text::Extractor extractor(&world.gazetteer);
  // "April 2019" is a fresh phrase with no KB candidates (the extractor
  // absorbs the trailing number into the capitalized run).
  MentionSet mentions = BuildMentionSet(
      extractor.ExtractFromText("He visited Brooklyn in April 2019."),
      &world.gazetteer);
  CoherenceGraphBuilder builder(world.view);
  CoherenceGraph cg = builder.Build(std::move(mentions));

  int april = -1;
  for (int m = 0; m < cg.num_mentions(); ++m) {
    if (cg.mentions().mention(m).surface == "April 2019") april = m;
  }
  ASSERT_GE(april, 0);
  EXPECT_TRUE(cg.ConceptNodesOfMention(april).empty());

  TreeCoverSolver solver;
  Result<TreeCover> cover = solver.Solve(cg, cg.num_mentions());
  ASSERT_TRUE(cover.ok()) << cover.status();
  EXPECT_TRUE(cover->trees[april].edges.empty());
  EXPECT_EQ(cover->trees[april].nodes, std::vector<int>{april});
}

// Step (f) hands a carved subtree to a mention whose own tree was light and
// never split.  Two mentions, entity distances 1 - cos on a unit circle:
//   m0 "Alpha": P (prior .7, edge .3), Q1..Q3 (prior .1, edge .9 > B);
//   m1 "Beta":  A (prior 1, edge 0);   d(A, P) = .35, d(A, Qi) = .4.
// At B = .7 the MST hangs P off m0 (.3 < .35) and Q1..Q3 off A, so m0's
// tree is {m0-P} (.3) and m1's is {m1-A, A-Q1, A-Q2, A-Q3} (1.2).  Splitting
// m1's tree carves {A-Q1, A-Q2} (.8) and leaves {m1-A, A-Q3} (.4).  Both
// mentions reach A within B (m0 via P at .65); the matching takes the
// lower mention, m0, which gains the subtree plus the path edge P-A.
TEST(TreeCoverTest, LightMentionGrowsByAMatchedSubtree) {
  kb::KnowledgeBase kb;
  const kb::EntityId p = kb.AddEntity("Pe", kb::EntityType::kOther, 0, 7.0);
  std::vector<kb::EntityId> qs;
  for (const char* label : {"Qu One", "Qu Two", "Qu Three"}) {
    qs.push_back(kb.AddEntity(label, kb::EntityType::kOther, 0, 1.0));
  }
  const kb::EntityId a = kb.AddEntity("Beta", kb::EntityType::kOther, 0, 1.0);
  kb.AddEntityAlias(p, "Alpha", 7.0);
  for (kb::EntityId q : qs) kb.AddEntityAlias(q, "Alpha", 1.0);
  kb.Finalize();
  embedding::EmbeddingStore embeddings(2, kb.num_entities(), 0);
  auto place = [&embeddings](kb::EntityId id, double cos) {
    std::span<float> row = embeddings.MutableVector(kb::ConceptRef::Entity(id));
    row[0] = static_cast<float>(cos);
    row[1] = static_cast<float>(std::sqrt(1.0 - cos * cos));
  };
  place(a, 1.0);
  place(p, 0.65);
  for (kb::EntityId q : qs) place(q, 0.6);
  embeddings.Finalize();

  MentionSet set;
  for (const char* surface : {"Alpha", "Beta"}) {
    Mention mention;
    mention.kind = Mention::Kind::kNoun;
    mention.surface = surface;
    mention.sentences = {0};
    mention.group = set.num_groups();
    const int id = set.num_mentions();
    set.mentions.push_back(std::move(mention));
    MentionGroup group;
    group.members = {id};
    group.short_mentions = {id};
    group.canopies = {Canopy{{id}}};
    set.groups.push_back(std::move(group));
  }
  CoherenceGraphBuilder builder(std::make_shared<const kb::ShardedKb>(
      kb::ShardedKb::Partition(kb, embeddings, 1)));
  CoherenceGraph cg = builder.Build(std::move(set));
  ASSERT_EQ(cg.num_concept_nodes(), 5);
  auto node_of = [&cg](kb::EntityId id) {
    for (int node = cg.num_mentions(); node < cg.num_nodes(); ++node) {
      if (cg.concept_node(node).ref.id == id) return node;
    }
    return -1;
  };
  const int np = node_of(p);
  const int na = node_of(a);
  const int nq1 = node_of(qs[0]);
  const int nq2 = node_of(qs[1]);
  const int nq3 = node_of(qs[2]);
  // Equal weights tie-break by edge index, i.e. by candidate node order.
  ASSERT_TRUE(nq1 < nq2 && nq2 < nq3);
  const double w_mp = cg.graph().EdgeWeight(0, np, -1.0);
  const double w_pa = cg.graph().EdgeWeight(np, na, -1.0);
  const double w_aq = cg.graph().EdgeWeight(na, nq1, -1.0);
  EXPECT_NEAR(w_mp, 0.3, 1e-6);
  EXPECT_NEAR(w_pa, 0.35, 1e-6);
  EXPECT_NEAR(w_aq, 0.4, 1e-6);
  EXPECT_EQ(cg.graph().EdgeWeight(na, nq3, -1.0), w_aq);

  TreeCoverSolver solver;
  TreeCoverStats stats;
  Result<TreeCover> cover = solver.Solve(cg, 0.7, &stats);
  ASSERT_TRUE(cover.ok()) << cover.status();
  EXPECT_EQ(stats.mst_edges, 5);
  EXPECT_EQ(stats.subtrees, 1);
  EXPECT_EQ(stats.matched_subtrees, 1);

  auto pairs = [](const CoverTree& t) {
    std::vector<std::pair<int, int>> out;
    for (const graph::Edge& e : t.edges) out.emplace_back(e.u, e.v);
    return out;
  };
  // m0: its own tree first, then the subtree, then the path edge P-A.
  const CoverTree& grown = cover->trees[0];
  EXPECT_EQ(grown.root, 0);
  EXPECT_EQ(grown.nodes, (std::vector<int>{0, np, na, nq1, nq2}));
  EXPECT_EQ(pairs(grown), (std::vector<std::pair<int, int>>{
                              {0, np}, {na, nq1}, {na, nq2}, {np, na}}));
  EXPECT_EQ(grown.weight, ((w_mp + w_aq) + w_aq) + w_pa);
  // m1: the leftover of its split.
  const CoverTree& leftover = cover->trees[1];
  EXPECT_EQ(leftover.nodes, (std::vector<int>{1, na, nq3}));
  EXPECT_EQ(pairs(leftover),
            (std::vector<std::pair<int, int>>{{1, na}, {na, nq3}}));
  EXPECT_EQ(leftover.weight, cg.graph().EdgeWeight(1, na, -1.0) + w_aq);
}

TEST(TreeCoverTest, MinimalBoundSearch) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);
  TreeCoverSolver solver;
  Result<std::pair<double, TreeCover>> minimal =
      SolveWithMinimalBound(solver, cg, /*initial_bound=*/1.0);
  ASSERT_TRUE(minimal.ok()) << minimal.status();
  double b_star = minimal->first;
  EXPECT_GT(b_star, 0.0);
  // Solving at the found bound succeeds; at 60% of it fails (the search
  // tolerance is 1%).
  EXPECT_TRUE(solver.Solve(cg, b_star).ok());
  Result<TreeCover> below = solver.Solve(cg, 0.6 * b_star);
  if (!below.ok()) {
    EXPECT_TRUE(below.status().IsBoundTooSmall());
  }
  // Cost at minimal bound also satisfies the 4B guarantee.
  EXPECT_LE(minimal->second.Cost(), 4.0 * b_star + 1e-9);
}

TEST(TreeCoverTest, CostMonotoneUnderGenerousBound) {
  testing_support::FigureOneWorld world = testing_support::BuildFigureOneWorld();
  CoherenceGraph cg = BuildFigureOneGraph(world);
  TreeCoverSolver solver;
  Result<TreeCover> tight = solver.Solve(cg, cg.num_mentions());
  Result<TreeCover> loose = solver.Solve(cg, 10.0 * cg.num_mentions());
  ASSERT_TRUE(tight.ok());
  ASSERT_TRUE(loose.ok());
  EXPECT_GT(loose->TotalEdges(), 0);
}

}  // namespace
}  // namespace core
}  // namespace tenet
