// Ablation: the tree-cost bound B.  The paper fixes B = |M| (Sec. 6.1);
// this sweep shows why that is safe — quality is flat across a wide range
// of bound factors, failures only appear for extreme values — and
// exercises the failure-warning/retry path plus the 4B cost guarantee.
// Also demonstrates the SolveWithMinimalBound extension (B* search).
#include <cstdio>

#include "baselines/tenet_linker.h"
#include "bench_common.h"
#include "core/tree_cover.h"
#include "text/extraction.h"

int main() {
  using namespace tenet;
  const bench::Environment& env = bench::GetEnvironment();
  const datasets::Dataset& news = env.dataset("News");

  std::printf("Ablation: tree-cost bound factor (B = factor * |M|), News\n");
  bench::PrintRule(66);
  std::printf("%8s %10s %10s %14s\n", "factor", "EL F1", "ISO P",
              "avg used B");
  bench::PrintRule(66);
  for (double factor : {0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    core::TenetOptions options;
    options.bound_factor = factor;
    baselines::TenetLinker tenet(bench::MakeSubstrate(env), options);
    eval::SystemScores scores = eval::EvaluateEndToEnd(tenet, news);
    // Average bound actually used (after failure-warning retries).
    double used = 0.0;
    int count = 0;
    for (const datasets::Document& doc : news.documents) {
      Result<core::LinkingResult> r = tenet.LinkDocument(doc.text);
      if (r.ok()) {
        used += r->used_bound;
        ++count;
      }
    }
    std::printf("%8.2f %10.3f %10.3f %14.2f\n", factor,
                scores.entity_linking.F1(),
                scores.isolated_detection.Precision(),
                count > 0 ? used / count : 0.0);
  }
  bench::PrintRule(66);

  // ---- Extension: minimal feasible bound B* -------------------------------
  std::printf("\nExtension: SolveWithMinimalBound (binary search for B*)\n");
  bench::PrintRule(66);
  std::printf("%-10s %10s %12s %14s\n", "document", "B*", "cover cost",
              "cost <= 4B*");
  bench::PrintRule(66);
  text::Extractor extractor(&env.world.gazetteer());
  core::CoherenceGraphBuilder builder(env.world.view);
  core::TreeCoverSolver solver;
  for (int i = 0; i < 5; ++i) {
    const datasets::Document& doc = news.documents[i];
    core::MentionSet mentions = core::BuildMentionSet(
        extractor.ExtractFromText(doc.text), &env.world.gazetteer());
    core::CoherenceGraph cg = builder.Build(std::move(mentions));
    Result<std::pair<double, core::TreeCover>> minimal =
        core::SolveWithMinimalBound(solver, cg,
                                    /*initial_bound=*/cg.num_mentions());
    if (!minimal.ok()) {
      std::printf("%-10s  (failed: %s)\n", doc.id.c_str(),
                  minimal.status().ToString().c_str());
      continue;
    }
    double b_star = minimal->first;
    double cost = minimal->second.Cost();
    std::printf("%-10s %10.3f %12.3f %14s\n", doc.id.c_str(), b_star, cost,
                cost <= 4.0 * b_star + 1e-9 ? "yes" : "NO");
  }
  bench::PrintRule(66);
  std::printf(
      "Expected: quality is flat for factors >= ~0.25 (B = |M| is a safe "
      "default);\ntiny factors trigger failure-warning retries that double "
      "B back into the\nfeasible region.  Every cover respects the "
      "Lemma 4.2 bound.\n");
  return 0;
}
