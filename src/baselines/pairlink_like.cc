#include "baselines/pairlink_like.h"

#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/timer.h"
#include "core/pair_link.h"
#include "text/extraction.h"

namespace tenet {
namespace baselines {

Result<core::LinkingResult> PairlinkLike::LinkDocument(
    std::string_view document_text,
    const core::LinkContext& /*context*/) const {
  WallTimer timer;
  // Like MINTREE, Pair-Linking consumes TENET's extraction; the short
  // mentions are its input mention set (no canopy-based joint selection).
  text::Extractor extractor(substrate_.gazetteer);
  text::ExtractionResult extraction =
      extractor.ExtractFromText(document_text);
  double extract_ms = timer.ElapsedMillis();
  Result<core::LinkingResult> result = LinkMentionSet(
      BuildShortOnlyMentionSet(extraction, substrate_.gazetteer));
  if (result.ok()) result->timings.extract_ms = extract_ms;
  return result;
}

Result<core::LinkingResult> PairlinkLike::LinkMentionSet(
    core::MentionSet mentions,
    const core::LinkContext& /*context*/) const {
  WallTimer timer;
  const kb::KbView& view = *substrate_.view;
  core::CoherenceGraph cg = BuildGraph(substrate_, std::move(mentions));
  double graph_ms = timer.ElapsedMillis();

  timer.Restart();
  std::vector<int> nouns;
  for (int m = 0; m < cg.num_mentions(); ++m) {
    if (cg.mentions().mention(m).is_noun()) nouns.push_back(m);
  }
  const core::PairLinkCandidateTable candidates = core::CandidateTableOf(cg);
  const core::PairLinkOptions weights;
  core::PairLinkSweep sweep = core::RunPairLinkSweep(
      nouns, candidates, weights.similarity_weight, weights.prior_weight,
      Deadline::Infinite(),
      [&view](const core::PairLinkCandidate& u,
              const core::PairLinkCandidate& v) {
        return view.Cosine(u.ref, v.ref);
      });
  std::unordered_map<int, int> chosen;
  for (size_t idx = 0; idx < nouns.size(); ++idx) {
    const int m = nouns[idx];
    // Force-link leftovers (Pair-Linking cannot abstain).
    const int node = sweep.confirmed[idx] >= 0
                         ? candidates[m][sweep.confirmed[idx]].node
                         : TopPriorNode(cg, m);
    if (node >= 0) chosen.emplace(m, node);
  }
  core::LinkingResult result = AssembleResult(cg, chosen, {});
  result.timings.graph_ms = graph_ms;
  result.timings.disambiguate_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace baselines
}  // namespace tenet
