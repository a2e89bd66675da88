#ifndef TENET_BASELINES_PAIRLINK_LIKE_H_
#define TENET_BASELINES_PAIRLINK_LIKE_H_

#include "baselines/common.h"
#include "baselines/linker.h"

namespace tenet {
namespace baselines {

// Pair-Linking [Phan et al.] stand-in: collective entity disambiguation by
// greedily confirming the single most confident mention pair at a time
// ("two could be better than all").  The sweep is the pipeline's pair-link
// rung's (core::RunPairLinkSweep, DESIGN.md §16) with the default
// core::PairLinkOptions weights, run over every short noun mention and the
// coherence graph's candidates with uncached embedding cosines; leftovers
// are force-linked to their top-prior candidate (Pair-Linking cannot
// abstain).  Entity disambiguation only; no relation linking.
class PairlinkLike : public Linker {
 public:
  explicit PairlinkLike(BaselineSubstrate substrate)
      : substrate_(substrate) {}

  std::string_view name() const override { return "PairLink"; }
  bool links_relations() const override { return false; }

  Result<core::LinkingResult> LinkDocument(
      std::string_view document_text,
      const core::LinkContext& context = {}) const override;
  Result<core::LinkingResult> LinkMentionSet(
      core::MentionSet mentions,
      const core::LinkContext& context = {}) const override;

 private:
  BaselineSubstrate substrate_;
};

}  // namespace baselines
}  // namespace tenet

#endif  // TENET_BASELINES_PAIRLINK_LIKE_H_
