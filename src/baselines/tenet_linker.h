#ifndef TENET_BASELINES_TENET_LINKER_H_
#define TENET_BASELINES_TENET_LINKER_H_

#include "baselines/common.h"
#include "baselines/linker.h"
#include "core/pipeline.h"

namespace tenet {
namespace baselines {

// Adapter exposing the TENET pipeline through the common Linker interface
// used by the experiment harness.
class TenetLinker : public Linker {
 public:
  TenetLinker(BaselineSubstrate substrate, core::TenetOptions options = {})
      : pipeline_(substrate.view, substrate.gazetteer,
                  [&options, &substrate] {
                    options.graph = substrate.graph_options;
                    return options;
                  }()) {}

  std::string_view name() const override { return "TENET"; }

  Result<core::LinkingResult> LinkDocument(
      std::string_view document_text,
      const core::LinkContext& context = {}) const override {
    return pipeline_.LinkDocument(document_text, context);
  }

  Result<core::LinkingResult> LinkMentionSet(
      core::MentionSet mentions,
      const core::LinkContext& context = {}) const override {
    return pipeline_.LinkMentionSet(std::move(mentions), context);
  }

  const core::TenetPipeline& pipeline() const { return pipeline_; }

 private:
  core::TenetPipeline pipeline_;
};

}  // namespace baselines
}  // namespace tenet

#endif  // TENET_BASELINES_TENET_LINKER_H_
