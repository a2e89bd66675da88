// Stage tracing through the pipeline: a LinkContext trace records exactly
// the four pipeline stages of a full run, bound-doubling retries as child
// spans of the cover stage, and the prior-only rung (with its annotations)
// on a degraded run.  Span durations carry the same numbers as the
// result's PipelineTimings — one measurement, every sink.
#include <string>

#include <gtest/gtest.h>

#include "core/link_context.h"
#include "core/pipeline.h"
#include "figure_one_world.h"
#include "obs/trace.h"

namespace tenet {
namespace core {
namespace {

using testing_support::BuildFigureOneWorld;
using testing_support::FigureOneWorld;

constexpr const char* kFigureOneText =
    "Michael Jordan studies artificial intelligence and machine learning. "
    "He was awarded as the Fellow of the AAAS. "
    "He visited Brooklyn in April 2019.";

std::string Annotation(const obs::Trace& trace, const std::string& key) {
  for (const auto& [k, v] : trace.annotations()) {
    if (k == key) return v;
  }
  return "";
}

TEST(TraceTest, FullRunRecordsExactlyFourStageSpans) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(world.view, &world.gazetteer);

  obs::Trace trace;
  Result<LinkingResult> result =
      tenet.LinkDocument(kFigureOneText, LinkContext::WithTrace(&trace));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->degradation.degraded());

  for (const char* stage : {"extract", "graph", "cover", "disambiguate"}) {
    EXPECT_EQ(trace.CountSpans(stage), 1) << stage;
  }
  EXPECT_EQ(trace.CountSpans("cover_retry"), 0);
  EXPECT_EQ(trace.CountSpans("prior_only"), 0);
  EXPECT_EQ(trace.spans().size(), 4u);
  EXPECT_TRUE(trace.annotations().empty());

  // Stage spans are root spans, closed, and carry the exact same durations
  // as the result's PipelineTimings (the same timer fills both).
  const PipelineTimings& t = result->timings;
  const double expected[] = {t.extract_ms, t.graph_ms, t.cover_ms,
                             t.disambiguate_ms};
  const char* names[] = {"extract", "graph", "cover", "disambiguate"};
  for (int i = 0; i < 4; ++i) {
    int span = trace.FindSpan(names[i]);
    ASSERT_GE(span, 0) << names[i];
    EXPECT_EQ(trace.spans()[span].parent, -1);
    EXPECT_FALSE(trace.spans()[span].open());
    EXPECT_EQ(trace.spans()[span].duration_ms, expected[i]) << names[i];
  }
}

TEST(TraceTest, BoundDoublingRecordsRetrySpansUnderTheCoverStage) {
  FigureOneWorld world = BuildFigureOneWorld();
  // A hopeless starting bound: every attempt raises the failure warning
  // (B < B*), so the schedule runs out all its doubling retries and the
  // document degrades past the cover stage.
  TenetOptions options;
  options.bound_factor = 1e-9;
  options.bound_retry.max_retries = 3;
  options.bound_retry.multiplier = 2.0;
  TenetPipeline tenet(world.view, &world.gazetteer,
                      options);

  obs::Trace trace;
  Result<LinkingResult> result =
      tenet.LinkDocument(kFigureOneText, LinkContext::WithTrace(&trace));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->degradation.degraded());

  // One child span per retry attempt, all parented by the cover stage.
  EXPECT_EQ(trace.CountSpans("cover_retry"),
            options.bound_retry.max_retries);
  int cover = trace.FindSpan("cover");
  ASSERT_GE(cover, 0);
  for (const obs::TraceSpan& span : trace.spans()) {
    if (span.name != "cover_retry") continue;
    EXPECT_EQ(span.parent, cover);
    EXPECT_FALSE(span.open());
  }
  // The rung taken is on the record too: a cover failure with budget
  // remaining lands on the pair-link rung, not prior-only.
  EXPECT_EQ(trace.CountSpans("pair_link"), 1);
  EXPECT_EQ(Annotation(trace, "degraded_mode"), "pair_link");
}

TEST(TraceTest, ExpiredDeadlineTracesThePriorOnlyRung) {
  FigureOneWorld world = BuildFigureOneWorld();
  TenetPipeline tenet(world.view, &world.gazetteer);

  obs::Trace trace;
  LinkContext context = LinkContext::WithDeadline(Deadline::Expired());
  context.trace = &trace;
  Result<LinkingResult> result = tenet.LinkDocument(kFigureOneText, context);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->degradation.stages_degraded, 3);

  // Extraction ran (the budget is checked at the coherence stages); the
  // graph/cover/disambiguate stages were replaced by the prior-only rung.
  EXPECT_EQ(trace.CountSpans("extract"), 1);
  EXPECT_EQ(trace.CountSpans("graph"), 0);
  EXPECT_EQ(trace.CountSpans("cover"), 0);
  EXPECT_EQ(trace.CountSpans("disambiguate"), 0);
  EXPECT_EQ(trace.CountSpans("prior_only"), 1);

  EXPECT_EQ(Annotation(trace, "degraded_mode"), "prior_only");
  EXPECT_FALSE(Annotation(trace, "degraded_reason").empty());
  EXPECT_EQ(Annotation(trace, "stages_degraded"), "3");

  // The rendered tree is line-per-span with the annotations included.
  std::string rendered = trace.Render();
  EXPECT_NE(rendered.find("extract"), std::string::npos);
  EXPECT_NE(rendered.find("prior_only"), std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace tenet
