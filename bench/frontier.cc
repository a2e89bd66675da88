// The accuracy/latency frontier of the degradation ladder (DESIGN.md §16):
// every corpus is scored once per rung — full TENET, the pair-link rung
// forced (PairLinkOptions::serve_always), and prior-only (budget expired
// at entry) — on two tiers:
//
//   clean  the four standard evaluation corpora over the default world;
//          the rung's accuracy cost (entity-F1 gap vs full) lives here.
//   huge   an MSNBC19-profile corpus over the Huge KB tier (~58k
//          entities), where candidate sets and coherence graphs balloon;
//          the rung's latency payoff (p99 speedup vs full) lives here.
//
// The two headline numbers are the clean-tier F1 gap and the huge-tier p99
// speedup of pair-link over full.  The committed BENCH_frontier.json (a
// full run on a 4-vCPU Xeon container) reads: pair-link scores 3.75
// entity-F1 points *above* full (macro over the four corpora), and on the
// huge tier it buys no p99 back — full 0.89 ms, pair-link 0.90 ms, 0.99x
// (0.83x-1.06x over seven runs).  So the ladder's middle rung is neither
// less accurate nor faster than full TENET here; the rung-selection policy
// still has to answer for that.  `--json <path>` writes the
// BENCH_frontier.json records CI archives; `--smoke` shrinks the huge
// corpus for tier-1.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "json_out.h"

namespace tenet {
namespace bench {
namespace {

struct RungConfig {
  const char* name;
  core::TenetOptions options;
};

std::vector<RungConfig> MakeRungs() {
  std::vector<RungConfig> rungs;
  rungs.push_back({"full", core::TenetOptions{}});
  {
    core::TenetOptions pair;
    pair.pair_link.serve_always = true;
    rungs.push_back({"pair_link", pair});
  }
  {
    core::TenetOptions prior;
    prior.deadline_ms = 0.0;  // expired at entry -> prior-only rung
    rungs.push_back({"prior_only", prior});
  }
  return rungs;
}

struct FrontierRow {
  std::string tier;
  std::string dataset;
  std::string rung;
  double f1 = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// full-rung p99 / this rung's p99 for the same tier+dataset; NaN on
  /// the full rung itself (there is no self-speedup) and whenever either
  /// percentile has no sample.
  double speedup_p99_vs_full = std::numeric_limits<double>::quiet_NaN();
};

void PrintRow(const FrontierRow& row) {
  char speedup[16];
  if (std::isnan(row.speedup_p99_vs_full)) {
    std::snprintf(speedup, sizeof(speedup), "%8s", "-");
  } else {
    std::snprintf(speedup, sizeof(speedup), "%7.2fx",
                  row.speedup_p99_vs_full);
  }
  std::printf("%-6s %-10s %-11s %8.3f %11s %11s %s\n", row.tier.c_str(),
              row.dataset.c_str(), row.rung.c_str(), row.f1,
              eval::FormatLatencyMs(row.p50_ms).c_str(),
              eval::FormatLatencyMs(row.p99_ms).c_str(), speedup);
}

/// Scores `dataset` under every rung and appends one row per rung,
/// wiring each degraded rung's p99 speedup against the full rung's.
void SweepDataset(const baselines::BaselineSubstrate& substrate,
                  const std::string& tier, const datasets::Dataset& dataset,
                  std::vector<FrontierRow>* rows) {
  const std::vector<RungConfig> rungs = MakeRungs();
  double full_p99 = std::numeric_limits<double>::quiet_NaN();
  for (const RungConfig& rung : rungs) {
    baselines::TenetLinker tenet(substrate, rung.options);
    eval::SystemScores scores = eval::EvaluateEndToEnd(tenet, dataset);
    FrontierRow row;
    row.tier = tier;
    row.dataset = dataset.name;
    row.rung = rung.name;
    row.f1 = scores.entity_linking.F1();
    row.p50_ms = scores.latency_p50_ms;
    row.p99_ms = scores.latency_p99_ms;
    if (std::string(rung.name) == "full") {
      full_p99 = row.p99_ms;
    } else if (!std::isnan(full_p99) && !std::isnan(row.p99_ms) &&
               row.p99_ms > 0.0) {
      row.speedup_p99_vs_full = full_p99 / row.p99_ms;
    }
    rows->push_back(row);
    PrintRow(rows->back());
  }
}

bool WriteFrontierJson(const std::string& path,
                       const std::vector<FrontierRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write bench records to %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const FrontierRow& r = rows[i];
    std::fprintf(f,
                 "  {\"bench\": \"frontier/%s/%s/%s\", \"f1\": %.4f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"speedup_p99_vs_full\": ",
                 r.tier.c_str(), r.dataset.c_str(), r.rung.c_str(), r.f1,
                 r.p50_ms, r.p99_ms);
    if (std::isnan(r.speedup_p99_vs_full)) {
      std::fprintf(f, "null");
    } else {
      std::fprintf(f, "%.2f", r.speedup_p99_vs_full);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %zu bench records to %s\n", rows.size(), path.c_str());
  return true;
}

void Run(const JsonArgs& json_args) {
  std::printf("Degradation-ladder frontier: entity F1 vs latency per rung\n");
  PrintRule();
  std::printf("%-6s %-10s %-11s %8s %11s %11s %8s\n", "tier", "dataset",
              "rung", "F1", "p50 ms", "p99 ms", "p99 spd");
  PrintRule();

  std::vector<FrontierRow> rows;

  // Clean tier: the standard evaluation corpora over the default world.
  const Environment& env = GetEnvironment();
  baselines::BaselineSubstrate clean_substrate = MakeSubstrate(env);
  for (const datasets::Dataset& dataset : env.datasets) {
    SweepDataset(clean_substrate, "clean", dataset, &rows);
  }

  // Huge tier: long MSNBC19-profile documents over the Huge KB, where the
  // coherence graph and cover solve get expensive enough for the rung
  // choice to matter.
  datasets::WorldOptions huge_options;
  huge_options.kb = kb::SyntheticKbOptions::Huge();
  datasets::SyntheticWorld huge_world = datasets::BuildWorld(huge_options);
  datasets::CorpusGenerator huge_generator(&huge_world.kb_world);
  Rng rng(kCorpusSeed);
  datasets::DatasetSpec huge_spec = datasets::Msnbc19Spec();
  huge_spec.name = "MSNBC19-huge";
  huge_spec.num_docs = json_args.smoke ? 4 : huge_spec.num_docs;
  datasets::Dataset huge_dataset = huge_generator.Generate(huge_spec, rng);
  baselines::BaselineSubstrate huge_substrate{huge_world.view,
                                              &huge_world.gazetteer(), {}};
  SweepDataset(huge_substrate, "huge", huge_dataset, &rows);

  PrintRule();

  // The two headline frontier numbers (see file comment): clean-tier F1
  // gap (macro-averaged over the four corpora) and huge-tier p99 speedup.
  double huge_speedup = std::numeric_limits<double>::quiet_NaN();
  double full_sum = 0.0, pair_sum = 0.0;
  int n = 0;
  for (const FrontierRow& row : rows) {
    if (row.tier == "huge" && row.rung == "pair_link") {
      huge_speedup = row.speedup_p99_vs_full;
    }
    if (row.tier != "clean") continue;
    if (row.rung == "full") {
      full_sum += row.f1;
      ++n;
    } else if (row.rung == "pair_link") {
      pair_sum += row.f1;
    }
  }
  const double gap = n > 0 ? 100.0 * (full_sum - pair_sum) / n
                           : std::numeric_limits<double>::quiet_NaN();
  std::printf(
      "pair-link vs full: clean-tier F1 gap %.2f points "
      "(macro-avg over %d corpora), huge-tier p99 speedup %.2fx\n",
      gap, n, huge_speedup);

  if (!json_args.json_path.empty()) {
    WriteFrontierJson(json_args.json_path, rows);
  }
}

}  // namespace
}  // namespace bench
}  // namespace tenet

int main(int argc, char** argv) {
  tenet::bench::JsonArgs json_args = tenet::bench::StripJsonArgs(&argc, argv);
  tenet::bench::Run(json_args);
  return 0;
}
