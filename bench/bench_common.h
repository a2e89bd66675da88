// Shared fixture of the experiment harness binaries (bench/): the synthetic
// world, the four datasets, and the six linking systems, built once per
// process with fixed seeds so every table/figure is reproducible.
#ifndef TENET_BENCH_BENCH_COMMON_H_
#define TENET_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/earl_like.h"
#include "baselines/falcon_like.h"
#include "baselines/kbpearl_like.h"
#include "baselines/linker.h"
#include "baselines/mintree_like.h"
#include "baselines/pairlink_like.h"
#include "baselines/qkbfly_like.h"
#include "baselines/tenet_linker.h"
#include "datasets/corpus_generator.h"
#include "datasets/spec.h"
#include "datasets/world.h"
#include "eval/harness.h"

namespace tenet {
namespace bench {

inline constexpr uint64_t kCorpusSeed = 77;

// Lazily built, process-wide experiment environment.
struct Environment {
  datasets::SyntheticWorld world;
  std::vector<datasets::Dataset> datasets;  // News, T-REx42, KORE50, MSNBC19

  const datasets::Dataset& dataset(const std::string& name) const {
    for (const datasets::Dataset& d : datasets) {
      if (d.name == name) return d;
    }
    TENET_CHECK(false) << "unknown dataset " << name;
    __builtin_unreachable();
  }
};

inline const Environment& GetEnvironment() {
  static const Environment* env = [] {
    auto* e = new Environment{datasets::BuildWorld(), {}};
    datasets::CorpusGenerator generator(&e->world.kb_world);
    Rng rng(kCorpusSeed);
    e->datasets.push_back(generator.Generate(datasets::NewsSpec(), rng));
    e->datasets.push_back(generator.Generate(datasets::TRex42Spec(), rng));
    e->datasets.push_back(generator.Generate(datasets::Kore50Spec(), rng));
    e->datasets.push_back(generator.Generate(datasets::Msnbc19Spec(), rng));
    return e;
  }();
  return *env;
}

inline baselines::BaselineSubstrate MakeSubstrate(const Environment& env) {
  return baselines::BaselineSubstrate{env.world.view, &env.world.gazetteer(),
                                      {}};
}

/// The systems in the paper's Table 3 row order, plus the Pair-Linking
/// stand-in (before TENET, as the strongest approximate baseline).
inline std::vector<std::unique_ptr<baselines::Linker>> MakeAllLinkers(
    const Environment& env) {
  baselines::BaselineSubstrate substrate = MakeSubstrate(env);
  std::vector<std::unique_ptr<baselines::Linker>> linkers;
  linkers.push_back(std::make_unique<baselines::FalconLike>(substrate));
  linkers.push_back(std::make_unique<baselines::QkbflyLike>(substrate));
  linkers.push_back(std::make_unique<baselines::KbPearlLike>(substrate));
  linkers.push_back(std::make_unique<baselines::EarlLike>(substrate));
  linkers.push_back(std::make_unique<baselines::MintreeLike>(substrate));
  linkers.push_back(std::make_unique<baselines::PairlinkLike>(substrate));
  linkers.push_back(std::make_unique<baselines::TenetLinker>(substrate));
  return linkers;
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace bench
}  // namespace tenet

#endif  // TENET_BENCH_BENCH_COMMON_H_
