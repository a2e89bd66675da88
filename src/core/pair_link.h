#ifndef TENET_CORE_PAIR_LINK_H_
#define TENET_CORE_PAIR_LINK_H_

#include <functional>
#include <vector>

#include "common/deadline.h"
#include "core/coherence_graph.h"
#include "kb/types.h"

namespace tenet {
namespace core {

// One candidate of a mention in a pair-link sweep: the concept, its prior
// and — when the candidates come from a coherence graph — its concept node
// id (-1 otherwise).
struct PairLinkCandidate {
  kb::ConceptRef ref;
  double prior = 0.0;
  int node = -1;
};

/// Per mention id, its candidates; indexed like the mention universe.
using PairLinkCandidateTable = std::vector<std::vector<PairLinkCandidate>>;

/// The candidate table of `cg`: each mention's concept nodes, in node order.
PairLinkCandidateTable CandidateTableOf(const CoherenceGraph& cg);

/// Similarity of two candidates of different mentions, in [-1, 1].
using PairSimilarity =
    std::function<double(const PairLinkCandidate&, const PairLinkCandidate&)>;

struct PairLinkSweep {
  /// Per participant, the index into its candidate list of the confirmed
  /// candidate, or -1 when the sweep never confirmed one.
  std::vector<int> confirmed;
  int pairs_confirmed = 0;
  /// The deadline expired before every participant was confirmed.
  bool deadline_hit = false;
};

/// Phan et al.'s greedy pair-linking over `participants` (mention ids
/// ascending, indexing `candidates`): a priority queue of candidate pairs
/// scored by
///   similarity_weight * similarity + prior_weight * mean prior,
/// confirmed best-pair-first.  Entries start with the optimistic bound
/// similarity = 1, so `similarity` is only called for pairs that actually
/// reach the top of the queue — a popped exact entry dominates every bound
/// below it and is safe to confirm.  A participant already confirmed only
/// vouches for pairs agreeing with its confirmed candidate.  Deadline
/// expiry stops confirming.  Deterministic: ties break on the (participant,
/// candidate) indices, exact entries first.
PairLinkSweep RunPairLinkSweep(const std::vector<int>& participants,
                               const PairLinkCandidateTable& candidates,
                               double similarity_weight, double prior_weight,
                               const Deadline& deadline,
                               const PairSimilarity& similarity);

}  // namespace core
}  // namespace tenet

#endif  // TENET_CORE_PAIR_LINK_H_
