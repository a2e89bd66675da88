#include "core/pair_link.h"

#include <queue>
#include <tuple>

namespace tenet {
namespace core {

PairLinkCandidateTable CandidateTableOf(const CoherenceGraph& cg) {
  PairLinkCandidateTable table(cg.num_mentions());
  for (int m = 0; m < cg.num_mentions(); ++m) {
    for (int node : cg.ConceptNodesOfMention(m)) {
      const CoherenceGraph::ConceptNode& cn = cg.concept_node(node);
      table[m].push_back(PairLinkCandidate{cn.ref, cn.prior, node});
    }
  }
  return table;
}

PairLinkSweep RunPairLinkSweep(const std::vector<int>& participants,
                               const PairLinkCandidateTable& candidates,
                               double similarity_weight, double prior_weight,
                               const Deadline& deadline,
                               const PairSimilarity& similarity) {
  struct Entry {
    double score;
    bool exact;
    int i, a, j, b;  // indices into `participants` / their candidate lists
  };
  auto worse = [](const Entry& x, const Entry& y) {
    if (x.score != y.score) return x.score < y.score;
    if (x.exact != y.exact) return y.exact;
    return std::tie(x.i, x.a, x.j, x.b) > std::tie(y.i, y.a, y.j, y.b);
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> queue(
      worse);
  // Participants without candidates can never be confirmed; the sweep ends
  // once every other one is.
  size_t num_linkable = 0;
  for (size_t i = 0; i < participants.size(); ++i) {
    const auto& ci = candidates[participants[i]];
    if (!ci.empty()) ++num_linkable;
    for (size_t j = i + 1; j < participants.size(); ++j) {
      const auto& cj = candidates[participants[j]];
      for (size_t a = 0; a < ci.size(); ++a) {
        for (size_t b = 0; b < cj.size(); ++b) {
          const double bound = similarity_weight +
                               prior_weight * 0.5 * (ci[a].prior + cj[b].prior);
          queue.push(Entry{bound, /*exact=*/false, static_cast<int>(i),
                           static_cast<int>(a), static_cast<int>(j),
                           static_cast<int>(b)});
        }
      }
    }
  }

  PairLinkSweep sweep;
  std::vector<int>& confirmed = sweep.confirmed;
  confirmed.assign(participants.size(), -1);
  size_t num_confirmed = 0;
  while (!queue.empty() && num_confirmed < num_linkable) {
    if (deadline.expired()) {
      sweep.deadline_hit = true;
      break;
    }
    Entry e = queue.top();
    queue.pop();
    const bool i_done = confirmed[e.i] >= 0;
    const bool j_done = confirmed[e.j] >= 0;
    if (i_done && j_done) continue;
    if (i_done && confirmed[e.i] != e.a) continue;
    if (j_done && confirmed[e.j] != e.b) continue;
    if (!e.exact) {
      const PairLinkCandidate& u = candidates[participants[e.i]][e.a];
      const PairLinkCandidate& v = candidates[participants[e.j]][e.b];
      e.score = similarity_weight * similarity(u, v) +
                prior_weight * 0.5 * (u.prior + v.prior);
      e.exact = true;
      queue.push(e);
      continue;
    }
    if (!i_done) {
      confirmed[e.i] = e.a;
      ++num_confirmed;
    }
    if (!j_done) {
      confirmed[e.j] = e.b;
      ++num_confirmed;
    }
    ++sweep.pairs_confirmed;
  }
  return sweep;
}

}  // namespace core
}  // namespace tenet
