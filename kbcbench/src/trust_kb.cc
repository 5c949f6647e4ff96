#include <cmath>

#include "bench.h"

namespace kbcbench {

const char kTrustProgram[] = R"(
relation Endorses(src: int, dst: int).
query relation Trusted(p: int).
evidence TrustedLabel(p: int, l: bool) for Trusted.
rule CAND: Trusted(p) :- Endorses(s, p).
factor FE1: Trusted(p) :- Endorses(s, p)
  weight = w(s) semantics = ratio.
)";

const char kTrustPriorRule[] =
    "factor PRIOR: Trusted(p) :- Endorses(s, p) weight = -0.2 semantics = logical.";

TrustKb GenerateTrustKb(uint64_t seed, int64_t targets, int64_t endorsers, int64_t pool,
                        RelationRows* rows) {
  InputRng rng(seed);
  TrustKb kb;
  std::vector<double> quality(static_cast<size_t>(endorsers));
  for (double& q : quality) q = 2.0 * rng.Unit() - 1.0;
  std::vector<Tuple> edges, labels;
  for (int64_t i = 0; i < targets; ++i) {
    const int64_t p = kTrustTargetBase + i;
    const int64_t a = static_cast<int64_t>(rng.Below(endorsers));
    int64_t b = static_cast<int64_t>(rng.Below(endorsers - 1));
    if (b >= a) ++b;
    kb.edges[p] = {a, b};
    kb.targets.push_back(p);
    edges.push_back({Value(a), Value(p)});
    edges.push_back({Value(b), Value(p)});
    if (rng.Unit() < kTrustLabelShare) {
      const double z = 2.0 * (quality[a] + quality[b]);
      const bool label = rng.Unit() < 1.0 / (1.0 + std::exp(-z));
      kb.labels[p] = label;
      labels.push_back({Value(p), Value(label)});
    }
  }
  for (int64_t k = 0; k < pool; ++k) {
    const int64_t p = kTrustPoolBase + k;
    const int64_t s = (k * 7919 + 13) % endorsers;
    kb.edges[p] = {s};
    edges.push_back({Value(s), Value(p)});
  }
  rows->push_back({"Endorses", std::move(edges)});
  rows->push_back({"TrustedLabel", std::move(labels)});
  return kb;
}

}  // namespace kbcbench
