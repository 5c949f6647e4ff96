// Independent oracles: every value here is computed from the benchmark's own
// inputs (its edge and target sets, the corpus gold truth, its client-side
// tallies), never from the program output it is compared with.
#ifndef KBCBENCH_ORACLES_H_
#define KBCBENCH_ORACLES_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace kbcbench {

/// Exact marginal of an independent query variable under ratio semantics
/// (factor/semantics.cc: g(n) = ln(1+n)): a group of weight w with n
/// satisfied groundings adds w*g(n) when the head is true and -w*g(n) when
/// false, so Pr[true] = sigmoid(2 * sum_g w_g * ln(1 + n_g)).
/// Each element of `groups` is (weight, n).
double RatioMarginal(const std::vector<std::pair<double, int64_t>>& groups);

/// Sampling tolerance for a Monte-Carlo marginal of a variable whose exact
/// value is `p`, estimated from `samples` independent draws: `sigmas`
/// binomial standard errors plus a 2/samples discretisation floor.
double SamplingTolerance(double p, double samples, double sigmas);

/// Served-vs-exact comparison. Returns the indices whose |served - exact|
/// exceeds tolerance[i].
std::vector<size_t> MarginalOutliers(const std::vector<double>& served,
                                     const std::vector<double>& exact,
                                     const std::vector<double>& tolerance);

/// Group-count oracle: for every key of `expected` (target -> number of
/// distinct endorsers in the benchmark's edge set) the program must report
/// the same number of active head groups in `actual`; keys missing from
/// `actual` count as 0. Returns the mismatching keys.
std::vector<int64_t> GroupCountMismatches(const std::map<int64_t, int64_t>& expected,
                                          const std::map<int64_t, int64_t>& actual);

/// Precision/recall of thresholded predictions against gold labels.
struct Quality {
  double precision = 0.0;
  double recall = 0.0;
  size_t predicted = 0;
  size_t relevant = 0;
};
/// `scored` holds (marginal, gold truth) pairs; a prediction is marginal >=
/// threshold.
Quality ScoreMentions(const std::vector<std::pair<double, bool>>& scored,
                      double threshold);
/// Fact-level: predicted entity pairs vs the gold relation, recall measured
/// over `extractable` (gold pairs that occur in the text at all).
Quality ScoreFacts(const std::set<std::pair<int64_t, int64_t>>& predicted,
                   const std::set<std::pair<int64_t, int64_t>>& gold,
                   const std::set<std::pair<int64_t, int64_t>>& extractable);

/// Status-vs-client tally oracle: every counter the server reports must
/// equal the benchmark's own count. Returns "name: server X, client Y" for
/// each mismatch.
std::vector<std::string> TallyMismatches(
    const std::map<std::string, uint64_t>& server,
    const std::map<std::string, uint64_t>& client);

/// Feeds each oracle a correct input and a deliberately wrong one (a
/// perturbed marginal, a dropped tuple, a flipped prediction set, an
/// off-by-one counter). Returns the oracles that accepted the wrong input or
/// rejected the correct one; empty when all of them discriminate.
std::vector<std::string> OracleSelfTest();

}  // namespace kbcbench

#endif  // KBCBENCH_ORACLES_H_
