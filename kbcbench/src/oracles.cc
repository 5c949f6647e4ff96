#include "oracles.h"

#include <cmath>

namespace kbcbench {

double RatioMarginal(const std::vector<std::pair<double, int64_t>>& groups) {
  double half_log_odds = 0.0;
  for (const auto& [weight, n] : groups) {
    half_log_odds += weight * std::log1p(static_cast<double>(n));
  }
  return 1.0 / (1.0 + std::exp(-2.0 * half_log_odds));
}

double SamplingTolerance(double p, double samples, double sigmas) {
  return sigmas * std::sqrt(p * (1.0 - p) / samples) + 2.0 / samples;
}

std::vector<size_t> MarginalOutliers(const std::vector<double>& served,
                                     const std::vector<double>& exact,
                                     const std::vector<double>& tolerance) {
  std::vector<size_t> out;
  for (size_t i = 0; i < served.size(); ++i) {
    if (!(std::fabs(served[i] - exact[i]) <= tolerance[i])) out.push_back(i);
  }
  return out;
}

std::vector<int64_t> GroupCountMismatches(const std::map<int64_t, int64_t>& expected,
                                          const std::map<int64_t, int64_t>& actual) {
  std::vector<int64_t> out;
  for (const auto& [key, count] : expected) {
    const auto it = actual.find(key);
    const int64_t got = it == actual.end() ? 0 : it->second;
    if (got != count) out.push_back(key);
  }
  return out;
}

Quality ScoreMentions(const std::vector<std::pair<double, bool>>& scored,
                      double threshold) {
  Quality q;
  size_t hits = 0;
  for (const auto& [marginal, truth] : scored) {
    const bool predicted = marginal >= threshold;
    q.predicted += predicted;
    q.relevant += truth;
    hits += predicted && truth;
  }
  q.precision = q.predicted ? static_cast<double>(hits) / q.predicted : 0.0;
  q.recall = q.relevant ? static_cast<double>(hits) / q.relevant : 0.0;
  return q;
}

Quality ScoreFacts(const std::set<std::pair<int64_t, int64_t>>& predicted,
                   const std::set<std::pair<int64_t, int64_t>>& gold,
                   const std::set<std::pair<int64_t, int64_t>>& extractable) {
  Quality q;
  size_t correct = 0, found = 0;
  for (const auto& pair : predicted) correct += gold.count(pair);
  for (const auto& pair : extractable) found += predicted.count(pair);
  q.predicted = predicted.size();
  q.relevant = extractable.size();
  q.precision = q.predicted ? static_cast<double>(correct) / q.predicted : 0.0;
  q.recall = q.relevant ? static_cast<double>(found) / q.relevant : 0.0;
  return q;
}

std::vector<std::string> TallyMismatches(
    const std::map<std::string, uint64_t>& server,
    const std::map<std::string, uint64_t>& client) {
  std::vector<std::string> out;
  for (const auto& [name, count] : client) {
    const auto it = server.find(name);
    if (it == server.end() || it->second != count) {
      out.push_back(name + ": server " +
                    (it == server.end() ? std::string("missing")
                                        : std::to_string(it->second)) +
                    ", client " + std::to_string(count));
    }
  }
  return out;
}

std::vector<std::string> OracleSelfTest() {
  std::vector<std::string> broken;

  // Closed-form marginal: a lone weight-0 group is a coin flip; a served
  // vector equal to the exact one passes, one perturbed entry is caught.
  if (std::fabs(RatioMarginal({{0.0, 1}}) - 0.5) > 1e-12 ||
      std::fabs(RatioMarginal({{1.0, 1}}) - 0.8) > 1e-12) {
    // sigmoid(2 ln 2) = 4/5 exactly.
    broken.push_back("RatioMarginal closed form");
  }
  const std::vector<double> exact = {RatioMarginal({{0.7, 1}, {-0.2, 1}}),
                                     RatioMarginal({{1.5, 1}}), 0.5};
  std::vector<double> tolerance;
  for (double p : exact) tolerance.push_back(SamplingTolerance(p, 500, 6));
  std::vector<double> perturbed = exact;
  perturbed[1] += 0.2;
  if (!MarginalOutliers(exact, exact, tolerance).empty() ||
      MarginalOutliers(perturbed, exact, tolerance) != std::vector<size_t>{1}) {
    broken.push_back("marginal tolerance check (perturbed marginal)");
  }

  // Group counts: dropping one tuple from the program's side is caught.
  const std::map<int64_t, int64_t> expected = {{10, 2}, {11, 1}, {12, 3}};
  std::map<int64_t, int64_t> dropped = expected;
  dropped[12] = 2;
  if (!GroupCountMismatches(expected, expected).empty() ||
      GroupCountMismatches(expected, dropped) != std::vector<int64_t>{12}) {
    broken.push_back("group counts (dropped tuple)");
  }

  // Quality: a model that predicts the gold labels scores 1/1; inverting its
  // marginals drives precision and recall to 0.
  const std::vector<std::pair<double, bool>> good = {
      {0.9, true}, {0.8, true}, {0.1, false}, {0.2, false}};
  std::vector<std::pair<double, bool>> inverted = good;
  for (auto& [marginal, truth] : inverted) marginal = 1.0 - marginal;
  const Quality qg = ScoreMentions(good, 0.5);
  const Quality qi = ScoreMentions(inverted, 0.5);
  const std::set<std::pair<int64_t, int64_t>> gold = {{1, 2}, {3, 4}};
  const Quality fg = ScoreFacts(gold, gold, gold);
  const Quality fw = ScoreFacts({{5, 6}}, gold, gold);
  if (qg.precision != 1.0 || qg.recall != 1.0 || qi.precision != 0.0 ||
      qi.recall != 0.0 || fg.precision != 1.0 || fg.recall != 1.0 ||
      fw.precision != 0.0 || fw.recall != 0.0) {
    broken.push_back("gold-truth quality (flipped predictions)");
  }

  // Tallies: an off-by-one counter is caught, a missing one too.
  const std::map<std::string, uint64_t> client = {{"updates_applied", 41},
                                                  {"updates_shed", 0}};
  std::map<std::string, uint64_t> off_by_one = client;
  off_by_one["updates_applied"] = 42;
  if (!TallyMismatches(client, client).empty() ||
      TallyMismatches(off_by_one, client).size() != 1 ||
      TallyMismatches({{"updates_applied", 41}}, client).size() != 1) {
    broken.push_back("status tallies (off-by-one counter)");
  }
  return broken;
}

}  // namespace kbcbench
