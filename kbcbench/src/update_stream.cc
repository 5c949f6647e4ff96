// update_stream: a closed loop of one-tuple, skip-learning updates on the
// serving thread against a ~100k-variable trust KB, with every served
// marginal checked against the closed form of the independent trust model.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "bench.h"
#include "core/deepdive.h"
#include "oracles.h"

namespace kbcbench {

using namespace deepdive;  // NOLINT(build/namespaces)

namespace {

constexpr int64_t kTargets = 100000;
constexpr int64_t kEndorsers = 10000;
// Single-edge targets whose only edge the retraction updates delete, in
// order. Their make-up does not depend on the seed.
constexpr int64_t kRetractionPool = 2000;
constexpr int kQueriesPerUpdate = 64;
// Sampling tolerances, in binomial standard errors of the smallest sample
// count that can have produced the marginal.
constexpr double kUntouchedSigmas = 6.0;
constexpr double kTouchedSigmas = 5.0;

enum Kind { kNewTarget, kEdgeIntoExisting, kDeleteOneOfSeveral, kDeleteLast, kNewLabel };
constexpr const char* kKindNames[] = {"new_target", "edge_into_existing",
                                      "delete_one_of_several", "delete_last_edge",
                                      "new_label"};

Tuple T(int64_t p) { return Tuple{Value(p)}; }

const std::pair<Tuple, double>* Find(const incremental::ResultView& view, int64_t p) {
  const auto* entries = view.Relation("Trusted");
  if (entries == nullptr) return nullptr;
  const Tuple key = T(p);
  const auto it = std::lower_bound(
      entries->begin(), entries->end(), key,
      [](const std::pair<Tuple, double>& e, const Tuple& k) { return e.first < k; });
  return it != entries->end() && it->first == key ? &*it : nullptr;
}

/// Closed-form marginal of target p from the benchmark's own edge set and
/// the current FE1 weights.
double Exact(core::DeepDive& dd, const TrustKb& kb, int64_t p) {
  std::vector<std::pair<double, int64_t>> groups;
  const factor::FactorGraph& graph = dd.ground().graph;
  for (int64_t s : kb.edges.at(p)) {
    const auto w = graph.FindTiedWeight("FE1/" + std::to_string(s));
    groups.emplace_back(w.has_value() ? graph.WeightValue(*w) : 0.0, 1);
  }
  return RatioMarginal(groups);
}

}  // namespace

void RunUpdateStream(const Args& args, Tracer* tracer, RunResult* result) {
  RelationRows rows;
  TrustKb kb = GenerateTrustKb(args.seed, kTargets, kEndorsers, kRetractionPool, &rows);

  core::DeepDiveConfig config = core::FastTestConfig();
  std::unique_ptr<core::DeepDive> dd;
  {
    auto created = core::DeepDive::Create(kTrustProgram, config);
    if (!created.ok()) {
      result->Check(false, "Create: " + created.status().ToString());
      return;
    }
    dd = std::move(created).value();
  }
  for (const auto& [relation, tuples] : rows) {
    const Status loaded = dd->LoadRows(relation, tuples);
    result->Check(loaded.ok(), "LoadRows: " + loaded.ToString());
  }
  const Status init = dd->Initialize();
  dd->WaitForView(1);
  const double setup_s = SecondsSince(ProcessStart());
  if (!init.ok()) {
    result->Check(false, "Initialize: " + init.ToString());
    return;
  }
  const incremental::UpdateReport init_report = dd->Query()->report;
  uint64_t epoch = dd->Query()->epoch;

  // Smallest sample counts behind a served marginal: Initialize's chain and
  // the materialized store for untouched variables; the MH steps or the
  // variational chain for an updated one.
  const double untouched_samples = static_cast<double>(std::min(
      config.gibbs.sample_sweeps, config.materialization.num_samples));
  const double touched_samples = static_cast<double>(std::min(
      config.engine.mh_target_steps, config.engine.gibbs.sample_sweeps));

  InputRng rng(args.seed ^ 0x5eedull);
  std::set<int64_t> touched;
  std::vector<ReportSample> reports;
  std::vector<double> update_ms;
  std::map<std::string, std::vector<double>> touched_error;  // kind -> |error|
  std::map<std::string, int> touched_beyond;
  int64_t next_new_target = kTrustNewTargetBase;
  int64_t next_retraction = 0;
  uint64_t label_seq = 0;

  auto pick_target = [&](auto&& accept) {
    for (;;) {
      const int64_t p = kb.targets[rng.Below(kb.targets.size())];
      if (accept(p)) return p;
    }
  };

  // Applies one update; returns false when the program rejected it.
  auto apply = [&](Kind kind, bool timed) -> bool {
    core::UpdateSpec spec;
    spec.label = Fmt("%s#%llu", kKindNames[kind],
                     static_cast<unsigned long long>(++label_seq));
    spec.skip_learning = true;
    int64_t target = 0;
    switch (kind) {
      case kNewTarget: {
        target = next_new_target++;
        const int64_t s = static_cast<int64_t>(rng.Below(kEndorsers));
        spec.inserts["Endorses"] = {{Value(s), Value(target)}};
        kb.edges[target].insert(s);
        break;
      }
      case kEdgeIntoExisting: {
        target = pick_target([&](int64_t p) { return !touched.count(p); });
        int64_t s;
        do {
          s = static_cast<int64_t>(rng.Below(kEndorsers));
        } while (kb.edges[target].count(s));
        spec.inserts["Endorses"] = {{Value(s), Value(target)}};
        kb.edges[target].insert(s);
        break;
      }
      case kDeleteOneOfSeveral: {
        target = pick_target([&](int64_t p) {
          return !touched.count(p) && kb.edges[p].size() >= 2;
        });
        auto& set = kb.edges[target];
        auto it = set.begin();
        std::advance(it, static_cast<long>(rng.Below(set.size())));
        spec.deletes["Endorses"] = {{Value(*it), Value(target)}};
        set.erase(it);
        break;
      }
      case kDeleteLast: {
        target = kTrustPoolBase + next_retraction++;
        auto& set = kb.edges[target];
        spec.deletes["Endorses"] = {{Value(*set.begin()), Value(target)}};
        set.clear();
        break;
      }
      case kNewLabel: {
        target = pick_target([&](int64_t p) {
          return !touched.count(p) && !kb.labels.count(p);
        });
        const bool label = rng.Below(2) == 1;
        spec.inserts["TrustedLabel"] = {{Value(target), Value(label)}};
        kb.labels[target] = label;
        break;
      }
    }
    touched.insert(target);

    StatusOr<incremental::UpdateReport> report = Status::OK();
    const double seconds = tracer->Timed("core.apply_update", [&] {
      report = dd->ApplyUpdate(spec);
    });
    if (!report.ok()) {
      result->Check(false, spec.label + ": " + report.status().ToString());
      return false;
    }
    result->Check(report->epoch == epoch + 1,
                  Fmt("%s published epoch %llu after %llu", spec.label.c_str(),
                      static_cast<unsigned long long>(report->epoch),
                      static_cast<unsigned long long>(epoch)));
    epoch = report->epoch;
    if (timed) {
      update_ms.push_back(1e3 * seconds);
      ReportSample sample;
      sample.wall_ms = 1e3 * seconds;
      sample.grounding_ms = 1e3 * report->grounding_seconds;
      sample.learning_ms = 1e3 * report->learning_seconds;
      sample.inference_ms = 1e3 * report->inference_seconds;
      sample.grounding_work = static_cast<double>(report->grounding_work);
      sample.affected_vars = static_cast<double>(report->affected_vars);
      sample.acceptance = report->acceptance_rate;
      sample.strategy = incremental::StrategyName(report->strategy);
      reports.push_back(sample);
    }

    // The touched tuple as served now.
    const auto view = dd->Query();
    const auto* served = Find(*view, target);
    if (kind == kDeleteLast) {
      // The method retracts a candidate whose last derivation is gone; a
      // still-served tuple is a failed update.
      if (timed && served != nullptr) ++result->failed;
      return true;
    }
    result->Check(served != nullptr, spec.label + ": touched target is not served");
    if (served == nullptr) return true;
    if (kind == kNewLabel) {
      result->Check(served->second == (kb.labels[target] ? 1.0 : 0.0),
                    Fmt("%s: labelled target reads %.6f", spec.label.c_str(),
                        served->second));
      return true;
    }
    const double exact = Exact(*dd, kb, target);
    const double error = std::fabs(served->second - exact);
    touched_error[kKindNames[kind]].push_back(error);
    if (error > SamplingTolerance(exact, touched_samples, kTouchedSigmas)) {
      ++touched_beyond[kKindNames[kind]];
    }
    return true;
  };

  // Point lookups between updates: pin the current view, read one tuple.
  ReadTimes reads;
  auto lookups = [&]() {
    std::vector<Tuple> keys;
    for (int q = 0; q < kQueriesPerUpdate; ++q) {
      keys.push_back(T(kb.targets[rng.Below(kb.targets.size())]));
    }
    TimePointReads([&] { return dd->Query(); }, "Trusted", keys, &reads);
  };

  // First update after Initialize, awaited before the timed window.
  const Clock::time_point first_start = Clock::now();
  if (!apply(kNewTarget, /*timed=*/false)) return;
  const double first_update_s = SecondsSince(first_start);

  // The stream: whole rounds of the five kinds until the window is spent.
  const Clock::time_point window = Clock::now();
  uint64_t rounds = 0;
  bool ok = true;
  while (ok && (rounds == 0 || SecondsSince(window) < args.seconds) &&
         next_retraction < kRetractionPool) {
    for (Kind kind : {kNewTarget, kEdgeIntoExisting, kDeleteOneOfSeveral, kDeleteLast,
                      kNewLabel}) {
      ok = ok && apply(kind, /*timed=*/true);
      lookups();
    }
    ++rounds;
  }
  const double window_s = SecondsSince(window);
  result->attempted = rounds * 5;

  // ---- final checks over the whole KB ----
  const auto view = dd->Query();
  const factor::FactorGraph& graph = dd->ground().graph;
  std::vector<double> served_untouched, exact_untouched, tolerance;
  std::map<int64_t, int64_t> expected_groups, actual_groups;
  size_t unserved = 0, evidence_wrong = 0;
  for (const auto& [p, endorsers] : kb.edges) {
    expected_groups[p] = static_cast<int64_t>(endorsers.size());
    const factor::VarId var = dd->ground().FindVariable("Trusted", T(p));
    if (var != factor::kNoVar) {
      // A group counts when it contributes: active, with at least one active
      // grounding (a deleted edge deactivates its clause, not its group).
      int64_t active = 0;
      for (factor::GroupId g : graph.HeadGroups(var)) {
        const factor::FactorGroup& group = graph.group(g);
        int64_t clauses = 0;
        for (factor::ClauseId c : group.clauses) clauses += graph.clause(c).active;
        active += group.active && clauses > 0;
      }
      actual_groups[p] = active;
    }
    if (endorsers.empty()) continue;
    const auto* served = Find(*view, p);
    if (served == nullptr) {
      ++unserved;
      continue;
    }
    const auto label = kb.labels.find(p);
    if (label != kb.labels.end()) {
      evidence_wrong += served->second != (label->second ? 1.0 : 0.0);
    } else if (!touched.count(p)) {
      const double exact = Exact(*dd, kb, p);
      served_untouched.push_back(served->second);
      exact_untouched.push_back(exact);
      tolerance.push_back(SamplingTolerance(exact, untouched_samples, kUntouchedSigmas));
    }
  }
  const auto outliers = MarginalOutliers(served_untouched, exact_untouched, tolerance);
  double mean_error = 0.0, max_error = 0.0;
  for (size_t i = 0; i < served_untouched.size(); ++i) {
    const double e = std::fabs(served_untouched[i] - exact_untouched[i]);
    mean_error += e / served_untouched.size();
    max_error = std::max(max_error, e);
  }
  result->Check(outliers.empty(),
                Fmt("%zu of %zu untouched variables beyond the sampling tolerance",
                    outliers.size(), served_untouched.size()));
  result->Check(evidence_wrong == 0,
                Fmt("%zu evidence variables do not read their label", evidence_wrong));
  result->Check(unserved == 0, Fmt("%zu targets with an edge are not served", unserved));
  const auto group_mismatches = GroupCountMismatches(expected_groups, actual_groups);
  result->Check(group_mismatches.empty(),
                Fmt("%zu targets whose active head groups differ from their endorsers",
                    group_mismatches.size()));
  result->Note(Fmt("untouched non-evidence variables: %zu, mean |served-exact| %.4f, "
                   "max %.4f (tolerance %.0f sigma at n=%.0f)",
                   served_untouched.size(), mean_error, max_error, kUntouchedSigmas,
                   untouched_samples));
  for (const auto& [kind, errors] : touched_error) {
    result->Note(Fmt("touched-variable error, %s: %d of %zu beyond %.0f sigma at n=%.0f; "
                     "median |error| %.4f, max %.4f",
                     kind.c_str(), touched_beyond[kind], errors.size(), kTouchedSigmas,
                     touched_samples, Median(errors),
                     *std::max_element(errors.begin(), errors.end())));
  }
  result->Note(Fmt("stream: %llu rounds, %zu timed updates in %.2f s; retractions "
                   "still served (failed): %llu",
                   static_cast<unsigned long long>(rounds), update_ms.size(), window_s,
                   static_cast<unsigned long long>(result->failed)));

  // ---- traced-only probes of single layers on the live graph ----
  if (tracer->enabled()) {
    ProbeGraphLayers(graph, tracer, result);
  }

  // ---- rule development: add a rule, then retract it ----
  {
    const auto before_rule = dd->Query();
    size_t live_edges = 0;
    for (const auto& [p, endorsers] : kb.edges) live_edges += endorsers.size();
    StatusOr<incremental::UpdateReport> added = Status::OK();
    const double add_s = tracer->Timed("core.add_rule", [&] {
      added = dd->AddRule(kTrustPriorRule, /*learn=*/false);
    });
    result->Check(added.ok(), "AddRule: " + added.status().ToString());
    StatusOr<incremental::UpdateReport> retracted = Status::OK();
    const double retract_s = tracer->Timed("core.retract_rule", [&] {
      retracted = dd->RetractRule("PRIOR");
    });
    result->Check(retracted.ok(), "RetractRule: " + retracted.status().ToString());
    if (added.ok() && retracted.ok()) {
      result->Check(added->grounding_work == live_edges,
                    Fmt("AddRule grounded %llu, the edge set holds %zu",
                        static_cast<unsigned long long>(added->grounding_work),
                        live_edges));
      result->Check(dd->Query()->marginals == before_rule->marginals,
                    "retracting the just-added rule did not restore the marginals");
      result->Note(Fmt("rule cycle: add %.3f s (%s, inference %.3f s), retract %.3f s",
                       add_s, incremental::StrategyName(added->strategy),
                       added->inference_seconds, retract_s));
    }
  }

  if (tracer->enabled()) {
    ReplayInitialize(kTrustProgram, rows, config, init_report.graph_variables,
                     init_report.graph_factors, /*probe_graph=*/false, tracer,
                     result);
    AddReportLayers(reports, /*touched_per_update=*/1, result);
    result->per_layer["incremental.view_lookup_us"] = {Median(reads.lookup_us), "us"};
    result->per_layer["core.query_pin_us"] = {Median(reads.pin_us), "us"};
    result->per_layer["trace.update_p50_ms"] = {Median(update_ms), "ms"};
  } else {
    auto& e2e = result->end_to_end;
    e2e["setup_s"] = {setup_s, "s"};
    e2e["update_p90_ms"] = {Percentile(update_ms, 90), "ms"};
    e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  }
  result->Check(!reads.out_of_range, "a point lookup read a marginal outside [0,1]");
  result->Note(Fmt("first update after Initialize: %.4f s", first_update_s));
  result->Note(Fmt("samples: %zu updates (p50 %.3f ms), %zu point lookups (p50 %.3f us, "
                   "p90 %.3f us, p99 %.3f us)",
                   update_ms.size(), Median(update_ms), reads.query_us.size(),
                   Median(reads.query_us), Percentile(reads.query_us, 90),
                   Percentile(reads.query_us, 99)));
}

}  // namespace kbcbench
