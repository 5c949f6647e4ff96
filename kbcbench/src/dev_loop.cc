// dev_loop: the development loop of the paper's Figure 8 on the News
// profile scaled about 20x: KbcPipeline::Initialize, then the rule updates
// A1, FE1, FE2, I1, S1 and S2, at 4 program threads.
#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "bench.h"
#include "core/deepdive.h"
#include "kbc/candidates.h"
#include "kbc/pipeline.h"
#include "kbc/supervision.h"
#include "oracles.h"

namespace kbcbench {

using namespace deepdive;  // NOLINT(build/namespaces)

namespace {

constexpr size_t kScale = 20;
constexpr size_t kThreads = 4;
constexpr int kQueriesPerUpdate = 2000;
// Quality floors after S2 at threshold 0.5, checked against the corpus gold
// truth (see README for the observed values they sit under).
constexpr double kThreshold = 0.5;
constexpr double kMinMentionPrecision = 0.25;
constexpr double kMinMentionRecall = 0.45;
constexpr double kMinFactPrecision = 0.12;
constexpr double kMinFactRecall = 0.70;

using Pair = std::pair<int64_t, int64_t>;

/// Mention pairs a supervision rule of the pipeline labels:
///   HasSpouseLabel(m1, m2, l) :- PersonCandidate(s, m1), PersonCandidate(s, m2),
///       EL(m1, e1), EL(m2, e2), <KB>(e1, e2), m1 != m2.
/// evaluated by the benchmark over its own copy of the input rows.
std::set<Pair> SupervisedPairs(const kbc::CandidateRows& candidates,
                               const std::vector<Tuple>& kb_rows) {
  std::set<Pair> kb;
  for (const Tuple& row : kb_rows) kb.insert({row[0].AsInt(), row[1].AsInt()});
  std::multimap<int64_t, int64_t> links;  // mention -> entity
  for (const Tuple& row : candidates.entity_links) {
    links.insert({row[0].AsInt(), row[1].AsInt()});
  }
  std::map<int64_t, std::vector<int64_t>> by_sentence;
  for (const Tuple& row : candidates.person_candidates) {
    by_sentence[row[0].AsInt()].push_back(row[1].AsInt());
  }
  std::set<Pair> out;
  for (const auto& [sentence, mentions] : by_sentence) {
    for (int64_t m1 : mentions) {
      for (int64_t m2 : mentions) {
        if (m1 == m2) continue;
        const auto [b1, e1] = links.equal_range(m1);
        for (auto i = b1; i != e1; ++i) {
          const auto [b2, e2] = links.equal_range(m2);
          for (auto j = b2; j != e2; ++j) {
            if (kb.count({i->second, j->second})) out.insert({m1, m2});
          }
        }
      }
    }
  }
  return out;
}

}  // namespace

void RunDevLoop(const Args& args, Tracer* tracer, RunResult* result) {
  kbc::SystemProfile profile = kbc::ProfileFor(kbc::SystemKind::kNews);
  profile.num_documents *= kScale;
  profile.num_entities *= kScale;
  profile.num_true_pairs *= kScale;
  profile.num_negative_pairs *= kScale;

  kbc::PipelineOptions options;
  options.config = core::FastTestConfig();
  core::DeepDiveConfig& config = options.config;
  config.grounding.num_threads = kThreads;
  config.gibbs.num_threads = kThreads;
  config.learner.num_threads = kThreads;
  config.materialization.num_threads = kThreads;
  config.materialization.variational.num_threads = kThreads;
  config.engine.gibbs.num_threads = kThreads;
  config.engine.rerun_gibbs.num_threads = kThreads;
  options.seed = args.seed;

  auto built = kbc::KbcPipeline::Build(profile, options);
  if (!built.ok()) {
    result->Check(false, "KbcPipeline::Build: " + built.status().ToString());
    return;
  }
  std::unique_ptr<kbc::KbcPipeline> pipeline = std::move(built).value();
  const std::string program_text = pipeline->deepdive().program().ToString();
  const Status init = pipeline->Initialize();
  pipeline->deepdive().WaitForView(1);
  const double setup_s = SecondsSince(ProcessStart());
  if (!init.ok()) {
    result->Check(false, "Initialize: " + init.ToString());
    return;
  }
  core::DeepDive& dd = pipeline->deepdive();
  const incremental::UpdateReport init_report = dd.Query()->report;
  const kbc::Corpus& corpus = pipeline->corpus();

  // The benchmark's own copy of the pipeline's inputs (public generators,
  // same seeds as KbcPipeline::Build) for the supervision oracle and the
  // traced replay.
  const kbc::CandidateRows candidates = kbc::GenerateCandidates(corpus, options.seed + 1);
  const kbc::KnowledgeBaseRows kb_rows = kbc::BuildKnowledgeBase(corpus);
  const std::set<Pair> positives = SupervisedPairs(candidates, kb_rows.known_positive);
  const std::set<Pair> negatives = SupervisedPairs(candidates, kb_rows.known_negative);

  std::vector<Tuple> lookup_keys;
  if (const auto* entries = dd.Query()->Relation(kbc::KbcPipeline::QueryRelation())) {
    for (const auto& [tuple, marginal] : *entries) lookup_keys.push_back(tuple);
  }
  result->Check(!lookup_keys.empty(), "no HasSpouse candidates after Initialize");
  if (lookup_keys.empty()) return;

  InputRng rng(args.seed ^ 0xde71ull);
  std::vector<ReportSample> reports;
  std::vector<double> update_ms;
  ReadTimes reads;
  uint64_t last_epoch = dd.Query()->epoch;
  uint64_t factors = init_report.graph_factors;
  uint64_t variables = init_report.graph_variables;
  double rule_updates_s = 0.0;

  auto read_exact = [&](const std::set<Pair>& pairs, const std::set<Pair>& conflicts,
                        double want, const char* what) {
    const auto view = dd.Query();
    size_t wrong = 0;
    for (const Pair& pair : pairs) {
      if (conflicts.count(pair)) continue;
      const double m = view->MarginalOf(kbc::KbcPipeline::QueryRelation(),
                                        Tuple{Value(pair.first), Value(pair.second)});
      wrong += m != want;
    }
    result->Check(wrong == 0, Fmt("%zu of %zu %s-labelled pairs do not read %.0f", wrong,
                                  pairs.size(), what, want));
  };

  for (const std::string& label : kbc::KbcPipeline::UpdateSequence()) {
    StatusOr<incremental::UpdateReport> report = Status::OK();
    const double seconds = tracer->Timed("core.apply_update", [&] {
      report = pipeline->ApplyUpdate(label);
    });
    ++result->attempted;
    if (!report.ok()) {
      ++result->failed;
      result->Check(false, label + ": " + report.status().ToString());
      return;
    }
    rule_updates_s += seconds;
    update_ms.push_back(1e3 * seconds);
    result->Note(Fmt("core.update_s.%s = %.4f s (grounding %.4f, learning %.4f, "
                     "inference %.4f; %s; work %llu; factors %llu)",
                     label.c_str(), seconds, report->grounding_seconds,
                     report->learning_seconds, report->inference_seconds,
                     incremental::StrategyName(report->strategy),
                     static_cast<unsigned long long>(report->grounding_work),
                     static_cast<unsigned long long>(report->graph_factors)));
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

    // Properties the method must have.
    result->Check(report->epoch == last_epoch + 1,
                  Fmt("%s published epoch %llu after %llu", label.c_str(),
                      static_cast<unsigned long long>(report->epoch),
                      static_cast<unsigned long long>(last_epoch)));
    last_epoch = report->epoch;
    result->Check(report->graph_factors >= factors &&
                      report->grounding_work == report->graph_factors - factors,
                  Fmt("%s: grounding_work %llu, active factors %llu -> %llu", label.c_str(),
                      static_cast<unsigned long long>(report->grounding_work),
                      static_cast<unsigned long long>(factors),
                      static_cast<unsigned long long>(report->graph_factors)));
    if (label == "A1") {
      result->Check(report->grounding_work == 0, "A1 grounded something");
    }
    if (label == "FE1" || label == "FE2" || label == "I1") {
      result->Check(report->graph_variables == variables,
                    Fmt("%s changed the variable count %llu -> %llu", label.c_str(),
                        static_cast<unsigned long long>(variables),
                        static_cast<unsigned long long>(report->graph_variables)));
    }
    factors = report->graph_factors;
    variables = report->graph_variables;

    std::set<Pair> conflicts;
    for (const Pair& p : positives) {
      if (negatives.count(p)) conflicts.insert(p);
    }
    if (label == "S1") read_exact(positives, conflicts, 1.0, "S1");
    if (label == "S2") {
      read_exact(positives, conflicts, 1.0, "S1");
      read_exact(negatives, conflicts, 0.0, "S2");
    }

    std::vector<Tuple> keys;
    for (int q = 0; q < kQueriesPerUpdate; ++q) {
      keys.push_back(lookup_keys[rng.Below(lookup_keys.size())]);
    }
    TimePointReads([&] { return dd.Query(); }, kbc::KbcPipeline::QueryRelation(), keys,
                   &reads);
  }
  result->Note(Fmt("rule_updates_s = %.4f s (A1..S2); supervision pairs: %zu positive, "
                   "%zu negative",
                   rule_updates_s, positives.size(), negatives.size()));

  // ---- quality against the corpus gold truth ----
  {
    const auto view = dd.Query();
    std::vector<std::pair<double, bool>> scored;
    std::set<Pair> predicted_facts, extractable;
    auto ordered = [](int64_t a, int64_t b) { return a < b ? Pair{a, b} : Pair{b, a}; };
    for (const kbc::SentenceRecord& s : corpus.sentences) {
      const Pair p = ordered(s.entity1, s.entity2);
      if (corpus.true_pairs.count(p)) extractable.insert(p);
    }
    if (const auto* entries = view->Relation(kbc::KbcPipeline::QueryRelation())) {
      for (const auto& [tuple, marginal] : *entries) {
        const int64_t sent = tuple[0].AsInt() / kbc::kMentionStride;
        const bool in_range = sent >= 0 && static_cast<size_t>(sent) < corpus.sentences.size();
        const kbc::SentenceRecord* s =
            in_range ? &corpus.sentences[static_cast<size_t>(sent)] : nullptr;
        scored.emplace_back(marginal, s != nullptr && s->expresses_relation);
        if (s != nullptr && marginal >= kThreshold) {
          predicted_facts.insert(ordered(s->entity1, s->entity2));
        }
      }
    }
    const Quality mention = ScoreMentions(scored, kThreshold);
    const Quality fact = ScoreFacts(predicted_facts, corpus.true_pairs, extractable);
    result->Note(Fmt("quality after S2 at %.1f: mention P %.3f R %.3f (%zu predicted, "
                     "base rate %.3f), fact P %.3f R %.3f (%zu predicted, %zu extractable)",
                     kThreshold, mention.precision, mention.recall, mention.predicted,
                     scored.empty() ? 0.0
                                    : static_cast<double>(mention.relevant) / scored.size(),
                     fact.precision, fact.recall, fact.predicted, fact.relevant));
    result->Check(mention.precision >= kMinMentionPrecision &&
                      mention.recall >= kMinMentionRecall,
                  Fmt("mention quality P %.3f R %.3f below the floor", mention.precision,
                      mention.recall));
    result->Check(fact.precision >= kMinFactPrecision && fact.recall >= kMinFactRecall,
                  Fmt("fact quality P %.3f R %.3f below the floor", fact.precision,
                      fact.recall));
  }

  if (tracer->enabled()) {
    const factor::FactorGraph& graph = dd.ground().graph;
    ProbeGraphLayers(graph, tracer, result);
    const RelationRows rows = {{"Sentence", candidates.sentences},
                               {"PersonCandidate", candidates.person_candidates},
                               {"EL", candidates.entity_links},
                               {"KnownSpouse", kb_rows.known_positive},
                               {"KnownNegative", kb_rows.known_negative}};
    ReplayInitialize(program_text, rows, config, init_report.graph_variables,
                     init_report.graph_factors, /*probe_graph=*/false, tracer,
                     result);
    AddReportLayers(reports, /*touched_per_update=*/0, result);
    result->per_layer["incremental.view_lookup_us"] = {Median(reads.lookup_us), "us"};
    result->per_layer["core.query_pin_us"] = {Median(reads.pin_us), "us"};
    result->per_layer["trace.update_p50_ms"] = {Median(update_ms), "ms"};
  } else {
    auto& e2e = result->end_to_end;
    e2e["setup_s"] = {setup_s, "s"};
    e2e["update_p90_ms"] = {Percentile(update_ms, 90), "ms"};
    e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  }
  result->Note(Fmt("graph after S2: %llu variables, %llu active factors; samples: %zu "
                   "updates (p50 %.3f ms), %zu point lookups (p50 %.3f us, p90 %.3f us)",
                   static_cast<unsigned long long>(variables),
                   static_cast<unsigned long long>(factors), update_ms.size(),
                   Median(update_ms), reads.query_us.size(), Median(reads.query_us),
                   Percentile(reads.query_us, 90)));
  result->Check(!reads.out_of_range, "a point lookup read a marginal outside [0,1]");
}

}  // namespace kbcbench
