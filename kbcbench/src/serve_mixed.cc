// serve_mixed: an open loop against an in-process serve::srv::Server over
// loopback. One connection streams re-learning apply_update inserts at a
// fixed rate; two connections send point queries at a fixed total rate, after
// a short query-only phase.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "bench.h"
#include "core/deepdive.h"
#include "oracles.h"
#include "serve/serve.h"
#include "storage/text_io.h"

namespace kbcbench {

using namespace deepdive;  // NOLINT(build/namespaces)

namespace {

constexpr char kTenant[] = "kb";

constexpr int64_t kTargets = 20000;
constexpr int64_t kEndorsers = 2000;
constexpr double kUpdatesPerSecond = 2.0;
constexpr double kQueriesPerSecond = 1000.0;  // total over the query connections
constexpr int kQueryConnections = 2;
constexpr double kIdleSeconds = 3.0;
constexpr int kDispatchProbes = 2000;

std::string Tsv(const std::vector<Tuple>& tuples) {
  std::string out;
  for (const Tuple& t : tuples) {
    out += FormatTsvLine(t).value();
    out += '\n';
  }
  return out;
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// One query connection's open loop: requests fall due every `period` from
/// `start` until `stop`; each is timed from its due time.
struct QueryLoad {
  std::vector<double> latency_us;
  std::vector<double> late_us;  // send time - due time
  uint64_t failed = 0;
  uint64_t epoch_regressions = 0;
  std::string error;
};

void RunQueries(const std::string& address, const std::vector<int64_t>& targets,
                uint64_t seed, Clock::time_point start, Clock::time_point stop,
                double period_s, QueryLoad* load) {
  auto client = serve::comm::Client::Dial(address);
  if (!client.ok()) {
    load->error = client.status().ToString();
    return;
  }
  InputRng rng(seed);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(period_s));
  uint64_t last_epoch = 0;
  for (uint64_t i = 0;; ++i) {
    const Clock::time_point due = start + i * period;
    if (due >= stop) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    serve::comm::Request request;
    request.tenant = kTenant;
    request.body = serve::comm::QueryRequest{
        "Trusted", std::to_string(targets[rng.Below(targets.size())]), 0.0};
    auto response = client->Call(request);
    const Clock::time_point done = Clock::now();
    const auto* result = response.ok() && response->ok()
                             ? std::get_if<serve::comm::QueryResult>(&response->body)
                             : nullptr;
    if (result == nullptr || !result->found ||
        !(result->marginal >= 0.0 && result->marginal <= 1.0)) {
      ++load->failed;
      if (!response.ok()) {
        load->error = response.status().ToString();
        return;
      }
      continue;
    }
    load->epoch_regressions += result->epoch < last_epoch;
    last_epoch = result->epoch;
    load->latency_us.push_back(Micros(done - due));
    load->late_us.push_back(Micros(sent - due));
  }
}

}  // namespace

void RunServeMixed(const Args& args, Tracer* tracer, RunResult* result) {
  RelationRows rows;
  TrustKb kb = GenerateTrustKb(args.seed, kTargets, kEndorsers, /*pool=*/0, &rows);

  serve::service::TenantRegistry registry;
  serve::handlers::Dispatcher dispatcher(&registry);
  serve::srv::ServerOptions server_options;
  server_options.listen_address = "127.0.0.1:0";
  server_options.connection_workers = kQueryConnections + 2;
  serve::srv::Server server(&dispatcher, server_options);
  if (const Status started = server.Start(); !started.ok()) {
    result->Check(false, "server start: " + started.ToString());
    return;
  }
  const std::string address = server.address();
  auto admin = serve::comm::Client::Dial(address);
  if (!admin.ok()) {
    result->Check(false, "dial: " + admin.status().ToString());
    return;
  }
  auto call = [&](serve::comm::Request request) -> serve::comm::Response {
    request.tenant = kTenant;
    auto response = admin->Call(request);
    if (!response.ok()) return serve::comm::Response::Error(response.status());
    return std::move(response).value();
  };

  // ---- set-up: create_tenant with the daemon's default tenant config ----
  serve::comm::CreateTenantRequest create;
  create.name = kTenant;
  create.program = kTrustProgram;
  for (const auto& [relation, tuples] : rows) {
    create.data.push_back({relation, Tsv(tuples)});
  }
  const serve::comm::TenantConfig tenant_config = create.config;
  serve::comm::Response created = call({kTenant, std::move(create)});
  const double setup_s = SecondsSince(ProcessStart());
  const auto* created_info = std::get_if<serve::comm::CreateTenantResult>(&created.body);
  if (!created.ok() || created_info == nullptr) {
    result->Check(false, "create_tenant: " + created.message);
    return;
  }
  serve::service::TenantInstance* tenant = registry.Find(kTenant);
  uint64_t epoch = created_info->epoch;

  InputRng rng(args.seed ^ 0x5e7eull);
  int64_t next_new_target = kTrustNewTargetBase;
  uint64_t updates_sent = 0;
  // One insert: alternately an edge creating a new target and an edge into
  // an existing one.
  auto next_update = [&]() {
    serve::comm::UpdateRequest body;
    body.label = Fmt("insert#%llu", static_cast<unsigned long long>(updates_sent));
    int64_t target, endorser;
    if (updates_sent % 2 == 0) {
      target = next_new_target++;
      endorser = static_cast<int64_t>(rng.Below(kEndorsers));
    } else {
      target = kb.targets[rng.Below(kb.targets.size())];
      do {
        endorser = static_cast<int64_t>(rng.Below(kEndorsers));
      } while (kb.edges[target].count(endorser));
    }
    kb.edges[target].insert(endorser);
    body.inserts.push_back({"Endorses", Fmt("%lld\t%lld\n", static_cast<long long>(endorser),
                                            static_cast<long long>(target))});
    ++updates_sent;
    return body;
  };
  uint64_t updates_applied = 0, updates_failed = 0;
  std::vector<ReportSample> reports;
  std::vector<double> update_ms, update_late_ms;
  // Sends one update and records it; `due` is when it fell due.
  auto send_update = [&](serve::comm::UpdateRequest body, Clock::time_point due) {
    const Clock::time_point sent = Clock::now();
    serve::comm::Response response = call({kTenant, std::move(body)});
    const Clock::time_point done = Clock::now();
    const auto* applied = std::get_if<serve::comm::UpdateResult>(&response.body);
    if (!response.ok() || applied == nullptr) {
      ++updates_failed;
      result->Check(false, "apply_update: " + response.message);
      return 0.0;
    }
    ++updates_applied;
    result->Check(applied->epoch == epoch + 1,
                  Fmt("apply_update published epoch %llu after %llu",
                      static_cast<unsigned long long>(applied->epoch),
                      static_cast<unsigned long long>(epoch)));
    epoch = applied->epoch;
    const double latency_ms = std::chrono::duration<double, std::milli>(done - due).count();
    ReportSample sample;
    sample.wall_ms = latency_ms;
    sample.grounding_ms = 1e3 * applied->grounding_seconds;
    sample.learning_ms = 1e3 * applied->learning_seconds;
    sample.inference_ms = 1e3 * applied->inference_seconds;
    sample.affected_vars = static_cast<double>(applied->affected_vars);
    sample.strategy = applied->strategy;
    // The rest of the report rides on the published view of that epoch.
    const auto view = tenant->deepdive()->Query();
    if (view->epoch == applied->epoch) {
      sample.acceptance = view->report.acceptance_rate;
      sample.grounding_work = static_cast<double>(view->report.grounding_work);
    }
    reports.push_back(sample);
    update_late_ms.push_back(std::chrono::duration<double, std::milli>(sent - due).count());
    return latency_ms;
  };

  // ---- the tenant's first update, awaited before the timed window ----
  const Clock::time_point first_due = Clock::now();
  const double first_update_s = send_update(next_update(), first_due) / 1e3;
  reports.clear();
  update_late_ms.clear();

  // ---- query-only phase ----
  const double period_s = kQueryConnections / kQueriesPerSecond;
  auto run_query_phase = [&](Clock::time_point start, Clock::time_point stop,
                             uint64_t phase, std::vector<QueryLoad>* loads) {
    loads->assign(kQueryConnections, QueryLoad{});
    std::vector<std::thread> threads;
    for (int c = 0; c < kQueryConnections; ++c) {
      threads.emplace_back(RunQueries, address, std::cref(kb.targets),
                           args.seed * 131 + phase * 7 + c, start, stop, period_s,
                           &(*loads)[c]);
    }
    return threads;
  };
  std::vector<QueryLoad> idle_loads;
  {
    const Clock::time_point start = Clock::now();
    auto threads = run_query_phase(
        start, start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kIdleSeconds)),
        0, &idle_loads);
    for (auto& t : threads) t.join();
  }

  // ---- mixed window: the update stream beside the query load ----
  std::vector<QueryLoad> loads;
  const Clock::time_point window = Clock::now();
  const Clock::time_point window_end =
      window + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(args.seconds));
  {
    auto threads = run_query_phase(window, window_end, 1, &loads);
    const auto update_period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kUpdatesPerSecond));
    for (uint64_t i = 0;; ++i) {
      const Clock::time_point due = window + i * update_period;
      if (due >= window_end) break;
      std::this_thread::sleep_until(due);
      update_ms.push_back(send_update(next_update(), due));
    }
    for (auto& t : threads) t.join();
  }

  std::vector<double> query_us, query_late_us, idle_us;
  uint64_t queries_failed = 0, epoch_regressions = 0;
  for (const QueryLoad& load : idle_loads) {
    idle_us.insert(idle_us.end(), load.latency_us.begin(), load.latency_us.end());
    queries_failed += load.failed;
    result->Check(load.error.empty(), "query connection: " + load.error);
  }
  for (const QueryLoad& load : loads) {
    query_us.insert(query_us.end(), load.latency_us.begin(), load.latency_us.end());
    query_late_us.insert(query_late_us.end(), load.late_us.begin(), load.late_us.end());
    queries_failed += load.failed;
    epoch_regressions += load.epoch_regressions;
    result->Check(load.error.empty(), "query connection: " + load.error);
  }
  result->attempted = update_ms.size() + query_us.size() + queries_failed;
  result->failed = updates_failed + queries_failed;
  result->Check(epoch_regressions == 0,
                Fmt("%llu query replies went back in epoch",
                    static_cast<unsigned long long>(epoch_regressions)));

  // ---- checks against the benchmark's own tallies and target set ----
  {
    serve::comm::Response status = call({kTenant, serve::comm::StatusRequest{}});
    const auto* tenants = std::get_if<serve::comm::StatusResult>(&status.body);
    const bool have = status.ok() && tenants != nullptr && tenants->tenants.size() == 1;
    result->Check(have, "status: " + status.message);
    if (have) {
      const serve::comm::TenantStatus& s = tenants->tenants.front();
      const auto mismatches = TallyMismatches(
          {{"updates_applied", s.updates_applied},
           {"updates_shed", s.updates_shed},
           {"epoch", s.epoch}},
          {{"updates_applied", updates_applied},
           {"updates_shed", 0},
           {"epoch", 1 + updates_applied}});
      for (const std::string& m : mismatches) result->Check(false, "status " + m);
    }
    serve::comm::Response count =
        call({kTenant, serve::comm::QueryRequest{"Trusted", "", 0.0}});
    const auto* counted = std::get_if<serve::comm::QueryResult>(&count.body);
    result->Check(count.ok() && counted != nullptr && counted->entries == kb.edges.size(),
                  Fmt("relation query counts %llu targets, the benchmark holds %zu",
                      counted ? static_cast<unsigned long long>(counted->entries) : 0ull,
                      kb.edges.size()));
    const auto view = tenant->deepdive()->Query();
    size_t wrong = 0;
    for (const auto& [p, label] : kb.labels) {
      wrong += view->MarginalOf("Trusted", Tuple{Value(p)}) != (label ? 1.0 : 0.0);
    }
    result->Check(wrong == 0, Fmt("%zu of %zu labelled targets do not read their label",
                                  wrong, kb.labels.size()));
  }

  // ---- rule development over the wire: add a rule, then retract it ----
  {
    size_t live_edges = 0;
    for (const auto& [p, endorsers] : kb.edges) live_edges += endorsers.size();
    serve::comm::Response added;
    const double add_s = tracer->Timed("serve.add_rule", [&] {
      added = call({kTenant, serve::comm::AddRuleRequest{kTrustPriorRule}});
    });
    const auto* add = std::get_if<serve::comm::AddRuleResult>(&added.body);
    result->Check(added.ok() && add != nullptr && add->grounding_work == live_edges &&
                      add->epoch == epoch + 1,
                  "add_rule: " + added.message +
                      Fmt(" (grounded %llu, edge set %zu)",
                          add ? static_cast<unsigned long long>(add->grounding_work) : 0ull,
                          live_edges));
    serve::comm::Response retracted;
    const double retract_s = tracer->Timed("serve.retract_rule", [&] {
      retracted = call({kTenant, serve::comm::RetractRuleRequest{"PRIOR"}});
    });
    const auto* retract = std::get_if<serve::comm::RetractRuleResult>(&retracted.body);
    result->Check(retracted.ok() && retract != nullptr && retract->epoch == epoch + 2,
                  "retract_rule: " + retracted.message);
    result->Note(Fmt("rule cycle over the wire: add_rule %.3f s, retract_rule %.3f s", add_s,
                     retract_s));
  }

  const double window_s = std::chrono::duration<double>(window_end - window).count();
  result->Note(Fmt("window %.1f s: %zu updates (%.1f/s offered), %zu queries "
                   "(%.0f/s offered over %d connections); %zu idle-phase queries",
                   window_s, update_ms.size(), kUpdatesPerSecond, query_us.size(),
                   kQueriesPerSecond, kQueryConnections, idle_us.size()));
  result->Note(Fmt("generator lateness: queries p50 %.1f us, p99 %.1f us, max %.1f us; "
                   "updates p50 %.2f ms, max %.2f ms",
                   Median(query_late_us), Percentile(query_late_us, 99),
                   query_late_us.empty() ? 0.0
                                         : *std::max_element(query_late_us.begin(),
                                                             query_late_us.end()),
                   Median(update_late_ms),
                   update_late_ms.empty() ? 0.0
                                          : *std::max_element(update_late_ms.begin(),
                                                              update_late_ms.end())));
  std::vector<double> apply_ms, overhead_ms;
  for (const ReportSample& r : reports) {
    apply_ms.push_back(r.grounding_ms + r.learning_ms + r.inference_ms);
    overhead_ms.push_back(r.wall_ms - apply_ms.back());
  }
  result->Note(Fmt("serve.apply_ms p50 %.2f; serve.update_overhead_ms p50 %.2f; "
                   "serve.query_idle_p50_us %.1f, serve.query_idle_p99_us %.1f (n=%zu)",
                   Median(apply_ms), Median(overhead_ms), Median(idle_us),
                   Percentile(idle_us, 99), idle_us.size()));

  if (tracer->enabled()) {
    // In-process dispatch of the same point query, and the read plane below
    // it, with no transport.
    std::vector<double> dispatch_us;
    std::vector<Tuple> keys;
    for (int i = 0; i < kDispatchProbes; ++i) {
      const int64_t p = kb.targets[rng.Below(kb.targets.size())];
      serve::comm::Request request;
      request.tenant = kTenant;
      request.body = serve::comm::QueryRequest{"Trusted", std::to_string(p), 0.0};
      dispatch_us.push_back(
          1e6 * tracer->Timed("serve.dispatch", [&] { dispatcher.Dispatch(request); }));
      keys.push_back(Tuple{Value(p)});
    }
    const auto dd = tenant->deepdive();
    ReadTimes reads;
    for (size_t i = 0; i < keys.size(); i += 64) {
      TimePointReads([&] { return dd->Query(); }, "Trusted",
                     std::vector<Tuple>(keys.begin() + i,
                                        keys.begin() + std::min(keys.size(), i + 64)),
                     &reads);
    }
    result->Note(Fmt("serve.dispatch_us p50 %.1f; serve.transport_us (idle wire p50 - "
                     "dispatch p50) %.1f",
                     Median(dispatch_us), Median(idle_us) - Median(dispatch_us)));
    result->per_layer["incremental.view_lookup_us"] = {Median(reads.lookup_us), "us"};
    result->per_layer["core.query_pin_us"] = {Median(reads.pin_us), "us"};
    result->per_layer["trace.update_p50_ms"] = {Median(update_ms), "ms"};
    AddReportLayers(reports, /*touched_per_update=*/1, result);

    // The tenant's DeepDive config, as TenantInstance builds it from the
    // default tenant config.
    const serve::comm::TenantConfig& t = tenant_config;
    core::DeepDiveConfig config;
    config.seed = t.seed;
    config.learner.epochs = t.epochs;
    config.grounding.num_threads = t.threads;
    config.gibbs.num_threads = t.threads;
    config.learner.num_threads = t.threads;
    config.materialization.num_threads = t.threads;
    config.materialization.variational.num_threads = t.threads;
    config.gibbs.num_replicas = t.replicas;
    config.gibbs.sync_every_sweeps = t.sync_every;
    config.learner.num_replicas = t.replicas;
    config.materialization.num_replicas = t.replicas;
    config.materialization.sync_every_sweeps = t.sync_every;
    // The tenant's live graph belongs to its writer thread, so the compile
    // and components probes run on the replayed graph of the same inputs.
    ReplayInitialize(kTrustProgram, rows, config, created_info->num_variables,
                     created_info->num_factors, /*probe_graph=*/true, tracer, result);
  } else {
    auto& e2e = result->end_to_end;
    e2e["setup_s"] = {setup_s, "s"};
    e2e["update_p90_ms"] = {Percentile(update_ms, 90), "ms"};
    e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  }
  result->Note(Fmt("the tenant's first apply_update: %.4f s", first_update_s));
  result->Note(Fmt("samples: %zu updates (p50 %.3f ms), %zu queries (p50 %.1f us, "
                   "p90 %.1f us, p99 %.1f us)",
                   update_ms.size(), Median(update_ms), query_us.size(), Median(query_us),
                   Percentile(query_us, 90), Percentile(query_us, 99)));

  server.Stop();
  registry.StopAll();
}

}  // namespace kbcbench
