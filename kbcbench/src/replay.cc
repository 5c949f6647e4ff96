// Traced replay of DeepDive::Initialize through the public layer classes it
// composes, so each set-up layer gets its own span.
#include <memory>

#include "bench.h"
#include "core/deepdive.h"
#include "dsl/program.h"
#include "engine/view_maintenance.h"
#include "factor/compiled_graph.h"
#include "grounding/incremental_grounder.h"
#include "incremental/decomposition.h"
#include "incremental/engine.h"
#include "inference/compiled_inference.h"
#include "inference/learner.h"
#include "storage/database.h"
#include "util/random.h"

namespace kbcbench {

using namespace deepdive;  // NOLINT(build/namespaces)

void ReplayInitialize(const std::string& program_text, const RelationRows& rows,
                      const core::DeepDiveConfig& config,
                      uint64_t expected_variables, uint64_t expected_factors,
                      bool probe_graph, Tracer* tracer, RunResult* result) {
  auto& layer = result->per_layer;
  bool ok = true;
  auto require = [&](const Status& status, const char* what) {
    if (!status.ok()) {
      result->Check(false, std::string("replay ") + what + ": " + status.ToString());
      ok = false;
    }
  };

  // DeepDive::Create on the same program text (parse, analyze, schema).
  layer["dsl.create_ms"] = {
      1e3 * tracer->Timed("dsl.create", [&] {
        require(core::DeepDive::Create(program_text, config).status(), "Create");
      }),
      "ms"};

  StatusOr<dsl::Program> compiled = dsl::CompileProgram(program_text);
  require(compiled.status(), "CompileProgram");
  if (!ok) return;
  dsl::Program program = std::move(compiled).value();
  Database db;
  require(program.InstantiateSchema(&db), "InstantiateSchema");
  if (!ok) return;
  grounding::GroundGraph ground;
  std::unique_ptr<engine::ViewMaintainer> views;
  std::unique_ptr<grounding::IncrementalGrounder> grounder;
  std::unique_ptr<incremental::IncrementalEngine> engine;

  tracer->Timed("setup.replay", [&] {
    layer["storage.load_s"] = {tracer->Timed("storage.load", [&] {
                                 for (const auto& [relation, tuples] : rows) {
                                   Table* table = db.GetTable(relation);
                                   if (table == nullptr) {
                                     require(Status::NotFound(relation), "load");
                                     return;
                                   }
                                   for (const Tuple& row : tuples) {
                                     require(table->Insert(row).status(), "load");
                                   }
                                 }
                               }),
                               "s"};
    if (!ok) return;
    layer["engine.views_init_s"] = {
        tracer->Timed("engine.views_init",
                      [&] {
                        views = std::make_unique<engine::ViewMaintainer>(&program, &db);
                        require(views->Initialize(), "ViewMaintainer::Initialize");
                      }),
        "s"};
    if (!ok) return;
    layer["grounding.ground_all_s"] = {
        tracer->Timed("grounding.ground_all",
                      [&] {
                        grounder = std::make_unique<grounding::IncrementalGrounder>(
                            &program, &db, &ground, config.grounding);
                        require(grounder->Initialize(), "IncrementalGrounder::Initialize");
                        if (ok) require(grounder->GroundAll().status(), "GroundAll");
                      }),
        "s"};
    if (!ok) return;
    factor::FactorGraph& graph = ground.graph;
    bool has_evidence = false;
    for (factor::VarId v = 0; v < graph.NumVariables() && !has_evidence; ++v) {
      has_evidence = graph.IsEvidence(v);
    }
    layer["inference.learn_s"] = {tracer->Timed("inference.learn",
                                                [&] {
                                                  if (!has_evidence) return;
                                                  inference::Learner learner(&graph);
                                                  inference::LearnerOptions lopts =
                                                      config.learner;
                                                  lopts.warmstart = false;
                                                  lopts.seed = config.seed;
                                                  learner.Learn(lopts);
                                                }),
                                  "s"};
    layer["inference.marginals_s"] = {
        tracer->Timed("inference.marginals",
                      [&] {
                        inference::GibbsOptions gopts = config.gibbs;
                        gopts.seed = Rng::MixSeed(config.seed, /*stream=*/1);
                        inference::EstimateMarginalsAuto(graph, gopts);
                      }),
        "s"};
    layer["incremental.materialize_s"] = {
        tracer->Timed("incremental.materialize",
                      [&] {
                        engine = std::make_unique<incremental::IncrementalEngine>(&graph);
                        incremental::MaterializationOptions mopts = config.materialization;
                        mopts.seed = Rng::MixSeed(config.seed, /*stream=*/2);
                        mopts.async = false;
                        require(engine->Materialize(mopts), "Materialize");
                      }),
        "s"};
  });
  if (!ok) return;

  const factor::FactorGraph& graph = ground.graph;
  result->Check(graph.NumVariables() == expected_variables &&
                    graph.NumActiveClauses() == expected_factors,
                Fmt("replayed Initialize reaches %zu variables / %zu active factors, "
                    "DeepDive::Initialize reported %llu / %llu",
                    graph.NumVariables(), graph.NumActiveClauses(),
                    static_cast<unsigned long long>(expected_variables),
                    static_cast<unsigned long long>(expected_factors)));
  result->Note(Fmt("replay: %zu variables, %zu active factors",
                   graph.NumVariables(), graph.NumActiveClauses()));
  if (probe_graph) ProbeGraphLayers(graph, tracer, result);
}

void ProbeGraphLayers(const factor::FactorGraph& graph, Tracer* tracer,
                      RunResult* result) {
  std::vector<double> components, compile;
  for (int rep = 0; rep < 3; ++rep) {
    components.push_back(1e3 * tracer->Timed("incremental.components", [&] {
      incremental::ConnectedComponents(graph);
    }));
    compile.push_back(1e3 * tracer->Timed("factor.compile", [&] {
      factor::CompiledGraph::Compile(graph);
    }));
  }
  result->per_layer["incremental.components_ms"] = {Median(components), "ms"};
  result->per_layer["factor.compile_ms"] = {Median(compile), "ms"};
}

}  // namespace kbcbench
