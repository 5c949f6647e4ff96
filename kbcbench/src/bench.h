// Shared infrastructure of the KBC benchmark: command-line arguments, the
// run result printed as the last stdout line, the span tracer, latency
// statistics, and the workload entry points.
#ifndef KBCBENCH_BENCH_H_
#define KBCBENCH_BENCH_H_

#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "factor/factor_graph.h"
#include "incremental/result_view.h"
#include "storage/value.h"

namespace kbcbench {

using Clock = std::chrono::steady_clock;
using deepdive::Tuple;
using deepdive::Value;

/// Time point taken during static initialization: the process's start as far
/// as set-up time is concerned.
Clock::time_point ProcessStart();
double SecondsSince(Clock::time_point start);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. End-to-end metrics come from untraced runs only;
/// per-layer metrics only from traced runs.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Human-readable lines printed (prefixed "# ") before the JSON line:
  /// sample counts and workload-specific figures.
  std::vector<std::string> notes;

  /// Records a correctness check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
};

/// One recorded layer call: [start, end) in seconds since process start, and
/// the index of the enclosing span (-1 at top level).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// Span recorder for the traced run. Timed() always measures the call and
/// returns its duration; only an enabled tracer keeps the span, so traced
/// and untraced runs execute the same code. Spans stay in memory and are
/// written out once, at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  template <typename Fn>
  double Timed(const char* name, Fn&& fn) {
    const int id = Begin(name);
    const Clock::time_point t0 = Clock::now();
    fn();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    End(id);
    return seconds;
  }

  /// Total self time (span duration minus the part its children cover) per
  /// span name, in seconds.
  std::map<std::string, double> SelfSeconds() const;
  size_t size() const { return spans_.size(); }

  /// Writes spans and per-name self times as JSON. Returns false on I/O
  /// failure.
  bool Write(const std::string& path) const;

 private:
  int Begin(const char* name);
  void End(int id);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Nearest-rank percentile (p in [0,100]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Peak resident set size of this process in MB.
double PeakRssMb();

/// Deterministic generator for benchmark inputs (splitmix64), independent of
/// the program's own RNG so inputs depend only on --seed.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// One update's UpdateReport figures next to its observed latency.
struct ReportSample {
  double wall_ms = 0.0;  // latency as the benchmark observed it
  double grounding_ms = 0.0;
  double learning_ms = 0.0;
  double inference_ms = 0.0;
  double grounding_work = 0.0;
  double affected_vars = 0.0;
  double acceptance = -1.0;
  std::string strategy;
};
/// Adds the per-layer metrics derived from the UpdateReports of a run's
/// updates (medians per update plus strategy counts). `touched_per_update`
/// is the number of variables each update's own delta touches, when the
/// workload knows it (0 otherwise), the base of affected_per_touched.
void AddReportLayers(const std::vector<ReportSample>& reports, size_t touched_per_update,
                     RunResult* result);

/// Replays DeepDive::Initialize through the layer classes it composes
/// (ViewMaintainer, IncrementalGrounder, Learner, EstimateMarginalsAuto,
/// IncrementalEngine::Materialize), each call inside its own span, over a
/// private copy of the program and rows. Checks the replay reaches the
/// expected variable and active-factor counts, then adds the set-up layer
/// metrics (dsl.create_ms, storage.load_s, engine.views_init_s,
/// grounding.ground_all_s, inference.learn_s, inference.marginals_s,
/// incremental.materialize_s). With `probe_graph` it also times
/// CompiledGraph::Compile and ConnectedComponents on the replayed graph
/// (factor.compile_ms, incremental.components_ms).
using RelationRows = std::vector<std::pair<std::string, std::vector<Tuple>>>;
void ReplayInitialize(const std::string& program_text, const RelationRows& rows,
                      const deepdive::core::DeepDiveConfig& config,
                      uint64_t expected_variables, uint64_t expected_factors,
                      bool probe_graph, Tracer* tracer, RunResult* result);

/// Median over three timed calls of CompiledGraph::Compile and of
/// incremental::ConnectedComponents on `graph`, as factor.compile_ms and
/// incremental.components_ms.
void ProbeGraphLayers(const deepdive::factor::FactorGraph& graph, Tracer* tracer,
                      RunResult* result);

/// Point reads of `relation` through `pin` (a DeepDive::Query-like view
/// source): each key is read once with its pin and lookup timed together
/// (query_us, the read latency a caller sees), then all keys are pinned in
/// one timed batch and looked up in another on one pinned view, so pin_us and
/// lookup_us get one per-call average each.
struct ReadTimes {
  std::vector<double> query_us;
  std::vector<double> pin_us;
  std::vector<double> lookup_us;
  bool out_of_range = false;  // a marginal outside [0,1] was served
};
void TimePointReads(
    const std::function<std::shared_ptr<const deepdive::incremental::ResultView>()>& pin,
    const std::string& relation, const std::vector<Tuple>& keys, ReadTimes* times);

/// The endorsement/trust KB of update_stream and serve_mixed: the program
/// of examples/smoke/vote.ddl (embedded copy) and its seeded rows.
/// Every Trusted variable has only its own FE1 groups (no clause bodies over
/// query variables), so the variables are independent and each has a
/// closed-form marginal.
extern const char kTrustProgram[];
/// The logical prior a rule-development cycle adds and retracts.
extern const char kTrustPriorRule[];
inline constexpr int64_t kTrustTargetBase = 1000000;  // seeded targets
inline constexpr int64_t kTrustPoolBase = 2000000;    // seed-independent pool
inline constexpr int64_t kTrustNewTargetBase = 3000000;  // targets updates create
inline constexpr double kTrustLabelShare = 0.10;

struct TrustKb {
  std::map<int64_t, std::set<int64_t>> edges;  // target -> endorsers
  std::map<int64_t, bool> labels;
  std::vector<int64_t> targets;  // the seeded targets, for random picks
};

/// `targets` seeded targets, each endorsed by 2 distinct endorsers drawn
/// uniformly from `endorsers`; a share kTrustLabelShare of them labelled
/// Bernoulli(sigmoid(2(q_a + q_b))) from a hidden quality q ~ U(-1,1) per
/// endorser. Then `pool` single-edge targets whose make-up does not depend
/// on the seed. Appends the Endorses and TrustedLabel rows to `rows`.
TrustKb GenerateTrustKb(uint64_t seed, int64_t targets, int64_t endorsers, int64_t pool,
                        RelationRows* rows);

/// Workload entry points.
void RunUpdateStream(const Args& args, Tracer* tracer, RunResult* result);
void RunDevLoop(const Args& args, Tracer* tracer, RunResult* result);
void RunServeMixed(const Args& args, Tracer* tracer, RunResult* result);

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace kbcbench

#endif  // KBCBENCH_BENCH_H_
