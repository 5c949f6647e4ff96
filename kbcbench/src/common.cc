#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "bench.h"

namespace kbcbench {
namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point ProcessStart() { return kProcessStart; }

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string Fmt(const char* format, ...) {
  char buf[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

void RunResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "kbcbench: CHECK FAILED: %s\n", what.c_str());
}

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start = SecondsSince(kProcessStart);
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = SecondsSince(kProcessStart);
  open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].end - spans_[i].start - child_time[i];
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d}",
                 i ? "," : "", i, s.name.c_str(), s.start, s.end, s.parent);
  }
  std::fprintf(f, "\n], \"self_seconds\": {");
  bool first = true;
  for (const auto& [name, seconds] : SelfSeconds()) {
    std::fprintf(f, "%s\n  \"%s\": %.9f", first ? "" : ",", name.c_str(), seconds);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t InputRng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void TimePointReads(
    const std::function<std::shared_ptr<const deepdive::incremental::ResultView>()>& pin,
    const std::string& relation, const std::vector<Tuple>& keys, ReadTimes* times) {
  auto micros = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  for (const Tuple& key : keys) {
    const Clock::time_point t0 = Clock::now();
    const double marginal = pin()->MarginalOf(relation, key);
    times->query_us.push_back(micros(Clock::now() - t0));
    times->out_of_range |= !(marginal >= 0.0 && marginal <= 1.0);
  }
  if (keys.empty()) return;
  const double n = static_cast<double>(keys.size());
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < keys.size(); ++i) pin();
  const Clock::time_point t1 = Clock::now();
  const auto view = pin();
  const Clock::time_point t2 = Clock::now();
  double sum = 0.0;
  for (const Tuple& key : keys) sum += view->MarginalOf(relation, key);
  const Clock::time_point t3 = Clock::now();
  times->out_of_range |= !(sum >= 0.0 && sum <= n);
  times->pin_us.push_back(micros(t1 - t0) / n);
  times->lookup_us.push_back(micros(t3 - t2) / n);
}

void AddReportLayers(const std::vector<ReportSample>& reports, size_t touched_per_update,
                     RunResult* result) {
  std::vector<double> grounding, learning, inference, work, affected, unreported,
      acceptance;
  double sampling = 0, variational = 0, rerun = 0;
  for (const ReportSample& r : reports) {
    grounding.push_back(r.grounding_ms);
    learning.push_back(r.learning_ms);
    inference.push_back(r.inference_ms);
    work.push_back(r.grounding_work);
    affected.push_back(r.affected_vars);
    unreported.push_back(r.wall_ms - r.grounding_ms - r.learning_ms - r.inference_ms);
    if (r.acceptance >= 0.0) acceptance.push_back(r.acceptance);
    sampling += r.strategy == "sampling";
    variational += r.strategy == "variational";
    rerun += r.strategy == "rerun";
  }
  auto& layer = result->per_layer;
  layer["grounding.update_ms"] = {Median(grounding), "ms"};
  layer["grounding.work"] = {Median(work), "count"};
  layer["inference.learning_ms"] = {Median(learning), "ms"};
  layer["incremental.inference_ms"] = {Median(inference), "ms"};
  layer["incremental.affected_vars"] = {Median(affected), "count"};
  layer["core.unreported_ms"] = {Median(unreported), "ms"};
  // Mean MH acceptance over the updates that reported one (sampling path);
  // 0 when no update took it.
  double mean_acceptance = 0.0;
  for (double a : acceptance) mean_acceptance += a / acceptance.size();
  layer["incremental.acceptance"] = {mean_acceptance, "ratio"};
  layer["incremental.sampling_updates"] = {sampling, "count"};
  layer["incremental.variational_updates"] = {variational, "count"};
  layer["incremental.rerun_updates"] = {rerun, "count"};
  result->Note(Fmt("updates with a report: %zu (sampling %.0f, variational %.0f, "
                   "rerun %.0f); acceptance reported by %zu",
                   reports.size(), sampling, variational, rerun, acceptance.size()));
  if (touched_per_update > 0) {
    result->Note(Fmt("incremental.affected_per_touched p50 = %.1f (%zu variable(s) "
                     "touched by each update's own delta)",
                     Median(affected) / touched_per_update, touched_per_update));
  }
}

}  // namespace kbcbench
