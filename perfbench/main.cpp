// kc_perfbench: the repository's end-to-end benchmark driver.
//
//   kc_perfbench --workload gau_1m|kdd_494k|svc_4k --seed N --seconds S
//                --trace 0|1 [--trace-out PATH] [--describe TEXT]
//                [--backend pool|seq]
//
// Runs one workload for about S seconds of whole rounds, checks every
// output against the independent references in reference.hpp, and
// prints a run header (lines starting with '#') followed by one JSON
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 spans are
// recorded around the calls into each layer, exported as Chrome
// trace-event JSON to PATH, and the metrics are the per-layer ones
// computed from those spans. --backend seq runs the library workloads
// on the Sequential backend (the single-threaded baseline; svc_4k
// ignores it). Exit status 1 on any failed check.
// perfbench/README.md describes the workloads and every metric.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/solver.hpp"
#include "data/generators.hpp"
#include "data/surrogates.hpp"
#include "eval/evaluate.hpp"
#include "exec/backend.hpp"
#include "geom/kernels.hpp"
#include "geom/spatial_index.hpp"
#include "host_speed.hpp"
#include "reference.hpp"
#include "rng/rng.hpp"
#include "svc/codec.hpp"
#include "svc/service.hpp"
#include "trace.hpp"

namespace kcb {
namespace {

const std::vector<std::string> kAlgorithms = {"gon", "mrg", "ccm", "eim"};

/// Farthest-first traversal starts behind each lower bound.
constexpr std::size_t kTraversalStarts = 3;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string describe = "unknown";
  bool sequential = false;  ///< library workloads on the Sequential backend
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What every workload hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed checks
  std::vector<Metric> metrics;      ///< end-to-end metrics
  std::string kernel_isa = "unknown";
  int pool_width = 0;
  double speed = 1.0;   ///< HostSpeed::speed() over the window
  double unit_s = 0.0;  ///< HostSpeed::median_unit_seconds()
};

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string format_double(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

double paper_factor_for(const std::string& algo, int rounds) {
  return ref::paper_factor(algo, rounds, kc::CcmOptions{}.epsilon);
}

// ---------------------------------------------------------------------
// Layer probes shared by both kinds of workload. Each times one call
// into a layer's public functions from outside and records it as a
// child span of `parent`.

bool solve_builds_index(const kc::PointSet& points) {
  return !kc::force_no_prune_requested() &&
         points.dim() <= kc::kAutoPruneMaxDim &&
         points.size() >= kc::kAutoPruneMinPoints;
}

/// The index build (only where the solve builds one: at d > 8 it
/// never does, and the constructor alone would cost far more than the
/// solve), offline evaluation, a kernel scan and an empty dispatch;
/// returns the index-build plus evaluation seconds the solve paid.
double probe_layers(Tracer& tracer, int parent, std::uint64_t op,
                    const kc::PointSet& points,
                    std::span<const kc::index_t> centers,
                    kc::exec::ExecutionBackend& pool) {
  std::optional<kc::SpatialIndex> index;
  double build_s = 0.0;
  if (solve_builds_index(points)) {
    build_s = tracer.time("geom.index_build", parent, op, [&] {
      index.emplace(points);
    }).seconds;
  }

  const std::vector<kc::index_t> all = points.all_indices();
  kc::DistanceOracle oracle(points);
  oracle.bind_executor(&pool);
  if (index) oracle.bind_index(&*index, kc::PruneMode::Auto);
  const Tracer::Timed eval =
      tracer.time("eval.covering_radius", parent, op, [&] {
        (void)kc::eval::covering_radius(oracle, all, centers);
      });

  // Kernel scan: the whole set against a fixed block of 16 centers on
  // the unpruned path, so the figure is the kernels' own cost per pair.
  kc::DistanceOracle plain(points);
  plain.bind_executor(&pool);
  std::vector<kc::index_t> block;
  for (kc::index_t c = 0; c < 16 && c < points.size(); ++c) block.push_back(c);
  std::vector<double> best(points.size(), kc::kInfDist);
  const Tracer::Timed scan = tracer.time("geom.scan", parent, op, [&] {
    plain.update_nearest_multi(all, block, best);
  });
  tracer.set_arg(scan.span, "ns_per_pair",
                 scan.seconds * 1e9 /
                     static_cast<double>(points.size() * block.size()));

  // Dispatch: 256 empty parallel_for calls, one chunk per participant.
  constexpr int kDispatches = 256;
  const auto width = static_cast<std::size_t>(pool.concurrency());
  const Tracer::Timed dispatch = tracer.time("exec.dispatch", parent, op, [&] {
    for (int i = 0; i < kDispatches; ++i) {
      pool.parallel_for(width, 1, [](std::size_t, std::size_t) {});
    }
  });
  tracer.set_arg(dispatch.span, "us_per_call",
                 dispatch.seconds * 1e6 / kDispatches);
  return eval.seconds + build_s;
}

// ---------------------------------------------------------------------
// The service harness: one ServiceLoop on the shared pool, its
// consumer thread, and a closed-loop client that keeps at most
// kOutstanding requests in flight.

constexpr std::size_t kOutstanding = 4;

struct SvcLine {
  std::uint64_t id = 0;
  std::string algorithm;
  std::size_t k = 0;
  std::size_t dim = 0;
  std::vector<double> coords;  ///< exactly what the line encodes
  std::string text;
};

/// One request line in the bench/replay.hpp JSONL schema. Coordinates
/// are written shortest-round-trip, so decoding restores `coords`
/// bit for bit.
std::string encode_line(const SvcLine& line, const std::string& tenant,
                        int machines) {
  std::string text = "{\"id\": " + std::to_string(line.id) +
                     ", \"tenant\": \"" + tenant + "\", \"algorithm\": \"" +
                     line.algorithm + "\", \"k\": " + std::to_string(line.k) +
                     ", \"machines\": " + std::to_string(machines) +
                     ", \"seed\": " + std::to_string(line.id) +
                     ", \"points\": [";
  const std::size_t n = line.coords.size() / line.dim;
  text.reserve(n * line.dim * 22);
  for (std::size_t p = 0; p < n; ++p) {
    text += p == 0 ? "[" : ", [";
    for (std::size_t c = 0; c < line.dim; ++c) {
      if (c != 0) text += ", ";
      text += format_double(line.coords[p * line.dim + c]);
    }
    text += "]";
  }
  text += "]}";
  return text;
}

/// The text after `"key": ` in a flat report line ("" when absent).
std::string_view report_field(std::string_view report, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\": ";
  const std::size_t at = report.find(needle);
  if (at == std::string_view::npos) return {};
  return report.substr(at + needle.size());
}

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const auto result = std::from_chars(text.data(), text.data() + text.size(),
                                      out);
  return result.ec == std::errc();
}

struct ParsedReport {
  std::uint64_t id = 0;
  std::string status;
  std::vector<std::uint32_t> centers;
  double value = 0.0;
  int rounds = 0;
};

/// Pulls the checked fields out of one report line with the
/// benchmark's own scanning (not the program's JSON reader).
std::optional<ParsedReport> parse_report(std::string_view report) {
  ParsedReport out;
  const std::string_view status = report_field(report, "status");
  if (status.size() < 2 || status[0] != '"') return std::nullopt;
  out.status = std::string(status.substr(1, status.find('"', 1) - 1));
  if (!parse_number(report_field(report, "id"), out.id)) return std::nullopt;
  if (out.status != "ok") return out;
  std::string_view centers = report_field(report, "centers");
  if (centers.empty() || centers[0] != '[') return std::nullopt;
  centers = centers.substr(1, centers.find(']') - 1);
  while (!centers.empty()) {
    std::uint32_t c = 0;
    const auto r =
        std::from_chars(centers.data(), centers.data() + centers.size(), c);
    if (r.ec != std::errc()) return std::nullopt;
    out.centers.push_back(c);
    centers.remove_prefix(static_cast<std::size_t>(r.ptr - centers.data()));
    while (!centers.empty() && (centers[0] == ',' || centers[0] == ' ')) {
      centers.remove_prefix(1);
    }
  }
  if (!parse_number(report_field(report, "value"), out.value) ||
      !parse_number(report_field(report, "rounds"), out.rounds)) {
    return std::nullopt;
  }
  return out;
}

/// One submitted line. The report is parsed as it arrives and only the
/// checked fields are kept, so the record stays small however many
/// requests a run completes.
struct Submission {
  std::size_t line = 0;
  bool timed = true;
  Clock::time_point start;
  Clock::time_point submitted;
  Clock::time_point answered;
  std::optional<ParsedReport> report;
  std::string unreadable;  ///< head of the first report when unparseable
  int answers = 0;
};

/// How long the client waits for room in the window or for the last
/// answers before it gives up; the unanswered submissions then fail
/// their checks.
constexpr std::chrono::seconds kAnswerTimeout{20};

class ServiceHarness {
 public:
  ServiceHarness(const std::vector<SvcLine>& lines,
                 std::shared_ptr<kc::exec::ExecutionBackend> pool)
      : lines_(lines), service_(kc::svc::ServiceConfig{}, std::move(pool)) {
    consumer_ = std::thread([this] {
      try {
        service_.run();
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(mutex_);
        consumer_error_ = e.what();
        room_.notify_all();
      }
    });
  }
  ~ServiceHarness() { finish(); }
  ServiceHarness(const ServiceHarness&) = delete;
  ServiceHarness& operator=(const ServiceHarness&) = delete;

  /// Submits line `index` once the window has room; returns at once
  /// after submit() does. False, with nothing submitted, when no room
  /// opened within kAnswerTimeout or the consumer died.
  [[nodiscard]] bool submit(std::size_t index, bool timed) {
    std::size_t slot = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const bool room = room_.wait_for(lock, kAnswerTimeout, [&] {
        return outstanding_ < kOutstanding || !consumer_error_.empty();
      });
      if (!room || !consumer_error_.empty()) return false;
      ++outstanding_;
      slot = subs_.size();
      subs_.push_back(Submission{});
      subs_[slot].line = index;
      subs_[slot].timed = timed;
    }
    const Clock::time_point start = Clock::now();
    std::optional<std::string> rejection = service_.submit(
        lines_[index].text,
        [this, slot](const std::string& report) { answer(slot, report); });
    const Clock::time_point submitted = Clock::now();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      subs_[slot].start = start;
      subs_[slot].submitted = submitted;
    }
    if (rejection) answer(slot, *rejection);
    return true;
  }

  /// Blocks until nothing is outstanding; false when answers are still
  /// missing after kAnswerTimeout or the consumer died.
  [[nodiscard]] bool drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    return room_.wait_for(lock, kAnswerTimeout,
                          [&] {
                            return outstanding_ == 0 ||
                                   !consumer_error_.empty();
                          }) &&
           consumer_error_.empty();
  }

  /// Closes the service and joins its consumer; idempotent.
  void finish() {
    if (!consumer_.joinable()) return;
    service_.close();
    consumer_.join();
  }

  /// Submissions so far (call after drain() or finish()).
  [[nodiscard]] std::vector<Submission> submissions() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return {subs_.begin(), subs_.end()};
  }

  /// What escaped ServiceLoop::run(), "" when nothing did.
  [[nodiscard]] std::string consumer_error() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return consumer_error_;
  }

 private:
  void answer(std::size_t slot, const std::string& report) {
    const Clock::time_point now = Clock::now();
    std::optional<ParsedReport> parsed = parse_report(report);
    const std::lock_guard<std::mutex> lock(mutex_);
    Submission& s = subs_[slot];
    if (s.answers++ == 0) {
      s.answered = now;
      s.report = std::move(parsed);
      if (!s.report) s.unreadable = report.substr(0, 120);
      --outstanding_;
      room_.notify_all();
    }
  }

  const std::vector<SvcLine>& lines_;
  kc::svc::ServiceLoop service_;
  mutable std::mutex mutex_;
  std::condition_variable room_;
  std::size_t outstanding_ = 0;
  std::deque<Submission> subs_;
  std::string consumer_error_;
  std::thread consumer_;  ///< last: it uses every member above
};

/// One checked, timed request: what the end-to-end metrics need.
struct SvcSample {
  std::size_t line = 0;
  double latency_s = 0.0;
  double value_over_lb = 0.0;
};

/// Checks every answered submission against the references; appends
/// failures to `outcome.errors` and returns the timed samples.
std::vector<SvcSample> check_service(const std::vector<SvcLine>& lines,
                                     const std::vector<Submission>& subs,
                                     std::uint64_t seed, Outcome& outcome) {
  std::map<std::size_t, double> lb_of;
  std::map<std::size_t, std::vector<std::uint32_t>> centers_of;
  std::vector<SvcSample> samples;
  for (const Submission& s : subs) {
    const SvcLine& line = lines[s.line];
    const std::string tag = "request " + std::to_string(line.id) + ": ";
    if (s.timed) ++outcome.attempted;
    if (s.answers != 1) {
      if (s.timed) ++outcome.failed;
      outcome.errors.push_back(tag + "answered " + std::to_string(s.answers) +
                               " times");
      continue;
    }
    const std::optional<ParsedReport>& report = s.report;
    if (!report) {
      outcome.errors.push_back(tag + "unreadable report " + s.unreadable);
      continue;
    }
    if (report->status != "ok") {
      if (s.timed) ++outcome.failed;
      outcome.errors.push_back(tag + "status " + report->status);
      continue;
    }
    if (report->id != line.id) {
      outcome.errors.push_back(tag + "carries id " +
                               std::to_string(report->id));
      continue;
    }
    const ref::Points p{line.coords.data(), line.coords.size() / line.dim,
                        line.dim};
    auto [lb, fresh] = lb_of.try_emplace(s.line, 0.0);
    if (fresh) {
      lb->second = ref::lower_bound(
          p, line.k, ref::traversal_starts(p.n, kTraversalStarts, seed + line.id));
    }
    const std::string why = ref::check_solution(
        p, line.k, report->centers, report->value, lb->second,
        paper_factor_for(line.algorithm, report->rounds));
    if (!why.empty()) {
      outcome.errors.push_back(tag + why);
      continue;
    }
    auto [first, first_seen] = centers_of.try_emplace(s.line, report->centers);
    if (!first_seen && first->second != report->centers) {
      outcome.errors.push_back(tag + "centers differ between repetitions");
      continue;
    }
    if (s.timed) {
      samples.push_back(SvcSample{s.line, seconds_between(s.start, s.answered),
                                  report->value / lb->second});
    }
  }
  return samples;
}

/// Traced probes of one request line: the codec's decode and encode
/// and the solve the service would run, each from outside, plus the
/// shared layer probes on the request's points. Returns the solve and
/// encode seconds.
std::pair<double, double> probe_request(
    Tracer& tracer, const SvcLine& line, const std::string& tenant,
    const std::shared_ptr<kc::exec::ExecutionBackend>& pool) {
  const Clock::time_point start = Clock::now();
  kc::svc::WireRequest wire;
  const Tracer::Timed decode = tracer.time("svc.decode", -1, line.id, [&] {
    wire = kc::svc::parse_request(line.text);
  });
  tracer.set_arg(decode.span, "bytes", static_cast<double>(line.text.size()));
  wire.request.budgeted_eval = kc::svc::ServiceConfig{}.budgeted_eval;
  wire.request.cancel = kc::CancellationToken::make();
  kc::api::Solver solver(pool);
  kc::api::SolveReport report;
  const Tracer::Timed solve = tracer.time(
      "svc.solve", -1, line.id, [&] { report = solver.solve(wire.request); });
  std::string encoded;
  const Tracer::Timed encode = tracer.time("svc.encode", -1, line.id, [&] {
    encoded = kc::svc::write_report(wire.id, tenant, report);
  });
  const double paid = probe_layers(tracer, solve.span, line.id, wire.points,
                                   report.centers, *pool);
  const auto algo = std::find(kAlgorithms.begin(), kAlgorithms.end(),
                              line.algorithm) -
                    kAlgorithms.begin();
  for (const auto& [key, value] : std::vector<std::pair<std::string, double>>{
           {"algo", static_cast<double>(algo)},
           {"algo_s", report.wall_seconds},
           {"sim_s", report.sim_seconds},
           {"rounds", report.rounds},
           {"dist_evals", static_cast<double>(report.dist_evals)},
           {"pairs_pruned", static_cast<double>(report.pairs_pruned)},
           {"residual_s", solve.seconds - report.wall_seconds - paid}}) {
    tracer.set_arg(solve.span, key, value);
  }
  const int root = tracer.add("svc.probe", start, Clock::now(), -1, line.id);
  for (const int child : {decode.span, solve.span, encode.span}) {
    tracer.set_parent(child, root);
  }
  return {solve.seconds, encode.seconds};
}

std::string tenant_of(std::size_t index) {
  return index % 2 == 0 ? "alpha" : "beta";
}

std::vector<SvcLine> make_lines(std::size_t count, std::size_t dim,
                                std::size_t k, int machines,
                                const std::function<double(std::size_t,
                                                           std::size_t)>& coord) {
  std::vector<SvcLine> lines(count);
  for (std::size_t i = 0; i < count; ++i) {
    SvcLine& line = lines[i];
    line.id = i + 1;
    line.algorithm = kAlgorithms[i % kAlgorithms.size()];
    line.k = k;
    line.dim = dim;
    line.coords.resize(4096 * dim);
    for (std::size_t j = 0; j < line.coords.size(); ++j) {
      line.coords[j] = coord(i, j);
    }
    line.text = encode_line(line, tenant_of(i), machines);
  }
  return lines;
}

/// Sends every line once through a fresh harness, then probes each:
/// the service layer's figures on a library workload's own points.
void trace_service_layer(Tracer& tracer, const std::vector<SvcLine>& lines,
                         const std::shared_ptr<kc::exec::ExecutionBackend>& pool,
                         std::uint64_t seed, Outcome& outcome) {
  std::vector<Submission> subs;
  {
    ServiceHarness harness(lines, pool);
    bool flowing = true;
    for (std::size_t i = 0; i < lines.size() && flowing; ++i) {
      flowing = harness.submit(i, false);
    }
    if (!flowing || !harness.drain()) {
      outcome.errors.push_back("service: stalled on the traced requests");
    }
    harness.finish();
    subs = harness.submissions();
    if (!harness.consumer_error().empty()) {
      outcome.errors.push_back("service: " + harness.consumer_error());
    }
  }
  (void)check_service(lines, subs, seed, outcome);
  for (const Submission& s : subs) {
    const std::pair<double, double> cost =
        probe_request(tracer, lines[s.line], tenant_of(s.line), pool);
    const double latency = seconds_between(s.start, s.answered);
    const double submit = seconds_between(s.start, s.submitted);
    tracer.add("svc.request", s.start, s.answered, -1, lines[s.line].id,
               "client",
               {{"submit_s", submit},
                {"wait_s", latency - submit - cost.first - cost.second}});
  }
}

/// Every algorithm's median time and value ÷ LB. An algorithm with no
/// checked operation in the window is a failed check, not a median of 0.
void push_algorithm_metrics(
    std::map<std::size_t, std::vector<double>>& seconds_of,
    std::map<std::size_t, std::vector<double>>& ratio_of, Outcome& outcome) {
  for (std::size_t a = 0; a < kAlgorithms.size(); ++a) {
    if (seconds_of[a].empty()) {
      outcome.errors.push_back(kAlgorithms[a] + ": no checked operation");
    }
    outcome.metrics.push_back(
        {kAlgorithms[a] + "_solve_s_p50", median(seconds_of[a]), "s"});
  }
  for (std::size_t a = 0; a < kAlgorithms.size(); ++a) {
    outcome.metrics.push_back(
        {kAlgorithms[a] + "_value_over_lb", median(ratio_of[a]), "ratio"});
  }
}

// ---------------------------------------------------------------------
// Library workloads: one Solver on one pool, the four algorithms round
// robin on one point set.

/// The pool's scheduling counters (zero on the Sequential backend).
kc::exec::Scheduler::Stats scheduler_stats(kc::exec::ExecutionBackend& backend) {
  auto* pool = dynamic_cast<kc::exec::ThreadPoolBackend*>(&backend);
  return pool != nullptr ? pool->scheduler().stats()
                         : kc::exec::Scheduler::Stats{};
}

struct LibrarySpec {
  std::size_t k = 0;
  /// One round of the measuring window, as indices into kAlgorithms.
  std::vector<std::size_t> round;
  std::function<kc::PointSet(kc::Rng&)> generate;
};

struct SolveSample {
  std::size_t algo = 0;
  double seconds = 0.0;
  kc::api::SolveReport report;
};

Outcome run_library(const LibrarySpec& spec, const Args& args,
                    Tracer& tracer) {
  Outcome outcome;
  outcome.pool_width = args.sequential ? 1 : available_cpus();

  std::optional<kc::PointSet> points;
  std::shared_ptr<kc::exec::ExecutionBackend> pool;
  std::optional<kc::api::Solver> solver;
  const auto request_for = [&](std::size_t algo) {
    kc::api::SolveRequest request;
    request.points = &*points;
    request.k = spec.k;
    request.algorithm = kAlgorithms[algo];
    request.seed = args.seed;
    return request;
  };

  // Set-up, kSetups times from scratch; the last one stays.
  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    solver.reset();
    pool.reset();
    points.reset();
    const Clock::time_point start = Clock::now();
    kc::Rng rng(args.seed);
    points.emplace(spec.generate(rng));
    const Clock::time_point generated = Clock::now();
    pool = args.sequential
               ? std::shared_ptr<kc::exec::ExecutionBackend>(
                     std::make_shared<kc::exec::SequentialBackend>())
               : std::make_shared<kc::exec::ThreadPoolBackend>(
                     outcome.pool_width);
    solver.emplace(pool);
    const kc::api::SolveReport first = solver->solve(request_for(0));
    const Clock::time_point end = Clock::now();
    outcome.kernel_isa = first.kernel_isa;
    setups.push_back(seconds_between(start, end));
    tracer.add("data.generate", start, generated, -1, 0);
  }

  // The measuring window: whole rounds of the four algorithms, each
  // solve preceded by a host-speed sample on as many threads.
  HostSpeed host(outcome.pool_width);
  std::vector<SolveSample> samples;
  std::uint64_t op = 0;
  const Clock::time_point window = Clock::now();
  int rounds = 0;
  double elapsed = 0.0;
  do {
    for (const std::size_t algo : spec.round) {
      for (int i = 0; i < 3; ++i) host.sample();
      const kc::api::SolveRequest request = request_for(algo);
      const kc::exec::Scheduler::Stats before = scheduler_stats(*pool);
      ++op;
      ++outcome.attempted;
      SolveSample sample;
      sample.algo = algo;
      const Clock::time_point start = Clock::now();
      try {
        sample.report = solver->solve(request);
      } catch (const std::exception& e) {
        ++outcome.failed;
        outcome.errors.push_back(kAlgorithms[algo] + ": solve threw: " +
                                 e.what());
        continue;
      }
      const Clock::time_point end = Clock::now();
      sample.seconds = seconds_between(start, end);
      if (tracer.on()) {
        const kc::exec::Scheduler::Stats after = scheduler_stats(*pool);
        const int solve = tracer.add("api.solve", start, end, -1, op);
        const double paid = probe_layers(tracer, solve, op, *points,
                                         sample.report.centers, *pool);
        const kc::api::SolveReport& r = sample.report;
        const double tasks = static_cast<double>(after.executed - before.executed);
        const double steals = static_cast<double>(after.stolen - before.stolen);
        for (const auto& [key, value] :
             std::vector<std::pair<std::string, double>>{
                 {"algo", static_cast<double>(algo)},
                 {"algo_s", r.wall_seconds},
                 {"sim_s", r.sim_seconds},
                 {"rounds", r.rounds},
                 {"dist_evals", static_cast<double>(r.dist_evals)},
                 {"pairs_pruned", static_cast<double>(r.pairs_pruned)},
                 {"exec_tasks", tasks},
                 {"exec_steals", steals},
                 {"residual_s", sample.seconds - r.wall_seconds - paid}}) {
          tracer.set_arg(solve, key, value);
        }
      }
      samples.push_back(std::move(sample));
    }
    ++rounds;
    elapsed = seconds_between(window, Clock::now());
  } while (elapsed + elapsed / rounds <= args.seconds);
  const double window_s = seconds_between(window, Clock::now());
  outcome.speed = host.speed();
  outcome.unit_s = host.median_unit_seconds();

  if (tracer.on()) {
    // The service layer on this workload's points: 16 requests of 4096
    // points each, cut from the front of the set.
    const std::size_t dim = points->dim();
    const std::vector<SvcLine> lines = make_lines(
        16, dim, spec.k, 8, [&](std::size_t i, std::size_t j) {
          return points->raw()[(i * 4096 * dim + j) % points->raw().size()];
        });
    trace_service_layer(tracer, lines, pool, args.seed, outcome);
  }

  // Checks, after the window: every value against a naive scalar
  // recomputation, the centers against the lower bound and the paper's
  // factors, and every repetition against the first.
  const ref::Points p{points->raw().data(), points->size(), points->dim()};
  const double lb = ref::lower_bound(
      p, spec.k, ref::traversal_starts(p.n, kTraversalStarts, args.seed));
  std::map<std::size_t, const kc::api::SolveReport*> first_of;
  std::map<std::size_t, std::string> verdict_of;
  std::map<std::size_t, std::vector<double>> seconds_of;
  std::map<std::size_t, std::vector<double>> ratio_of;
  std::vector<double> all_seconds;
  for (const SolveSample& s : samples) {
    const std::string& algo = kAlgorithms[s.algo];
    auto [first, fresh] = first_of.try_emplace(s.algo, &s.report);
    if (fresh) {
      verdict_of[s.algo] = ref::check_solution(
          p, spec.k, s.report.centers, s.report.value, lb,
          paper_factor_for(algo, s.report.rounds));
    } else if (first->second->centers != s.report.centers ||
               first->second->value != s.report.value) {
      outcome.errors.push_back(algo + ": repetitions disagree");
    }
    if (!verdict_of[s.algo].empty()) {
      outcome.errors.push_back(algo + ": " + verdict_of[s.algo]);
    }
    seconds_of[s.algo].push_back(s.seconds);
    ratio_of[s.algo].push_back(s.report.value / lb);
    all_seconds.push_back(s.seconds);
  }

  outcome.metrics.push_back({"setup_s", median(setups), "s"});
  push_algorithm_metrics(seconds_of, ratio_of, outcome);
  outcome.metrics.push_back(
      {"req_per_s", static_cast<double>(samples.size()) / window_s, "req/s"});
  outcome.metrics.push_back(
      {"latency_ms_p50", median(all_seconds) * 1e3, "ms"});
  return outcome;
}

// ---------------------------------------------------------------------
// svc_4k: distinct 4096-point request lines through one ServiceLoop,
// closed loop from one client thread.

constexpr std::size_t kSvcLines = 256;

Outcome run_service(const Args& args, Tracer& tracer) {
  Outcome outcome;
  // The client thread submits; the service's consumer thread joins the
  // pool as a participant; together they stay within the CPUs.
  outcome.pool_width = std::max(1, available_cpus() - 1);

  std::vector<SvcLine> lines;
  std::shared_ptr<kc::exec::ThreadPoolBackend> pool;
  std::unique_ptr<ServiceHarness> harness;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    harness.reset();
    pool.reset();
    lines.clear();
    const Clock::time_point start = Clock::now();
    ref::SplitMix mix{args.seed};
    lines = make_lines(kSvcLines, 2, 8, 8, [&](std::size_t, std::size_t) {
      return mix.uniform(100.0);
    });
    const Clock::time_point generated = Clock::now();
    pool = std::make_shared<kc::exec::ThreadPoolBackend>(outcome.pool_width);
    harness = std::make_unique<ServiceHarness>(lines, pool);
    if (!harness->submit(0, false) || !harness->drain()) {
      throw std::runtime_error("service: no answer to the set-up request");
    }
    setups.push_back(seconds_between(start, Clock::now()));
    tracer.add("data.generate", start, generated, -1, 0);
  }
  outcome.kernel_isa = std::string(
      kc::simd::to_string(kc::simd::active_level()));

  // The client thread is the bottleneck (it decodes inside submit()),
  // so the host-speed samples run on it, between submissions, each with
  // the service drained so that the program's work cannot slow them.
  HostSpeed host(1);
  const kc::exec::Scheduler::Stats before = pool->scheduler().stats();
  const Clock::time_point window = Clock::now();
  int passes = 0;
  double elapsed = 0.0;
  bool flowing = true;
  do {
    for (std::size_t i = 0; i < lines.size() && flowing; ++i) {
      if (i % 32 == 0) {
        flowing = harness->drain();
        if (flowing) host.sample();
      }
      flowing = flowing && harness->submit(i, true);
    }
    ++passes;
    elapsed = seconds_between(window, Clock::now());
  } while (flowing && elapsed + elapsed / passes <= args.seconds);
  if (!flowing || !harness->drain()) {
    outcome.errors.push_back("service: stalled, requests left unanswered");
  }
  outcome.speed = host.speed();
  outcome.unit_s = host.median_unit_seconds();
  const kc::exec::Scheduler::Stats after = pool->scheduler().stats();
  harness->finish();
  const std::vector<Submission> subs = harness->submissions();
  if (!harness->consumer_error().empty()) {
    outcome.errors.push_back("service: " + harness->consumer_error());
  }

  const std::vector<SvcSample> samples =
      check_service(lines, subs, args.seed, outcome);
  Clock::time_point first_start = Clock::time_point::max();
  Clock::time_point last_answer = Clock::time_point::min();
  std::map<std::size_t, std::vector<double>> seconds_of;
  std::map<std::size_t, std::vector<double>> ratio_of;
  std::vector<double> latencies;
  for (const Submission& s : subs) {
    if (!s.timed) continue;
    first_start = std::min(first_start, s.start);
    last_answer = std::max(last_answer, s.answered);
  }
  for (const SvcSample& s : samples) {
    const std::size_t algo = s.line % kAlgorithms.size();
    seconds_of[algo].push_back(s.latency_s);
    ratio_of[algo].push_back(s.value_over_lb);
    latencies.push_back(s.latency_s);
  }

  if (tracer.on()) {
    const double requests = static_cast<double>(samples.size());
    tracer.add("svc.window", window, last_answer, -1, 0, "client",
               {{"exec_tasks",
                 static_cast<double>(after.executed - before.executed) /
                     requests},
                {"exec_steals",
                 static_cast<double>(after.stolen - before.stolen) /
                     requests}});
    std::map<std::size_t, std::pair<double, double>> cost_of;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      cost_of[i] = probe_request(tracer, lines[i], tenant_of(i), pool);
    }
    for (const Submission& s : subs) {
      if (!s.timed || s.answers != 1) continue;
      const auto [solve_s, encode_s] = cost_of[s.line];
      const double latency = seconds_between(s.start, s.answered);
      const double submit = seconds_between(s.start, s.submitted);
      const int request =
          tracer.add("svc.request", s.start, s.answered, -1,
                     lines[s.line].id, "client",
                     {{"submit_s", submit},
                      {"wait_s", latency - submit - solve_s - encode_s}});
      tracer.add("svc.submit", s.start, s.submitted, request,
                 lines[s.line].id, "client");
    }
  }

  outcome.metrics.push_back({"setup_s", median(setups), "s"});
  push_algorithm_metrics(seconds_of, ratio_of, outcome);
  outcome.metrics.push_back(
      {"req_per_s",
       static_cast<double>(samples.size()) /
           seconds_between(first_start, last_answer),
       "req/s"});
  outcome.metrics.push_back({"latency_ms_p50", median(latencies) * 1e3, "ms"});
  return outcome;
}

// ---------------------------------------------------------------------
// Per-layer metrics from the recorded spans.

std::vector<double> durations(const std::vector<Span>& spans) {
  std::vector<double> out;
  for (const Span& s : spans) out.push_back(s.seconds());
  return out;
}

std::vector<double> args_of(const std::vector<Span>& spans,
                            const std::string& key) {
  std::vector<double> out;
  for (const Span& s : spans) out.push_back(s.arg(key, 0.0));
  return out;
}

std::vector<Metric> layer_metrics(const Tracer& tracer) {
  // Library workloads time their own solves and probe the layers under
  // each; svc_4k has only the probe solves of its request lines.
  const std::string owner =
      tracer.named("api.solve").empty() ? "svc.solve" : "api.solve";
  const std::vector<Span> solves = tracer.named(owner);
  const auto probes = [&](const std::string& name) {
    return tracer.children(owner, name);
  };

  std::vector<Metric> out;
  out.push_back({"data.generate_s",
                 median(durations(tracer.named("data.generate"))), "s"});
  out.push_back({"geom.index_build_s",
                 median(durations(probes("geom.index_build"))), "s"});
  out.push_back({"geom.scan_ns_per_pair",
                 median(args_of(probes("geom.scan"), "ns_per_pair")),
                 "ns"});

  for (std::size_t a = 0; a < kAlgorithms.size(); ++a) {
    std::vector<Span> mine;
    for (const Span& s : solves) {
      if (s.arg("algo", -1.0) == static_cast<double>(a)) mine.push_back(s);
    }
    const double evals = median(args_of(mine, "dist_evals"));
    const double pruned = median(args_of(mine, "pairs_pruned"));
    const std::string& algo = kAlgorithms[a];
    out.push_back({algo + ".dist_evals", evals, "count"});
    out.push_back({algo + ".pairs_pruned", pruned, "count"});
    out.push_back({algo + ".prune_ratio",
                   evals + pruned > 0 ? pruned / (evals + pruned) : 0.0,
                   "ratio"});
    out.push_back({algo + ".algo_s", median(args_of(mine, "algo_s")), "s"});
    out.push_back({algo + ".sim_s", median(args_of(mine, "sim_s")), "s"});
    out.push_back({algo + ".rounds", median(args_of(mine, "rounds")), "count"});
  }
  out.push_back({"eval.covering_radius_s",
                 median(durations(probes("eval.covering_radius"))), "s"});
  out.push_back(
      {"api.residual_s", median(args_of(solves, "residual_s")), "s"});

  // Pool counters per operation: per solve on library workloads, the
  // window's deltas per request on svc_4k.
  std::vector<Span> counted = tracer.named("api.solve");
  if (counted.empty()) counted = tracer.named("svc.window");
  double tasks = 0.0;
  double steals = 0.0;
  for (const Span& s : counted) {
    tasks += s.arg("exec_tasks", 0.0);
    steals += s.arg("exec_steals", 0.0);
  }
  out.push_back({"exec.tasks", median(args_of(counted, "exec_tasks")), "count"});
  out.push_back(
      {"exec.steals", median(args_of(counted, "exec_steals")), "count"});
  out.push_back(
      {"exec.steals_per_task", tasks > 0 ? steals / tasks : 0.0, "ratio"});
  out.push_back({"exec.dispatch_us",
                 median(args_of(probes("exec.dispatch"), "us_per_call")),
                 "us"});

  const std::vector<Span> decodes = tracer.named("svc.decode");
  std::vector<double> rates;
  for (const Span& s : decodes) {
    rates.push_back(s.arg("bytes", 0.0) / s.seconds() / 1e6);
  }
  const std::vector<Span> requests = tracer.named("svc.request");
  out.push_back({"svc.decode_ms", median(durations(decodes)) * 1e3,
                 "ms"});
  out.push_back({"svc.decode_mb_per_s", median(rates), "MB/s"});
  out.push_back(
      {"svc.submit_ms", median(args_of(requests, "submit_s")) * 1e3, "ms"});
  out.push_back({"svc.solve_ms", median(durations(tracer.named("svc.solve"))) * 1e3,
                 "ms"});
  out.push_back({"svc.encode_ms", median(durations(tracer.named("svc.encode"))) * 1e3,
                 "ms"});
  out.push_back(
      {"svc.wait_ms", median(args_of(requests, "wait_s")) * 1e3, "ms"});
  return out;
}

// ---------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--describe") {
      args.describe = value;
    } else if (flag == "--backend") {
      if (value != "pool" && value != "seq") return false;
      args.sequential = value == "seq";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

void print_result(const Outcome& outcome, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += outcome.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace kcb

int main(int argc, char** argv) {
  using namespace kcb;
  Args args;
  try {
    if (!parse_args(argc, argv, args)) throw std::invalid_argument("usage");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: kc_perfbench --workload gau_1m|kdd_494k|svc_4k "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH] "
                 "[--describe TEXT] [--backend pool|seq]\n");
    return 2;
  }

#ifdef M_MMAP_THRESHOLD
  // A fixed threshold switches off glibc's dynamic one, which otherwise
  // rises after the first large free and leaves later large buffers in
  // arena heaps it keeps; which worker's arena held them varied per run
  // and moved peak_rss_mb by a third. Fixed, large buffers go back to
  // the system on free and the peak follows the program's live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  Tracer tracer(args.trace);
  Outcome outcome;
  try {
    if (args.workload == "gau_1m") {
      outcome = run_library(
          {25,
           {0, 1, 2, 3},
           [](kc::Rng& rng) {
             return kc::data::generate_gau(1'000'000, 25, 2, 100.0, 0.1, rng);
           }},
          args, tracer);
    } else if (args.workload == "kdd_494k") {
      outcome = run_library({10,
                             {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 3},
                             [](kc::Rng& rng) {
                               return kc::data::kdd_cup_surrogate(
                                   kc::data::kKddCupRows, rng);
                             }},
                            args, tracer);
    } else if (args.workload == "svc_4k") {
      outcome = run_service(args, tracer);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kc_perfbench: %s\n", e.what());
    return 1;
  }
  // Timed figures go out at the reference host speed (host_speed.hpp);
  // the raw ones stay in the header.
  std::vector<Metric> raw;
  for (Metric& m : outcome.metrics) {
    if (m.unit == "s" || m.unit == "ms") {
      raw.push_back(m);
      m.value *= outcome.speed;
    } else if (m.unit == "req/s") {
      raw.push_back(m);
      m.value /= outcome.speed;
    }
  }
  outcome.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# nproc=%d pool_width=%d kernel_isa=%s compiler=%s "
              "build_type=%s git_describe=%s\n",
              available_cpus(), outcome.pool_width, outcome.kernel_isa.c_str(),
              KCB_COMPILER, KCB_BUILD_TYPE, args.describe.c_str());
  std::printf("# attempted=%llu failed=%llu checks_failed=%zu\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.errors.size());
  std::printf("# host unit_ms=%.4f speed=%.4f\n", outcome.unit_s * 1e3,
              outcome.speed);
  for (const Metric& m : raw) {
    std::printf("# raw %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : outcome.metrics) {
    std::printf("# e2e %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (std::size_t i = 0; i < outcome.errors.size() && i < 20; ++i) {
    std::printf("# CHECK FAILED: %s\n", outcome.errors[i].c_str());
  }

  std::vector<Metric> metrics = outcome.metrics;
  if (args.trace) {
    metrics = layer_metrics(tracer);
    std::vector<std::pair<std::string, double>> metadata;
    for (const Metric& m : outcome.metrics) metadata.emplace_back(m.name, m.value);
    metadata.emplace_back("host_unit_ms", outcome.unit_s * 1e3);
    if (!args.trace_out.empty() && !tracer.write_chrome(args.trace_out, metadata)) {
      std::fprintf(stderr, "kc_perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    std::printf("# trace: %zu spans -> %s\n", tracer.size(),
                args.trace_out.empty() ? "(not written)"
                                       : args.trace_out.c_str());
  }
  std::fflush(stdout);
  print_result(outcome, metrics);
  return outcome.errors.empty() ? 0 : 1;
}
