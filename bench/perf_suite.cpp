// Machine-readable performance regression suite.  One run writes one JSON
// file (`--out`, default BENCH.json):
//
//   {"host":    {"isa_detected", "isa_active", "workers", "build_type", "tier"},
//    "records": [{"bench", "layer", "params": {"n"[, "batch"][, "mode"]},
//                 "metrics": {"<name>": {"value", "unit"}, ...}}, ...],
//    "gates":   [{"name", "value", "op", "bound", "status", "reason"}, ...]}
//
// `layer` names the part of the system a record isolates:
//  * seq_kernel  — edit_unit_{scalar,fast} (the unit-distance kernel round-1
//    machines run per (block, window) pair), edit_bounded_{scalar,fast} (the
//    capped kernel of the small/large distance pipelines), myers_<isa> (the
//    multi-word Myers kernel forced to each ISA level the host has);
//  * round_plane — ulam_combine_{copy,view} (materialising the combine
//    machine's inbox by concatenation vs reading the envelopes in place),
//    mail_route_{stable,radix} (a global stable_sort vs the cluster's radix
//    scatter);
//  * transport   — {ulam,edit}_batch_backend_{thread,socket} (one batch with
//    machine bodies on the thread pool vs in forked socket workers);
//  * solver      — ulam_e2e (one Theorem 4 solve), {ulam,edit}_seq (B
//    independent `*_distance_mpc` calls, the batch baseline);
//  * batch       — {ulam,edit}_batch (`core::distance_batch`),
//    edit_router_{off,auto} (a skewed near-duplicate batch, router off/auto).
//
// Every bench checks its values in-bench (a mismatch exits 1), and every
// timed run carries a recorder with no sink through every layer, so the
// numbers price the disabled observability path.  All ten gates are
// evaluated and printed, then the run exits 1 if any failed; EXPERIMENTS.md
// gives each gate's reason.  `--smoke` runs tiny sizes once, marks the ratio
// gates skipped (the round-shape gate still holds) and re-reads the written
// file to check its shape.  `--full` adds the expensive points (ulam n=4096
// with B up to 64, edit kParallelGuess at n=1024).  `--trace-out <file>`
// writes one traced batch run, made after the measurements, as a Chrome
// trace.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/cpu.hpp"
#include "common/thread_pool.hpp"
#include "core/batch.hpp"
#include "core/router.hpp"
#include "core/workload.hpp"
#include "edit_mpc/solver.hpp"
#include "mpc/backend.hpp"
#include "mpc/cluster.hpp"
#include "mpc/plan.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"
#include "seq/combine.hpp"
#include "seq/edit_distance.hpp"
#include "seq/edit_distance_fast.hpp"
#include "seq/edit_distance_os.hpp"
#include "seq/myers.hpp"
#include "seq/ulam.hpp"
#include "ulam_mpc/solver.hpp"

namespace {

using namespace mpcsd;

constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

struct Metric {
  template <typename T>
  Metric(std::string name_, T value_, std::string unit_)
      : name(std::move(name_)), value(static_cast<double>(value_)), unit(std::move(unit_)) {}
  std::string name;
  double value;
  std::string unit;
};

/// One measurement.  `batch` and `mode` are set only where the bench runs a
/// batch of queries (0 and "" elsewhere).
struct Record {
  std::string bench;
  std::string layer;
  std::int64_t n = 0;
  std::size_t batch = 0;
  std::string mode;
  std::vector<Metric> metrics;
};

struct Gate {
  std::string name;
  double value = 0.0;
  std::string op;      // ">=" | "<=" | "=="
  double bound = 0.0;
  std::string status;  // "pass" | "fail" | "skipped"
  std::string reason;  // why the gate was skipped
};

/// The gate `value op bound`, skipped when `skip_reason` is non-empty.  A
/// value that was never measured (NaN) fails.
Gate gate(std::string name, double value, std::string op, double bound,
          std::string skip_reason) {
  const bool holds =
      op == ">=" ? value >= bound : (op == "<=" ? value <= bound : value == bound);
  std::string status = !skip_reason.empty() ? "skipped" : (holds ? "pass" : "fail");
  return Gate{std::move(name), value, std::move(op), bound, std::move(status),
              std::move(skip_reason)};
}

struct Host {
  const char* isa_detected;
  const char* isa_active;
  std::size_t workers;
  const char* build_type;
  const char* tier;  // "smoke" | "default" | "full"
};

/// The recorder wired through every measured solver/batch run.  It carries
/// no sink during the measurements — which is exactly the point: the
/// numbers price the *disabled* recorder on the hot path, proving
/// instrumented builds cost nothing when tracing is off.  A sink is
/// attached only after the gates, for the optional Chrome trace.
obs::Recorder bench_recorder;

/// Minimum wall time over `reps` runs of `f` (first run warms caches).
template <typename F>
double time_best(F&& f, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Per-call wall time of each of `fs`, for calls too short to time one at
/// a time: a single 0.1 ms call moves with one scheduling hiccup on a
/// shared vCPU.  Each f's call count doubles until one loop of its calls
/// lasts `min_rep_seconds` (which also warms caches).  Then `reps` rounds
/// time one loop of every f in turn, so a slow spell of the host hits all
/// of them alike, and each f's best loop divided by its count is returned.
std::vector<double> time_best_loops(const std::vector<std::function<void()>>& fs, int reps,
                                    double min_rep_seconds) {
  const auto loop = [](const std::function<void()>& f, std::size_t calls) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < calls; ++c) f();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  std::vector<std::size_t> calls(fs.size(), 1);
  for (std::size_t i = 0; i < fs.size(); ++i) {
    while (loop(fs[i], calls[i]) < min_rep_seconds) calls[i] *= 2;
  }
  std::vector<double> best(fs.size(), 1e300);
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < fs.size(); ++i) {
      best[i] = std::min(best[i], loop(fs[i], calls[i]) / static_cast<double>(calls[i]));
    }
  }
  return best;
}

template <typename F>
double wall_of(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Median wall time over `reps` runs.  The batch-vs-seq ratio gates compare
/// two wall clocks, so one scheduler hiccup on either side could flip a
/// gate; the median of 3 absorbs a single outlier run.  Model-quantity
/// gates (rounds, passes) stay single-shot — they are deterministic.
template <typename F>
double wall_median(F&& f, int reps) {
  std::vector<double> walls;
  walls.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) walls.push_back(wall_of(f));
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

/// A JSON number; null for a value that was never measured.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// Writes the results file.  Every string the suite writes is a program
/// constant without quotes or backslashes, so none needs escaping.
bool write_results(const std::string& path, const Host& host,
                   const std::vector<Record>& records, const std::vector<Gate>& gates) {
  std::ofstream out(path);
  out << "{\"host\": {\"isa_detected\": \"" << host.isa_detected
      << "\", \"isa_active\": \"" << host.isa_active << "\", \"workers\": " << host.workers
      << ", \"build_type\": \"" << host.build_type << "\", \"tier\": \"" << host.tier
      << "\"},\n \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    out << "  {\"bench\": \"" << r.bench << "\", \"layer\": \"" << r.layer
        << "\", \"params\": {\"n\": " << r.n;
    if (r.batch > 0) out << ", \"batch\": " << r.batch;
    if (!r.mode.empty()) out << ", \"mode\": \"" << r.mode << "\"";
    out << "}, \"metrics\": {";
    for (std::size_t j = 0; j < r.metrics.size(); ++j) {
      const Metric& m = r.metrics[j];
      out << (j > 0 ? ", " : "") << "\"" << m.name << "\": {\"value\": " << num(m.value)
          << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << " ],\n \"gates\": [\n";
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    out << "  {\"name\": \"" << g.name << "\", \"value\": " << num(g.value)
        << ", \"op\": \"" << g.op << "\", \"bound\": " << num(g.bound)
        << ", \"status\": \"" << g.status << "\", \"reason\": \"" << g.reason << "\"}"
        << (i + 1 < gates.size() ? "," : "") << "\n";
  }
  out << " ]}\n";
  out.close();
  if (out.fail()) std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
  return !out.fail();
}

void print_results(const Host& host, const std::vector<Record>& records,
                   const std::vector<Gate>& gates) {
  std::printf("perf_suite: tier=%s workers=%zu isa=%s (active %s) build=%s\n", host.tier,
              host.workers, host.isa_detected, host.isa_active, host.build_type);
  for (const Record& r : records) {
    std::printf("  %-28s %-11s n=%-6lld", r.bench.c_str(), r.layer.c_str(),
                static_cast<long long>(r.n));
    if (r.batch > 0) std::printf(" B=%-3zu", r.batch);
    if (!r.mode.empty()) std::printf(" %-10s", r.mode.c_str());
    for (const Metric& m : r.metrics) std::printf(" %s=%.6g", m.name.c_str(), m.value);
    std::printf("\n");
  }
  for (const Gate& g : gates) {
    std::printf("gate %-7s %-30s %.3g %s %g%s%s\n", g.status.c_str(), g.name.c_str(),
                g.value, g.op.c_str(), g.bound, g.reason.empty() ? "" : " — ",
                g.reason.c_str());
  }
}

/// Just enough validation for the smoke tier: the file is bracket-balanced
/// and opens with the host object, every record has a non-empty layer, and
/// every gate has a status.  Counting keys is sound because no string the
/// suite writes contains a quote or a bracket.
bool results_file_ok(const std::string& path, std::size_t records, std::size_t gates) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const auto count = [&](const std::string& key) {
    std::size_t c = 0;
    for (auto pos = text.find(key); pos != std::string::npos; pos = text.find(key, pos + 1)) {
      ++c;
    }
    return c;
  };
  long depth = 0;
  for (const char c : text) {
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && text.starts_with("{\"host\": {") &&
         count("\"bench\": ") == records && count("\"layer\": \"") == records &&
         count("\"layer\": \"\"") == 0 &&
         count("\"status\": \"pass\"") + count("\"status\": \"fail\"") +
                 count("\"status\": \"skipped\"") ==
             gates;
}

std::vector<core::BatchQuery> make_batch_queries(std::size_t batch,
                                                 std::int64_t n, bool ulam) {
  std::vector<core::BatchQuery> queries;
  for (std::size_t q = 0; q < batch; ++q) {
    core::BatchQuery query;
    if (ulam) {
      query.s = core::random_permutation(n, 1000 + 2 * q);
      query.t = core::plant_edits(query.s, n / 16, 1001 + 2 * q, true).text;
    } else {
      query.s = core::random_string(n, 8, 2000 + 2 * q);
      query.t = core::plant_edits(query.s, n / 16, 2001 + 2 * q, false).text;
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

/// Sequential baseline: B independent `*_distance_mpc` calls.  Returns qps.
double bench_seq_point(std::vector<Record>& records, bool ulam, std::int64_t n,
                       std::size_t b, int reps) {
  const auto queries = make_batch_queries(b, n, ulam);
  std::size_t rounds = 0;
  const double wall = wall_median(
      [&] {
        for (const auto& query : queries) {
          if (ulam) {
            ulam_mpc::UlamMpcParams params;
            params.seed = 13;
            params.recorder = &bench_recorder;
            rounds = ulam_mpc::ulam_distance_mpc(query.s, query.t, params)
                         .trace.round_count();
          } else {
            edit_mpc::EditMpcParams params;
            params.recorder = &bench_recorder;
            rounds = edit_mpc::edit_distance_mpc(query.s, query.t, params)
                         .trace.round_count();
          }
        }
      },
      reps);
  const double qps = static_cast<double>(b) / wall;
  records.push_back({ulam ? "ulam_seq" : "edit_seq",
                     "solver",
                     n,
                     b,
                     "seq",
                     {{"wall_seconds", wall, "s"},
                      {"qps", qps, "1/s"},
                      {"rounds", rounds, "count"}}});
  return qps;
}

/// One `distance_batch` execution in `mode`; returns its qps over
/// `seq_qps`.  Counts a round-shape violation: a kParallelGuess (or Ulam)
/// batch must share exactly 2 rounds, a kThroughput batch exactly 2 rounds
/// per escalation pass.
double bench_batch_point(std::vector<Record>& records, bool ulam, core::BatchMode mode,
                         std::int64_t n, std::size_t b, double seq_qps, int reps,
                         std::size_t& round_violations) {
  const auto queries = make_batch_queries(b, n, ulam);
  core::BatchResult result;
  const double wall = wall_median(
      [&] {
        core::BatchRequest request;
        request.algorithm =
            ulam ? core::BatchAlgorithm::kUlam : core::BatchAlgorithm::kEdit;
        request.mode = mode;
        // Pinned, so MPCSD_ROUTER=auto cannot retire queries before the
        // plan and leave the round-shape gate a batch of zero rounds.
        request.router = core::RouterPolicy::kOff;
        request.ulam.seed = 13;
        request.recorder = &bench_recorder;
        request.queries = queries;
        result = core::distance_batch(request);
      },
      reps);
  const double qps = static_cast<double>(b) / wall;
  const double ratio = seq_qps > 0.0 ? qps / seq_qps : 0.0;
  const std::size_t rounds = result.trace.round_count();
  const bool throughput = mode == core::BatchMode::kThroughput;
  records.push_back({ulam ? "ulam_batch" : "edit_batch",
                     "batch",
                     n,
                     b,
                     throughput ? "throughput" : "parallel",
                     {{"wall_seconds", wall, "s"},
                      {"qps", qps, "1/s"},
                      {"rounds", rounds, "count"},
                      {"passes", result.passes, "count"},
                      {"ratio_vs_seq", ratio, "ratio"}}});

  const bool shape_ok = ulam || !throughput
                            ? rounds == 2
                            : rounds == 2 * result.passes && result.passes >= 1;
  if (!shape_ok) ++round_violations;
  return ratio;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool full = false;
  std::string out_path = "BENCH.json";
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--full") == 0) full = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }
  if (smoke) full = false;
  const Host host{isa_name(detected_isa()), isa_name(active_isa()),
                  ThreadPool().worker_count(), MPCSD_BUILD_TYPE,
                  smoke ? "smoke" : (full ? "full" : "default")};
  // Wall-clock ratio gates compare medians of 3 runs (see wall_median);
  // smoke keeps 1 rep — it never evaluates the ratio gates.
  const int wall_reps = smoke ? 1 : 3;

  const int reps = smoke ? 1 : 5;
  const std::vector<std::int64_t> kernel_sizes =
      smoke ? std::vector<std::int64_t>{64, 128}
            : std::vector<std::int64_t>{256, 512, 1024, 2000};
  std::vector<Record> records;
  // Gate inputs, left missing (NaN) where this tier or host does not
  // measure them.
  double unit_speedup = kMissing;
  double avx2_speedup = kMissing;
  std::size_t round_violations = 0;
  double edit_ratio = kMissing;
  double ulam_ratio = kMissing;
  double ulam_socket_overhead = kMissing;
  double edit_socket_overhead = kMissing;
  double router_ratio = kMissing;

  // ---- Unit-distance kernel: scalar full DP vs dispatched fast path. ----
  for (const std::int64_t n : kernel_sizes) {
    const auto a = core::random_string(n, 4, 1);
    const auto b = core::random_string(n, 4, 2);
    std::uint64_t scalar_work = 0;
    std::uint64_t fast_work = 0;
    const std::int64_t d_scalar = seq::edit_distance(a, b, &scalar_work);
    const std::int64_t d_fast = seq::edit_distance_fast(a, b, &fast_work);
    if (d_scalar != d_fast) {
      std::fprintf(stderr, "FATAL: kernel disagreement at n=%lld: %lld vs %lld\n",
                   static_cast<long long>(n), static_cast<long long>(d_scalar),
                   static_cast<long long>(d_fast));
      return 1;
    }
    const double scalar_wall = time_best([&] { (void)seq::edit_distance(a, b); }, reps);
    const double fast_wall = time_best([&] { (void)seq::edit_distance_fast(a, b); }, reps);
    records.push_back({"edit_unit_scalar", "seq_kernel", n, 0, "",
                       {{"wall_seconds", scalar_wall, "s"}, {"work", scalar_work, "cells"}}});
    records.push_back({"edit_unit_fast", "seq_kernel", n, 0, "",
                       {{"wall_seconds", fast_wall, "s"}, {"work", fast_work, "cells"}}});
    if (n == 2000) unit_speedup = scalar_wall / fast_wall;
  }

  // ---- Capped kernel on near pairs (the pipelines' censoring workhorse). ----
  for (const std::int64_t n : kernel_sizes) {
    const auto a = core::random_string(n, 4, 1);
    const auto b = core::plant_edits(a, std::max<std::int64_t>(4, n / 8), 3, false).text;
    const std::int64_t limit = n;
    std::uint64_t scalar_work = 0;
    std::uint64_t fast_work = 0;
    const auto d_scalar = seq::edit_distance_bounded(a, b, limit, &scalar_work);
    const auto d_fast = seq::edit_distance_bounded_fast(a, b, limit, &fast_work);
    if (d_scalar != d_fast) {
      std::fprintf(stderr, "FATAL: capped kernel disagreement at n=%lld: %lld vs %lld\n",
                   static_cast<long long>(n), static_cast<long long>(d_scalar.value_or(-1)),
                   static_cast<long long>(d_fast.value_or(-1)));
      return 1;
    }
    const double scalar_wall = time_best(
        [&] { (void)seq::edit_distance_bounded(a, b, limit); }, reps);
    const double fast_wall = time_best(
        [&] { (void)seq::edit_distance_bounded_fast(a, b, limit); }, reps);
    records.push_back({"edit_bounded_scalar", "seq_kernel", n, 0, "",
                       {{"wall_seconds", scalar_wall, "s"}, {"work", scalar_work, "cells"}}});
    records.push_back({"edit_bounded_fast", "seq_kernel", n, 0, "",
                       {{"wall_seconds", fast_wall, "s"}, {"work", fast_work, "cells"}}});
  }

  // ---- Combine-inbox routing: concatenate-and-copy vs zero-copy chain. ----
  // The emit round runs on the plan layer (typed stage + channel, the same
  // path every library driver uses); the `Codec<std::vector<seq::Tuple>>`
  // wire format is byte-identical to the old hand-rolled `write_tuples`
  // emission.  The copy measurement materialises the inbox through
  // `ByteChain::to_bytes` — the retired copying-gather semantics.
  {
    const std::size_t machines = smoke ? 4 : 64;
    const std::size_t tuples_per_machine = smoke ? 16 : 512;
    constexpr mpc::Channel<std::vector<seq::Tuple>> kInbox{0, "inbox"};
    mpc::Driver driver(
        mpc::Plan{"perf:combine-inbox",
                  {{"perf:emit", "machine id (sharded input)", "inbox"}}},
        {});
    const mpc::Stage<std::uint32_t> emit_stage{
        "perf:emit", [&](mpc::StageContext<std::uint32_t>& ctx) {
          std::vector<seq::Tuple> tuples(tuples_per_machine);
          for (std::size_t t = 0; t < tuples.size(); ++t) {
            tuples[t] = seq::Tuple{static_cast<std::int64_t>(t),
                                   static_cast<std::int64_t>(t + 8),
                                   static_cast<std::int64_t>(t),
                                   static_cast<std::int64_t>(t + 8), 1};
          }
          ctx.send(kInbox, tuples);
        }};
    std::vector<std::uint32_t> ids(machines);
    for (std::size_t i = 0; i < machines; ++i) ids[i] = static_cast<std::uint32_t>(i);
    const auto mail = driver.run(emit_stage, mpc::Driver::shard(ids));
    driver.finish();
    const std::int64_t total_tuples =
        static_cast<std::int64_t>(machines * tuples_per_machine);

    std::size_t parsed = 0;
    const double copy_wall = time_best(
        [&] {
          // seed semantics: memcpy every payload into one flat buffer
          const Bytes inbox = mpc::gather_view(mail, kInbox.mailbox).to_bytes();
          parsed = seq::read_all_tuples(inbox).size();
        },
        reps);
    const std::size_t copied = mpc::gather_view(mail, kInbox.mailbox).to_bytes().size();
    records.push_back({"ulam_combine_copy", "round_plane", total_tuples, 0, "",
                       {{"wall_seconds", copy_wall, "s"}, {"bytes_moved", copied, "bytes"}}});

    const double view_wall = time_best(
        [&] {
          const ByteChain inbox = mpc::gather_view(mail, kInbox.mailbox);
          parsed = seq::read_all_tuples(inbox).size();
        },
        reps);
    records.push_back({"ulam_combine_view", "round_plane", total_tuples, 0, "",
                       {{"wall_seconds", view_wall, "s"}, {"bytes_moved", 0, "bytes"}}});
    if (parsed != machines * tuples_per_machine) {
      std::fprintf(stderr, "FATAL: combine inbox parsed %zu tuples, expected %zu\n",
                   parsed, machines * tuples_per_machine);
      return 1;
    }
  }

  // ---- End-to-end Theorem 4 solve. ----
  // The answer must be a realizable transformation's cost (>= the exact
  // Ulam distance) within the (1 + eps) guarantee, checked before timing.
  {
    const std::int64_t n = smoke ? 256 : 4096;
    const auto s = core::random_permutation(n, 11);
    const auto t = core::plant_edits(s, n / 16, 12, true).text;
    ulam_mpc::UlamMpcParams params;
    params.seed = 13;
    params.recorder = &bench_recorder;
    const std::int64_t exact = seq::ulam_distance(s, t);
    ulam_mpc::UlamMpcResult result = ulam_mpc::ulam_distance_mpc(s, SymView(t), params);
    if (result.distance < exact ||
        static_cast<double>(result.distance) >
            (1.0 + params.epsilon) * static_cast<double>(exact)) {
      std::fprintf(stderr, "FATAL: ulam_e2e distance %lld outside [%lld, (1+%g)*%lld]\n",
                   static_cast<long long>(result.distance), static_cast<long long>(exact),
                   params.epsilon, static_cast<long long>(exact));
      return 1;
    }
    const double wall = time_best(
        [&] { result = ulam_mpc::ulam_distance_mpc(s, SymView(t), params); },
        smoke ? 1 : 3);
    records.push_back({"ulam_e2e", "solver", n, 0, "",
                       {{"wall_seconds", wall, "s"},
                        {"work", result.trace.total_work(), "ops"},
                        {"bytes_moved", result.trace.total_comm_bytes(), "bytes"}}});
  }

  // ---- Myers kernel throughput per ISA level. ----
  // The same (pattern, text) pair runs through the blocked kernel forced to
  // every level the host supports; distances and work meters must agree
  // bit for bit (ISA dispatch is results- and metering-invisible), only
  // wall time may differ.
  {
    const std::vector<std::int64_t> isa_sizes =
        smoke ? std::vector<std::int64_t>{128}
              : std::vector<std::int64_t>{512, 2000, 8192};
    for (const std::int64_t n : isa_sizes) {
      const auto a = core::random_string(n, 8, 71);
      const auto b = core::plant_edits(a, n / 16, 72, false).text;
      force_isa(Isa::kScalar);
      const std::int64_t d_ref = seq::edit_distance_myers(a, b);
      std::uint64_t work_ref = 0;
      seq::edit_distance_myers(a, b, &work_ref);
      std::vector<Isa> levels;
      for (const Isa level : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
        if (force_isa(level) == level) levels.push_back(level);  // host has it
      }
      std::vector<std::int64_t> ds(levels.size(), 0);
      std::vector<std::function<void()>> calls;
      for (std::size_t i = 0; i < levels.size(); ++i) {
        calls.emplace_back([&, i] {
          force_isa(levels[i]);
          ds[i] = seq::edit_distance_myers(a, b);
        });
      }
      const auto walls = time_best_loops(calls, reps, 0.01);
      for (std::size_t i = 0; i < levels.size(); ++i) {
        const Isa level = levels[i];
        const std::int64_t d = ds[i];
        force_isa(level);  // for the metered call below
        std::uint64_t work = 0;
        seq::edit_distance_myers(a, b, &work);
        if (d != d_ref || work != work_ref) {
          std::fprintf(stderr,
                       "FATAL: %s kernel diverged at n=%lld: d=%lld/%lld "
                       "work=%llu/%llu\n",
                       isa_name(level), static_cast<long long>(n),
                       static_cast<long long>(d), static_cast<long long>(d_ref),
                       static_cast<unsigned long long>(work),
                       static_cast<unsigned long long>(work_ref));
          return 1;
        }
        records.push_back({std::string("myers_") + isa_name(level), "seq_kernel", n, 0, "",
                           {{"wall_seconds", walls[i], "s"}, {"work", work, "cells"}}});
        if (n == 2000 && level == Isa::kAvx2) avx2_speedup = walls[0] / walls[i];
      }
    }
    force_isa(detected_isa());
  }

  // ---- Mail routing, stable_sort baseline vs radix scatter. ----
  // One round whose machines emit a skewed burst of small envelopes; the
  // baseline is what routing used to be (flat move + one global
  // std::stable_sort of the merged mail), re-verified byte-identical to
  // what the cluster's radix router produced.
  {
    const std::size_t machines = smoke ? 32 : 512;
    const std::size_t per_machine = smoke ? 4 : 64;
    const auto fill = [&](mpc::MachineContext& ctx) {
      for (std::size_t m = 0; m < per_machine; ++m) {
        const std::uint64_t r = ctx.rng().next();
        const auto dest = r % 4 != 0
                              ? static_cast<std::uint32_t>(r % 3)
                              : static_cast<std::uint32_t>(r % (machines * 4));
        ByteWriter w;
        w.put<std::uint64_t>(ctx.machine_id());
        w.put<std::uint64_t>(m);
        ctx.emit(dest, std::move(w).take());
      }
    };
    const std::vector<Bytes> inputs(machines);
    const auto total =
        static_cast<std::int64_t>(machines * per_machine);

    mpc::ClusterConfig cfg;
    cfg.seed = 31;
    mpc::Cluster cluster(cfg);
    mpc::Mail mail;
    const double radix_wall = time_best(
        [&] { mail = cluster.run_round("bench:route", inputs, fill); }, reps);
    const std::uint64_t routed_bytes = cluster.trace().rounds().back().total_comm_bytes;
    records.push_back({"mail_route_radix", "round_plane", total, 0, "",
                       {{"wall_seconds", radix_wall, "s"},
                        {"work", mail.message_count(), "messages"},
                        {"bytes_moved", routed_bytes, "bytes"}}});

    // Baseline: the envelopes in emission order, then one global sort.
    // Emission order is reconstructed from the (machine id, emission index)
    // header every payload carries, so the baseline sorts genuinely
    // unsorted input like the retired router did.
    std::vector<mpc::Envelope> flat;
    for (const mpc::Envelope& env : mail.all()) {
      flat.push_back(mpc::Envelope{env.dest, env.payload});
    }
    const auto emission_key = [](const mpc::Envelope& env) {
      std::uint64_t machine = 0;
      std::uint64_t index = 0;
      std::memcpy(&machine, env.payload.data(), sizeof machine);
      std::memcpy(&index, env.payload.data() + sizeof machine, sizeof index);
      return std::pair<std::uint64_t, std::uint64_t>(machine, index);
    };
    std::sort(flat.begin(), flat.end(),
              [&](const mpc::Envelope& x, const mpc::Envelope& y) {
                return emission_key(x) < emission_key(y);
              });
    std::vector<mpc::Envelope> sorted;
    const double stable_wall = time_best(
        [&] {
          sorted.clear();
          for (const mpc::Envelope& env : flat) {
            sorted.push_back(mpc::Envelope{env.dest, env.payload});
          }
          std::stable_sort(sorted.begin(), sorted.end(),
                           [](const mpc::Envelope& x, const mpc::Envelope& y) {
                             return x.dest < y.dest;
                           });
        },
        reps);
    records.push_back({"mail_route_stable", "round_plane", total, 0, "",
                       {{"wall_seconds", stable_wall, "s"},
                        {"work", sorted.size(), "messages"},
                        {"bytes_moved", routed_bytes, "bytes"}}});

    // Byte-identical check: the global stable sort of the emission-order
    // envelopes must reproduce exactly what the radix router produced.
    if (sorted.size() != mail.all().size()) {
      std::fprintf(stderr, "FATAL: routing baseline lost envelopes\n");
      return 1;
    }
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (sorted[i].dest != mail.all()[i].dest ||
          sorted[i].payload != mail.all()[i].payload) {
        std::fprintf(stderr,
                     "FATAL: radix routing differs from stable sort at %zu\n", i);
        return 1;
      }
    }
  }

  // ---- Batch throughput: distance_batch vs sequential. ----
  const std::int64_t ulam_n = smoke ? 256 : (full ? 4096 : 2048);
  const std::int64_t edit_n = smoke ? 128 : 1024;
  // The kParallelGuess mode runs the whole clipped ladder for every query;
  // at n=1024 that is ~300x the early-exit work, so the default tier
  // records it at a smaller n and only --full pays for the big point.
  const std::int64_t edit_parallel_n = smoke ? 128 : (full ? 1024 : 256);
  const std::size_t max_b = smoke ? 4 : 8;
  {
    std::vector<std::size_t> ulam_batches{1, max_b};
    if (full) ulam_batches.push_back(64);
    for (const std::size_t b : ulam_batches) {
      const double seq_qps =
          bench_seq_point(records, /*ulam=*/true, ulam_n, b, wall_reps);
      const double ratio =
          bench_batch_point(records, /*ulam=*/true, core::BatchMode::kThroughput, ulam_n,
                            b, seq_qps, wall_reps, round_violations);
      if (b == max_b) ulam_ratio = ratio;
    }
    double edit_seq_qps = 0.0;  // at B = max_b
    for (const std::size_t b : {std::size_t{1}, max_b}) {
      const double seq_qps =
          bench_seq_point(records, /*ulam=*/false, edit_n, b, wall_reps);
      const double ratio =
          bench_batch_point(records, /*ulam=*/false, core::BatchMode::kThroughput, edit_n,
                            b, seq_qps, wall_reps, round_violations);
      if (b == max_b) {
        edit_seq_qps = seq_qps;
        edit_ratio = ratio;
      }
    }
    // The paper-literal mode, for the record (and the round-shape gate).
    const double parallel_seq_qps =
        edit_parallel_n == edit_n
            ? edit_seq_qps
            : bench_seq_point(records, /*ulam=*/false, edit_parallel_n, max_b, wall_reps);
    (void)bench_batch_point(records, /*ulam=*/false, core::BatchMode::kParallelGuess,
                            edit_parallel_n, max_b, parallel_seq_qps, wall_reps,
                            round_violations);
  }

  // ---- Execution backends, thread pool vs socket workers. ----
  // The same batch workload per algorithm on both backends.  Everything
  // metered must agree bit for bit (checked here); only wall clock may
  // move, and a gate caps how far.
  {
    const std::int64_t backend_n = smoke ? 128 : 2000;
    const std::size_t backend_b = smoke ? 2 : 4;
    for (const bool ulam : {true, false}) {
      const auto queries = make_batch_queries(backend_b, backend_n, ulam);
      const auto solve = [&](mpc::BackendKind backend) {
        core::BatchRequest request;
        request.algorithm =
            ulam ? core::BatchAlgorithm::kUlam : core::BatchAlgorithm::kEdit;
        request.mode = core::BatchMode::kThroughput;
        request.router = core::RouterPolicy::kOff;
        request.ulam.seed = 13;
        request.ulam.backend = backend;
        request.edit.backend = backend;
        request.recorder = &bench_recorder;
        request.queries = queries;
        return core::distance_batch(request);
      };
      const std::string algo = ulam ? "ulam" : "edit";
      core::BatchResult threaded;
      const double thread_wall = wall_median(
          [&] { threaded = solve(mpc::BackendKind::kThread); }, wall_reps);
      core::BatchResult socketed;
      const double socket_wall = wall_median(
          [&] { socketed = solve(mpc::BackendKind::kSocket); }, wall_reps);
      const auto record = [&](const char* backend, double wall,
                              const core::BatchResult& result) {
        records.push_back({algo + "_batch_backend_" + backend, "transport", backend_n,
                           backend_b, "throughput",
                           {{"wall_seconds", wall, "s"},
                            {"work", result.trace.total_work(), "ops"},
                            {"bytes_moved", result.trace.total_comm_bytes(), "bytes"}}});
      };
      record("thread", thread_wall, threaded);
      record("socket", socket_wall, socketed);
      (ulam ? ulam_socket_overhead : edit_socket_overhead) = socket_wall / thread_wall;

      if (socketed.trace.structural_hash() !=
          threaded.trace.structural_hash()) {
        std::fprintf(stderr,
                     "FATAL: %s batch trace hash differs across backends\n",
                     algo.c_str());
        return 1;
      }
      for (std::size_t q = 0; q < queries.size(); ++q) {
        if (socketed.queries[q].distance != threaded.queries[q].distance) {
          std::fprintf(stderr,
                       "FATAL: %s query %zu distance differs across backends\n",
                       algo.c_str(), q);
          return 1;
        }
      }
    }
  }

  // ---- Router off vs auto on a skewed near-duplicate batch. ----
  // Three quarters of the pairs sit within edit distance 8 (including exact
  // duplicates); the tail is ~n/8 edits away.  Both runs pin an explicit
  // policy — the MPCSD_ROUTER env never reaches an explicit request.
  {
    const std::int64_t router_n = smoke ? 128 : 2000;
    const std::size_t router_b = smoke ? 4 : 32;
    const auto pairs = core::near_duplicate_pairs(
        router_n, router_b, /*near_fraction=*/0.75,
        /*tail_edits=*/std::max<std::int64_t>(4, router_n / 8), /*seed=*/77);
    std::vector<core::BatchQuery> queries;
    queries.reserve(pairs.size());
    for (const core::QueryPair& pair : pairs) {
      core::BatchQuery query;
      query.s = pair.s;
      query.t = pair.t;
      queries.push_back(std::move(query));
    }
    const auto solve = [&](core::RouterPolicy policy, obs::Recorder* rec) {
      core::BatchRequest request;
      request.algorithm = core::BatchAlgorithm::kEdit;
      request.mode = core::BatchMode::kThroughput;
      request.router = policy;
      request.recorder = rec;
      request.queries = queries;
      return core::distance_batch(request);
    };

    core::BatchResult off_result;
    const double off_wall = wall_median(
        [&] { off_result = solve(core::RouterPolicy::kOff, &bench_recorder); },
        wall_reps);
    const double off_qps = static_cast<double>(router_b) / off_wall;
    records.push_back({"edit_router_off", "batch", router_n, router_b, "throughput",
                       {{"wall_seconds", off_wall, "s"},
                        {"qps", off_qps, "1/s"},
                        {"rounds", off_result.trace.round_count(), "count"},
                        {"passes", off_result.passes, "count"},
                        {"ratio_vs_off", 1.0, "ratio"}}});

    core::BatchResult routed_result;
    const double routed_wall = wall_median(
        [&] {
          routed_result = solve(core::RouterPolicy::kAuto, &bench_recorder);
        },
        wall_reps);
    const double routed_qps = static_cast<double>(router_b) / routed_wall;
    router_ratio = routed_qps / off_qps;

    // The ladder certifies a (1 + eps) upper bound; a retired query answers
    // exactly.  Routing may therefore only improve an answer, never worsen
    // it: exact <= router-auto <= router-off, query by query.
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::int64_t exact =
          seq::edit_distance_output_sensitive(queries[q].s, queries[q].t);
      const std::int64_t routed_d = routed_result.queries[q].distance;
      const std::int64_t off_d = off_result.queries[q].distance;
      if (routed_d < exact || routed_d > off_d) {
        std::fprintf(
            stderr,
            "FATAL: router broke query %zu ordering: exact=%lld auto=%lld "
            "off=%lld\n",
            q, static_cast<long long>(exact),
            static_cast<long long>(routed_d), static_cast<long long>(off_d));
        return 1;
      }
    }

    // Decision counts come from a sinked re-run on a local recorder so the
    // gated walls above keep pricing the disabled recorder on the hot path.
    obs::Recorder counted;
    const auto decisions = std::make_shared<obs::AggregateSink>();
    counted.add_sink(decisions);
    (void)solve(core::RouterPolicy::kAuto, &counted);
    counted.flush();
    const auto decision_count = [&](const char* name) -> std::uint64_t {
      const auto it = decisions->counters().find(name);
      return it == decisions->counters().end()
                 ? 0
                 : static_cast<std::uint64_t>(it->second.last);
    };
    const std::uint64_t examined = decision_count("router.examined");
    const std::uint64_t retired_seq = decision_count("router.retired_seq");
    const std::uint64_t to_plan = decision_count("router.to_plan");
    // Degenerate pairs (equal / empty strings) resolve before the router,
    // so `examined` counts the rest — and every examined query must either
    // retire or go to the plan.
    if (examined > router_b || retired_seq + to_plan != examined) {
      std::fprintf(stderr,
                   "FATAL: router decision counts inconsistent: examined=%llu "
                   "retired=%llu to_plan=%llu (B=%zu)\n",
                   static_cast<unsigned long long>(examined),
                   static_cast<unsigned long long>(retired_seq),
                   static_cast<unsigned long long>(to_plan), router_b);
      return 1;
    }
    records.push_back({"edit_router_auto", "batch", router_n, router_b, "throughput",
                       {{"wall_seconds", routed_wall, "s"},
                        {"qps", routed_qps, "1/s"},
                        {"rounds", routed_result.trace.round_count(), "count"},
                        {"passes", routed_result.passes, "count"},
                        {"ratio_vs_off", router_ratio, "ratio"},
                        {"router_examined", examined, "count"},
                        {"router_retired_seq", retired_seq, "count"},
                        {"router_probed", decision_count("router.probed"), "count"},
                        {"router_lower_bounded", decision_count("router.lower_bounded"),
                         "count"},
                        {"router_to_plan", to_plan, "count"}}});
  }

  // ---- Gates: every one is evaluated and reported before the exit. ----
  // The timing ratios need default-tier sizes, so smoke skips them; the
  // round shape is a model quantity and holds in every tier.
  const auto skip = [&](bool applies, const char* reason) -> std::string {
    if (smoke) return "smoke tier: sizes too small to time";
    return applies ? "" : reason;
  };
  const std::vector<Gate> gates = {
      gate("round_shape", static_cast<double>(round_violations), "==", 0.0, ""),
      gate("edit_unit_fast_vs_scalar", unit_speedup, ">=", 3.0, skip(true, "")),
      gate("myers_avx2_vs_scalar", avx2_speedup, ">=", 2.0,
           skip(detected_isa() >= Isa::kAvx2, "host has no AVX2")),
      gate("edit_batch_vs_seq", edit_ratio, ">=", 0.5, skip(true, "")),
      gate("edit_batch_vs_seq_multiworker", edit_ratio, ">=", 1.0,
           skip(host.workers > 1, "one simulator worker")),
      gate("ulam_batch_vs_seq_multiworker", ulam_ratio, ">=", 1.0,
           skip(host.workers > 1, "one simulator worker")),
      gate("ulam_batch_vs_seq_4workers", ulam_ratio, ">=", 1.5,
           skip(host.workers >= 4, "fewer than 4 simulator workers")),
      gate("ulam_socket_vs_thread", ulam_socket_overhead, "<=", 2.0, skip(true, "")),
      gate("edit_socket_vs_thread", edit_socket_overhead, "<=", 2.0, skip(true, "")),
      gate("router_auto_vs_off", router_ratio, ">=", 3.0, skip(true, "")),
  };

  print_results(host, records, gates);
  if (!write_results(out_path, host, records, gates)) return 1;
  std::printf("perf_suite: %zu records, %zu gates -> %s\n", records.size(), gates.size(),
              out_path.c_str());
  if (smoke && !results_file_ok(out_path, records.size(), gates.size())) {
    std::fprintf(stderr, "FAIL: %s is not a well-formed results file\n", out_path.c_str());
    return 1;
  }

  // One small traced batch run with a Chrome sink attached, after every
  // measurement: real round/stage/pass/query events end to end.
  if (!trace_path.empty()) {
    const auto chrome = std::make_shared<obs::ChromeTraceSink>();
    bench_recorder.add_sink(chrome);
    core::BatchRequest request;
    request.algorithm = core::BatchAlgorithm::kUlam;
    request.mode = core::BatchMode::kThroughput;
    request.ulam.seed = 13;
    request.recorder = &bench_recorder;
    request.queries = make_batch_queries(2, 128, /*ulam=*/true);
    (void)core::distance_batch(request);
    bench_recorder.flush();
    if (!chrome->write_file(trace_path) || chrome->event_count() == 0) {
      std::fprintf(stderr, "FAIL: cannot write a non-empty trace to %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::printf("perf_suite: %zu trace events -> %s\n", chrome->event_count(),
                trace_path.c_str());
  }

  const auto failed = std::count_if(gates.begin(), gates.end(),
                                    [](const Gate& g) { return g.status == "fail"; });
  if (failed > 0) {
    std::fprintf(stderr, "FAIL: %lld of %zu gates failed\n", static_cast<long long>(failed),
                 gates.size());
    return 1;
  }
  return 0;
}
