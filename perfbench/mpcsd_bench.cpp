// mpcsd_bench — the repository benchmark (see README.md for the workloads,
// the metric definitions and the per-layer prediction table).
//
//   mpcsd_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --cli <mpcsd_cli> --work-dir <dir> --results-dir <dir>
//               [--git-sha <sha>] [--pin <hex> --pin-nproc <n>]
//   mpcsd_bench --parse <edit|ulam> <file>...      (set-up child process)
//
// Each workload is a closed loop driven from this one process: the next
// request is sent when the previous one returns, and every request pins its
// worker count, backend and router policy.  Every answer is checked against
// the exact oracle and the paper's band.  `--trace 0` prints the end-to-end
// metrics, `--trace 1` the per-layer ones; per-layer times come from this
// file, around calls into each module's public functions, plus the counters
// the obs spine already records.  The last line of stdout is the result
// object; a result file with the host record goes to --results-dir.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cpu.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"
#include "core/batch.hpp"
#include "core/router.hpp"
#include "core/tsv.hpp"
#include "core/workload.hpp"
#include "edit_mpc/candidates.hpp"
#include "edit_mpc/small_distance.hpp"
#include "edit_mpc/solver.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"
#include "seq/approx_edit.hpp"
#include "seq/combine.hpp"
#include "seq/edit_distance_os.hpp"
#include "seq/ulam.hpp"
#include "ulam_mpc/candidates.hpp"
#include "ulam_mpc/solver.hpp"

extern char** environ;

namespace {

using namespace mpcsd;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "mpcsd_bench: %s\n", message.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Workload { kNeardupRouted, kEditLadder, kUlamSocket };

constexpr std::int64_t kEditN = 2000;
/// A batch of 128 pairs takes about 5 ms, one host time slice: on a shared
/// virtual machine its median moved 15% and its p75 28% between runs.  At
/// 1024 pairs (about 40 ms) they moved 8% and 7%.
constexpr std::size_t kNeardupPairs = 1024;
constexpr std::size_t kLadderPairs = 8;
constexpr std::int64_t kUlamN = 8192;
/// A run times at least this many requests, so request_tail_s always has
/// ten requests beyond it.
constexpr std::size_t kMinRequests = 11;
/// Fresh processes the set-up ingest runs in; setup_s is their median.
constexpr int kSetupProcesses = 9;
/// Untimed back-to-back requests before any timed one.
constexpr double kWarmupSeconds = 2.0;

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kNeardupRouted: return "neardup_routed";
    case Workload::kEditLadder: return "edit_ladder";
    case Workload::kUlamSocket: return "ulam_socket";
  }
  return "?";
}

bool is_batch(Workload w) { return w != Workload::kUlamSocket; }

/// Requests whose wire format the set-up step ingests: the run's first
/// requests, 4 to 8 MB of text on every workload.
std::size_t setup_requests(Workload w) {
  switch (w) {
    case Workload::kNeardupRouted: return 1;
    case Workload::kEditLadder: return 64;
    case Workload::kUlamSocket: return 48;
  }
  return 1;
}

/// Requests the closed loop prepares ahead and sends back to back.
std::size_t chunk_requests(Workload w) {
  return w == Workload::kNeardupRouted ? 4 : 1;
}

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// The generated inputs of request `index`: the batch's pairs, or the one
/// (s, t) pair of an Ulam solve.  A pure function of (workload, seed, index).
std::vector<core::BatchQuery> make_input(Workload w, std::uint64_t seed,
                                         std::size_t index) {
  const std::uint64_t rs = splitmix64(splitmix64(seed) ^ index);
  std::vector<core::BatchQuery> out;
  switch (w) {
    case Workload::kNeardupRouted:
      for (auto& pair : core::near_duplicate_pairs(kEditN, kNeardupPairs, 0.75,
                                                   kEditN / 8, rs)) {
        out.push_back({std::move(pair.s), std::move(pair.t)});
      }
      break;
    case Workload::kEditLadder: {
      constexpr std::int64_t kEdits[] = {kEditN / 64, kEditN / 32, kEditN / 16,
                                         kEditN / 8};
      for (std::size_t j = 0; j < kLadderPairs; ++j) {
        SymString s = core::random_string(kEditN, 8, splitmix64(rs + 2 * j));
        SymString t = core::plant_edits(s, kEdits[j % 4],
                                        splitmix64(rs + 2 * j + 1), false, 8)
                          .text;
        out.push_back({std::move(s), std::move(t)});
      }
      break;
    }
    case Workload::kUlamSocket: {
      SymString s = core::random_permutation(kUlamN, rs);
      SymString t = core::plant_edits(s, kUlamN / 64, splitmix64(rs + 1), true).text;
      out.push_back({std::move(s), std::move(t)});
      break;
    }
  }
  return out;
}

/// The exact oracle: output-sensitive exact edit distance, or exact Ulam.
std::vector<std::int64_t> exact_distances(Workload w,
                                          const std::vector<core::BatchQuery>& in) {
  std::vector<std::int64_t> out;
  for (const auto& q : in) {
    out.push_back(is_batch(w) ? seq::edit_distance_output_sensitive(q.s, q.t)
                              : seq::ulam_distance(q.s, q.t));
  }
  return out;
}

/// The paper's upper band factor: 3+eps for edit (Theorem 9), 1+eps for
/// Ulam (Theorem 4), at the library's default eps.
double band_factor(Workload w) {
  return is_batch(w) ? 3.0 + edit_mpc::EditMpcParams{}.epsilon
                     : 1.0 + ulam_mpc::UlamMpcParams{}.epsilon;
}

mpc::BackendKind workload_backend(Workload w) {
  return is_batch(w) ? mpc::BackendKind::kThread : mpc::BackendKind::kSocket;
}

core::RouterPolicy workload_router(Workload w) {
  return w == Workload::kNeardupRouted ? core::RouterPolicy::kAuto
                                       : core::RouterPolicy::kOff;
}

/// One request's outcome.
struct Solved {
  double wall_s = 0.0;
  std::vector<std::int64_t> distances;
  std::vector<std::int64_t> accepted_guess;     // batch only
  std::vector<std::uint64_t> query_hashes;      // batch only
  mpc::ExecutionTrace trace;                    // the shared execution
  std::size_t passes = 0;
  std::size_t tuple_count = 0;
};

/// Runs one request through the library's public entry point; only the
/// entry-point call is timed.  A request that throws returns no distances,
/// so every one of its queries fails the check.
Solved solve(Workload w, const std::vector<core::BatchQuery>& in,
             obs::Recorder* recorder, mpc::BackendKind backend) try {
  Solved out;
  if (is_batch(w)) {
    core::BatchRequest request;
    request.algorithm = core::BatchAlgorithm::kEdit;
    request.mode = core::BatchMode::kThroughput;
    request.router = workload_router(w);
    request.edit.workers = nproc();
    request.edit.backend = backend;
    request.recorder = recorder;
    request.queries = in;
    const auto t0 = Clock::now();
    core::BatchResult result = core::distance_batch(request);
    out.wall_s = since(t0);
    for (const auto& q : result.queries) {
      out.distances.push_back(q.distance);
      out.accepted_guess.push_back(q.accepted_guess);
      out.query_hashes.push_back(q.trace.structural_hash());
    }
    out.trace = std::move(result.trace);
    out.passes = result.passes;
  } else {
    ulam_mpc::UlamMpcParams params;
    params.workers = nproc();
    params.backend = backend;
    params.recorder = recorder;
    const auto t0 = Clock::now();
    ulam_mpc::UlamMpcResult result =
        ulam_mpc::ulam_distance_mpc(in[0].s, in[0].t, params);
    out.wall_s = since(t0);
    out.distances.push_back(result.distance);
    out.trace = std::move(result.trace);
    out.tuple_count = result.tuple_count;
  }
  return out;
} catch (const std::exception& e) {
  std::fprintf(stderr, "mpcsd_bench: request threw: %s\n", e.what());
  return Solved{};
}

/// The request's structural fingerprint: the shared trace's hash folded with
/// every query's attributed trace hash.  Wall-clock fields are excluded, so
/// it is a function of (workload, seed) alone.
std::uint64_t fingerprint(const Solved& r) {
  std::uint64_t h = r.trace.structural_hash();
  for (const std::uint64_t q : r.query_hashes) h = splitmix64(h ^ q);
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Correctness bookkeeping over every answered query.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double ratio_sum = 0.0;
  double ratio_max = 0.0;
  std::uint64_t ratio_count = 0;
  int reported = 0;

  void fail(const std::string& why) {
    ++failed;
    if (reported++ < 8) std::fprintf(stderr, "mpcsd_bench: FAIL %s\n", why.c_str());
  }

  /// Checks every answer of `r` against the oracle and the band.
  void check(Workload w, const Solved& r, const std::vector<std::int64_t>& exact,
             std::size_t request) {
    for (std::size_t q = 0; q < exact.size(); ++q) {
      ++attempted;
      const std::int64_t d = q < r.distances.size() ? r.distances[q] : -1;
      const auto e = exact[q];
      if (d < e || static_cast<double>(d) > band_factor(w) * static_cast<double>(e)) {
        fail("request " + std::to_string(request) + " query " + std::to_string(q) +
             ": distance " + std::to_string(d) + " outside band of exact " +
             std::to_string(e));
        continue;
      }
      if (e > 0) {
        const double ratio = static_cast<double>(d) / static_cast<double>(e);
        ratio_sum += ratio;
        ratio_max = std::max(ratio_max, ratio);
        ++ratio_count;
      }
    }
  }

  /// A structural-hash mismatch fails every query of the request.
  void fail_request(std::size_t queries, const std::string& why) {
    attempted += queries;
    for (std::size_t q = 0; q < queries; ++q) fail(why);
  }
};

// ---------------------------------------------------------------------------
// Wire format, child processes, host
// ---------------------------------------------------------------------------

std::string join_symbols(const SymString& s) {
  std::string out;
  out.reserve(s.size() * 6);
  char buf[16];
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i > 0) out.push_back(' ');
    const auto r = std::to_chars(buf, buf + sizeof buf, s[i]);
    out.append(buf, r.ptr);
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) die("cannot write " + path);
}

/// Writes request `in`'s CLI wire format under `stem`: one batch TSV file,
/// or the two symbol files of an Ulam solve.  Returns the paths.
std::vector<std::string> write_wire(Workload w, const std::vector<core::BatchQuery>& in,
                                    const std::string& stem) {
  if (is_batch(w)) {
    std::string tsv;
    for (const auto& q : in) {
      tsv += join_symbols(q.s);
      tsv += '\t';
      tsv += join_symbols(q.t);
      tsv += '\n';
    }
    write_file(stem + ".tsv", tsv);
    return {stem + ".tsv"};
  }
  write_file(stem + ".s.txt", join_symbols(in[0].s) + "\n");
  write_file(stem + ".t.txt", join_symbols(in[0].t) + "\n");
  return {stem + ".s.txt", stem + ".t.txt"};
}

/// Reads and parses wire files as the CLI does.  Returns (items, symbols).
std::pair<std::size_t, std::size_t> ingest(bool batch,
                                           const std::vector<std::string>& files) {
  std::size_t items = 0;
  std::size_t symbols = 0;
  for (const auto& path : files) {
    const std::string text = read_file(path);
    if (batch) {
      core::TsvError error;
      const auto queries =
          core::parse_batch_tsv(text, core::BatchAlgorithm::kEdit, &error);
      if (!queries) die(path + ":" + std::to_string(error.line) + ": " + error.message);
      for (const auto& q : *queries) symbols += q.s.size() + q.t.size();
      items += queries->size();
    } else {
      symbols += core::parse_symbols(text).size();
      ++items;
    }
  }
  return {items, symbols};
}

struct ChildResult {
  int status = -1;
  std::string out;
  double wall_s = 0.0;
};

/// Spawns argv[0] with stdout captured, waits for it, and times it.
ChildResult run_child(const std::vector<std::string>& argv) {
  int fds[2];
  if (pipe(fds) != 0) die("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  ChildResult result;
  pid_t pid = 0;
  const auto t0 = Clock::now();
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    die("cannot spawn " + argv[0]);
  }
  char buf[65536];
  ssize_t got = 0;
  while ((got = read(fds[0], buf, sizeof buf)) > 0) {
    result.out.append(buf, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
  }
  result.wall_s = since(t0);
  result.status = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  return result;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_str(const std::string& s) { return "\"" + obs::json_escape(s) + "\""; }

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// ---------------------------------------------------------------------------
// Metrics and output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The per-layer metric set, in print order.  A metric a workload does not
/// load reads 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"traced.request_s", "s"},
    {"core.router.busy_s", "s"},
    {"core.router.retire_ratio", "ratio"},
    {"core.router.probe_ratio", "ratio"},
    {"core.router.to_plan", "count"},
    {"seq.os.busy_s", "s"},
    {"seq.os.cells", "cells"},
    {"seq.os.gcells_per_s", "Gcells/s"},
    {"core.batch.wall_s", "s"},
    {"core.batch.passes", "count"},
    {"core.batch.self_s", "s"},
    {"core.tsv.parse_s", "s"},
    {"core.tsv.parse_mb_per_s", "MB/s"},
    {"seq.approx_unit.busy_s", "s"},
    {"seq.approx_unit.work", "cells"},
    {"ulam_mpc.candidates.busy_s", "s"},
    {"ulam_mpc.candidates.tuples", "count"},
    {"ulam_mpc.candidates.parallel_eff", "ratio"},
    {"seq.combine.busy_s", "s"},
    {"seq.combine.share", "ratio"},
    {"mpc.round.wall_s", "s"},
    {"mpc.round.count", "count"},
    {"mpc.round.imbalance", "ratio"},
    {"mpc.plan.glue_s", "s"},
    {"mpc.wall_per_mwork_us", "us"},
    {"mpc.backend.socket_overhead_s", "s"},
    {"mpc.backend.socket_overhead_per_round_s", "s"},
    {"mpc.transport.frames", "count"},
    {"mpc.transport.bytes", "bytes"},
    {"mpc.transport.barrier_waits", "count"},
    {"common.pool.tasks", "count"},
    {"common.pool.peak_queue_depth", "count"},
    {"cli.request_s", "s"},
    {"cli.overhead_s", "s"},
    {"obs.overhead_share", "ratio"},
    {"unattributed_s", "s"},
    {"model.work", "ops"},
    {"model.comm_bytes", "bytes"},
    {"model.max_machines", "count"},
    {"model.max_machine_bytes", "bytes"},
};

struct Args {
  Workload workload = Workload::kNeardupRouted;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string self;
  std::string cli;
  std::string work_dir;
  std::string results_dir;
  std::string git_sha = "unknown";
  std::optional<std::uint64_t> pin;
  std::size_t pin_nproc = 0;  ///< the worker count the pin was taken with
};

/// Prints the human-readable table, writes the result file, and prints the
/// result object as the last stdout line.  Returns the exit code.
int report(const Args& a, const Tally& tally, bool setup_ok,
           const std::vector<Metric>& metrics, const std::vector<Metric>& extra,
           const std::string& notes) {
  const bool correct = tally.failed == 0 && setup_ok && tally.attempted > 0;
  std::printf("# mpcsd_bench %s seed=%llu trace=%d  (%s, %s, %zu threads)\n",
              workload_name(a.workload), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0, cpu_model().c_str(), isa_name(detected_isa()),
              nproc());
  for (const auto* list : {&metrics, &extra}) {
    for (const Metric& m : *list) {
      std::printf("  %-42s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (!notes.empty()) std::printf("%s", notes.c_str());

  const auto metric_json = [](const std::vector<Metric>& list) {
    std::string out = "{";
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_str(list[i].name) + ": {\"value\": " + num(list[i].value) +
             ", \"unit\": " + json_str(list[i].unit) + "}";
    }
    return out + "}";
  };
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(tally.attempted) +
      ", \"failed\": " + std::to_string(tally.failed) +
      ", \"metrics\": " + metric_json(metrics) + "}";

  const std::string host =
      "{\"cpu_model\": " + json_str(cpu_model()) +
      ", \"isa_detected\": " + json_str(isa_name(detected_isa())) +
      ", \"isa_active\": " + json_str(isa_name(active_isa())) +
      ", \"nproc\": " + std::to_string(nproc()) +
      ", \"compiler\": " + json_str(MPCSD_BENCH_COMPILER " (" __VERSION__ ")") +
      ", \"build_type\": " + json_str(MPCSD_BENCH_BUILD_TYPE) +
      ", \"git_sha\": " + json_str(a.git_sha) + "}";
  const std::string path = a.results_dir + "/" + workload_name(a.workload) + "_seed" +
                           std::to_string(a.seed) + "_trace" +
                           (a.trace ? "1" : "0") + ".json";
  write_file(path, "{\"workload\": " + json_str(workload_name(a.workload)) +
                       ", \"seed\": " + std::to_string(a.seed) +
                       ", \"seconds\": " + num(a.seconds) + ", \"host\": " + host +
                       ", \"extra\": " + metric_json(extra) +
                       ", \"result\": " + result + "}\n");
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Per-request samples of the per-layer metrics; each reports its median.
class LayerSamples {
 public:
  void add(const std::string& name, double v) { samples_[name].push_back(v); }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics
// ---------------------------------------------------------------------------

/// Ingests the wire format of the run's first requests in fresh processes;
/// returns the median ingest time, or nullopt if an ingest disagreed with
/// the generated inputs.
std::optional<double> measure_setup(const Args& a) {
  const Workload w = a.workload;
  std::vector<std::string> argv = {a.self, "--parse", is_batch(w) ? "edit" : "ulam"};
  std::size_t items = 0;
  std::size_t symbols = 0;
  for (std::size_t i = 0; i < setup_requests(w); ++i) {
    const auto in = make_input(w, a.seed, i);
    for (const auto& q : in) symbols += q.s.size() + q.t.size();
    items += is_batch(w) ? in.size() : 2;
    for (auto& f : write_wire(w, in, a.work_dir + "/setup" + std::to_string(i))) {
      argv.push_back(std::move(f));
    }
  }
  std::vector<double> times;
  for (int p = 0; p < kSetupProcesses; ++p) {
    const ChildResult child = run_child(argv);
    double seconds = 0.0;
    unsigned long long got_items = 0;
    unsigned long long got_symbols = 0;
    if (child.status != 0 ||
        std::sscanf(child.out.c_str(), "%lf %llu %llu", &seconds, &got_items,
                    &got_symbols) != 3 ||
        got_items != items || got_symbols != symbols) {
      std::fprintf(stderr, "mpcsd_bench: FAIL set-up ingest: status %d, %llu/%zu items, "
                   "%llu/%zu symbols\n", child.status, got_items, items, got_symbols,
                   symbols);
      return std::nullopt;
    }
    times.push_back(seconds);
  }
  return median(times);
}

/// Runs f(0..count-1) on nproc() threads.  Input generation and the oracle
/// run here, between timed requests: done in parallel they keep every core
/// as warm as the requests do, and take less of the run.
template <class F>
void prepare(std::size_t count, const F& f) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < std::min(count, nproc()); ++t) {
    threads.emplace_back([&] {
      for (std::size_t c = next++; c < count; c = next++) f(c);
    });
  }
  for (auto& t : threads) t.join();
}

/// Sends requests back to back, untimed, for kWarmupSeconds: the first
/// requests after an idle spell run on cold cores and would be timed at a
/// different speed than the rest of the run.
void warm_up(Workload w, std::uint64_t seed) {
  const auto in = make_input(w, seed, 0);
  const auto t0 = Clock::now();
  while (since(t0) < kWarmupSeconds) (void)solve(w, in, nullptr, workload_backend(w));
}

int run_untraced(const Args& a) {
  const Workload w = a.workload;
  const mpc::BackendKind backend = workload_backend(w);
  Tally tally;

  // Warm-up: request 0, untimed.  Its fingerprint is the run's determinism
  // reference (and is pinned for the documented seeds).
  const auto in0 = make_input(w, a.seed, 0);
  const auto exact0 = exact_distances(w, in0);
  const Solved warm = solve(w, in0, nullptr, backend);
  tally.check(w, warm, exact0, 0);
  warm_up(w, a.seed);
  const std::optional<double> setup_s = measure_setup(a);
  const std::uint64_t fp = fingerprint(warm);
  if (a.pin && *a.pin != fp) {
    tally.fail_request(in0.size(), "request 0 fingerprint " + hex(fp) +
                                       " differs from the pinned " + hex(*a.pin));
  }

  std::vector<double> walls;
  std::size_t queries = 0;
  double rounds = 0, work = 0, comm = 0, machines = 0, machine_bytes = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; walls.size() < kMinRequests || since(t0) < a.seconds;) {
    // Prepare a chunk first, then send it back to back: generation and the
    // oracle must not become think time between requests.
    std::vector<std::vector<core::BatchQuery>> ins(chunk_requests(w));
    std::vector<std::vector<std::int64_t>> exacts(ins.size());
    prepare(ins.size(), [&](std::size_t c) {
      ins[c] = make_input(w, a.seed, i + c);
      exacts[c] = exact_distances(w, ins[c]);
    });
    std::vector<Solved> outs;
    for (const auto& in : ins) outs.push_back(solve(w, in, nullptr, backend));
    for (std::size_t c = 0; c < outs.size(); ++c, ++i) {
      const Solved& r = outs[c];
      walls.push_back(r.wall_s);
      queries += ins[c].size();
      tally.check(w, r, exacts[c], i);
      if (i == 0 && fingerprint(r) != fp) {
        tally.fail_request(ins[c].size(), "request 0 fingerprint changed between runs");
      }
      rounds += static_cast<double>(r.trace.round_count());
      work += static_cast<double>(r.trace.total_work());
      comm += static_cast<double>(r.trace.total_comm_bytes());
      machines += static_cast<double>(r.trace.max_machines());
      machine_bytes += static_cast<double>(r.trace.max_machine_memory());
    }
  }

  // The highest percentile, up to p90, with at least ten requests beyond it.
  std::vector<double> sorted = walls;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const std::size_t beyond = std::max<std::size_t>(10, n / 10);
  const double tail = sorted[n - beyond - 1];
  const double tail_pct =
      100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  const double total_wall = std::accumulate(walls.begin(), walls.end(), 0.0);
  const double requests = static_cast<double>(n);

  const double error_rate = tally.attempted == 0
                                ? 1.0
                                : static_cast<double>(tally.failed) /
                                      static_cast<double>(tally.attempted);
  const std::vector<Metric> metrics = {
      {"qps", "1/s", static_cast<double>(queries) / total_wall},
      {"request_p50_s", "s", median(walls)},
      {"request_tail_s", "s", tail},
      {"setup_s", "s", setup_s.value_or(0.0)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"ok_rate", "ratio", 1.0 - error_rate},
      {"approx_ratio_max", "ratio", tally.ratio_count ? tally.ratio_max : 1.0},
      {"approx_ratio_mean", "ratio",
       tally.ratio_count ? tally.ratio_sum / static_cast<double>(tally.ratio_count)
                         : 1.0},
  };
  const std::vector<Metric> extra = {
      {"error_rate", "ratio", error_rate},
      {"model_rounds", "rounds", rounds / requests},
      {"model_work", "ops", work / requests},
      {"model_comm_bytes", "bytes", comm / requests},
      {"model_max_machines", "machines", machines / requests},
      {"model_max_machine_bytes", "bytes", machine_bytes / requests},
      {"request_tail_percentile", "%", tail_pct},
      {"requests", "count", requests},
      {"queries", "count", static_cast<double>(queries)},
  };
  const std::string notes =
      "  fingerprint(request 0) = " + hex(fp) +
      (!a.pin ? " (no pin for this seed)\n"
              : *a.pin == fp ? " (matches the pin)\n" : " (DIFFERS from the pin)\n");
  return report(a, tally, setup_s.has_value(), metrics, extra, notes);
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics
// ---------------------------------------------------------------------------

/// A recorder with an in-memory aggregate sink, one per traced request.
struct Tracer {
  obs::Recorder recorder;
  std::shared_ptr<obs::AggregateSink> sink = std::make_shared<obs::AggregateSink>();
  Tracer() { recorder.add_sink(sink); }

  [[nodiscard]] double counter(const char* name) const {
    const auto it = sink->counters().find(name);
    return it == sink->counters().end() ? 0.0 : it->second.last;
  }
  [[nodiscard]] double span_s(const char* name) const {
    const auto it = sink->spans().find(name);
    return it == sink->spans().end() ? 0.0
                                     : static_cast<double>(it->second.total_dur_us) * 1e-6;
  }
};

double sum_round(const mpc::ExecutionTrace& trace, double mpc::RoundReport::*field) {
  double total = 0.0;
  for (const auto& r : trace.rounds()) total += r.*field;
  return total;
}

/// Layers visible in a traced request's own trace and counters.
void record_round_plane(LayerSamples& L, const Solved& untraced, const Solved& traced,
                        const Tracer& tracer) {
  const auto& tr = traced.trace;
  const double round_wall = sum_round(tr, &mpc::RoundReport::wall_seconds);
  const double glue = sum_round(tr, &mpc::RoundReport::driver_seconds);
  double capacity = 0.0;
  double total_work = 0.0;
  for (const auto& r : tr.rounds()) {
    capacity += static_cast<double>(r.max_machine_work) * static_cast<double>(r.machines);
    total_work += static_cast<double>(r.total_work);
  }
  L.add("traced.request_s", traced.wall_s);
  L.add("mpc.round.wall_s", round_wall);
  L.add("mpc.round.count", static_cast<double>(tr.round_count()));
  L.add("mpc.round.imbalance", total_work > 0 ? capacity / total_work : 0.0);
  L.add("mpc.plan.glue_s", glue);
  L.add("mpc.wall_per_mwork_us", total_work > 0 ? round_wall * 1e12 / total_work : 0.0);
  // The receiving side: on the socket backend the host receives the
  // workers' result frames; in-process, every envelope is sent and received
  // in the same move.
  L.add("mpc.transport.frames", tracer.counter("transport.frames_received"));
  L.add("mpc.transport.bytes", tracer.counter("transport.bytes_received"));
  L.add("mpc.transport.barrier_waits", tracer.counter("transport.barrier_waits"));
  L.add("common.pool.tasks", tracer.counter("pool.tasks_enqueued"));
  L.add("common.pool.peak_queue_depth", tracer.counter("pool.peak_queue_depth"));
  // The part of the request no span covers.  A batch request is one
  // distance_batch call, so there it is the batch driver's self time.
  const double uncovered =
      traced.wall_s - round_wall - glue - tracer.span_s("batch:edit:router");
  if (!traced.query_hashes.empty()) {
    L.add("core.batch.wall_s", traced.wall_s);
    L.add("core.batch.passes", static_cast<double>(traced.passes));
    L.add("core.batch.self_s", uncovered);
  }
  L.add("unattributed_s", uncovered);
  const auto& ut = untraced.trace;
  L.add("model.work", static_cast<double>(ut.total_work()));
  L.add("model.comm_bytes", static_cast<double>(ut.total_comm_bytes()));
  L.add("model.max_machines", static_cast<double>(ut.max_machines()));
  L.add("model.max_machine_bytes", static_cast<double>(ut.max_machine_memory()));
}

/// core.router and seq.os: the router's per-query decision and its capped
/// output-sensitive probe, replayed serially on the batch's live queries.
void replay_router(LayerSamples& L, const std::vector<core::BatchQuery>& in) {
  // distance_batch routes only its live queries: unequal and non-empty.
  const auto is_live = [](const core::BatchQuery& q) {
    return q.s != q.t && !q.s.empty() && !q.t.empty();
  };
  const auto live = static_cast<std::size_t>(std::count_if(in.begin(), in.end(), is_live));
  double busy = 0.0;
  double os_busy = 0.0;
  std::uint64_t cells = 0;
  std::size_t retired = 0;
  std::size_t probed = 0;
  for (const auto& q : in) {
    if (!is_live(q)) continue;
    auto t0 = Clock::now();
    const core::RouteDecision d =
        core::route_query(q.s, q.t, core::RouterPolicy::kAuto, live, nproc());
    busy += since(t0);
    retired += d.retire ? 1 : 0;
    probed += d.probed ? 1 : 0;
    if (!d.probed) continue;
    t0 = Clock::now();
    (void)seq::edit_distance_output_sensitive_bounded(q.s, q.t, d.k_cap, &cells);
    os_busy += since(t0);
  }
  const double examined = static_cast<double>(std::max<std::size_t>(1, live));
  L.add("core.router.busy_s", busy);
  L.add("core.router.retire_ratio", static_cast<double>(retired) / examined);
  L.add("core.router.probe_ratio", static_cast<double>(probed) / examined);
  L.add("core.router.to_plan", static_cast<double>(live - retired));
  L.add("seq.os.busy_s", os_busy);
  L.add("seq.os.cells", static_cast<double>(cells));
  L.add("seq.os.gcells_per_s", os_busy > 0 ? static_cast<double>(cells) / os_busy * 1e-9 : 0.0);
}

/// seq.approx_unit: the small-distance machine bodies' distance unit on the
/// block-vs-window slices of every query's accepting rung, replayed serially
/// with the pipeline's geometry and censoring cap.
void replay_approx_unit(LayerSamples& L, const std::vector<core::BatchQuery>& in,
                        const Solved& r) {
  const edit_mpc::EditMpcParams params;
  double busy = 0.0;
  std::uint64_t work = 0;
  for (std::size_t q = 0; q < in.size(); ++q) {
    const std::int64_t guess = r.accepted_guess[q];
    if (guess <= 0) continue;
    edit_mpc::SmallDistanceParams sp;
    sp.eps_prime = edit_mpc::edit_eps_prime(params);
    sp.x = params.x;
    sp.delta_guess = guess;
    sp.approx = params.approx;
    const auto n = static_cast<std::int64_t>(in[q].s.size());
    const auto n_bar = static_cast<std::int64_t>(in[q].t.size());
    const auto geo = edit_mpc::small_geometry(n, n_bar, sp);
    const std::int64_t cap = 4 * guess + 8;
    for (const auto& task : edit_mpc::make_small_tasks(in[q].s, in[q].t, sp, geo)) {
      const SymView block(task.block);
      const SymView chunk(task.chunk);
      const auto block_len = static_cast<std::int64_t>(task.block.size());
      for (const std::int64_t start : task.starts) {
        for (const std::int64_t end : edit_mpc::candidate_ends(start, block_len, geo)) {
          const SymView window =
              subview(chunk, {start - task.chunk_begin, end - task.chunk_begin});
          const auto limit = std::min<std::int64_t>(
              cap, static_cast<std::int64_t>(block.size() + window.size()));
          if (window.empty() ||
              std::abs(block_len - static_cast<std::int64_t>(window.size())) > limit) {
            continue;
          }
          seq::ApproxEditParams unit = sp.approx;
          unit.guess_limit = 2 * limit + 4;
          const auto t0 = Clock::now();
          const auto res = seq::approx_edit_distance(block, window, unit);
          busy += since(t0);
          work += res.work;
        }
      }
    }
  }
  L.add("seq.approx_unit.busy_s", busy);
  L.add("seq.approx_unit.work", static_cast<double>(work));
}

/// ulam_mpc.candidates and seq.combine: Algorithm 1 per block, replayed
/// serially with the machines' RNG streams, then the combine DP over the
/// replayed tuples.  Returns false if the replay's tuples differ in number
/// from the solve's (the replay would not be the solve's work).
bool replay_ulam_layers(LayerSamples& L, const core::BatchQuery& q, const Solved& socket) {
  const ulam_mpc::UlamMpcParams params;
  const auto n = static_cast<std::int64_t>(q.s.size());
  const auto n_bar = static_cast<std::int64_t>(q.t.size());
  const std::int64_t block = std::max<std::int64_t>(1, ipow_ceil(n, 1.0 - params.x));
  std::unordered_map<Symbol, std::int64_t> pos_in_t;
  for (std::size_t j = 0; j < q.t.size(); ++j) {
    pos_in_t.emplace(q.t[j], static_cast<std::int64_t>(j));
  }
  ulam_mpc::CandidateParams cp;
  cp.eps_prime = params.epsilon / 2.0;
  cp.theta_constant = params.theta_constant;
  cp.n = n;
  cp.n_bar = n_bar;
  std::vector<seq::Tuple> tuples;
  double busy = 0.0;
  for (std::int64_t b = 0; b * block < n; ++b) {
    std::vector<std::int64_t> positions;
    for (std::int64_t i = b * block; i < std::min(n, (b + 1) * block); ++i) {
      const auto it = pos_in_t.find(q.s[static_cast<std::size_t>(i)]);
      positions.push_back(it == pos_in_t.end() ? -1 : it->second);
    }
    Pcg32 rng = derive_stream(params.seed, 0, static_cast<std::uint64_t>(b));
    const auto t0 = Clock::now();
    auto out = ulam_mpc::build_block_candidates(b * block, positions, cp, rng);
    busy += since(t0);
    tuples.insert(tuples.end(), out.begin(), out.end());
  }
  const double round1_wall =
      socket.trace.round_count() > 0 ? socket.trace.rounds()[0].wall_seconds : 0.0;
  L.add("ulam_mpc.candidates.busy_s", busy);
  L.add("ulam_mpc.candidates.tuples", static_cast<double>(tuples.size()));
  L.add("ulam_mpc.candidates.parallel_eff",
        round1_wall > 0 ? busy / (round1_wall * static_cast<double>(nproc())) : 0.0);
  const bool faithful = tuples.size() == socket.tuple_count;

  seq::CombineOptions options;
  options.gap = params.combine_gap;
  const auto t0 = Clock::now();
  (void)seq::combine_tuples(std::move(tuples), n, n_bar, options);
  const double combine = since(t0);
  L.add("seq.combine.busy_s", combine);
  L.add("seq.combine.share", combine / socket.wall_s);
  return faithful;
}

/// mpc.backend: the same request replayed on the thread backend.  Returns
/// the thread solve so its answers and fingerprint can be cross-checked.
Solved replay_thread_backend(LayerSamples& L, Workload w,
                             const std::vector<core::BatchQuery>& in,
                             const Solved& socket, std::vector<double>& per_round) {
  Solved thread = solve(w, in, nullptr, mpc::BackendKind::kThread);
  L.add("mpc.backend.socket_overhead_s", socket.wall_s - thread.wall_s);
  const auto& sr = socket.trace.rounds();
  const auto& tr = thread.trace.rounds();
  double total = 0.0;
  per_round.resize(std::max(per_round.size(), sr.size()), 0.0);
  for (std::size_t r = 0; r < sr.size() && r < tr.size(); ++r) {
    const double d = sr[r].wall_seconds - tr[r].wall_seconds;
    per_round[r] += d;
    total += d;
  }
  L.add("mpc.backend.socket_overhead_per_round_s",
        sr.empty() ? 0.0 : total / static_cast<double>(sr.size()));
  return thread;
}

/// Parses the distances out of mpcsd_cli's stdout.
std::vector<std::int64_t> cli_distances(Workload w, const std::string& out) {
  std::vector<std::int64_t> d;
  const std::string key = is_batch(w) ? "\"distance\":" : "ulam distance (1+eps approx): ";
  for (std::size_t pos = out.find(key); pos != std::string::npos;
       pos = out.find(key, pos + 1)) {
    d.push_back(std::strtoll(out.c_str() + pos + key.size(), nullptr, 10));
  }
  return d;
}

/// cli and core.tsv: request 0 through mpcsd_cli as a subprocess, against
/// the in-process parse and solve of the same wire files.
void measure_cli(LayerSamples& L, Tally& tally, const Args& a,
                 const std::vector<core::BatchQuery>& in) {
  const Workload w = a.workload;
  const auto files = write_wire(w, in, a.work_dir + "/cli");
  std::size_t bytes = 0;
  for (const auto& f : files) bytes += read_file(f).size();
  std::vector<double> parse;
  for (int k = 0; k < 3; ++k) {
    const auto t0 = Clock::now();
    (void)ingest(is_batch(w), files);
    parse.push_back(since(t0));
  }
  const double parse_s = median(parse);
  L.add("core.tsv.parse_s", parse_s);
  L.add("core.tsv.parse_mb_per_s", static_cast<double>(bytes) / parse_s * 1e-6);

  std::vector<std::string> argv = {a.cli};
  if (is_batch(w)) {
    argv.insert(argv.end(), {"batch", "edit", files[0], "--mode", "throughput",
                             "--router", core::router_policy_name(workload_router(w)),
                             "--seed", std::to_string(edit_mpc::EditMpcParams{}.seed)});
  } else {
    argv.insert(argv.end(), {"ulam", files[0], files[1], "--seed",
                             std::to_string(ulam_mpc::UlamMpcParams{}.seed)});
  }
  argv.insert(argv.end(), {"--backend", mpc::backend_kind_name(workload_backend(w))});
  // CLI and in-process solves alternate, so both medians see the same host.
  std::vector<double> walls;
  std::vector<double> in_process;
  for (int k = 0; k < 3; ++k) {
    const Solved r = solve(w, in, nullptr, workload_backend(w));
    in_process.push_back(r.wall_s);
    const ChildResult child = run_child(argv);
    if (child.status != 0 || cli_distances(w, child.out) != r.distances) {
      tally.fail_request(in.size(), "mpcsd_cli answers differ from the in-process solve");
      return;
    }
    walls.push_back(child.wall_s);
  }
  L.add("cli.request_s", median(walls));
  L.add("cli.overhead_s", median(walls) - parse_s - median(in_process));
}

int run_traced(const Args& a) {
  const Workload w = a.workload;
  const mpc::BackendKind backend = workload_backend(w);
  Tally tally;
  LayerSamples L;
  std::vector<double> per_round;
  std::string notes;
  double traced_total = 0.0;
  double untraced_total = 0.0;

  warm_up(w, a.seed);
  std::size_t requests = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; requests == 0 || since(t0) < 0.8 * a.seconds; ++i) {
    const auto in = make_input(w, a.seed, i);
    const auto exact = exact_distances(w, in);
    const Solved untraced = solve(w, in, nullptr, backend);
    Tracer tracer;
    const Solved traced = solve(w, in, &tracer.recorder, backend);
    tally.check(w, untraced, exact, i);
    tally.check(w, traced, exact, i);
    if (fingerprint(traced) != fingerprint(untraced)) {
      tally.fail_request(in.size(), "attaching the recorder changed the fingerprint");
    }
    ++requests;
    if (untraced.distances.size() != in.size()) continue;  // it threw
    traced_total += traced.wall_s;
    untraced_total += untraced.wall_s;
    record_round_plane(L, untraced, traced, tracer);
    if (w == Workload::kNeardupRouted) replay_router(L, in);
    if (w == Workload::kEditLadder) replay_approx_unit(L, in, untraced);
    if (w == Workload::kUlamSocket) {
      if (!replay_ulam_layers(L, in[0], untraced)) {
        notes += "  note: candidate replay produced a different tuple count\n";
      }
      const Solved thread = replay_thread_backend(L, w, in, untraced, per_round);
      tally.check(w, thread, exact, i);
      if (fingerprint(thread) != fingerprint(untraced)) {
        tally.fail_request(in.size(), "socket and thread fingerprints differ");
      }
    }
  }
  measure_cli(L, tally, a, make_input(w, a.seed, 0));
  L.add("obs.overhead_share", traced_total / untraced_total - 1.0);

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayerMetrics) metrics.push_back({name, unit, L.get(name)});
  std::vector<Metric> extra = {{"requests", "count", static_cast<double>(requests)}};
  for (std::size_t r = 0; r < per_round.size(); ++r) {
    extra.push_back({"mpc.backend.socket_overhead_s.round" + std::to_string(r + 1), "s",
                     per_round[r] / static_cast<double>(requests)});
  }

  // The load pattern each workload was chosen for (README.md).
  const double wall = L.get("traced.request_s");
  std::string pattern;
  bool held = true;
  switch (w) {
    case Workload::kNeardupRouted:
      pattern = "core.router.busy_s >= 0.9 x request wall, mpc.round.count == 0";
      held = L.get("core.router.busy_s") >= 0.9 * wall && L.get("mpc.round.count") == 0;
      break;
    case Workload::kEditLadder:
      pattern = "mpc.round.wall_s >= 0.9 x request wall, core.router.busy_s == 0";
      held = L.get("mpc.round.wall_s") >= 0.9 * wall && L.get("core.router.busy_s") == 0;
      break;
    case Workload::kUlamSocket:
      pattern = "mpc.transport.bytes > 0, socket overhead reported per round";
      held = L.get("mpc.transport.bytes") > 0 && !per_round.empty();
      break;
  }
  notes += std::string("  load pattern (") + pattern + "): " + (held ? "held" : "MISSED") + "\n";
  return report(a, tally, true, metrics, extra, notes);
}

// ---------------------------------------------------------------------------

int parse_child(int argc, char** argv) {
  if (argc < 4) die("--parse needs a kind and files");
  const bool batch = std::strcmp(argv[2], "edit") == 0;
  const std::vector<std::string> files(argv + 3, argv + argc);
  const auto t0 = Clock::now();
  const auto [items, symbols] = ingest(batch, files);
  const double seconds = since(t0);
  std::printf("%s %zu %zu\n", num(seconds).c_str(), items, symbols);
  return 0;
}

Args parse_args(int argc, char** argv) {
  Args a;
  a.self = argv[0];
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) die("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      have_workload = true;
      if (value == "neardup_routed") a.workload = Workload::kNeardupRouted;
      else if (value == "edit_ladder") a.workload = Workload::kEditLadder;
      else if (value == "ulam_socket") a.workload = Workload::kUlamSocket;
      else die("unknown workload " + value);
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--cli") {
      a.cli = value;
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--results-dir") {
      a.results_dir = value;
    } else if (key == "--git-sha") {
      a.git_sha = value;
    } else if (key == "--pin") {
      a.pin = std::strtoull(value.c_str(), nullptr, 16);
    } else if (key == "--pin-nproc") {
      a.pin_nproc = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      die("unknown flag " + key);
    }
  }
  // The router's decisions, and so the fingerprint, depend on the worker
  // count: a pin taken with another nproc does not apply.
  if (a.pin_nproc != nproc()) a.pin.reset();
  if (!have_workload || a.cli.empty() || a.work_dir.empty() || a.results_dir.empty()) {
    die("usage: mpcsd_bench --workload W --seed N --seconds S --trace 0|1 "
        "--cli PATH --work-dir DIR --results-dir DIR [--git-sha SHA] "
        "[--pin HEX --pin-nproc N]");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--parse") == 0) return parse_child(argc, argv);
  const Args a = parse_args(argc, argv);
  return a.trace ? run_traced(a) : run_untraced(a);
}
