// Shared plumbing for the benchmark program: run options, the result
// line, timing and order statistics, the in-memory span tracer, and the
// checked-in expected-results table.
#ifndef CONFLLVM_PERFBENCH_COMMON_H_
#define CONFLLVM_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// ---- Run options and result ----

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory for the run's own files (Chrome trace, daemon socket). The
  // benchmark writes nowhere else.
  std::string work_dir = ".";
  // Checked-in expected results (perfbench/expected.json).
  std::string expected_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a workload returns: the operation accounting and its metrics.
// `failures` names each failed operation (printed to stderr, never dropped).
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_ok = true;  // whole-run checks (closure, identity) held
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records one failed operation with its reason.
  void Fail(const std::string& why);
  // Records a failed whole-run check (not an operation).
  void CheckFailed(const std::string& why);
};

// Prints `r` as the program's one-line JSON result (the last stdout line):
// the metrics the workload measured. run.py completes it to the metric list
// of BENCHMARK.json.
void PrintResult(const Result& r);

// Every workload sets up this many times per run and reports the fastest
// repeat as setup_s (SetupSeconds): the best-of-N rule of every other
// timing. The median repeat follows the host's speed phases, which differ
// between runs (NOTES.md, "Measured spread").
constexpr size_t kSetupReps = 15;

// exec-guest and compile-sweep run their first set-up before the timed loop
// (its products are used) and spread the other repeats evenly through the
// loop, between rounds, so that one short slow window at process start does
// not decide setup_s. True when repeat number `done` (0-based) is due
// `loop_ms` into a loop of `seconds`.
inline bool SetupRepDue(size_t done, double loop_ms, double seconds) {
  return done < kSetupReps &&
         loop_ms >= static_cast<double>(done) * seconds * 1000.0 / kSetupReps;
}

// setup_s from the set-up repeats' wall times, seconds: their minimum. The
// minimum, median and maximum go to stderr.
double SetupSeconds(const std::vector<double>& reps);

// ---- Time and statistics ----

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

double Median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p);
// Peak resident set size of this process, MB.
double PeakRssMb();

// Keeps the smallest sample seen per key: the best-of-N aggregation the
// timings use (host speed drifts by a quarter within seconds; the fastest
// repeat of an input is the one least disturbed by it).
class BestOf {
 public:
  void Add(const std::string& key, double ms);
  double Sum() const;
  double Get(const std::string& key) const;

 private:
  std::map<std::string, double> best_;
};

uint64_t Fnv1a(const std::string& s);

// 0..n-1 in a seeded random order (Fisher-Yates).
std::vector<size_t> SeededOrder(size_t n, uint64_t seed);

// ---- Tracer ----
//
// Spans recorded from the benchmark's own code around calls into the
// program's layers. Each span has a name, start, end, parent (the span open
// on the same thread when it started) and a request id. Spans stay in memory
// and are written as Chrome trace-event JSON when the run ends. Disabled
// (untraced runs), a Span costs one branch.
class Tracer {
 public:
  struct Rec {
    const char* name;
    uint64_t req;
    uint32_t tid;
    int64_t parent;  // index into spans(), -1 for a root
    double t0_us;
    double t1_us;
  };

  static Tracer& Get();
  // Set while no other thread is recording.
  void SetEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int64_t Open(const char* name, uint64_t req);
  void Close(int64_t idx);

  // Self time (duration minus the time covered by direct children) summed
  // by span name over the spans of request `req`.
  std::map<std::string, double> SelfMsByName(uint64_t req) const;
  // Drops every span of request `req` (keeps memory bounded; only the
  // fastest repeat of each input is kept for the trace file).
  void Forget(uint64_t req);

  bool WriteChromeJson(const std::string& path) const;
  size_t size() const;

 private:
  Tracer();
  bool enabled_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Rec> spans_;
};

// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(const char* name, uint64_t req = 0);
  ~Span() { End(); }
  void End();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t idx_ = -1;
  bool open_ = false;
};

// Request ids: one per timed operation, so its span tree can be isolated.
uint64_t NextRequestId();

// ---- Expected results ----

struct Expected {
  uint64_t ret = 0;
  uint64_t stdout_fnv = 0;
  uint64_t stdout_len = 0;
};

// Loads perfbench/expected.json: {"<input>/<preset>": {"ret": N,
// "stdout_fnv": N, "stdout_len": N}, ...}. False on a missing or malformed
// file.
bool LoadExpected(const std::string& path, std::map<std::string, Expected>* out,
                  std::string* err);

// Checks one guest run against the table; on mismatch returns false with
// the reason in `why`.
bool MatchExpected(const std::map<std::string, Expected>& table,
                   const std::string& key, uint64_t ret,
                   const std::string& guest_stdout, std::string* why);

// ---- Workloads ----

Result RunExecGuest(const RunOptions& opts);
Result RunCompileSweep(const RunOptions& opts);
Result RunServeEdit(const RunOptions& opts);

// Compiles the SPEC kernels under Base, OurMPX and OurSeg, runs each once on
// the fast engine against the expected table, and adds the exact
// ourmpx_overhead_pct and ourseg_overhead_pct. compile-sweep and serve-edit
// call it after their timed loop; exec-guest derives the same figures from
// its own correctness pass.
void AddSpecOverheads(const RunOptions& opts, Result* res);

// Regenerates the expected-results table from the reference engine.
int WriteExpected(const std::string& path);

}  // namespace perfbench

#endif  // CONFLLVM_PERFBENCH_COMMON_H_
