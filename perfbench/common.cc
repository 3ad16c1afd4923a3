#include "common.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

#include "src/service/protocol.h"
#include "src/support/rng.h"

namespace perfbench {

using confllvm::Json;

void Result::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 64) {
    failures.push_back(why);
  }
}

void Result::CheckFailed(const std::string& why) {
  checks_ok = false;
  if (failures.size() < 64) {
    failures.push_back("check: " + why);
  }
}

void PrintResult(const Result& r) {
  for (const std::string& f : r.failures) {
    fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  std::string out = "{\"correct\": ";
  out += (r.failed == 0 && r.checks_ok && r.attempted > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char num[64];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    snprintf(num, sizeof num, "%.17g", v);
    if (i != 0) {
      out += ", ";
    }
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  fflush(stderr);
  printf("%s\n", out.c_str());
  fflush(stdout);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double SetupSeconds(const std::vector<double>& reps) {
  if (!reps.empty()) {
    fprintf(stderr, "perfbench: %zu set-ups: min %.6f median %.6f max %.6f s\n",
            reps.size(), *std::min_element(reps.begin(), reps.end()),
            Median(reps), *std::max_element(reps.begin(), reps.end()));
  }
  return reps.empty() ? 0 : *std::min_element(reps.begin(), reps.end());
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void BestOf::Add(const std::string& key, double ms) {
  auto it = best_.find(key);
  if (it == best_.end() || ms < it->second) {
    best_[key] = ms;
  }
}

double BestOf::Sum() const {
  double s = 0;
  for (const auto& [k, v] : best_) {
    s += v;
  }
  return s;
}

double BestOf::Get(const std::string& key) const {
  auto it = best_.find(key);
  return it == best_.end() ? 0 : it->second;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<size_t> SeededOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  confllvm::Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Next() % i]);
  }
  return order;
}

// ---- Tracer ----

namespace {

std::atomic<uint32_t> g_next_tid{1};
std::atomic<uint64_t> g_next_req{1};

uint32_t ThisTid() {
  thread_local uint32_t tid = g_next_tid.fetch_add(1);
  return tid;
}

std::vector<int64_t>& OpenStack() {
  thread_local std::vector<int64_t> stack;
  return stack;
}

}  // namespace

uint64_t NextRequestId() { return g_next_req.fetch_add(1); }

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int64_t Tracer::Open(const char* name, uint64_t req) {
  std::vector<int64_t>& stack = OpenStack();
  const int64_t parent = stack.empty() ? -1 : stack.back();
  const double t0 =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  int64_t idx;
  {
    std::lock_guard<std::mutex> lock(mu_);
    idx = static_cast<int64_t>(spans_.size());
    if (req == 0 && parent >= 0) {
      req = spans_[static_cast<size_t>(parent)].req;  // inherit the request
    }
    spans_.push_back({name, req, ThisTid(), parent, t0, t0});
  }
  stack.push_back(idx);
  return idx;
}

void Tracer::Close(int64_t idx) {
  const double t1 =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  std::vector<int64_t>& stack = OpenStack();
  if (!stack.empty() && stack.back() == idx) {
    stack.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(idx)].t1_us = t1;
}

std::map<std::string, double> Tracer::SelfMsByName(uint64_t req) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int64_t, double> child_us;
  for (const Rec& r : spans_) {
    if (r.req == req && r.parent >= 0) {
      child_us[r.parent] += r.t1_us - r.t0_us;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    if (r.req != req) {
      continue;
    }
    auto it = child_us.find(static_cast<int64_t>(i));
    const double self_us =
        (r.t1_us - r.t0_us) - (it == child_us.end() ? 0 : it->second);
    out[r.name] += self_us / 1000.0;
  }
  return out;
}

void Tracer::Forget(uint64_t req) {
  std::lock_guard<std::mutex> lock(mu_);
  // Tombstone rather than erase: indices (parents) must stay valid.
  for (Rec& r : spans_) {
    if (r.req == req) {
      r.name = nullptr;
    }
  }
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    if (r.name == nullptr) {
      continue;
    }
    char line[320];
    snprintf(line, sizeof line,
             "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
             "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%" PRIu64
             ",\"id\":%zu,\"parent\":%" PRId64 "}}",
             first ? "" : ",\n", r.name, r.tid, r.t0_us, r.t1_us - r.t0_us,
             r.req, i, r.parent);
    out << line;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name, uint64_t req) {
  Tracer& t = Tracer::Get();
  if (t.enabled()) {
    idx_ = t.Open(name, req);
    open_ = true;
  }
}

void Span::End() {
  if (open_) {
    Tracer::Get().Close(idx_);
    open_ = false;
  }
}

// ---- Expected results ----

bool LoadExpected(const std::string& path, std::map<std::string, Expected>* out,
                  std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot read " + path;
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  Json doc;
  if (!Json::Parse(ss.str(), &doc, err) || !doc.is_object()) {
    *err = path + ": " + (err->empty() ? "not a JSON object" : *err);
    return false;
  }
  for (const auto& [key, row] : doc.members()) {
    if (!row.is_object()) {
      continue;  // comment rows
    }
    Expected e;
    e.ret = row.GetUInt("ret");
    e.stdout_fnv = row.GetUInt("stdout_fnv");
    e.stdout_len = row.GetUInt("stdout_len");
    (*out)[key] = e;
  }
  return true;
}

bool MatchExpected(const std::map<std::string, Expected>& table,
                   const std::string& key, uint64_t ret,
                   const std::string& guest_stdout, std::string* why) {
  auto it = table.find(key);
  if (it == table.end()) {
    *why = key + ": no expected row";
    return false;
  }
  const Expected& e = it->second;
  if (e.ret != ret || e.stdout_fnv != Fnv1a(guest_stdout) ||
      e.stdout_len != guest_stdout.size()) {
    char buf[256];
    snprintf(buf, sizeof buf,
             "%s: got ret=%" PRIu64 " stdout_len=%zu, want ret=%" PRIu64
             " stdout_len=%" PRIu64,
             key.c_str(), ret, guest_stdout.size(), e.ret, e.stdout_len);
    *why = buf;
    return false;
  }
  return true;
}

}  // namespace perfbench
