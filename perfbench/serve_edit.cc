// serve-edit: confccd traffic. An in-process ConfccdServer listens on a
// real Unix socket at its default pool size; four client connections (one
// per host CPU) run a closed loop of `execute` requests with verify on. A
// seeded 1 in 8 requests carries a never-seen edit of a serve kernel (a
// cold compile); the rest repeat known sources (a warm cache restore).
// Every response must equal the in-process result for its source.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "common.h"
#include "inputs.h"
#include "src/driver/artifact_cache.h"
#include "src/service/client.h"
#include "src/service/protocol.h"
#include "src/service/scheduler.h"
#include "src/service/server.h"
#include "src/support/rng.h"
#include "src/vm/exec_image.h"
#include "src/vm/vm.h"

namespace perfbench {

using namespace confllvm;

namespace {

constexpr int kClients = 4;
constexpr int kKnownVariants = 2;  // per serve kernel: pristine + one edit
constexpr uint64_t kEditOneIn = 8;
constexpr int kMaxAttempts = 25;
// Memory-tier cap: the never-seen edits would otherwise grow the cache
// (and the process) with throughput. The hot known sources stay resident.
constexpr size_t kCacheBytes = 32u << 20;

struct Outcome {
  bool ok = false;
  uint64_t ret = 0;
  uint64_t cycles = 0;
  uint64_t instrs = 0;
  std::string guest_stdout;
  uint64_t code_words = 0;  // in-process compiles only; not compared

  bool operator==(const Outcome& o) const {
    return ok == o.ok && ret == o.ret && cycles == o.cycles &&
           instrs == o.instrs && guest_stdout == o.guest_stdout;
  }
};

// The in-process result for `source`: the daemon's config for a default
// execute request (OurMPX, whole program) on the default fast engine.
Outcome InProcess(const std::string& source, ArtifactCache* cache = nullptr) {
  Outcome out;
  DiagEngine d;
  auto cp = Compile(source, BuildConfig::For(BuildPreset::kOurMpx), &d, nullptr,
                    cache);
  if (cp == nullptr) {
    return out;
  }
  out.code_words = cp->prog->binary.code.size();
  auto s = MakeSessionFor(std::move(cp));
  const auto r = s->vm->Call("main", {});
  out.ok = r.ok;
  out.ret = r.ret;
  out.cycles = r.cycles;
  out.instrs = r.instrs;
  out.guest_stdout = s->tlib->stdout_text();
  return out;
}

Outcome FromResponse(const Json& resp) {
  Outcome out;
  out.ok = resp.GetString("status") == "ok" && resp.GetBool("ran_ok");
  out.ret = resp.GetUInt("ret");
  out.cycles = resp.GetUInt("cycles");
  out.instrs = resp.GetUInt("instrs");
  out.guest_stdout = resp.GetString("guest_stdout");
  return out;
}

Json ExecuteRequest(int client, const std::string& source) {
  Json req = Json::Object();
  req.Set("verb", Json::Str("execute"));
  req.Set("client", Json::Str("pb-" + std::to_string(client)));
  req.Set("source", Json::Str(source));
  req.Set("verify", Json::Bool(true));
  return req;
}

// One completed (or failed) request as the client saw it.
struct Sample {
  double start_s = 0;  // since the loop started
  double rtt_ms = 0;  // +inf when the request failed
  bool edit = false;
  bool ok = false;
  int retries = 0;
  double server_total_ms = 0;
  double server_restore_ms = 0;  // stage rows restored from the cache
};

// An edit is kept as (kernel, literal) and its source regenerated for the
// post-check, so thousands of them cost little memory.
struct Edit {
  int kernel = 0;
  uint64_t value = 0;
  Outcome got;
};

struct LoopResult {
  std::vector<Sample> samples;
  std::vector<Edit> edits;  // checked against in-process after the loop
  std::vector<std::string> failures;  // one per failed request
  double wall_s = 0;
  std::string warm_response;  // one warm response body, as received
};

// The closed loop: kClients threads, each with its own connection and
// seeded stream, until `seconds` elapse. Known-source responses are checked
// inline against `known_ref`; edits are collected for the post-check.
LoopResult ClosedLoop(const std::string& socket,
                      const std::vector<std::string>& known,
                      const std::vector<Outcome>& known_ref, uint64_t seed,
                      double seconds, std::atomic<uint64_t>* edit_counter,
                      bool traced) {
  LoopResult lr;
  std::mutex mu;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  const uint64_t edit_base = 100000 + (seed * 7919) % 400000;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed * 1000003 + static_cast<uint64_t>(c) + 1);
      ConfccdClient cli;
      std::string err;
      cli.Connect(socket, &err);  // CallWithRetry reconnects if this failed
      std::vector<Sample> mine;
      std::vector<Edit> edits;
      std::vector<std::string> why;
      std::string warm_text;
      while (Clock::now() < deadline) {
        Sample s;
        s.edit = rng.Next() % kEditOneIn == 0;
        std::string source;
        size_t known_idx = 0;
        Edit edit;
        if (s.edit) {
          edit.kernel = static_cast<int>(rng.Next() % NumServeKernels());
          edit.value = edit_base + edit_counter->fetch_add(1);
          source = ServeEdit(edit.kernel, edit.value);
        } else {
          known_idx = rng.Next() % known.size();
          source = known[known_idx];
        }
        const Json req = ExecuteRequest(c, source);
        Json resp;
        std::optional<Span> span;
        if (traced) {
          span.emplace("service.rtt", NextRequestId());
        }
        const auto r0 = Clock::now();
        s.start_s = MsBetween(t0, r0) / 1000.0;
        const bool sent = cli.CallWithRetry(req, &resp, &err, kMaxAttempts,
                                            &s.retries);
        const double rtt = MsSince(r0);
        span.reset();
        const Outcome got = FromResponse(resp);
        s.ok = sent && got.ok;
        s.rtt_ms = s.ok ? rtt : std::numeric_limits<double>::infinity();
        if (!s.ok) {
          why.push_back(sent ? "serve error: " + resp.GetString("error") +
                                   resp.GetString("fault_msg")
                             : "refused after retries: " + err);
        } else if (s.edit) {
          edit.got = got;
          edits.push_back(std::move(edit));
        } else if (!(got == known_ref[known_idx])) {
          s.ok = false;
          why.push_back("response differs from the in-process result");
        }
        if (s.ok) {
          s.server_total_ms = resp.Find("total_ms") != nullptr
                                  ? resp.Find("total_ms")->AsDouble()
                                  : 0;
          if (const Json* rows = resp.Find("stages"); rows != nullptr) {
            for (const Json& row : rows->items()) {
              if (row.GetBool("cached")) {
                s.server_restore_ms += row.Find("ms")->AsDouble();
              }
            }
          }
          if (traced && !s.edit && warm_text.empty()) {
            warm_text = resp.Dump();
          }
        }
        mine.push_back(s);
      }
      std::lock_guard<std::mutex> lock(mu);
      lr.samples.insert(lr.samples.end(), mine.begin(), mine.end());
      lr.edits.insert(lr.edits.end(), edits.begin(), edits.end());
      if (lr.warm_response.empty()) {
        lr.warm_response = std::move(warm_text);
      }
      lr.failures.insert(lr.failures.end(), why.begin(), why.end());
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  lr.wall_s = MsSince(t0) / 1000.0;
  return lr;
}

// Every edit response must equal the in-process result (checked after the
// loop, on kClients threads). Returns the number of mismatches.
uint64_t CheckEdits(const std::vector<Edit>& edits) {
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < edits.size(); i = next.fetch_add(1)) {
        const Edit& e = edits[i];
        if (!(InProcess(ServeEdit(e.kernel, e.value)) == e.got)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return bad.load();
}

// Round-trip times of `v`, of the warm (known-source) requests only when
// `warm_only`.
std::vector<double> Rtts(const std::vector<Sample>& v, bool warm_only) {
  std::vector<double> out;
  for (const Sample& s : v) {
    if (!warm_only || !s.edit) {
      out.push_back(s.rtt_ms);
    }
  }
  return out;
}

// Requests per block: p99 of a block has 20 samples beyond it.
constexpr size_t kBlock = 2000;

// Throughput and latency per block of kBlock consecutive requests (by
// start time). The reported figures are medians over blocks, so a few
// seconds of host slowdown move one block, not the whole run.
struct BlockStats {
  std::vector<double> rps, p50, p99;
};

BlockStats Blocks(std::vector<Sample> v, double wall_s) {
  std::sort(v.begin(), v.end(), [](const Sample& a, const Sample& b) {
    return a.start_s < b.start_s;
  });
  BlockStats out;
  for (size_t b = 0; b + kBlock <= v.size(); b += kBlock) {
    const double t0 = v[b].start_s;
    const double t1 = b + kBlock < v.size() ? v[b + kBlock].start_s : wall_s;
    std::vector<double> rtt;
    size_t ok = 0;
    for (size_t i = b; i < b + kBlock; ++i) {
      rtt.push_back(v[i].rtt_ms);
      ok += v[i].ok ? 1 : 0;
    }
    out.rps.push_back(t1 > t0 ? ok / (t1 - t0) : 0);
    out.p50.push_back(Percentile(rtt, 0.5));
    out.p99.push_back(Percentile(rtt, 0.99));
  }
  return out;
}

// Median over `reps` timed calls of fn(), each under a span `name`.
template <typename Fn>
double MedianTimed(const char* name, int reps, Fn fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    Span span(name, NextRequestId());
    const auto t0 = Clock::now();
    fn();
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

}  // namespace

Result RunServeEdit(const RunOptions& o) {
  Result res;
  std::map<std::string, Expected> expected;
  std::string err;
  if (!LoadExpected(o.expected_path, &expected, &err)) {
    res.CheckFailed(err);
  }
  std::vector<std::string> known;
  for (int k = 0; k < NumServeKernels(); ++k) {
    for (int v = 0; v < kKnownVariants; ++v) {
      known.push_back(ServeEdit(k, 990001 + v));
    }
  }
  const std::string socket = "pb-" + std::to_string(getpid()) + ".sock";

  // ---- Set-up (kSetupReps times, see SetupSeconds): start the daemon,
  // compute the in-process reference for every known source, and prime the
  // daemon's cache with them (checking each response). The last daemon
  // serves the timed loop.
  std::unique_ptr<ConfccdServer> server;
  std::vector<Outcome> known_ref;
  std::vector<double> setup_s;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    if (server != nullptr) {
      server->Stop();
    }
    const auto t0 = Clock::now();
    ConfccdServer::Options so;
    so.socket_path = socket;
    so.cache_bytes = kCacheBytes;
    server = std::make_unique<ConfccdServer>(so);
    if (!server->Start(&err)) {
      res.CheckFailed("daemon start: " + err);
      res.Add("setup_s", MsSince(t0) / 1000.0, "s");
      return res;
    }
    known_ref.clear();
    ConfccdClient cli;
    if (!cli.Connect(socket, &err)) {
      res.CheckFailed("connect: " + err);
    }
    for (size_t i = 0; i < known.size(); ++i) {
      known_ref.push_back(InProcess(known[i]));
      Json resp;
      const bool sent =
          cli.CallWithRetry(ExecuteRequest(0, known[i]), &resp, &err, kMaxAttempts);
      if (rep == kSetupReps - 1) {
        ++res.attempted;
        std::string why;
        const int k = static_cast<int>(i) / kKnownVariants;
        if (!sent || !(FromResponse(resp) == known_ref[i])) {
          res.Fail("prime " + ServeKernelName(k) + ": response differs from "
                   "the in-process result");
        } else if (i % kKnownVariants == 0 &&
                   !MatchExpected(expected,
                                  "serve-" + ServeKernelName(k) + "/OurMPX",
                                  known_ref[i].ret, known_ref[i].guest_stdout,
                                  &why)) {
          res.Fail(why);
        }
      }
    }
    setup_s.push_back(MsSince(t0) / 1000.0);
  }

  // ---- Timed loop. The traced run splits the time: an untraced half (the
  // reference for the tracing overhead), then a traced half.
  std::atomic<uint64_t> edit_counter{0};
  LoopResult untraced_half;
  if (o.trace) {
    untraced_half = ClosedLoop(socket, known, known_ref, o.seed ^ 0x5a5a,
                               o.seconds / 2, &edit_counter, false);
  }
  LoopResult lr = ClosedLoop(socket, known, known_ref, o.seed,
                             o.trace ? o.seconds / 2 : o.seconds,
                             &edit_counter, o.trace);
  Json stats_resp;
  {
    ConfccdClient cli;
    cli.Connect(socket, &err);
    Json req = Json::Object();
    req.Set("verb", Json::Str("stats"));
    cli.CallWithRetry(req, &stats_resp, &err, kMaxAttempts);
  }
  server->Stop();
  server.reset();

  for (LoopResult* l : {&untraced_half, &lr}) {
    res.attempted += l->samples.size();
    for (const std::string& w : l->failures) {
      res.Fail(w);
    }
    const uint64_t bad = CheckEdits(l->edits);
    for (uint64_t i = 0; i < bad; ++i) {
      res.Fail("edit response differs from the in-process result");
    }
  }

  const std::vector<double> all = Rtts(lr.samples, false);
  uint64_t completed = 0, retries = 0;
  for (const Sample& s : lr.samples) {
    completed += s.ok ? 1 : 0;
    retries += static_cast<uint64_t>(s.retries);
  }
  if (all.size() < 3 * kBlock) {
    res.CheckFailed("fewer than three blocks of requests");
  }
  fprintf(stderr, "serve-edit: %zu requests (%zu edits) in %.2f s, %d clients\n",
          all.size(), lr.edits.size(), lr.wall_s, kClients);

  const BlockStats blocks = Blocks(lr.samples, lr.wall_s);
  fprintf(stderr,
          "serve-edit: pooled %.1f req/s p50 %.3f ms p99 %.3f ms; median over "
          "%zu blocks of %zu requests: %.1f req/s p50 %.3f ms p99 %.3f ms\n",
          completed / lr.wall_s, Percentile(all, 0.5), Percentile(all, 0.99),
          blocks.rps.size(), kBlock, Median(blocks.rps), Median(blocks.p50),
          Median(blocks.p99));
  if (!o.trace) {
    res.Add("primary_ms", Median(blocks.p50), "ms");
    res.Add("secondary_ms", Median(blocks.p99), "ms");
    uint64_t code_words = 0;
    for (const Outcome& r : known_ref) {
      code_words += r.code_words;
    }
    res.Add("code_kwords", code_words / 1000.0, "kwords");
    res.Add("setup_s", SetupSeconds(setup_s), "s");
    res.Add("peak_rss_mb", PeakRssMb(), "MB");
    AddSpecOverheads(o, &res);  // after the daemon stopped and the RSS reading
    return res;
  }

  // ---- Attribution (traced run). The parts of a warm request, each
  // measured outside the daemon through the layer's public functions.
  const double rtt_warm = Median(Rtts(lr.samples, true));
  std::vector<double> total_warm, total_edit, restore_warm;
  for (const Sample& s : lr.samples) {
    if (!s.ok) {
      continue;
    }
    (s.edit ? total_edit : total_warm).push_back(s.server_total_ms);
    if (!s.edit) {
      restore_warm.push_back(s.server_restore_ms);
    }
  }
  const double server_warm = Median(total_warm);

  // JSON encode of a request / decode of a warm response.
  const Json sample_req = ExecuteRequest(0, known[0]);
  const std::string& resp_text = lr.warm_response;
  const double encode = MedianTimed("service.json_encode", 2000, [&] {
    std::string s = sample_req.Dump();
    (void)s;
  });
  const double decode = MedianTimed("service.json_decode", 2000, [&] {
    Json j;
    std::string perr;
    Json::Parse(resp_text, &j, &perr);
  });

  // Frame round trip over a socketpair to an echo thread we own.
  double frame_rtt = 0;
  {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0) {
      std::thread echo([fd = sv[1]] {
        std::string p;
        while (ReadFrame(fd, &p, 64u << 20) && WriteFrame(fd, p)) {
        }
      });
      frame_rtt = MedianTimed("service.frame_rtt", 2000, [&] {
        std::string back;
        WriteFrame(sv[0], resp_text);
        ReadFrame(sv[0], &back, 64u << 20);
      });
      ::shutdown(sv[0], SHUT_RDWR);
      echo.join();
      close(sv[0]);
      close(sv[1]);
    }
  }

  // Submit-to-start delay on a standalone scheduler with the daemon's
  // options (one task in flight at a time, as a warm request sees it idle).
  double handoff = 0;
  {
    ServeScheduler sched(ConfccdServer::Options().sched);
    sched.Start();
    std::vector<double> ms;
    for (int i = 0; i < 2000; ++i) {
      std::mutex m;
      std::condition_variable cv;
      bool started = false;
      Clock::time_point t1;
      Span span("service.sched_handoff", NextRequestId());
      const auto t0 = Clock::now();
      const ServeScheduler::Admit admit = sched.Submit("pb", [&] {
        t1 = Clock::now();
        std::lock_guard<std::mutex> lock(m);
        started = true;
        cv.notify_one();
      });
      if (admit != ServeScheduler::Admit::kAccepted) {
        continue;  // not queued: nothing to wait for
      }
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&] { return started; });
      ms.push_back(MsBetween(t0, t1));
    }
    sched.Stop();
    handoff = Median(ms);
  }

  // In-process replay of a warm request's session and call, per known
  // source: restore through a warm cache, then MakeSessionFor (which builds
  // the execution image) and Vm::Call.
  std::vector<double> session_ms, image_ms, exec_ms;
  {
    ArtifactCache cache;
    for (int rep = 0; rep < 50; ++rep) {
      for (const std::string& src : known) {
        DiagEngine d;
        auto cp = Compile(src, BuildConfig::For(BuildPreset::kOurMpx), &d,
                          nullptr, &cache);
        if (cp == nullptr) {
          continue;
        }
        {
          LoadedProgram copy = *cp->prog;
          Span span("vm.image_build", NextRequestId());
          const auto t0 = Clock::now();
          copy.exec_image = BuildExecImage(copy);
          image_ms.push_back(MsSince(t0));
        }
        std::unique_ptr<Session> s;
        {
          Span span("runtime.session", NextRequestId());
          const auto t0 = Clock::now();
          s = MakeSessionFor(std::move(cp));
          session_ms.push_back(MsSince(t0));
        }
        Span span("service.exec", NextRequestId());
        const auto t0 = Clock::now();
        s->vm->Call("main", {});
        exec_ms.push_back(MsSince(t0));
      }
    }
  }
  const double session = Median(session_ms);
  const double exec = Median(exec_ms);
  const double parts =
      encode + frame_rtt + handoff + server_warm + session + exec + decode;
  const double unattributed = rtt_warm - parts;

  // Daemon-side counters from the stats verb.
  Json sched_json, cache_json;
  std::string perr;
  Json::Parse(stats_resp.GetString("sched_json"), &sched_json, &perr);
  Json::Parse(stats_resp.GetString("cache_json"), &cache_json, &perr);
  const uint64_t hits = cache_json.GetUInt("hits");
  const uint64_t misses = cache_json.GetUInt("misses");

  const double untraced_p50 = Percentile(Rtts(untraced_half.samples, false), 0.5);
  res.Add("service.samples", static_cast<double>(all.size()), "count");
  res.Add("service.rps", Median(blocks.rps), "req/s");
  res.Add("service.rtt_ms", rtt_warm, "ms");
  res.Add("service.json_encode_ms", encode, "ms");
  res.Add("service.json_decode_ms", decode, "ms");
  res.Add("service.frame_rtt_ms", frame_rtt, "ms");
  res.Add("service.sched_handoff_ms", handoff, "ms");
  res.Add("service.server_compile_warm_ms", server_warm, "ms");
  res.Add("service.server_compile_edit_ms", Median(total_edit), "ms");
  res.Add("runtime.session_ms", session - Median(image_ms), "ms");
  res.Add("vm.image_build_ms", Median(image_ms), "ms");
  res.Add("service.exec_ms", exec, "ms");
  res.Add("service.unattributed_ms", unattributed, "ms");
  res.Add("service.unattributed_share", rtt_warm > 0 ? unattributed / rtt_warm : 0,
          "ratio");
  res.Add("service.retry_frac",
          lr.samples.empty() ? 0
                             : static_cast<double>(retries) / lr.samples.size(),
          "ratio");
  res.Add("service.rejects_queue_full", sched_json.GetUInt("rejected_queue_full"),
          "count");
  res.Add("service.rejects_client_cap", sched_json.GetUInt("rejected_client_cap"),
          "count");
  res.Add("service.peak_queue_depth", sched_json.GetUInt("peak_queue_depth"),
          "count");
  res.Add("driver.restore_ms", Median(restore_warm), "ms");
  res.Add("driver.hits", hits, "count");
  res.Add("driver.misses", misses, "count");
  res.Add("driver.hit_ratio",
          hits + misses == 0 ? 0 : static_cast<double>(hits) / (hits + misses),
          "ratio");
  res.Add("driver.bytes_retained", cache_json.GetUInt("bytes_retained"), "bytes");
  res.Add("trace.serve_p50_overhead_pct",
          untraced_p50 > 0 ? (Percentile(all, 0.5) / untraced_p50 - 1) * 100 : 0,
          "%");
  return res;
}

}  // namespace perfbench
