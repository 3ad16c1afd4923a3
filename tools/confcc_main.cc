// confcc: command-line driver — compile a MiniC file through the staged
// pipeline, optionally verify, disassemble, time the stages, and run it
// under any (or all) of the paper's configurations.
//
//   confcc [--preset=OurMPX|all] [--entry=main] [--args=1,2,3] [--verify]
//          [--disasm] [--stats] [--time-passes] [--jobs=N] [--all-private]
//          [--incremental] [--cache-stats] [--cache-bytes=N]
//          [--cache-dir=D] [--cache-disk-bytes=N] [--cache-stats-json=F]
//          [--emit-bin=F] [--engine=ref|fast|trace] [--trace-threshold=N]
//          [--trace-stats-json=F] file.mc
//
// --preset=all batch-compiles every §7.1/§7.2 configuration concurrently
// (--jobs workers) through CompileBatch and reports one line per preset.
// --engine selects the VM interpreter: the reference stepper, the
// token-threaded fast engine (default), or the hot-block trace tier
// (observable behaviour is identical on all three — see ARCHITECTURE.md
// "Engine tiers"). --trace-threshold sets the per-block entry count at
// which the trace tier promotes a block to a whole-block handler;
// --trace-stats-json writes the tier's telemetry (candidate/promoted
// blocks, block runs, bails) to F — F.<preset> per preset in sweep mode.
// --incremental routes compilation through the artifact cache, sharing the
// Parse/Sema/IrGen prefix across the sweep; --cache-stats appends the cache
// counters (hits, misses, bytes retained, prefix shares, disk tier) to the
// --time-passes table; --cache-bytes caps retained artifact bytes (LRU).
// --cache-dir attaches the persistent disk tier rooted at D (implies the
// cache): codegen artifacts persist across confcc invocations, so a warm
// rerun of an unchanged source skips Parse/Sema/Opt/Codegen entirely;
// --cache-disk-bytes caps the directory (LRU-by-mtime eviction);
// --cache-stats-json writes one coherent stats snapshot as JSON to F.
// --emit-bin serializes each compiled (post-load) Binary to F in single
// mode, or F.<preset>.bin per preset in sweep mode — byte-identical across
// cold and warm runs, which is what the CI disk-cache job diffs.
// In single-preset mode --jobs=N shards per-function codegen emission.
//
// Every mode starts from one BuildRequest (src/driver/build_request.h):
// single-file and --link builds go through Build(), the path the confccd
// verbs take too; --preset=all on one file compiles PresetSweepJobs
// concurrently under the same config rule; --connect sends the request to a
// confccd as an `execute`. --verify runs ConfVerify only for the presets it
// targets (WantsVerify: not Base…OurCFI or OurMPX-Sep), the same on every
// path, and prints a `confverify: ok|REJECTED` line when it ran.
//
// Resilience/chaos flags (ARCHITECTURE.md "Failure model and degradation
// ladder"): --inject-faults=SPEC arms the deterministic fault injector
// (spec syntax in src/support/fault_injection.h — e.g.
// seed=42,disk.*=p0.05,pipeline.codegen=n1; the CONFCC_INJECT_FAULTS
// environment variable is read first, the flag overrides it);
// --inject-report=F writes the injector's per-site hit/fired counts as JSON
// to F at exit, even after a fatal error. --deadline-ms=N arms the VM
// wall-clock watchdog: a guest run exceeding N ms halts with a `deadline`
// fault instead of hanging confcc. Any uncaught internal error exits 1 with
// a one-line `confcc: fatal:` diagnostic.
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

#include "src/driver/artifact_cache.h"
#include "src/driver/build_request.h"
#include "src/driver/disk_cache.h"
#include "src/isa/binary.h"
#include "src/service/client.h"
#include "src/service/protocol.h"
#include "src/support/fault_injection.h"
#include "src/vm/trace_tier.h"

using namespace confllvm;

namespace {

int Usage() {
  fprintf(stderr,
          "usage: confcc [--preset=P|all] [--entry=F] [--args=a,b,...] [--verify]\n"
          "              [--disasm] [--stats] [--time-passes] [--jobs=N]\n"
          "              [--all-private] [--incremental] [--cache-stats]\n"
          "              [--cache-bytes=N] [--cache-dir=D] [--cache-disk-bytes=N]\n"
          "              [--cache-stats-json=F] [--emit-bin=F]\n"
          "              [--engine=ref|fast|trace] [--trace-threshold=N]\n"
          "              [--trace-stats-json=F] [--inject-faults=SPEC]\n"
          "              [--inject-report=F] [--deadline-ms=N] file.mc\n"
          "       confcc --link [options] [--graph-stats-json=F] a.mc b.mc ...\n"
          "       confcc --connect=SOCK [options] [file.mc | --link a.mc ...]\n"
          "presets: Base BaseOA Our1Mem OurBare OurCFI OurMPX OurMPX-Sep OurSeg\n"
          "         ct-mpx ct-seg (constant-time: secret branches linearized,\n"
          "         verifier enforces secret-independent control flow/addresses)\n"
          "--link builds each file as a module (name = basename), resolves\n"
          "`import \"name\"` declarations through the build graph, compiles in\n"
          "dependency-parallel waves, links with cross-module contract checks,\n"
          "and (with --verify) runs link-time ConfVerify on the merged image.\n");
  return 2;
}

struct Options {
  // --preset, --all-private and --verify, plus the inputs (ReadInputs):
  // what solo mode builds and --connect sends.
  BuildRequest req;
  bool sweep = false;  // --preset=all
  std::string entry = "main";
  std::vector<uint64_t> args;
  bool disasm = false;
  bool stats = false;
  bool time_passes = false;
  unsigned jobs = 0;  // 0 = hardware concurrency
  bool incremental = false;   // compile through the artifact cache
  bool cache_stats = false;   // print the cache counters row (implies cache)
  size_t cache_bytes = 0;     // artifact-cache byte cap, 0 = unbounded
  std::string cache_dir;      // persistent disk tier root (implies cache)
  size_t cache_disk_bytes = 0;  // disk-tier byte cap, 0 = unbounded
  std::string cache_stats_json;  // write the stats snapshot as JSON here
  std::string emit_bin;       // serialize compiled Binary(s) here
  VmEngine engine = VmOptions{}.engine;  // --engine=ref|fast|trace
  uint64_t trace_threshold = VmOptions{}.trace_threshold;
  uint64_t deadline_ms = 0;  // VM wall-clock watchdog (0 = none)
  std::string trace_stats_json;  // write TraceTierStats JSON here
  bool link = false;          // multi-module build-graph mode
  std::string graph_stats_json;  // write BuildGraphStats JSON here (--link)
  std::string connect;        // --connect=SOCK: forward verbs to a confccd
  std::vector<std::string> files;  // positional args (--link: the modules)

  // Byte caps / stats outputs only make sense with a cache, so every cache
  // flag implies one.
  bool UseCache() const {
    return incremental || cache_stats || cache_bytes != 0 ||
           !cache_dir.empty() || !cache_stats_json.empty();
  }
};

// Writes `bytes` (a std::string or byte vector) to `path`, truncating; false
// after a one-line diagnostic.
template <typename Bytes>
bool WriteOutput(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !out.write(reinterpret_cast<const char*>(bytes.data()),
                         static_cast<std::streamsize>(bytes.size()))) {
    fprintf(stderr, "confcc: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

// Reads the input files into the request: the one file as its source, or
// under --link every file as a module named after its basename.
bool ReadInputs(Options* opt) {
  for (const std::string& f : opt->files) {
    std::ifstream in(f);
    if (!in) {
      fprintf(stderr, "confcc: cannot open %s\n", f.c_str());
      return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    if (in.bad()) {
      fprintf(stderr, "confcc: error reading %s\n", f.c_str());
      return false;
    }
    if (!opt->link) {
      opt->req.source = buf.str();
      continue;
    }
    // a/b/foo.mc -> "foo": the module name `import "foo"` resolves to.
    const size_t slash = f.find_last_of('/');
    std::string name = slash == std::string::npos ? f : f.substr(slash + 1);
    const size_t dot = name.find_last_of('.');
    if (dot != std::string::npos && dot != 0) {
      name.resize(dot);
    }
    opt->req.modules.push_back({std::move(name), buf.str()});
  }
  return true;
}

// Builds the cache the options ask for, attaching the disk tier when
// --cache-dir was given. Null when no cache flag is set; also null (after a
// diagnostic) when the disk tier cannot be attached — a broken cache dir is
// an explicit error, not a silent cold compile.
std::unique_ptr<ArtifactCache> MakeCache(const Options& opt, bool* error) {
  *error = false;
  if (!opt.UseCache()) {
    return nullptr;
  }
  auto cache = std::make_unique<ArtifactCache>(opt.cache_bytes);
  if (!opt.cache_dir.empty() &&
      !cache->AttachDiskTier({opt.cache_dir, opt.cache_disk_bytes})) {
    fprintf(stderr, "confcc: cannot create cache dir %s\n",
            opt.cache_dir.c_str());
    *error = true;
    return nullptr;
  }
  return cache;
}

// One coherent snapshot rendered to every requested sink. Taking the
// snapshot once matters: the row and the JSON must agree even if something
// were still compiling (see ArtifactCache::stats()).
bool ReportCacheStats(const ArtifactCache& cache, const Options& opt) {
  const CacheStats cs = cache.stats();
  if (opt.cache_stats) {
    fputs(cs.ToRow().c_str(), stderr);
  }
  return opt.cache_stats_json.empty() ||
         WriteOutput(opt.cache_stats_json, cs.ToJson());
}

bool EmitBinary(const Binary& bin, const std::string& path) {
  return WriteOutput(path, SerializeBinary(bin));
}

// Runs `entry` of one compiled program; returns false on fault. `quiet`
// suppresses the per-run summary line (sweep mode prints a table instead).
// `label` suffixes the --trace-stats-json path in sweep mode so presets
// don't clobber each other.
bool RunProgram(std::unique_ptr<CompiledProgram> compiled, const Options& opt,
                uint64_t* cycles_out, uint64_t* ret_out = nullptr,
                bool quiet = false, const std::string& label = "") {
  VmOptions vm_opts;
  vm_opts.engine = opt.engine;
  vm_opts.trace_threshold = opt.trace_threshold;
  vm_opts.deadline_ms = opt.deadline_ms;
  auto s = MakeSessionFor(std::move(compiled), vm_opts);
  auto r = s->vm->Call(opt.entry, opt.args);
  if (!opt.trace_stats_json.empty()) {
    // Engines below kTrace have no tier; an empty telemetry object keeps the
    // sink well-formed for whoever diffs it.
    const TraceTier* tt = s->vm->trace_tier();
    if (!WriteOutput(label.empty() ? opt.trace_stats_json
                                   : opt.trace_stats_json + "." + label,
                     tt != nullptr ? tt->Telemetry().ToJson()
                                   : TraceTierStats{}.ToJson())) {
      return false;
    }
  }
  if (!r.ok) {
    fprintf(stderr, "confcc: %s faulted: %s (%s)\n", opt.entry.c_str(),
            FaultName(r.fault), r.fault_msg.c_str());
    return false;
  }
  if (!s->tlib->stdout_text().empty()) {
    fputs(s->tlib->stdout_text().c_str(), stdout);
  }
  if (cycles_out != nullptr) {
    *cycles_out = r.cycles;
  }
  if (ret_out != nullptr) {
    *ret_out = r.ret;
  }
  if (quiet) {
    return true;
  }
  fprintf(stderr, "confcc: %s() = %lld  (%llu instructions, %llu cycles",
          opt.entry.c_str(), static_cast<long long>(r.ret),
          static_cast<unsigned long long>(r.instrs),
          static_cast<unsigned long long>(r.cycles));
  if (opt.stats) {
    const VmStats& vs = s->vm->stats();
    fprintf(stderr, "; checks=%llu cfi=%llu tcalls=%llu cache-miss-cyc=%llu",
            static_cast<unsigned long long>(vs.check_instrs),
            static_cast<unsigned long long>(vs.cfi_instrs),
            static_cast<unsigned long long>(vs.trusted_calls),
            static_cast<unsigned long long>(vs.cache_miss_cycles));
  }
  fprintf(stderr, ")\n");
  return true;
}

// --preset=all on one file: compile every configuration concurrently, then
// run each.
int RunSweep(const Options& opt) {
  bool cache_error = false;
  std::unique_ptr<ArtifactCache> cache = MakeCache(opt, &cache_error);
  if (cache_error) {
    return 1;
  }
  auto outcomes = CompileBatch(
      PresetSweepJobs(opt.req.source, opt.req.verify, opt.req.all_private),
      opt.jobs, cache.get());

  int failures = 0;
  if (opt.time_passes) {
    fprintf(stderr, "vm engine: %s\n", EngineName(opt.engine));
  }
  fprintf(stderr, "%-12s%8s%10s%10s%12s%14s\n", "preset", "ok", "ms", "words",
          "constraints", "cycles");
  for (auto& out : outcomes) {
    if (!out.ok) {
      ++failures;
      fprintf(stderr, "%-12s%8s\n%s", out.label.c_str(), "FAIL",
              out.invocation->diags().ToString().c_str());
      continue;
    }
    // Warnings (e.g. implicit-flow notes under --all-private) still matter
    // for presets that compiled successfully.
    fputs(out.invocation->diags().ToString().c_str(), stderr);
    const PipelineStats& ps = out.invocation->stats();
    if (opt.disasm) {
      printf("-- %s --\n%s", out.label.c_str(),
             Disassemble(out.program->prog->binary).c_str());
    }
    if (!opt.emit_bin.empty() &&
        !EmitBinary(out.program->prog->binary,
                    SweepEmitPath(opt.emit_bin, out.label))) {
      ++failures;
      continue;
    }
    uint64_t cycles = 0;
    if (!RunProgram(std::move(out.program), opt, &cycles, nullptr,
                    /*quiet=*/true, out.label)) {
      ++failures;
      continue;
    }
    fprintf(stderr, "%-12s%8s%10.2f%10llu%12zu%14llu\n", out.label.c_str(), "ok",
            ps.total_ms, static_cast<unsigned long long>(ps.codegen.code_words),
            ps.solver.constraints, static_cast<unsigned long long>(cycles));
    if (opt.time_passes) {
      fprintf(stderr, "-- %s --\n%s", out.label.c_str(), ps.ToTable().c_str());
    }
  }
  if (cache != nullptr && !ReportCacheStats(*cache, opt)) {
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

// Prints what one build reports on stderr: its diagnostics, the stage
// tables under --time-passes, the ConfVerify verdict when it ran, and on
// success a one-line summary of the program.
void ReportBuild(const BuildResult& r, const Options& opt) {
  fputs(r.diagnostics.c_str(), stderr);
  if (opt.time_passes) {
    if (!opt.link) {
      fputs(r.stats.ToTable().c_str(), stderr);
    }
    for (const ModuleOutcome& mo : r.modules) {
      if (mo.invocation != nullptr) {
        fprintf(stderr, "-- module %s --\n%s", mo.name.c_str(),
                mo.invocation->stats().ToTable().c_str());
      }
    }
  }
  if (r.verify_result != nullptr) {
    fprintf(stderr, "confverify%s: %s (%zu procedures, %zu instructions)\n",
            opt.link ? "(link)" : "", r.verify_result->ok ? "ok" : "REJECTED",
            r.verify_result->procedures, r.verify_result->instructions);
  }
  if (!r.ok) {
    return;
  }
  const Binary& bin = r.program->prog->binary;
  if (opt.link) {
    fprintf(stderr,
            "conflink: %zu modules in %zu waves -> %zu code words, %zu "
            "functions, %zu cross-module call sites\n",
            r.graph.modules, r.graph.waves, r.graph.link.code_words,
            r.graph.link.functions, r.graph.link.resolved_call_sites);
  } else {
    fprintf(stderr,
            "confcc: %s: %zu code words, %zu functions, %zu imports [%s, %s]\n",
            opt.files[0].c_str(), bin.code.size(), bin.functions.size(),
            bin.imports.size(), PresetName(r.program->config.preset),
            OptLevelName(r.program->config.opt_level));
  }
}

// Single-file and --link builds: one Build() per preset (every preset under
// --link --preset=all), each reported and run. The exit code of a
// single-preset run is the guest's return value & 0xff.
int RunBuilds(const Options& opt) {
  bool cache_error = false;
  std::unique_ptr<ArtifactCache> cache = MakeCache(opt, &cache_error);
  if (cache_error) {
    return 1;
  }
  BuildOptions bopts;
  bopts.cache = cache.get();
  // --jobs shards per-function codegen emission of a single file (0 =
  // hardware concurrency; output is bit-identical for any value) and sizes
  // the build graph's waves under --link.
  bopts.codegen_jobs = opt.jobs;
  bopts.build_jobs = opt.jobs;
  if (opt.time_passes) {
    fprintf(stderr, "vm engine: %s\n", EngineName(opt.engine));
  }

  int rc = 0;
  std::string graph_json;
  if (opt.sweep) {
    int failures = 0;
    BuildRequest req = opt.req;
    graph_json = "[\n";
    fprintf(stderr, "%-12s%8s%14s\n", "preset", "ok", "cycles");
    for (const BuildPreset p : kAllBuildPresets) {
      req.preset = p;
      BuildResult r = Build(req, bopts);
      ReportBuild(r, opt);
      if (r.graph.per_module.empty()) {
        return 1;  // the graph itself is broken: every preset fails alike
      }
      graph_json += std::string(p == kAllBuildPresets[0] ? "" : ",\n") +
                    "{\"preset\": \"" + PresetName(p) +
                    "\", \"graph\": " + r.graph.ToJson() + "}";
      uint64_t cycles = 0;
      if (r.ok &&
          (opt.emit_bin.empty() ||
           EmitBinary(r.program->prog->binary,
                      SweepEmitPath(opt.emit_bin, PresetName(p)))) &&
          RunProgram(std::move(r.program), opt, &cycles, nullptr,
                     /*quiet=*/true, PresetName(p))) {
        fprintf(stderr, "%-12s%8s%14llu\n", PresetName(p), "ok",
                static_cast<unsigned long long>(cycles));
        continue;
      }
      ++failures;
      if (!r.ok) {
        fprintf(stderr, "%-12s%8s\n", PresetName(p), "FAIL");
      }
    }
    graph_json += "\n]\n";
    rc = failures == 0 ? 0 : 1;
  } else {
    BuildResult r = Build(opt.req, bopts);
    ReportBuild(r, opt);
    graph_json = r.graph.ToJson();
    if (r.ok && opt.disasm) {
      fputs(Disassemble(r.program->prog->binary).c_str(), stdout);
    }
    uint64_t ret = 0;
    rc = r.ok &&
                 (opt.emit_bin.empty() ||
                  EmitBinary(r.program->prog->binary, opt.emit_bin)) &&
                 RunProgram(std::move(r.program), opt, nullptr, &ret)
             ? static_cast<int>(ret & 0xff)
             : 1;
  }
  if (opt.link && !opt.graph_stats_json.empty() &&
      !WriteOutput(opt.graph_stats_json, graph_json)) {
    return 1;
  }
  if (cache != nullptr && !ReportCacheStats(*cache, opt)) {
    return 1;
  }
  return rc;
}

// ---- Daemon client mode (--connect) ----
//
// Forwards the CLI verbs to a running confccd (tools/confccd_main.cc) over
// its Unix socket, so this invocation compiles against the daemon's warm
// shared cache instead of a cold private one. The request is the same
// BuildRequest solo mode would build, sent as an `execute`. The daemon owns
// the cache tiers: client-local cache configuration under --connect is a
// contradiction, not a preference — rather than silently compiling against
// a client-local tier (cold every run, invisible to the daemon's stats),
// the conflict is a one-line nonzero-exit diagnostic.

int FetchDaemonStats(ConfccdClient& client, const Options& opt) {
  Json req = Json::Object();
  req.Set("verb", Json::Str("stats"));
  Json resp;
  std::string err;
  if (!client.Call(std::move(req), &resp, &err) ||
      resp.GetString("status") != "ok") {
    fprintf(stderr, "confcc: daemon stats request failed: %s\n", err.c_str());
    return 1;
  }
  if (opt.cache_stats) {
    fputs(resp.GetString("cache_row").c_str(), stderr);
  }
  if (!opt.cache_stats_json.empty() &&
      !WriteOutput(opt.cache_stats_json, resp.GetString("cache_json"))) {
    return 1;
  }
  return 0;
}

// The one client-local cache flag --connect contradicts, or null.
const char* ConnectConflict(const Options& opt) {
  return !opt.cache_dir.empty()        ? "--cache-dir"
         : opt.cache_bytes != 0        ? "--cache-bytes"
         : opt.cache_disk_bytes != 0   ? "--cache-disk-bytes"
         : opt.incremental             ? "--incremental"
                                       : nullptr;
}

int RunConnect(const Options& opt) {
  ConfccdClient client;
  std::string err;
  if (!client.Connect(opt.connect, &err)) {
    fprintf(stderr, "confcc: cannot connect to daemon: %s\n", err.c_str());
    return 1;
  }

  // Stats-only invocation: no inputs, just render the daemon's counters.
  if (opt.files.empty()) {
    if (!opt.cache_stats && opt.cache_stats_json.empty()) {
      return Usage();
    }
    return FetchDaemonStats(client, opt);
  }

  // Runs one preset through the daemon. Returns the process exit code for
  // single mode; sweep mode treats nonzero as a failure and keeps going.
  auto run_one = [&](BuildPreset preset, bool quiet,
                     uint64_t* cycles_out) -> int {
    Json req = Json::Object();
    req.Set("verb", Json::Str("execute"));
    BuildRequestToJson(opt.req, &req);
    req.Set("preset", Json::Str(PresetName(preset)));
    req.Set("entry", Json::Str(opt.entry));
    Json args = Json::Array();
    for (const uint64_t a : opt.args) {
      args.Append(Json::UInt(a));
    }
    req.Set("args", std::move(args));
    req.Set("engine", Json::Str(EngineName(opt.engine)));
    req.Set("trace_threshold", Json::UInt(opt.trace_threshold));
    if (opt.deadline_ms != 0) {
      req.Set("deadline_ms", Json::UInt(opt.deadline_ms));
    }
    if (!opt.emit_bin.empty()) {
      req.Set("want_bin", Json::Bool(true));
    }
    Json resp;
    int retries = 0;
    if (!client.CallWithRetry(std::move(req), &resp, &err,
                              /*max_attempts=*/10, &retries)) {
      // Retryable exhaustion (sustained backpressure): EX_TEMPFAIL so
      // callers/scripts can distinguish "try later" from a hard failure.
      fprintf(stderr, "confcc: daemon busy, retries exhausted: %s\n",
              err.c_str());
      return 75;
    }
    fputs(resp.GetString("diagnostics").c_str(), stderr);
    if (resp.GetString("status") != "ok") {
      fprintf(stderr, "confcc: daemon: %s\n",
              resp.GetString("error", "request failed").c_str());
      return 1;
    }
    if (!opt.emit_bin.empty()) {
      std::vector<uint8_t> blob;
      if (!HexDecode(resp.GetString("bin_hex"), &blob)) {
        fprintf(stderr, "confcc: daemon returned a malformed binary\n");
        return 1;
      }
      if (!WriteOutput(quiet ? SweepEmitPath(opt.emit_bin, PresetName(preset))
                             : opt.emit_bin,
                       blob)) {
        return 1;
      }
    }
    if (!resp.GetBool("ran_ok")) {
      fprintf(stderr, "confcc: %s faulted: %s (%s)\n", opt.entry.c_str(),
              resp.GetString("fault").c_str(),
              resp.GetString("fault_msg").c_str());
      return 1;
    }
    fputs(resp.GetString("guest_stdout").c_str(), stdout);
    if (cycles_out != nullptr) {
      *cycles_out = resp.GetUInt("cycles");
    }
    if (quiet) {
      return 0;
    }
    fprintf(stderr, "confcc: %s() = %lld  (%llu instructions, %llu cycles)\n",
            opt.entry.c_str(), static_cast<long long>(resp.GetUInt("ret")),
            static_cast<unsigned long long>(resp.GetUInt("instrs")),
            static_cast<unsigned long long>(resp.GetUInt("cycles")));
    return static_cast<int>(resp.GetUInt("ret") & 0xff);
  };

  int rc;
  if (opt.sweep) {
    int failures = 0;
    fprintf(stderr, "%-12s%8s%14s\n", "preset", "ok", "cycles");
    for (const BuildPreset p : kAllBuildPresets) {
      uint64_t cycles = 0;
      if (run_one(p, /*quiet=*/true, &cycles) != 0) {
        ++failures;
        fprintf(stderr, "%-12s%8s\n", PresetName(p), "FAIL");
        continue;
      }
      fprintf(stderr, "%-12s%8s%14llu\n", PresetName(p), "ok",
              static_cast<unsigned long long>(cycles));
    }
    rc = failures == 0 ? 0 : 1;
  } else {
    rc = run_one(opt.req.preset, /*quiet=*/false, nullptr);
  }

  if (opt.cache_stats || !opt.cache_stats_json.empty()) {
    const int stats_rc = FetchDaemonStats(client, opt);
    if (rc == 0) {
      rc = stats_rc;
    }
  }
  return rc;
}

// Written at exit by main() when --inject-report=F was given: the fault
// injector's per-site counters survive even a fatal error, so a chaos run
// that dies still reports what fired.
std::string g_inject_report;

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--preset=", 0) == 0) {
      const std::string name = a.substr(9);
      if (name == "all") {
        opt.sweep = true;
      } else if (!ParsePresetName(name, &opt.req.preset)) {
        fprintf(stderr, "unknown preset '%s'\n", name.c_str());
        return Usage();
      }
    } else if (a.rfind("--entry=", 0) == 0) {
      opt.entry = a.substr(8);
    } else if (a.rfind("--args=", 0) == 0) {
      std::stringstream ss(a.substr(7));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        opt.args.push_back(strtoull(tok.c_str(), nullptr, 0));
      }
    } else if (a.rfind("--jobs=", 0) == 0) {
      // Parse signed so `--jobs=-1` cannot wrap to ~4 billion workers; zero
      // and negative clamp to hardware concurrency with a warning.
      const long long requested = strtoll(a.substr(7).c_str(), nullptr, 0);
      std::string warning;
      opt.jobs = NormalizeJobCount(requested, &warning);
      if (!warning.empty()) {
        fprintf(stderr, "confcc: warning: %s\n", warning.c_str());
      }
    } else if (a.rfind("--cache-bytes=", 0) == 0) {
      opt.cache_bytes = strtoull(a.substr(14).c_str(), nullptr, 0);
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      opt.cache_dir = a.substr(12);
    } else if (a.rfind("--cache-disk-bytes=", 0) == 0) {
      opt.cache_disk_bytes = strtoull(a.substr(19).c_str(), nullptr, 0);
    } else if (a.rfind("--cache-stats-json=", 0) == 0) {
      opt.cache_stats_json = a.substr(19);
    } else if (a.rfind("--emit-bin=", 0) == 0) {
      opt.emit_bin = a.substr(11);
    } else if (a.rfind("--graph-stats-json=", 0) == 0) {
      opt.graph_stats_json = a.substr(19);
    } else if (a == "--link") {
      opt.link = true;
    } else if (a.rfind("--connect=", 0) == 0) {
      opt.connect = a.substr(10);
    } else if (a.rfind("--engine=", 0) == 0) {
      const std::string name = a.substr(9);
      if (!ParseEngineName(name, &opt.engine)) {
        fprintf(stderr, "unknown engine '%s' (expected ref, fast or trace)\n",
                name.c_str());
        return Usage();
      }
    } else if (a.rfind("--trace-threshold=", 0) == 0) {
      opt.trace_threshold = strtoull(a.substr(18).c_str(), nullptr, 0);
    } else if (a.rfind("--trace-stats-json=", 0) == 0) {
      opt.trace_stats_json = a.substr(19);
    } else if (a.rfind("--inject-faults=", 0) == 0) {
      std::string err;
      if (!FaultInjector::Instance().Configure(a.substr(16), &err)) {
        fprintf(stderr, "confcc: bad --inject-faults spec: %s\n", err.c_str());
        return Usage();
      }
    } else if (a.rfind("--inject-report=", 0) == 0) {
      g_inject_report = a.substr(16);
    } else if (a.rfind("--deadline-ms=", 0) == 0) {
      opt.deadline_ms = strtoull(a.substr(14).c_str(), nullptr, 0);
    } else if (a == "--incremental") {
      opt.incremental = true;
    } else if (a == "--cache-stats") {
      opt.cache_stats = true;
    } else if (a == "--verify") {
      opt.req.verify = true;
    } else if (a == "--disasm") {
      opt.disasm = true;
    } else if (a == "--stats") {
      opt.stats = true;
    } else if (a == "--time-passes") {
      opt.time_passes = true;
    } else if (a == "--all-private") {
      opt.req.all_private = true;
    } else if (a[0] == '-') {
      return Usage();
    } else {
      opt.files.push_back(a);
    }
  }
  if (!opt.connect.empty()) {
    // --cache-dir (and friends) name a *client-local* cache location while
    // --connect hands compilation to a daemon with its own tiers.
    // Disagreeing silently would compile cold and lie about it.
    if (const char* flag = ConnectConflict(opt); flag != nullptr) {
      fprintf(stderr,
              "confcc: %s conflicts with --connect=%s: the daemon owns the "
              "cache tiers; drop %s or run without --connect\n",
              flag, opt.connect.c_str(), flag);
      return 2;
    }
  } else if (opt.files.empty()) {
    return Usage();
  }
  if (!opt.link && opt.files.size() > 1) {
    fprintf(stderr,
            "confcc: %zu input files given without --link; pass --link to "
            "build them as modules\n",
            opt.files.size());
    return Usage();
  }
  // Inputs are read before dialing out: a missing file costs no round trip
  // and reports exactly as in solo mode.
  if (!ReadInputs(&opt)) {
    return 1;
  }
  if (!opt.connect.empty()) {
    return RunConnect(opt);
  }
  return opt.sweep && !opt.link ? RunSweep(opt) : RunBuilds(opt);
}

}  // namespace

int main(int argc, char** argv) {
  // Environment-armed injection (the CI chaos job): read before flag parsing
  // so an explicit --inject-faults overrides the environment.
  std::string env_err;
  if (!FaultInjector::Instance().ConfigureFromEnv(&env_err)) {
    fprintf(stderr, "confcc: bad CONFCC_INJECT_FAULTS: %s\n", env_err.c_str());
    return 2;
  }
  // Last-resort failure isolation: any error that escapes the driver —
  // including injected chaos faults surfacing somewhere unhardened — exits
  // with a one-line diagnostic, never a raw terminate/core.
  int rc;
  try {
    rc = Main(argc, argv);
  } catch (const std::exception& e) {
    fprintf(stderr, "confcc: fatal: %s\n", e.what());
    rc = 1;
  } catch (...) {
    fprintf(stderr, "confcc: fatal: unknown error\n");
    rc = 1;
  }
  if (!g_inject_report.empty() &&
      !WriteOutput(g_inject_report, FaultInjector::Instance().ReportJson())) {
    rc = rc == 0 ? 1 : rc;
  }
  return rc;
}
