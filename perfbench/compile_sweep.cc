// compile-sweep: compiles cold. Each input gets the full 8-preset sweep
// with ConfVerify (PresetSweepJobs(src, true), one worker, a fresh
// ArtifactCache each time), then the same sweep against the now-warm cache.
// The seeded multi-module program builds through BuildGraph/BuildScheduler
// with link-time verify under all 8 presets. The compiler layers and the
// driver's cache do the work; the vm layer does none.
//
// The traced run additionally stages every sweep by hand through Parse ...
// Verify, mirroring the cache's sharing (front end once per source, one
// Opt per opt level, one Codegen per codegen key) and its snapshot/restore
// clones, with a span around each call. Its binaries must be byte-identical
// to CompileBatch's, and its layer self times (all but the root span's
// unattributed glue) must add up to the untraced cold-sweep time
// (primary_ms) within kClosureTolerance.
#include <algorithm>
#include <cmath>
#include <memory>

#include "common.h"
#include "inputs.h"
#include "src/driver/artifact_cache.h"
#include "src/driver/build_graph.h"
#include "src/driver/pipeline.h"
#include "src/ir/irgen.h"
#include "src/isa/binary.h"
#include "src/isa/link.h"
#include "src/lang/parser.h"
#include "src/opt/passes.h"
#include "src/verifier/verifier.h"
#include "src/vm/vm.h"

namespace perfbench {

using namespace confllvm;

namespace {

// Hand-staged layer self times, the root "driver.sweep" span's own time left
// out, must sum to the untraced cold-sweep time (primary_ms) within this
// share (both are per-input best-of-N over the same rounds).
constexpr double kClosureTolerance = 0.15;

constexpr const char* kMultiName = "multi-module";

struct Input {
  std::string name;
  std::string source;  // single-source inputs
  MultiModule multi;   // the multi-module input
  bool is_multi = false;
};

// Serialized output binaries, one per preset, for identity checks.
using Bins = std::vector<std::vector<uint8_t>>;

struct SweepRun {
  bool ok = false;
  std::string error;
  double ms = 0;
  Bins bins;
  uint64_t code_words = 0;
  double restore_ms = 0;  // cached stage rows (warm sweeps)
  // Stages that executed (not restored), by StageId.
  uint64_t computed[CacheStats::kNumStages] = {};
};

void CountStages(const PipelineStats& ps, SweepRun* out) {
  for (const StageStats& s : ps.stages) {
    if (s.cached) {
      out->restore_ms += s.ms;
    } else if (s.ran) {
      ++out->computed[static_cast<size_t>(s.id)];
    }
  }
}

// One sweep through the program's own drivers: CompileBatch for a source,
// BuildGraph + BuildScheduler per preset for the multi-module program.
SweepRun DriverSweep(const Input& in, ArtifactCache* cache) {
  SweepRun out;
  if (!in.is_multi) {
    const std::vector<BatchJob> jobs = PresetSweepJobs(in.source, true);
    const auto t0 = Clock::now();
    std::vector<BatchOutcome> outs = CompileBatch(jobs, 1, cache);
    out.ms = MsSince(t0);
    out.ok = true;
    for (size_t j = 0; j < outs.size(); ++j) {
      if (!outs[j].ok) {
        out.ok = false;
        out.error = in.name + "/" + jobs[j].label + ": " +
                    outs[j].invocation->diags().ToString();
        return out;
      }
      CountStages(outs[j].invocation->stats(), &out);
      out.bins.push_back(SerializeBinary(outs[j].program->prog->binary));
      out.code_words += outs[j].program->prog->binary.code.size();
    }
    return out;
  }
  const auto t0 = Clock::now();
  DiagEngine gd;
  BuildGraph g;
  for (const NamedSource& m : in.multi.modules) {
    g.AddModule(m.name, m.source, &gd);
  }
  if (!g.Finalize(BuildConfig::For(BuildPreset::kOurMpx), &gd, cache, 1)) {
    out.error = in.name + ": finalize: " + gd.ToString();
    return out;
  }
  std::vector<LinkedBuild> builds;
  for (const BuildPreset p : kAllBuildPresets) {
    BuildScheduler::Options so;
    so.num_workers = 1;
    so.verify = WantsVerify(BuildConfig::For(p));
    BuildScheduler sched(&g, BuildConfig::For(p), so);
    builds.push_back(sched.Run(cache));
  }
  out.ms = MsSince(t0);
  out.ok = true;
  for (size_t j = 0; j < builds.size(); ++j) {
    if (!builds[j].ok) {
      out.ok = false;
      out.error = in.name + "/" + PresetName(kAllBuildPresets[j]) + ": " +
                  builds[j].diags.ToString();
      return out;
    }
    for (const ModuleOutcome& mo : builds[j].modules) {
      CountStages(mo.invocation->stats(), &out);
    }
    out.bins.push_back(SerializeBinary(builds[j].prog->binary));
    out.code_words += builds[j].prog->binary.code.size();
  }
  return out;
}

// ---- Hand-staged sweep (traced run) ----

struct HandCounters {
  uint64_t qual_constraints = 0;
  uint64_t ir_instrs = 0;
  uint64_t opt_removed = 0;
  CodegenStats codegen;
  uint64_t verifier_instrs = 0;
  uint64_t computed[CacheStats::kNumStages] = {};
};

// One module's front end, shared by every preset (the sweep's presets all
// use the same sema options, so Parse/Sema/IrGen keys coincide).
struct FrontEnd {
  std::shared_ptr<const IrModule> irgen_snap;
  std::unique_ptr<IrModule> live;  // the first consumer takes it
};

class HandStager {
 public:
  HandStager(DiagEngine* diags, HandCounters* hc) : diags_(diags), hc_(hc) {}

  bool Front(const std::string& src, const SemaOptions& sema,
             const ModuleInterfaceSet* ifaces, FrontEnd* fe) {
    std::unique_ptr<Program> ast;
    {
      Span s("lang.parse");
      ast = Parse(src, diags_);
    }
    if (diags_->HasErrors() || ast == nullptr) {
      return false;
    }
    ++hc_->computed[static_cast<size_t>(StageId::kParse)];
    {
      Span s("driver.snapshot");
      keep_.push_back(std::shared_ptr<const void>(CloneProgram(*ast)));
    }
    std::unique_ptr<TypedProgram> typed;
    {
      Span s("sema");
      typed = RunSema(std::move(ast), sema, diags_, ifaces);
    }
    if (typed == nullptr) {
      return false;
    }
    ++hc_->computed[static_cast<size_t>(StageId::kSema)];
    hc_->qual_constraints += typed->solver_stats.constraints;
    {
      Span s("driver.snapshot");
      keep_.push_back(std::shared_ptr<const void>(typed->Clone()));
    }
    {
      Span s("ir.irgen");
      fe->live = GenerateIr(*typed, diags_);
    }
    if (fe->live == nullptr) {
      return false;
    }
    ++hc_->computed[static_cast<size_t>(StageId::kIrGen)];
    hc_->ir_instrs += CountInstrs(*fe->live);
    {
      Span s("driver.snapshot");
      fe->irgen_snap = fe->live->Clone();
    }
    return true;
  }

  // Opt + Codegen for one config, reusing earlier presets' artifacts by
  // key exactly like the artifact cache does. Returns the object binary.
  std::unique_ptr<Binary> Backend(FrontEnd* fe, const BuildConfig& cfg,
                                  const std::string& codegen_key) {
    auto cg = codegen_.find(codegen_key);
    if (cg != codegen_.end()) {
      Span s("driver.restore");
      return std::make_unique<Binary>(*cg->second);
    }
    // Per module (front end) and per opt schedule, like the Opt stage key.
    const std::string opt_key =
        std::to_string(reinterpret_cast<uintptr_t>(fe)) + "/" +
        std::to_string(static_cast<int>(cfg.opt_level)) + "/" +
        std::to_string(cfg.sema.ct) + "/" + std::to_string(cfg.whole_program);
    std::unique_ptr<IrModule> ir;
    auto op = opt_.find(opt_key);
    if (op != opt_.end()) {
      Span s("driver.restore");
      ir = op->second->Clone();
    } else {
      if (fe->live != nullptr) {
        ir = std::move(fe->live);
      } else {
        Span s("driver.restore");
        ir = fe->irgen_snap->Clone();
      }
      const size_t before = CountInstrs(*ir);
      PassPipelineOptions po;
      po.level = cfg.opt_level;
      po.ct = cfg.sema.ct;
      po.whole_program = cfg.whole_program;
      {
        Span s("opt");
        OptimizeModule(ir.get(), po);
      }
      ++hc_->computed[static_cast<size_t>(StageId::kOpt)];
      hc_->opt_removed += before - std::min(before, CountInstrs(*ir));
      Span s("driver.snapshot");
      opt_[opt_key] = ir->Clone();
    }
    auto bin = std::make_unique<Binary>();
    CodegenStats st;
    {
      Span s("codegen");
      *bin = GenerateCode(*ir, cfg.codegen, diags_, &st, cfg.codegen_jobs);
    }
    if (diags_->HasErrors()) {
      return nullptr;
    }
    ++hc_->computed[static_cast<size_t>(StageId::kCodegen)];
    hc_->codegen.Accumulate(st);
    Span s("driver.snapshot");
    codegen_[codegen_key] = std::make_shared<const Binary>(*bin);
    return bin;
  }

  // Load (or restore) + Verify. `load_key` identifies the loaded image.
  std::unique_ptr<LoadedProgram> LoadAndVerify(std::unique_ptr<Binary> bin,
                                               const BuildConfig& cfg,
                                               const std::string& load_key,
                                               bool cacheable, bool verify) {
    std::unique_ptr<LoadedProgram> prog;
    {
      Span s("runtime.load");
      prog = LoadBinary(std::move(*bin), cfg.load, diags_);
    }
    if (prog == nullptr) {
      return nullptr;
    }
    ++hc_->computed[static_cast<size_t>(StageId::kLoad)];
    if (cacheable) {
      Span s("driver.snapshot");
      load_[load_key] = std::make_shared<const LoadedProgram>(*prog);
    }
    return Verified(std::move(prog), verify);
  }

  std::unique_ptr<LoadedProgram> RestoreLoaded(const std::string& load_key,
                                               bool verify) {
    auto it = load_.find(load_key);
    if (it == load_.end()) {
      return nullptr;
    }
    std::unique_ptr<LoadedProgram> prog;
    {
      Span s("driver.restore");
      prog = std::make_unique<LoadedProgram>(*it->second);
    }
    return Verified(std::move(prog), verify);
  }

  std::map<std::string, std::shared_ptr<const Binary>>& linked() {
    return linked_;
  }

 private:
  std::unique_ptr<LoadedProgram> Verified(std::unique_ptr<LoadedProgram> prog,
                                          bool verify) {
    if (!verify) {
      return prog;
    }
    VerifyResult v;
    {
      Span s("verifier");
      v = Verify(*prog);
    }
    ++hc_->computed[static_cast<size_t>(StageId::kVerify)];
    hc_->verifier_instrs += v.instructions;
    if (!v.ok) {
      diags_->Error({}, "confverify: " + v.ErrorText());
      return nullptr;
    }
    return prog;
  }

  DiagEngine* diags_;
  HandCounters* hc_;
  // Snapshots nothing restores from, held (like the cache holds them) until
  // the sweep ends, so their destruction stays outside the timed sweep.
  std::vector<std::shared_ptr<const void>> keep_;
  std::map<std::string, std::unique_ptr<IrModule>> opt_;
  std::map<std::string, std::shared_ptr<const Binary>> codegen_;
  std::map<std::string, std::shared_ptr<const LoadedProgram>> load_;
  std::map<std::string, std::shared_ptr<const Binary>> linked_;
};

std::string LoadKeyOf(const std::string& codegen_key, const LoadOptions& l) {
  return codegen_key + "/" + std::to_string(l.separate_t_memory) + "/" +
         std::to_string(l.unified_bounds) + "/" + std::to_string(l.magic_seed);
}

// Stages one input's whole sweep by hand under root span "driver.sweep"
// (request `req`). Fills `bins` (one per preset, serialized after the root
// span closes) and sets `ms` to the sweep's wall time.
bool HandSweep(const Input& in, uint64_t req, Bins* bins, HandCounters* hc,
               double* ms, std::string* err) {
  DiagEngine diags;
  HandStager hs(&diags, hc);
  std::vector<std::unique_ptr<LoadedProgram>> progs;
  const auto t0 = Clock::now();
  Span root("driver.sweep", req);
  if (!in.is_multi) {
    std::vector<BatchJob> jobs;
    {
      Span s("driver.keys");
      jobs = PresetSweepJobs(in.source, true);
    }
    FrontEnd fe;
    if (!hs.Front(in.source, jobs[0].config.sema, nullptr, &fe)) {
      *err = in.name + ": " + diags.ToString();
      return false;
    }
    for (const BatchJob& job : jobs) {
      std::string cg_key, ld_key;
      {
        Span s("driver.keys");
        CompilerInvocation inv(in.source, job.config);
        cg_key = CodegenCacheKey(inv);
        ld_key = LoadKeyOf(cg_key, job.config.load);
      }
      std::unique_ptr<LoadedProgram> prog = hs.RestoreLoaded(ld_key, job.verify);
      if (prog == nullptr && !diags.HasErrors()) {
        std::unique_ptr<Binary> bin = hs.Backend(&fe, job.config, cg_key);
        if (bin != nullptr) {
          prog = hs.LoadAndVerify(std::move(bin), job.config, ld_key, true,
                                  job.verify);
        }
      }
      if (prog == nullptr) {
        *err = in.name + "/" + job.label + ": " + diags.ToString();
        return false;
      }
      progs.push_back(std::move(prog));
    }
  } else {
    std::unique_ptr<BuildGraph> g;
    {
      // The build graph's own work: parse-for-imports, interface
      // extraction and wave scheduling.
      Span s("driver.build_graph");
      g = std::make_unique<BuildGraph>();
      for (const NamedSource& m : in.multi.modules) {
        g->AddModule(m.name, m.source, &diags);
      }
      if (!g->Finalize(BuildConfig::For(BuildPreset::kOurMpx), &diags, nullptr, 1)) {
        *err = in.name + ": finalize: " + diags.ToString();
        return false;
      }
    }
    std::vector<FrontEnd> fes(g->num_modules());
    for (size_t i = 0; i < g->num_modules(); ++i) {
      BuildConfig cfg = BuildConfig::For(BuildPreset::kOurMpx);
      if (!hs.Front(g->module_source(i), cfg.sema, &g->interfaces(), &fes[i])) {
        *err = in.name + "/" + g->module_name(i) + ": " + diags.ToString();
        return false;
      }
    }
    for (const BuildPreset p : kAllBuildPresets) {
      BuildConfig cfg = BuildConfig::For(p);
      cfg.whole_program = false;  // object compiles, as BuildScheduler does
      std::vector<std::unique_ptr<Binary>> objs;
      std::string link_key;
      for (size_t i = 0; i < g->num_modules(); ++i) {
        std::string cg_key;
        {
          Span s("driver.keys");
          CompilerInvocation inv(g->module_source(i), cfg);
          inv.set_interfaces(&g->interfaces(), g->ImportsFingerprint(i));
          cg_key = CodegenCacheKey(inv);
          link_key += cg_key + "\n";
        }
        objs.push_back(hs.Backend(&fes[i], cfg, cg_key));
        if (objs.back() == nullptr) {
          *err = in.name + "/" + g->module_name(i) + ": " + diags.ToString();
          return false;
        }
      }
      std::unique_ptr<Binary> linked;
      auto hit = hs.linked().find(link_key);
      if (hit != hs.linked().end()) {
        Span s("driver.restore");
        linked = std::make_unique<Binary>(*hit->second);
      } else {
        std::vector<const Binary*> ptrs;
        for (const auto& b : objs) {
          ptrs.push_back(b.get());
        }
        {
          Span s("isa.link");
          linked = LinkBinaries(ptrs, &diags);
        }
        if (linked == nullptr) {
          *err = in.name + ": link: " + diags.ToString();
          return false;
        }
        ++hc->computed[static_cast<size_t>(StageId::kLink)];
        Span s("driver.snapshot");
        hs.linked()[link_key] = std::make_shared<const Binary>(*linked);
      }
      std::unique_ptr<LoadedProgram> prog = hs.LoadAndVerify(
          std::move(linked), cfg, "", false, WantsVerify(BuildConfig::For(p)));
      if (prog == nullptr) {
        *err = in.name + "/" + PresetName(p) + ": " + diags.ToString();
        return false;
      }
      progs.push_back(std::move(prog));
    }
  }
  root.End();
  *ms = MsSince(t0);
  for (const auto& prog : progs) {
    bins->push_back(SerializeBinary(prog->binary));
  }
  return true;
}

// Runs the multi-module program (linked) and its monolithic twin; their
// results must agree.
bool CheckMultiResult(const MultiModule& mm, std::string* why) {
  DiagEngine d;
  BuildGraph g;
  for (const NamedSource& m : mm.modules) {
    g.AddModule(m.name, m.source, &d);
  }
  const BuildConfig cfg = BuildConfig::For(BuildPreset::kOurMpx);
  if (!g.Finalize(cfg, &d)) {
    *why = d.ToString();
    return false;
  }
  BuildScheduler::Options so;
  so.num_workers = 1;
  so.verify = true;
  LinkedBuild b = BuildScheduler(&g, cfg, so).Run();
  auto mono = MakeSession(mm.mono, BuildPreset::kOurMpx, &d);
  if (!b.ok || mono == nullptr) {
    *why = "build failed: " + b.diags.ToString() + d.ToString();
    return false;
  }
  auto cp = std::make_unique<CompiledProgram>();
  cp->config = cfg;
  cp->prog = std::move(b.prog);
  auto linked = MakeSessionFor(std::move(cp));
  const auto rl = linked->vm->Call("main", {});
  const auto rm = mono->vm->Call("main", {});
  if (!rl.ok || !rm.ok || rl.ret != rm.ret) {
    *why = "linked and monolithic results differ";
    return false;
  }
  return true;
}

// What set-up produces: the inputs and, per input, the reference binaries
// every later sweep must reproduce.
struct Reference {
  std::vector<Input> inputs;
  std::map<std::string, Bins> bins;
  uint64_t code_words = 0;
  CacheStats cache_stats;  // summed over inputs, after cold + warm
};

// One set-up: build the inputs, then one reference cold + warm sweep per
// input: every preset must compile, every OurMPX/OurSeg output must pass
// ConfVerify, warm output must equal cold byte for byte, and the linked
// multi-module program must compute what its monolithic twin computes.
// Operations and failures are counted into `res`.
Reference SetUp(uint64_t seed, Result* res) {
  Reference ref;
  for (NamedSource& s : SweepSources()) {
    ref.inputs.push_back({s.name, std::move(s.source), {}, false});
  }
  Input multi;
  multi.name = kMultiName;
  multi.multi = MakeMultiModule(seed);
  multi.is_multi = true;
  ref.inputs.push_back(std::move(multi));
  for (const Input& in : ref.inputs) {
    ArtifactCache cache;
    SweepRun cold = DriverSweep(in, &cache);
    SweepRun warm = DriverSweep(in, &cache);
    res->attempted += 2;
    if (!cold.ok || !warm.ok) {
      res->Fail(cold.ok ? warm.error : cold.error);
      continue;
    }
    if (cold.bins != warm.bins) {
      res->Fail(in.name + ": warm rebuild differs from cold build");
    }
    ref.code_words += cold.code_words;
    ref.bins[in.name] = std::move(cold.bins);
    const CacheStats cs = cache.stats();
    ref.cache_stats.hits += cs.hits;
    ref.cache_stats.misses += cs.misses;
    ref.cache_stats.shared_waits += cs.shared_waits;
    ref.cache_stats.bytes_retained += cs.bytes_retained;
    for (size_t s = 0; s < CacheStats::kNumStages; ++s) {
      ref.cache_stats.hits_by_stage[s] += cs.hits_by_stage[s];
    }
  }
  ++res->attempted;
  std::string why;
  if (!CheckMultiResult(ref.inputs.back().multi, &why)) {
    res->Fail(std::string(kMultiName) + ": " + why);
  }
  return ref;
}

}  // namespace

Result RunCompileSweep(const RunOptions& o) {
  Result res;
  const bool traced = o.trace;

  // ---- Set-up (see SetupRepDue): the first repeat's reference is used.
  std::vector<double> setup_s;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    Reference ref = SetUp(o.seed, &res);
    setup_s.push_back(MsSince(t0) / 1000.0);
    return ref;
  };
  const Reference reference = set_up();
  const std::vector<Input>& inputs = reference.inputs;
  const std::map<std::string, Bins>& ref_bins = reference.bins;
  const CacheStats& cache_stats_sum = reference.cache_stats;

  // ---- Timed loop: inputs round-robin in a seeded order; per input a cold
  // sweep then a warm sweep on its cache. Best-of-N per input.
  const std::vector<size_t> order = SeededOrder(inputs.size(), o.seed ^ 0xc0ffee);
  BestOf best_cold, best_warm, best_hand, best_hand_plain;
  std::map<std::string, double> warm_restore;
  std::map<std::string, std::map<std::string, double>> hand_self;  // by input
  std::map<std::string, uint64_t> hand_req;
  HandCounters counters;  // from the first hand-staged pass of each input
  std::map<std::string, bool> counted;
  const auto loop_t0 = Clock::now();
  int rounds = 0;
  while (rounds < 2 || MsSince(loop_t0) < o.seconds * 1000.0) {
    for (const size_t i : order) {
      const Input& in = inputs[i];
      ArtifactCache cache;
      SweepRun cold = DriverSweep(in, &cache);
      SweepRun warm = DriverSweep(in, &cache);
      res.attempted += 2;
      if (!cold.ok || !warm.ok) {
        res.Fail(cold.ok ? warm.error : cold.error);
        continue;
      }
      const Bins& want = ref_bins.at(in.name);
      if (cold.bins != want || warm.bins != want) {
        res.Fail(in.name + ": sweep output differs from the reference");
        continue;
      }
      best_cold.Add(in.name, cold.ms);
      best_warm.Add(in.name, warm.ms);
      if (best_warm.Get(in.name) == warm.ms) {
        warm_restore[in.name] = warm.restore_ms;  // of the fastest warm sweep
      }
      if (!traced) {
        continue;
      }
      // Traced: the hand-staged sweep with spans off (the tracing-overhead
      // baseline), then with a span per layer call.
      Bins bins;
      HandCounters hc;
      double ms = 0;
      std::string err;
      Tracer::Get().SetEnabled(false);
      const bool plain_ok = HandSweep(in, 0, &bins, &hc, &ms, &err);
      Tracer::Get().SetEnabled(true);
      if (plain_ok) {
        best_hand_plain.Add(in.name, ms);
      }
      const uint64_t req = NextRequestId();
      bins.clear();
      hc = HandCounters();
      res.attempted += 2;
      if (!plain_ok || !HandSweep(in, req, &bins, &hc, &ms, &err)) {
        res.Fail("hand-staged " + err);
        continue;
      }
      if (bins != ref_bins.at(in.name)) {
        res.Fail(in.name + ": hand-staged binaries differ from CompileBatch's");
        continue;
      }
      if (!counted[in.name]) {
        counted[in.name] = true;
        // The hand path must execute exactly the stages the driver did.
        for (size_t s = 0; s < CacheStats::kNumStages; ++s) {
          const StageId id = static_cast<StageId>(s);
          if (id == StageId::kLink ||
              (in.is_multi && (id == StageId::kParse || id == StageId::kLoad ||
                               id == StageId::kVerify))) {
            // The build graph parses for imports, and links, loads and
            // verifies the merged image, outside the module invocations.
            continue;
          }
          if (hc.computed[s] != cold.computed[s]) {
            res.CheckFailed(in.name + ": hand-staged run executed " +
                            std::to_string(hc.computed[s]) + " " +
                            StageName(static_cast<StageId>(s)) +
                            " stages, the driver " +
                            std::to_string(cold.computed[s]));
          }
        }
        counters.qual_constraints += hc.qual_constraints;
        counters.ir_instrs += hc.ir_instrs;
        counters.opt_removed += hc.opt_removed;
        counters.codegen.Accumulate(hc.codegen);
        counters.verifier_instrs += hc.verifier_instrs;
      }
      const double prev = best_hand.Get(in.name);
      best_hand.Add(in.name, ms);
      if (prev == 0 || ms < prev) {
        if (hand_req.count(in.name) != 0) {
          Tracer::Get().Forget(hand_req[in.name]);
        }
        hand_req[in.name] = req;
        hand_self[in.name] = Tracer::Get().SelfMsByName(req);
      } else {
        Tracer::Get().Forget(req);
      }
    }
    ++rounds;
    if (SetupRepDue(setup_s.size(), MsSince(loop_t0), o.seconds)) {
      set_up();
    }
  }
  while (setup_s.size() < kSetupReps) {
    set_up();
  }
  fprintf(stderr, "compile-sweep: %d rounds over %zu inputs (best-of-%d)\n",
          rounds, inputs.size(), rounds);

  if (!traced) {
    res.Add("primary_ms", best_cold.Sum(), "ms");
    res.Add("secondary_ms", best_warm.Sum(), "ms");
    res.Add("code_kwords", reference.code_words / 1000.0, "kwords");
    res.Add("setup_s", SetupSeconds(setup_s), "s");
    res.Add("peak_rss_mb", PeakRssMb(), "MB");
    AddSpecOverheads(o, &res);  // after the timed loop and the RSS reading
    return res;
  }

  std::map<std::string, double> self;  // layer -> summed best-rep self ms
  for (const auto& [name, m] : hand_self) {
    for (const auto& [layer, ms] : m) {
      self[layer] += ms;
    }
  }
  // The root span's self time is the sweep's unattributed glue: it is left
  // out of the sum, so work that no layer span covers widens the gap.
  double layer_sum = 0;
  for (const auto& [layer, ms] : self) {
    if (layer != "driver.sweep") {
      layer_sum += ms;
    }
  }
  double restore_warm = 0;
  for (const auto& [name, ms] : warm_restore) {
    restore_warm += ms;
  }
  const double untraced = best_cold.Sum();
  const double gap = untraced > 0 ? layer_sum / untraced - 1 : 0;
  if (std::fabs(gap) > kClosureTolerance) {
    res.CheckFailed("compile closure: layer self times sum to " +
                    std::to_string(layer_sum) + " ms vs untraced primary_ms " +
                    std::to_string(untraced) + " ms");
  }
  res.Add("lang.parse_ms", self["lang.parse"], "ms");
  res.Add("sema.ms", self["sema"], "ms");
  res.Add("sema.qual_constraints", counters.qual_constraints, "count");
  res.Add("ir.irgen_ms", self["ir.irgen"], "ms");
  res.Add("ir.instrs", counters.ir_instrs, "count");
  res.Add("opt.ms", self["opt"], "ms");
  res.Add("opt.instrs_removed", counters.opt_removed, "count");
  res.Add("codegen.ms", self["codegen"], "ms");
  res.Add("codegen.bnd_checks_emitted", counters.codegen.bnd_checks_emitted,
          "count");
  res.Add("codegen.bnd_checks_coalesced", counters.codegen.bnd_checks_coalesced,
          "count");
  res.Add("codegen.private_spills", counters.codegen.private_spills, "count");
  res.Add("codegen.magic_words", counters.codegen.magic_words, "count");
  res.Add("runtime.load_ms", self["runtime.load"], "ms");
  res.Add("verifier.ms", self["verifier"], "ms");
  res.Add("verifier.instructions", counters.verifier_instrs, "count");
  res.Add("isa.link_ms", self["isa.link"], "ms");
  res.Add("driver.build_graph_ms", self["driver.build_graph"], "ms");
  res.Add("driver.snapshot_ms", self["driver.snapshot"], "ms");
  res.Add("driver.keys_ms", self["driver.keys"], "ms");
  res.Add("compile.unattributed_ms", self["driver.sweep"], "ms");
  res.Add("driver.restore_ms", restore_warm, "ms");
  res.Add("driver.cold_restore_ms", self["driver.restore"], "ms");
  const uint64_t lookups = cache_stats_sum.hits + cache_stats_sum.misses;
  res.Add("driver.hits", cache_stats_sum.hits, "count");
  res.Add("driver.misses", cache_stats_sum.misses, "count");
  res.Add("driver.prefix_shares", cache_stats_sum.PrefixShares(), "count");
  res.Add("driver.shared_waits", cache_stats_sum.shared_waits, "count");
  res.Add("driver.hit_ratio",
          lookups == 0 ? 0 : static_cast<double>(cache_stats_sum.hits) / lookups,
          "ratio");
  res.Add("driver.bytes_retained", cache_stats_sum.bytes_retained, "bytes");
  res.Add("closure.compile_gap_pct", gap * 100, "%");
  res.Add("trace.compile_overhead_pct",
          best_hand_plain.Sum() > 0
              ? (best_hand.Sum() / best_hand_plain.Sum() - 1) * 100
              : 0,
          "%");
  return res;
}

}  // namespace perfbench
