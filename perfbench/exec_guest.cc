// exec-guest: runs guest code. Set-up compiles every guest input under
// Base, OurMPX and OurSeg; the timed loop runs OurMPX on fresh sessions
// with the fast and trace engines. The vm and runtime layers do the work;
// the compiler does none inside the timed region.
#include <algorithm>
#include <cmath>
#include <memory>

#include "common.h"
#include "inputs.h"
#include "src/driver/pipeline.h"
#include "src/verifier/verifier.h"
#include "src/vm/exec_image.h"
#include "src/vm/trace_tier.h"
#include "src/vm/vm.h"

namespace perfbench {

using namespace confllvm;

namespace {

struct GuestRun {
  bool ok = false;
  std::string fault;
  uint64_t ret = 0;
  uint64_t instrs = 0;
  uint64_t cycles = 0;
  double ms = 0;
  std::string guest_stdout;
  VmStats stats;
  TraceTierStats tier;
};

std::unique_ptr<CompiledProgram> CopyOf(const CompiledProgram& cp) {
  auto out = std::make_unique<CompiledProgram>();
  out->prog = std::make_unique<LoadedProgram>(*cp.prog);
  out->config = cp.config;
  out->codegen_stats = cp.codegen_stats;
  out->qual_vars = cp.qual_vars;
  out->qual_constraints = cp.qual_constraints;
  return out;
}

const char* SpanName(VmEngine e) {
  switch (e) {
    case VmEngine::kRef: return "vm.ref";
    case VmEngine::kFast: return "vm.fast";
    case VmEngine::kTrace: return "vm.trace";
  }
  return "vm";
}

using Programs = std::vector<std::vector<std::unique_ptr<CompiledProgram>>>;

// One set-up: cold-compile every input under the three presets, ConfVerify
// the OurMPX/OurSeg images, and build each execution image (session copies
// share it). Failures are appended to `errors` (and leave a null program).
Programs SetUp(const std::vector<GuestInput>& inputs,
               std::vector<std::string>* errors) {
  Programs progs(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (const BuildPreset p : kGuestPresets) {
      DiagEngine diags;
      auto cp = Compile(inputs[i].source, BuildConfig::For(p), &diags);
      if (cp != nullptr && WantsVerify(cp->config)) {
        const VerifyResult v = Verify(*cp->prog);
        if (!v.ok) {
          diags.Error({}, "confverify: " + v.ErrorText());
          cp.reset();
        }
      }
      if (cp != nullptr) {
        cp->prog->exec_image = BuildExecImage(*cp->prog);
      } else {
        errors->push_back(inputs[i].name + "/" + PresetName(p) + ": " +
                          diags.ToString());
      }
      progs[i].push_back(std::move(cp));
    }
  }
  return progs;
}

// One guest run on a fresh session; only Vm::Call is timed.
GuestRun RunGuest(const GuestInput& in, const CompiledProgram& cp,
                  VmEngine engine, uint64_t req) {
  GuestRun out;
  VmOptions vo;
  vo.engine = engine;
  std::unique_ptr<Session> s;
  {
    Span span("runtime.session", req);
    s = MakeSessionFor(CopyOf(cp), vo);
  }
  if (in.setup && !in.setup(s.get())) {
    out.fault = "setup call faulted";
    return out;
  }
  Vm::CallResult r;
  {
    Span span(SpanName(engine), req);
    const auto t0 = Clock::now();
    r = s->vm->Call(in.fn, in.args);
    out.ms = MsSince(t0);
  }
  out.ok = r.ok;
  if (!r.ok) {
    out.fault = std::string(FaultName(r.fault)) + ": " + r.fault_msg;
  }
  out.ret = r.ret;
  out.instrs = r.instrs;
  out.cycles = r.cycles;
  out.guest_stdout = s->tlib->stdout_text();
  out.stats = s->vm->stats();
  if (const TraceTier* tt = s->vm->trace_tier()) {
    out.tier = tt->Telemetry();
  }
  return out;
}

// Adds the exact overheads: the geomean over the SPEC inputs of the
// OurMPX/Base and OurSeg/Base simulated-cycle ratios, minus 1 (the paper's
// Figure 5). cycles[i] is input i's count per kGuestPresets entry.
void AddOverheads(const std::vector<GuestInput>& inputs,
                  const std::vector<std::vector<uint64_t>>& cycles,
                  Result* res) {
  double log_mpx = 0, log_seg = 0;
  int spec = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].is_spec) {
      ++spec;
      log_mpx += std::log(static_cast<double>(cycles[i][1]) / cycles[i][0]);
      log_seg += std::log(static_cast<double>(cycles[i][2]) / cycles[i][0]);
    }
  }
  res->Add("ourmpx_overhead_pct", (std::exp(log_mpx / spec) - 1) * 100, "%");
  res->Add("ourseg_overhead_pct", (std::exp(log_seg / spec) - 1) * 100, "%");
}

}  // namespace

void AddSpecOverheads(const RunOptions& o, Result* res) {
  std::map<std::string, Expected> expected;
  std::string err;
  if (!LoadExpected(o.expected_path, &expected, &err)) {
    res->CheckFailed(err);
    return;
  }
  std::vector<GuestInput> spec = GuestInputs();
  spec.erase(std::remove_if(spec.begin(), spec.end(),
                            [](const GuestInput& in) { return !in.is_spec; }),
             spec.end());
  std::vector<std::string> errors;
  const Programs progs = SetUp(spec, &errors);
  res->attempted += spec.size() * std::size(kGuestPresets);
  for (const std::string& e : errors) {
    res->Fail(e);
  }
  if (!errors.empty()) {
    return;
  }
  std::vector<std::vector<uint64_t>> cycles(spec.size());
  for (size_t i = 0; i < spec.size(); ++i) {
    for (size_t p = 0; p < std::size(kGuestPresets); ++p) {
      const std::string key = spec[i].name + "/" + PresetName(kGuestPresets[p]);
      const GuestRun r = RunGuest(spec[i], *progs[i][p], VmEngine::kFast, 0);
      ++res->attempted;
      std::string why;
      if (!r.ok) {
        res->Fail(key + "/fast: " + r.fault);
        return;
      }
      if (!MatchExpected(expected, key, r.ret, r.guest_stdout, &why)) {
        res->Fail("fast " + why);
        return;
      }
      cycles[i].push_back(r.cycles);
    }
  }
  AddOverheads(spec, cycles, res);
}

Result RunExecGuest(const RunOptions& o) {
  Result res;
  std::map<std::string, Expected> expected;
  std::string err;
  if (!LoadExpected(o.expected_path, &expected, &err)) {
    res.CheckFailed(err);
  }
  const std::vector<GuestInput> inputs = GuestInputs();
  const size_t n = inputs.size();
  constexpr size_t kMpx = 1;  // index of OurMPX in kGuestPresets

  // ---- Set-up (see SetupRepDue): the first repeat's programs are used.
  const size_t kPresets = std::size(kGuestPresets);
  std::vector<double> setup_s;
  auto set_up = [&] {
    std::vector<std::string> errors;
    const auto t0 = Clock::now();
    Programs progs = SetUp(inputs, &errors);
    setup_s.push_back(MsSince(t0) / 1000.0);
    res.attempted += n * kPresets;
    for (const std::string& e : errors) {
      res.Fail(e);
    }
    return progs;
  };
  const Programs progs = set_up();
  if (res.failed != 0) {
    res.Add("setup_s", SetupSeconds(setup_s), "s");
    return res;
  }

  // ---- Correctness pass (untimed): every input x preset x {fast, trace}
  // against the expected table; fast and trace must agree on instrs and
  // cycles. Collects the exact simulated-cycle counts and VmStats.
  std::vector<std::vector<uint64_t>> cycles(n, std::vector<uint64_t>(kPresets));
  std::vector<uint64_t> mpx_instrs(n, 0);
  VmStats mpx_stats;
  TraceTierStats mpx_tier;
  uint64_t faults = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t p = 0; p < kPresets; ++p) {
      const std::string key = inputs[i].name + "/" + PresetName(kGuestPresets[p]);
      GuestRun fast, trace;
      for (const VmEngine e : {VmEngine::kFast, VmEngine::kTrace}) {
        GuestRun& r = e == VmEngine::kFast ? fast : trace;
        r = RunGuest(inputs[i], *progs[i][p], e, 0);
        ++res.attempted;
        std::string why;
        if (!r.ok) {
          ++faults;
          res.Fail(key + "/" + EngineName(e) + ": " + r.fault);
        } else if (!MatchExpected(expected, key, r.ret, r.guest_stdout, &why)) {
          res.Fail(std::string(EngineName(e)) + " " + why);
        }
      }
      if (fast.ok && trace.ok &&
          (fast.instrs != trace.instrs || fast.cycles != trace.cycles ||
           fast.ret != trace.ret)) {
        res.Fail(key + ": fast and trace engines diverge");
      }
      cycles[i][p] = fast.cycles;
      if (p == kMpx) {
        mpx_instrs[i] = fast.instrs;
        mpx_stats.instrs += fast.stats.instrs;
        mpx_stats.check_instrs += fast.stats.check_instrs;
        mpx_stats.cfi_instrs += fast.stats.cfi_instrs;
        mpx_stats.cache_miss_cycles += fast.stats.cache_miss_cycles;
        mpx_stats.trusted_calls += fast.stats.trusted_calls;
        mpx_tier.promoted_blocks += trace.tier.promoted_blocks;
        mpx_tier.trace_instrs += trace.tier.trace_instrs;
        mpx_tier.entry_bails += trace.tier.entry_bails;
      }
    }
  }

  // ---- Traced run only: ref-engine cross-check, once per input.
  if (o.trace) {
    for (size_t i = 0; i < n; ++i) {
      const GuestRun ref = RunGuest(inputs[i], *progs[i][kMpx], VmEngine::kRef, 0);
      ++res.attempted;
      std::string why;
      if (!ref.ok ||
          !MatchExpected(expected, inputs[i].name + "/OurMPX", ref.ret,
                         ref.guest_stdout, &why) ||
          ref.instrs != mpx_instrs[i] || ref.cycles != cycles[i][kMpx]) {
        res.Fail(inputs[i].name + "/OurMPX: ref engine disagrees with fast "
                 "(ret/instrs/cycles)");
      }
    }
  }

  // ---- Timed loop: round-robin over the inputs in a seeded order, engine
  // order alternating per round; best-of-N per input and engine.
  const std::vector<size_t> order = SeededOrder(n, o.seed);
  BestOf best_fast, best_trace;
  BestOf self_fast, self_trace;  // traced: Vm::Call span self time
  const auto loop_t0 = Clock::now();
  int rounds = 0;
  while (rounds < 2 || MsSince(loop_t0) < o.seconds * 1000.0) {
    for (const size_t i : order) {
      for (int k = 0; k < 2; ++k) {
        const VmEngine e =
            ((rounds + k) % 2 == 0) ? VmEngine::kFast : VmEngine::kTrace;
        const uint64_t req = NextRequestId();
        const GuestRun r = RunGuest(inputs[i], *progs[i][kMpx], e, req);
        ++res.attempted;
        const std::string key = inputs[i].name + "/OurMPX";
        std::string why;
        if (!r.ok) {
          ++faults;
          res.Fail(key + "/" + EngineName(e) + ": " + r.fault);
          continue;
        }
        if (!MatchExpected(expected, key, r.ret, r.guest_stdout, &why) ||
            r.instrs != mpx_instrs[i] || r.cycles != cycles[i][kMpx]) {
          res.Fail(std::string(EngineName(e)) + " timed run diverged: " + key);
          continue;
        }
        BestOf& best = e == VmEngine::kFast ? best_fast : best_trace;
        best.Add(inputs[i].name, r.ms);
        if (o.trace) {
          BestOf& self = e == VmEngine::kFast ? self_fast : self_trace;
          self.Add(inputs[i].name, Tracer::Get().SelfMsByName(req)[SpanName(e)]);
        }
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

  uint64_t total_instrs = 0;
  for (size_t i = 0; i < n; ++i) {
    total_instrs += mpx_instrs[i];
  }
  uint64_t mcyc[3] = {0, 0, 0};  // summed over the SPEC kernels
  uint64_t code_words = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t p = 0; p < kPresets; ++p) {
      code_words += progs[i][p]->prog->binary.code.size();
      if (inputs[i].is_spec) {
        mcyc[p] += cycles[i][p];
      }
    }
  }
  fprintf(stderr, "exec-guest: %d rounds over %zu inputs (best-of-%d)\n",
          rounds, n, rounds);

  if (!o.trace) {
    res.Add("primary_ms", best_fast.Sum(), "ms");
    res.Add("secondary_ms", best_trace.Sum(), "ms");
    AddOverheads(inputs, cycles, &res);
    res.Add("code_kwords", code_words / 1000.0, "kwords");
    res.Add("setup_s", SetupSeconds(setup_s), "s");
    res.Add("peak_rss_mb", PeakRssMb(), "MB");
    return res;
  }
  res.Add("vm.fast_ms", self_fast.Sum(), "ms");
  res.Add("vm.trace_ms", self_trace.Sum(), "ms");
  res.Add("vm.fast_mips", total_instrs / (best_fast.Sum() * 1000.0), "Minstr/s");
  res.Add("vm.trace_mips", total_instrs / (best_trace.Sum() * 1000.0),
          "Minstr/s");
  res.Add("vm.trace_promoted_blocks", mpx_tier.promoted_blocks, "count");
  res.Add("vm.trace_instr_share",
          mpx_stats.instrs == 0
              ? 0
              : static_cast<double>(mpx_tier.trace_instrs) / mpx_stats.instrs,
          "ratio");
  res.Add("vm.trace_entry_bails", mpx_tier.entry_bails, "count");
  res.Add("vm.guest_minstrs", total_instrs / 1e6, "Minstr");
  res.Add("vm.sim_mcycles_base", mcyc[0] / 1e6, "Mcycles");
  res.Add("vm.sim_mcycles_ourmpx", mcyc[1] / 1e6, "Mcycles");
  res.Add("vm.sim_mcycles_ourseg", mcyc[2] / 1e6, "Mcycles");
  res.Add("vm.check_instrs", mpx_stats.check_instrs, "count");
  res.Add("vm.cfi_instrs", mpx_stats.cfi_instrs, "count");
  res.Add("vm.cache_miss_cycles", mpx_stats.cache_miss_cycles, "count");
  res.Add("vm.trusted_calls", mpx_stats.trusted_calls, "count");
  res.Add("vm.faults", faults, "count");
  return res;
}

}  // namespace perfbench
