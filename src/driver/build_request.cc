#include "src/driver/build_request.h"

#include <utility>

namespace confllvm {

namespace {

void BuildSource(const BuildRequest& req, const BuildOptions& opts,
                 BuildResult* out) {
  BuildConfig config = RequestConfig(req.preset, req.all_private);
  config.codegen_jobs = opts.codegen_jobs;
  CompilerInvocation inv(req.source, config);
  inv.set_cache(opts.cache);
  inv.set_deadline_ms(opts.deadline_ms);
  out->ok = RunStandardPipeline(&inv, req.verify && WantsVerify(config));
  out->diagnostics = inv.diags().ToString();
  out->verify_result = std::move(inv.verify_result);
  if (out->ok) {
    out->program = inv.TakeProgram();
  } else {
    out->error = "compilation failed";
  }
  out->stats = std::move(inv.stats());
}

void BuildModules(const BuildRequest& req, const BuildOptions& opts,
                  BuildResult* out) {
  const BuildConfig config = RequestConfig(req.preset, req.all_private);
  DiagEngine gdiags;
  BuildGraph graph;
  for (const BuildModule& m : req.modules) {
    if (!graph.AddModule(m.name, m.source, &gdiags)) {
      out->diagnostics = gdiags.ToString();
      out->error = "link: " + out->diagnostics;
      return;
    }
  }
  if (!graph.Finalize(config, &gdiags, opts.cache, opts.build_jobs)) {
    out->diagnostics = gdiags.ToString();
    out->error = "link: graph finalize failed";
    return;
  }
  BuildScheduler::Options sopts;
  sopts.num_workers = opts.build_jobs;
  sopts.verify = req.verify && WantsVerify(config);
  sopts.deadline_ms = opts.deadline_ms;
  LinkedBuild build = BuildScheduler(&graph, config, sopts).Run(opts.cache);
  // A failed module's diagnostics are already in build.diags under a
  // "module 'x' failed to compile:" line; only the modules that compiled
  // (warnings, notes) are rendered from their own invocations.
  for (const ModuleOutcome& mo : build.modules) {
    if (mo.ok && !mo.invocation->diags().diagnostics().empty()) {
      out->diagnostics += "-- module " + mo.name + " --\n";
      out->diagnostics += mo.invocation->diags().ToString();
    }
  }
  out->diagnostics += build.diags.ToString();
  out->ok = build.ok;
  out->verify_result = std::move(build.verify_result);
  out->modules = std::move(build.modules);
  out->graph = std::move(build.stats);
  if (!out->ok) {
    out->error = "link failed";
    return;
  }
  out->program = std::make_unique<CompiledProgram>();
  out->program->config = config;
  out->program->prog = std::move(build.prog);
}

}  // namespace

bool ParsePresetName(const std::string& name, BuildPreset* out) {
  auto find_in = [&](const auto& family) {
    for (const BuildPreset p : family) {
      if (name == PresetName(p)) {
        *out = p;
        return true;
      }
    }
    return false;
  };
  return find_in(kAllBuildPresets) || find_in(kCtBuildPresets);
}

BuildConfig RequestConfig(BuildPreset preset, bool all_private) {
  BuildConfig config = BuildConfig::For(preset);
  config.sema.all_private = all_private;
  if (all_private) {
    config.sema.implicit_flows = ImplicitFlowMode::kWarn;
  }
  config.whole_program = true;
  return config;
}

BuildResult Build(const BuildRequest& req, const BuildOptions& opts) {
  BuildResult out;
  if (req.modules.empty()) {
    BuildSource(req, opts, &out);
  } else {
    BuildModules(req, opts, &out);
  }
  return out;
}

}  // namespace confllvm
