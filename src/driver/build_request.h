// One build request, one build path (ARCHITECTURE.md "confccd service").
//
// `confcc` (single and --link modes) and the confccd `compile`, `link` and
// `execute` verbs all turn their input — argv or a JSON request — into a
// BuildRequest and hand it to Build(), which is the only code that turns a
// request into a loaded program. Build() owns the config rule
// (RequestConfig), the ConfVerify gating (WantsVerify), the choice between
// one CompilerInvocation and a BuildGraph/BuildScheduler, and the rendered
// diagnostics, so the two front doors cannot drift apart. Callers keep what
// is theirs: parallelism and deadlines (BuildOptions), the cache, and how the
// result is shown.
#ifndef CONFLLVM_SRC_DRIVER_BUILD_REQUEST_H_
#define CONFLLVM_SRC_DRIVER_BUILD_REQUEST_H_

#include <memory>
#include <string>
#include <vector>

#include "src/driver/build_graph.h"
#include "src/driver/pipeline.h"

namespace confllvm {

// Preset name (PresetName spelling, §7.1/§7.2 presets and the ct family) ->
// BuildPreset. False on an unknown name.
bool ParsePresetName(const std::string& name, BuildPreset* out);

// The config every front door builds `preset` under: whole-program (the
// build scheduler clears it for its per-module object compiles), and with
// `all_private` every unannotated value private and implicit flows reported
// as warnings.
BuildConfig RequestConfig(BuildPreset preset, bool all_private);

struct BuildModule {
  std::string name;  // what `import "name"` resolves to
  std::string source;
};

struct BuildRequest {
  BuildPreset preset = BuildPreset::kOurMpx;
  bool all_private = false;
  // Run ConfVerify when the preset is one it targets (WantsVerify); a no-op
  // for the Base-like presets and OurMPX-Sep on every path.
  bool verify = false;
  std::string source;                // single-source build when `modules` is empty
  std::vector<BuildModule> modules;  // multi-module build (link) otherwise
};

// How the caller runs a build; never changes the program built.
struct BuildOptions {
  ArtifactCache* cache = nullptr;
  unsigned codegen_jobs = 1;  // single source: BuildConfig::codegen_jobs
  unsigned build_jobs = 0;    // modules: Finalize and BuildScheduler workers
  uint64_t deadline_ms = 0;   // per-compile deadline (0 = none)
};

struct BuildResult {
  bool ok = false;
  std::string error;        // one-line failure summary; empty when ok
  std::string diagnostics;  // every diagnostic of the build, each once
  std::unique_ptr<CompiledProgram> program;     // null unless ok
  std::unique_ptr<VerifyResult> verify_result;  // set when ConfVerify ran
  // Single source: the pipeline's stage table.
  PipelineStats stats;
  // Modules: per-module outcomes (stage tables) and the graph stats;
  // `graph.link_cached` says whether the linked image came from the cache.
  std::vector<ModuleOutcome> modules;
  BuildGraphStats graph;
};

BuildResult Build(const BuildRequest& req, const BuildOptions& opts);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_DRIVER_BUILD_REQUEST_H_
