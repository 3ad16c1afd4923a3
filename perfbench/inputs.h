// The benchmark's inputs: the guest-run table (the SPEC kernels plus the
// nginx / LDAP server rows), the compile-sweep source list, the seeded
// multi-module program, and serve-kernel edits.
#ifndef CONFLLVM_PERFBENCH_INPUTS_H_
#define CONFLLVM_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/driver/confcc.h"

namespace perfbench {

// One guest run: compile `source`, run `setup` on a fresh session (queue
// requests, populate the directory), then the measured Call of fn(args).
struct GuestInput {
  std::string name;
  const char* source;
  std::string fn;
  std::vector<uint64_t> args;
  // Returns false when a setup call faults.
  std::function<bool(confllvm::Session*)> setup;
  bool is_spec = false;
};

// The 11 SPEC kernels, then nginx, ldap and ldap-miss (the rows and sizes
// of bench/exec_throughput.cc).
std::vector<GuestInput> GuestInputs();

// Presets guest runs are compiled under: Base (the overhead baseline),
// OurMPX (the timed preset) and OurSeg.
extern const confllvm::BuildPreset kGuestPresets[3];

struct NamedSource {
  std::string name;
  std::string source;
};

// Compile-sweep inputs: the SPEC kernels, the four §7.2-§7.5 apps and the
// four serve kernels.
std::vector<NamedSource> SweepSources();

// A seeded program of six qualifier-annotated modules whose imports
// form a DAG (every module imports at least one earlier module). The last
// module defines main(). `mono` is the same program as one source, for the
// linked-vs-monolithic result cross-check.
struct MultiModule {
  std::vector<NamedSource> modules;  // dependency order
  std::string mono;
};
MultiModule MakeMultiModule(uint64_t seed);

// Serve kernel `k` with its EDIT SLOT literal (990001) replaced by `value`;
// value 990001 is the pristine kernel.
std::string ServeEdit(int k, uint64_t value);
int NumServeKernels();
std::string ServeKernelName(int k);

}  // namespace perfbench

#endif  // CONFLLVM_PERFBENCH_INPUTS_H_
