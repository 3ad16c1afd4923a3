// The benchmark program. run.py builds this binary and invokes it as
//
//   perfbench --workload exec-guest|compile-sweep|serve-edit --seed N
//             --seconds S --trace 0|1 --work-dir DIR --expected FILE
//
// and it prints one JSON result line last on stdout. With
// `--write-expected FILE` it instead regenerates the expected-results table
// from the reference engine.
#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include "common.h"
#include "inputs.h"
#include "src/service/protocol.h"
#include "src/vm/vm.h"

namespace perfbench {

using namespace confllvm;

namespace {

int Usage() {
  fprintf(stderr,
          "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
          "                 [--work-dir DIR] [--expected FILE]\n"
          "       perfbench --write-expected FILE\n");
  return 2;
}

bool RefRun(const std::string& source, BuildPreset preset, const GuestInput* in,
            Json* row) {
  DiagEngine diags;
  VmOptions vo;
  vo.engine = VmEngine::kRef;
  auto s = MakeSession(source, preset, &diags, vo);
  if (s == nullptr) {
    fprintf(stderr, "%s", diags.ToString().c_str());
    return false;
  }
  if (in != nullptr && in->setup && !in->setup(s.get())) {
    return false;
  }
  const auto r = s->vm->Call(in != nullptr ? in->fn : "main",
                             in != nullptr ? in->args : std::vector<uint64_t>{});
  if (!r.ok) {
    return false;
  }
  const std::string out = s->tlib->stdout_text();
  *row = Json::Object();
  row->Set("ret", Json::UInt(r.ret));
  row->Set("stdout_fnv", Json::UInt(Fnv1a(out)));
  row->Set("stdout_len", Json::UInt(out.size()));
  return true;
}

}  // namespace

int WriteExpected(const std::string& path) {
  Json doc = Json::Object();
  doc.Set("_comment",
          Json::Str("Expected guest results per input/preset, produced by the "
                    "reference engine (perfbench --write-expected). Every "
                    "preset and engine must reproduce them."));
  for (const GuestInput& in : GuestInputs()) {
    for (const BuildPreset p : kGuestPresets) {
      Json row;
      if (!RefRun(in.source, p, &in, &row)) {
        fprintf(stderr, "write-expected: %s/%s failed\n", in.name.c_str(),
                PresetName(p));
        return 1;
      }
      doc.Set(in.name + "/" + PresetName(p), row);
    }
  }
  for (int k = 0; k < NumServeKernels(); ++k) {
    Json row;
    if (!RefRun(ServeEdit(k, 990001), BuildPreset::kOurMpx, nullptr, &row)) {
      fprintf(stderr, "write-expected: serve kernel %d failed\n", k);
      return 1;
    }
    doc.Set("serve-" + ServeKernelName(k) + "/OurMPX", row);
  }
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    return 1;
  }
  // One row per line keeps the checked-in file diffable.
  std::string text = "{\n";
  for (size_t i = 0; i < doc.members().size(); ++i) {
    const auto& [k, v] = doc.members()[i];
    text += "  " + Json::Str(k).Dump() + ": " + v.Dump() +
            (i + 1 < doc.members().size() ? ",\n" : "\n");
  }
  text += "}\n";
  fputs(text.c_str(), f);
  fclose(f);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string v = argv[++i];
    if (a == "--write-expected") {
      return WriteExpected(v);
    } else if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = atof(v.c_str());
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--expected") {
      o.expected_path = v;
    } else {
      return Usage();
    }
  }
  if (o.seconds <= 0) {
    return Usage();
  }
  // Everything the run writes (trace file, daemon socket) lands in the
  // work directory; the socket path stays short and relative.
  if (chdir(o.work_dir.c_str()) != 0) {
    fprintf(stderr, "perfbench: cannot enter work dir %s\n", o.work_dir.c_str());
    return 1;
  }
  if (o.trace) {
    Tracer::Get().SetEnabled(true);
  }
  Result r;
  if (o.workload == "exec-guest") {
    r = RunExecGuest(o);
  } else if (o.workload == "compile-sweep") {
    r = RunCompileSweep(o);
  } else if (o.workload == "serve-edit") {
    r = RunServeEdit(o);
  } else {
    return Usage();
  }
  if (o.trace) {
    const std::string path = "trace-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    if (Tracer::Get().WriteChromeJson(path)) {
      fprintf(stderr, "perfbench: %zu spans -> %s\n", Tracer::Get().size(),
              path.c_str());
    }
  }
  PrintResult(r);
  return 0;
}
