// Separate compilation end to end: module imports (lang/sema), the build
// graph and wave scheduler (driver), the confidentiality-preserving linker
// (isa), and link-time ConfVerify (verifier):
//
//   * a 3-module program with cross-module calls compiles, links, loads,
//     and runs bit-identically on the reference and fast VM engines across
//     all eight presets;
//   * a qualifier-mismatched import is rejected at sema time; when the
//     interface is forged *post-sema*, the linker's contract check rejects
//     the edge, and when the linker's metadata is forged as well, link-time
//     ConfVerify rejects the merged image from first principles;
//   * on a warm cache, a body-only edit recompiles exactly the edited
//     module while an exported-signature edit dirties exactly its
//     dependents;
//   * graph hygiene (unknown imports, self-imports, cycles, duplicate
//     modules/functions), linker table merging (trusted-import dedup,
//     global/function relocation), and the loader's rejection of unlinked
//     binaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "src/driver/artifact_cache.h"
#include "src/driver/build_graph.h"
#include "src/driver/confcc.h"
#include "src/driver/pipeline.h"
#include "src/isa/link.h"
#include "src/lang/parser.h"
#include "src/runtime/loader.h"
#include "src/sema/module_interface.h"
#include "src/service/protocol.h"
#include "src/verifier/verifier.h"
#include "tests/test_util.h"

namespace confllvm {
namespace {

using testutil::ExpectSameResult;
using testutil::ExpectSameStats;

// ---- the 3-module workload ----
//
// leaf:   pure arithmetic + a private helper.
// mid:    imports leaf; re-exports a derived computation.
// app:    imports both; main() mixes cross-module public data with local
//         private data and returns a checksum.

constexpr char kLeafSrc[] = R"(
int square(int x) { return x * x; }
private int seal(private int s, int k) { return s * 3 + k; }
int bump(int x) { return x + 1; }
)";

constexpr char kMidSrc[] = R"(
import "leaf";
int cube(int x) { return x * square(x); }
int twice_bumped(int x) { return bump(bump(x)); }
)";

constexpr char kAppSrc[] = R"(
import "leaf";
import "mid";
int main() {
  private int secret = 41;
  private int sealed = seal(secret, 4);
  int pub = cube(3) + twice_bumped(5);
  int acc = 0;
  for (int i = 0; i < 4; i = i + 1) {
    acc = acc + square(i) + pub;
  }
  sealed = sealed + 1;
  return acc;
}
)";

std::unique_ptr<BuildGraph> MakeGraph(const BuildConfig& config, DiagEngine* diags,
                                      ArtifactCache* cache = nullptr,
                                      const char* leaf = kLeafSrc,
                                      const char* mid = kMidSrc,
                                      const char* app = kAppSrc) {
  auto g = std::make_unique<BuildGraph>();
  EXPECT_TRUE(g->AddModule("leaf", leaf, diags));
  EXPECT_TRUE(g->AddModule("mid", mid, diags));
  EXPECT_TRUE(g->AddModule("app", app, diags));
  if (!g->Finalize(config, diags, cache)) {
    return nullptr;
  }
  return g;
}

LinkedBuild BuildAll(const BuildGraph& graph, const BuildConfig& config,
                     bool verify, ArtifactCache* cache = nullptr) {
  BuildScheduler::Options opts;
  opts.verify = verify && WantsVerify(config);
  BuildScheduler sched(&graph, config, opts);
  return sched.Run(cache);
}

std::string AllDiags(const LinkedBuild& b) {
  std::string s = b.diags.ToString();
  for (const ModuleOutcome& mo : b.modules) {
    if (mo.invocation != nullptr) {
      s += mo.invocation->diags().ToString();
    }
  }
  return s;
}

// Wraps a LinkedBuild's program in a runnable session under `engine`.
std::unique_ptr<Session> SessionFor(LinkedBuild build, const BuildConfig& config,
                                    VmEngine engine) {
  if (!build.ok) {
    return nullptr;
  }
  auto cp = std::make_unique<CompiledProgram>();
  cp->config = config;
  cp->prog = std::move(build.prog);
  VmOptions vopts;
  vopts.engine = engine;
  return MakeSessionFor(std::move(cp), vopts);
}

// ---- tentpole: 3 modules × 8 presets × 2 engines, bit-identical ----

TEST(LinkedProgram, RunsIdenticallyOnBothEnginesUnderAllPresets) {
  ArtifactCache cache;
  for (const BuildPreset preset : kAllBuildPresets) {
    SCOPED_TRACE(PresetName(preset));
    const BuildConfig config = BuildConfig::For(preset);
    DiagEngine gd;
    auto graph = MakeGraph(config, &gd, &cache);
    ASSERT_NE(graph, nullptr) << gd.ToString();
    EXPECT_EQ(graph->waves().size(), 3u);  // leaf -> mid -> app

    LinkedBuild ref_build = BuildAll(*graph, config, /*verify=*/true, &cache);
    ASSERT_TRUE(ref_build.ok) << AllDiags(ref_build);
    if (WantsVerify(config)) {
      ASSERT_NE(ref_build.verify_result, nullptr);
      EXPECT_TRUE(ref_build.verify_result->ok)
          << ref_build.verify_result->ErrorText();
      EXPECT_GE(ref_build.stats.link.resolved_call_sites, 4u);
    }
    LinkedBuild fast_build = BuildAll(*graph, config, /*verify=*/true, &cache);
    ASSERT_TRUE(fast_build.ok) << AllDiags(fast_build);

    auto ref = SessionFor(std::move(ref_build), config, VmEngine::kRef);
    auto fast = SessionFor(std::move(fast_build), config, VmEngine::kFast);
    ASSERT_NE(ref, nullptr);
    ASSERT_NE(fast, nullptr);

    const auto r = ref->vm->Call("main", {});
    const auto f = fast->vm->Call("main", {});
    ASSERT_TRUE(r.ok) << r.fault_msg;
    ExpectSameResult(r, f);
    ExpectSameStats(*ref->vm, *fast->vm);

    // And the linked result equals the monolithic compile of the same
    // program (modules concatenated, imports dropped) — separate
    // compilation changes layout, not semantics.
    const std::string mono = std::string(kLeafSrc) +
                             "int cube(int x) { return x * square(x); }\n"
                             "int twice_bumped(int x) { return bump(bump(x)); }\n" +
                             [] {
                               std::string s = kAppSrc;
                               size_t p;
                               while ((p = s.find("import")) != std::string::npos) {
                                 s.erase(p, s.find(';', p) - p + 1);
                               }
                               return s;
                             }();
    DiagEngine md;
    auto mono_session = MakeSession(mono, preset, &md);
    ASSERT_NE(mono_session, nullptr) << md.ToString();
    const auto m = mono_session->vm->Call("main", {});
    ASSERT_TRUE(m.ok) << m.fault_msg;
    EXPECT_EQ(m.ret, r.ret);
  }
}

// ---- module-boundary qualifier contracts ----

TEST(ModuleContracts, PrivateToPublicArgumentIsASemaError) {
  DiagEngine d;
  BuildGraph g;
  ASSERT_TRUE(g.AddModule("sink", "int sink(int x) { return x + 1; }\n", &d));
  ASSERT_TRUE(g.AddModule(
      "app",
      "import \"sink\";\n"
      "int main() { private int s = 7; return sink(s); }\n",
      &d));
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  ASSERT_TRUE(g.Finalize(config, &d));
  LinkedBuild b = BuildAll(g, config, /*verify=*/true);
  EXPECT_FALSE(b.ok);
  EXPECT_TRUE(AllDiags(b).find("private data flows") != std::string::npos ||
              AllDiags(b).find("argument") != std::string::npos)
      << AllDiags(b);
}

TEST(ModuleContracts, PublicToPrivateParameterIsAccepted) {
  DiagEngine d;
  BuildGraph g;
  ASSERT_TRUE(g.AddModule(
      "sink", "private int absorb(private int x) { return x * 2; }\n", &d));
  ASSERT_TRUE(g.AddModule(
      "app",
      "import \"sink\";\n"
      "int main() { private int r = absorb(5); r = r + 1; return 1; }\n",
      &d));
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  ASSERT_TRUE(g.Finalize(config, &d)) << d.ToString();
  LinkedBuild b = BuildAll(g, config, /*verify=*/true);
  EXPECT_TRUE(b.ok) << AllDiags(b);
}

// Compiles one module source as an object Binary against `interfaces`.
std::unique_ptr<CompilerInvocation> CompileObject(
    const std::string& src, const BuildConfig& config,
    const ModuleInterfaceSet* interfaces, bool* ok) {
  auto inv = std::make_unique<CompilerInvocation>(src, config);
  inv->set_interfaces(interfaces, /*fingerprint=*/0);
  *ok = PassManager::Object(config).Run(inv.get());
  return inv;
}

// The interface-forgery ladder: the defining module exports sink(public int);
// the importer is compiled against a forged interface claiming
// sink(private int), so sema accepts passing a secret.
//   Rung 1: the linker's contract check sees taint_bits differ -> reject.
//   Rung 2: the attacker also forges the importer's BinModImport metadata to
//           match the definition; the linker is fooled, but ConfVerify on
//           the merged image sees a private value in the argument register
//           against a public callee magic -> reject.
TEST(ModuleContracts, ForgedInterfaceIsRejectedByLinkerThenConfVerify) {
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);

  bool ok = false;
  auto provider = CompileObject(
      "int pub_out = 0;\n"
      "int sink(int x) { pub_out = x; return x + 1; }\n",
      config, nullptr, &ok);
  ASSERT_TRUE(ok) << provider->diags().ToString();

  ModuleInterfaceSet forged;
  {
    ModuleInterface mi;
    mi.module = "provider";
    InterfaceFn f;
    f.name = "sink";
    f.ret.base = InterfaceType::Base::kInt;
    f.ret.quals = {Qual::kPublic};
    InterfaceType param;
    param.base = InterfaceType::Base::kInt;
    param.quals = {Qual::kPrivate};  // the lie: definition says public
    f.params.push_back(param);
    mi.functions.push_back(std::move(f));
    forged.Add(std::move(mi));
  }
  // The secret must be dynamically private, not just declared so: load it
  // from a private-region global, so the verifier's dataflow sees taint H in
  // the argument register at the call site.
  auto attacker = CompileObject(
      "import \"provider\";\n"
      "private int vault = 1234;\n"
      "int main() { return sink(vault); }\n",
      config, &forged, &ok);
  ASSERT_TRUE(ok) << attacker->diags().ToString();  // sema believed the forgery

  // Rung 1: the linker's metadata contract check catches the mismatch.
  {
    DiagEngine ld;
    auto linked = LinkBinaries({provider->binary.get(), attacker->binary.get()}, &ld);
    EXPECT_EQ(linked, nullptr);
    EXPECT_TRUE(ld.Contains("interface contract mismatch")) << ld.ToString();
  }

  // Rung 2: forge the metadata too. The linker now resolves the edge, but
  // link-time ConfVerify re-derives the contract from the caller's register
  // taints vs the callee's entry magic and rejects the merged image.
  {
    ASSERT_EQ(attacker->binary->mod_imports.size(), 1u);
    const int provider_sink = provider->binary->FunctionIndex("sink");
    ASSERT_GE(provider_sink, 0);
    attacker->binary->mod_imports[0].taint_bits =
        provider->binary->functions[provider_sink].taint_bits;

    DiagEngine ld;
    LinkStats ls;
    auto linked =
        LinkBinaries({provider->binary.get(), attacker->binary.get()}, &ld, &ls);
    ASSERT_NE(linked, nullptr) << ld.ToString();
    EXPECT_EQ(ls.resolved_call_sites, 1u);

    auto prog = LoadBinary(std::move(*linked), config.load, &ld);
    ASSERT_NE(prog, nullptr) << ld.ToString();
    const VerifyResult v = Verify(*prog);
    EXPECT_FALSE(v.ok);
    bool found = false;
    for (const std::string& e : v.errors) {
      found = found || e.find("argument register") != std::string::npos;
    }
    EXPECT_TRUE(found) << v.ErrorText();
  }
}

// The CFI taint encoding cannot distinguish void from a private return
// (both encode ret-taint 1), so the contract check must compare void-ness
// separately: a forged interface turning `void ping(int)` into
// `private int ping(int)` would otherwise link and hand the importer an
// uninitialized return register.
TEST(ModuleContracts, VoidVersusValueReturnForgeryFailsTheLink) {
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  bool ok = false;
  auto provider = CompileObject("int pings = 0;\n"
                                "void ping(int x) { pings = pings + x; }\n",
                                config, nullptr, &ok);
  ASSERT_TRUE(ok) << provider->diags().ToString();

  ModuleInterfaceSet forged;
  {
    ModuleInterface mi;
    mi.module = "provider";
    InterfaceFn f;
    f.name = "ping";
    f.ret.base = InterfaceType::Base::kInt;
    f.ret.quals = {Qual::kPrivate};  // same taint bit as void, but a value
    InterfaceType param;
    param.base = InterfaceType::Base::kInt;
    param.quals = {Qual::kPublic};
    f.params.push_back(param);
    mi.functions.push_back(std::move(f));
    forged.Add(std::move(mi));
  }
  auto importer = CompileObject(
      "import \"provider\";\n"
      "int main() { private int r = ping(3); r = r + 1; return 0; }\n",
      config, &forged, &ok);
  ASSERT_TRUE(ok) << importer->diags().ToString();

  DiagEngine ld;
  EXPECT_EQ(LinkBinaries({provider->binary.get(), importer->binary.get()}, &ld),
            nullptr);
  EXPECT_TRUE(ld.Contains("interface contract mismatch")) << ld.ToString();
}

// ---- warm-cache incrementality ----

bool CodegenCached(const LinkedBuild& b, const std::string& name) {
  for (const auto& pm : b.stats.per_module) {
    if (pm.name == name) {
      return pm.codegen_cached;
    }
  }
  ADD_FAILURE() << "no module " << name;
  return false;
}

TEST(IncrementalGraph, BodyEditRecompilesExactlyThatModule) {
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  ArtifactCache cache;
  {
    DiagEngine d;
    auto g = MakeGraph(config, &d, &cache);
    ASSERT_NE(g, nullptr) << d.ToString();
    LinkedBuild cold = BuildAll(*g, config, /*verify=*/true, &cache);
    ASSERT_TRUE(cold.ok) << AllDiags(cold);
    EXPECT_EQ(cold.stats.codegen_ran, 3u);
  }
  // Same sources again: everything restores.
  {
    DiagEngine d;
    auto g = MakeGraph(config, &d, &cache);
    ASSERT_NE(g, nullptr);
    LinkedBuild warm = BuildAll(*g, config, /*verify=*/true, &cache);
    ASSERT_TRUE(warm.ok) << AllDiags(warm);
    EXPECT_EQ(warm.stats.codegen_ran, 0u);
  }
  // Body-only edit of leaf: new constant inside bump(). Interfaces are
  // unchanged, so mid and app restore their whole pipelines.
  {
    const std::string leaf_edited =
        "int square(int x) { return x * x; }\n"
        "private int seal(private int s, int k) { return s * 3 + k; }\n"
        "int bump(int x) { int d = 1; return x + d; }\n";
    DiagEngine d;
    auto g = MakeGraph(config, &d, &cache, leaf_edited.c_str());
    ASSERT_NE(g, nullptr) << d.ToString();
    LinkedBuild b = BuildAll(*g, config, /*verify=*/true, &cache);
    ASSERT_TRUE(b.ok) << AllDiags(b);
    EXPECT_EQ(b.stats.codegen_ran, 1u);
    EXPECT_FALSE(CodegenCached(b, "leaf"));
    EXPECT_TRUE(CodegenCached(b, "mid"));
    EXPECT_TRUE(CodegenCached(b, "app"));
  }
}

TEST(IncrementalGraph, SignatureEditDirtiesExactlyTheDependents) {
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  ArtifactCache cache;
  {
    DiagEngine d;
    auto g = MakeGraph(config, &d, &cache);
    ASSERT_NE(g, nullptr);
    ASSERT_TRUE(BuildAll(*g, config, /*verify=*/true, &cache).ok);
  }
  // mid's exported signature changes (new exported function changes the
  // interface fingerprint): app must recompile, leaf must not.
  {
    const std::string mid_edited =
        "import \"leaf\";\n"
        "int cube(int x) { return x * square(x); }\n"
        "int twice_bumped(int x) { return bump(bump(x)); }\n"
        "int extra(int x) { return x; }\n";
    DiagEngine d;
    auto g = MakeGraph(config, &d, &cache, kLeafSrc, mid_edited.c_str());
    ASSERT_NE(g, nullptr) << d.ToString();
    LinkedBuild b = BuildAll(*g, config, /*verify=*/true, &cache);
    ASSERT_TRUE(b.ok) << AllDiags(b);
    EXPECT_TRUE(CodegenCached(b, "leaf"));
    EXPECT_FALSE(CodegenCached(b, "mid"));
    EXPECT_FALSE(CodegenCached(b, "app"));
    EXPECT_EQ(b.stats.codegen_ran, 2u);
  }
}

// ---- graph hygiene ----

TEST(GraphHygiene, UnknownImportSelfImportCycleAndDuplicates) {
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  {
    DiagEngine d;
    BuildGraph g;
    ASSERT_TRUE(g.AddModule("a", "import \"nosuch\";\nint main() { return 0; }\n", &d));
    EXPECT_FALSE(g.Finalize(config, &d));
    EXPECT_TRUE(d.Contains("unknown module"));
  }
  {
    DiagEngine d;
    BuildGraph g;
    ASSERT_TRUE(g.AddModule("a", "import \"a\";\nint main() { return 0; }\n", &d));
    EXPECT_FALSE(g.Finalize(config, &d));
    EXPECT_TRUE(d.Contains("imports itself"));
  }
  {
    DiagEngine d;
    BuildGraph g;
    ASSERT_TRUE(g.AddModule("a", "import \"b\";\nint fa(int x) { return x; }\n", &d));
    ASSERT_TRUE(g.AddModule("b", "import \"a\";\nint fb(int x) { return x; }\n", &d));
    EXPECT_FALSE(g.Finalize(config, &d));
    EXPECT_TRUE(d.Contains("import cycle"));
  }
  {
    DiagEngine d;
    BuildGraph g;
    ASSERT_TRUE(g.AddModule("a", "int main() { return 0; }\n", &d));
    EXPECT_FALSE(g.AddModule("a", "int f() { return 1; }\n", &d));
    EXPECT_TRUE(d.Contains("duplicate module"));
  }
}

TEST(GraphHygiene, DiamondDependencySchedulesInThreeWaves) {
  // d imports b and c; b and c both import a -> waves {a}, {b, c}, {d}.
  DiagEngine d;
  BuildGraph g;
  ASSERT_TRUE(g.AddModule("a", "int fa(int x) { return x + 1; }\n", &d));
  ASSERT_TRUE(g.AddModule("b", "import \"a\";\nint fb(int x) { return fa(x) * 2; }\n", &d));
  ASSERT_TRUE(g.AddModule("c", "import \"a\";\nint fc(int x) { return fa(x) * 3; }\n", &d));
  ASSERT_TRUE(g.AddModule(
      "d", "import \"b\";\nimport \"c\";\nint main() { return fb(1) + fc(1); }\n", &d));
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurSeg);
  ASSERT_TRUE(g.Finalize(config, &d)) << d.ToString();
  ASSERT_EQ(g.waves().size(), 3u);
  EXPECT_EQ(g.waves()[0].size(), 1u);
  EXPECT_EQ(g.waves()[1].size(), 2u);
  EXPECT_EQ(g.waves()[2].size(), 1u);

  LinkedBuild b = BuildAll(g, config, /*verify=*/true);
  ASSERT_TRUE(b.ok) << AllDiags(b);
  auto session = SessionFor(std::move(b), config, VmEngine::kFast);
  const auto r = session->vm->Call("main", {});
  ASSERT_TRUE(r.ok) << r.fault_msg;
  EXPECT_EQ(r.ret, 10u);  // fb(1)=4, fc(1)=6
}

TEST(GraphHygiene, DuplicateFunctionAcrossModulesFailsTheLink) {
  DiagEngine d;
  BuildGraph g;
  ASSERT_TRUE(g.AddModule("a", "int f(int x) { return x; }\n", &d));
  ASSERT_TRUE(g.AddModule("b", "int f(int x) { return x + 1; }\n"
                               "int main() { return f(1); }\n", &d));
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  ASSERT_TRUE(g.Finalize(config, &d));
  LinkedBuild b = BuildAll(g, config, /*verify=*/false);
  EXPECT_FALSE(b.ok);
  EXPECT_TRUE(b.diags.Contains("defined in module")) << AllDiags(b);
}

TEST(GraphHygiene, StatsJsonEscapesModuleNames) {
  // Module names arrive from confccd `link` requests verbatim; a quote,
  // backslash or control character in one must still yield valid JSON.
  const std::string lib = "li\"b\\x";
  const std::string app = "ap\tp\n";
  DiagEngine d;
  BuildGraph g;
  ASSERT_TRUE(g.AddModule(lib, "int f(int x) { return x + 1; }\n", &d));
  ASSERT_TRUE(g.AddModule(app, "import \"li\\\"b\\\\x\";\nint main() { return f(1); }\n",
                          &d))
      << d.ToString();
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  ASSERT_TRUE(g.Finalize(config, &d)) << d.ToString();
  LinkedBuild b = BuildAll(g, config, /*verify=*/true);
  ASSERT_TRUE(b.ok) << AllDiags(b);

  Json parsed;
  std::string err;
  ASSERT_TRUE(Json::Parse(b.stats.ToJson(), &parsed, &err)) << err;
  const Json* detail = parsed.Find("module_detail");
  ASSERT_NE(detail, nullptr);
  ASSERT_EQ(detail->items().size(), 2u);
  std::vector<std::string> names;
  for (const Json& m : detail->items()) {
    names.push_back(m.GetString("name"));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{app, lib}));
  EXPECT_EQ(parsed.GetUInt("modules"), 2u);
}

// ---- linker mechanics ----

TEST(Linker, TrustedImportsDedupAndGlobalsRelocate) {
  // Both modules call conf_malloc (a trusted import) and own a private
  // global; the merged binary must hold one externals entry and both
  // globals, and the program must still run correctly on both engines.
  DiagEngine d;
  BuildGraph g;
  ASSERT_TRUE(g.AddModule("alloc1",
                          "void *pub_malloc(int n);\n"
                          "int g1 = 11;\n"
                          "int use1() { int *p = (int *) pub_malloc(8); *p = g1; return *p; }\n",
                          &d));
  ASSERT_TRUE(g.AddModule("alloc2",
                          "import \"alloc1\";\n"
                          "void *pub_malloc(int n);\n"
                          "int g2 = 31;\n"
                          "int main() { int *q = (int *) pub_malloc(8); *q = g2;\n"
                          "  return use1() + *q; }\n",
                          &d));
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  ASSERT_TRUE(g.Finalize(config, &d)) << d.ToString();
  LinkedBuild b = BuildAll(g, config, /*verify=*/true);
  ASSERT_TRUE(b.ok) << AllDiags(b);
  EXPECT_EQ(b.stats.link.trusted_imports, 1u);
  EXPECT_EQ(b.prog->binary.globals.size(), 2u);
  auto session = SessionFor(std::move(b), config, VmEngine::kRef);
  const auto r = session->vm->Call("main", {});
  ASSERT_TRUE(r.ok) << r.fault_msg;
  EXPECT_EQ(r.ret, 42u);
}

TEST(Linker, MixedInstrumentationConfigsAreRejected) {
  bool ok = false;
  auto a = CompileObject("int f(int x) { return x; }\n",
                         BuildConfig::For(BuildPreset::kOurMpx), nullptr, &ok);
  ASSERT_TRUE(ok);
  auto b = CompileObject("int main() { return 0; }\n",
                         BuildConfig::For(BuildPreset::kOurSeg), nullptr, &ok);
  ASSERT_TRUE(ok);
  DiagEngine ld;
  EXPECT_EQ(LinkBinaries({a->binary.get(), b->binary.get()}, &ld), nullptr);
  EXPECT_TRUE(ld.Contains("instrumentation config")) << ld.ToString();
}

TEST(Linker, SerializedModuleObjectsSurviveARoundTripAndStillLink) {
  // Module objects (with unresolved mod_imports / mod_call_sites / func
  // refs) must round-trip the v2 serialization byte-identically.
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  bool ok = false;
  auto provider =
      CompileObject("int half(int x) { return x / 2; }\n", config, nullptr, &ok);
  ASSERT_TRUE(ok);
  ModuleInterfaceSet set;
  {
    DiagEngine pd;
    auto ast = Parse(provider->source(), &pd);
    set.Add(ExtractModuleInterface(*ast, "provider", false));
  }
  auto consumer = CompileObject(
      "import \"provider\";\nint main() { return half(84); }\n", config, &set, &ok);
  ASSERT_TRUE(ok) << consumer->diags().ToString();
  EXPECT_EQ(consumer->binary->mod_imports.size(), 1u);
  EXPECT_EQ(consumer->binary->mod_call_sites.size(), 1u);

  const auto blob = SerializeBinary(*consumer->binary);
  Binary back;
  ASSERT_TRUE(DeserializeBinary(blob, &back));
  EXPECT_EQ(SerializeBinary(back), blob);

  DiagEngine ld;
  auto linked = LinkBinaries({provider->binary.get(), &back}, &ld);
  ASSERT_NE(linked, nullptr) << ld.ToString();
  auto prog = LoadBinary(std::move(*linked), config.load, &ld);
  ASSERT_NE(prog, nullptr) << ld.ToString();
  EXPECT_TRUE(Verify(*prog).ok);
}

TEST(Loader, RefusesUnlinkedModuleObjects) {
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  ModuleInterfaceSet set;
  {
    ModuleInterface mi;
    mi.module = "m";
    InterfaceFn f;
    f.name = "ext";
    f.ret.base = InterfaceType::Base::kInt;
    f.ret.quals = {Qual::kPublic};
    mi.functions.push_back(std::move(f));
    set.Add(std::move(mi));
  }
  bool ok = false;
  auto obj = CompileObject("import \"m\";\nint main() { return ext(); }\n",
                           config, &set, &ok);
  ASSERT_TRUE(ok) << obj->diags().ToString();
  DiagEngine ld;
  EXPECT_EQ(LoadBinary(std::move(*obj->binary), config.load, &ld), nullptr);
  EXPECT_TRUE(ld.Contains("unresolved module imports")) << ld.ToString();
}

// ---- satellite: job-count clamping ----

TEST(Jobs, NormalizeJobCountClampsZeroAndNegative) {
  EXPECT_EQ(NormalizeJobCount(4), 4u);
  std::string warn;
  const unsigned hw = NormalizeJobCount(0, &warn);
  EXPECT_GE(hw, 1u);
  EXPECT_FALSE(warn.empty());
  warn.clear();
  EXPECT_EQ(NormalizeJobCount(-3, &warn), hw);
  EXPECT_TRUE(warn.find("clamped") != std::string::npos);
  // A positive request passes through untouched, no warning.
  warn.clear();
  EXPECT_EQ(NormalizeJobCount(1, &warn), 1u);
  EXPECT_TRUE(warn.empty());
}

// ---- satellite: import syntax / sema edge cases ----

TEST(ImportSyntax, ErrorsAreDiagnosed) {
  const BuildConfig config = BuildConfig::For(BuildPreset::kOurMpx);
  {
    // Import without an interface set: sema names the missing module.
    DiagEngine d;
    CompilerInvocation inv("import \"ghost\";\nint main() { return 0; }\n", config);
    EXPECT_FALSE(PassManager::Object(config).Run(&inv));
    EXPECT_TRUE(inv.diags().Contains("unknown module 'ghost'"));
  }
  {
    // Defining a function that is also imported is a conflict.
    ModuleInterfaceSet set;
    ModuleInterface mi;
    mi.module = "m";
    InterfaceFn f;
    f.name = "dup";
    f.ret.base = InterfaceType::Base::kInt;
    f.ret.quals = {Qual::kPublic};
    mi.functions.push_back(std::move(f));
    set.Add(std::move(mi));
    DiagEngine d;
    CompilerInvocation inv(
        "import \"m\";\nint dup() { return 1; }\nint main() { return dup(); }\n",
        config);
    inv.set_interfaces(&set, 0);
    EXPECT_FALSE(PassManager::Object(config).Run(&inv));
    EXPECT_TRUE(inv.diags().Contains("conflicts with a function imported"));
  }
  {
    // Taking the address of an imported function is rejected (cross-module
    // function pointers would bypass the linker's contract check).
    ModuleInterfaceSet set;
    ModuleInterface mi;
    mi.module = "m";
    InterfaceFn f;
    f.name = "ext";
    f.ret.base = InterfaceType::Base::kInt;
    f.ret.quals = {Qual::kPublic};
    mi.functions.push_back(std::move(f));
    set.Add(std::move(mi));
    DiagEngine d;
    CompilerInvocation inv(
        "import \"m\";\nint main() { int (*p)() = ext; return 0; }\n", config);
    inv.set_interfaces(&set, 0);
    EXPECT_FALSE(PassManager::Object(config).Run(&inv));
    EXPECT_TRUE(inv.diags().Contains("cannot take address of module-imported"))
        << inv.diags().ToString();
  }
}

TEST(Interfaces, FingerprintTracksSignaturesNotBodies) {
  DiagEngine d;
  auto a1 = Parse("int f(private char *p, int n) { return n; }\n", &d);
  auto a2 = Parse("int f(private char *p, int n) { return n + 1; }\n", &d);
  auto a3 = Parse("int f(char *p, int n) { return n; }\n", &d);
  const auto i1 = ExtractModuleInterface(*a1, "m", false);
  const auto i2 = ExtractModuleInterface(*a2, "m", false);
  const auto i3 = ExtractModuleInterface(*a3, "m", false);
  EXPECT_EQ(i1.Fingerprint(), i2.Fingerprint());   // body change: same
  EXPECT_NE(i1.Fingerprint(), i3.Fingerprint());   // qualifier change: differs
  // All-private default flips unannotated levels.
  const auto i4 = ExtractModuleInterface(*a3, "m", true);
  EXPECT_NE(i3.Fingerprint(), i4.Fingerprint());
  // Struct-param functions are not exported.
  auto a5 = Parse("struct S { int a; };\nint g(struct S *s) { return 0; }\n"
                  "int h(int x) { return x; }\n", &d);
  const auto i5 = ExtractModuleInterface(*a5, "m", false);
  EXPECT_EQ(i5.Find("g"), nullptr);
  EXPECT_NE(i5.Find("h"), nullptr);
}

}  // namespace
}  // namespace confllvm
