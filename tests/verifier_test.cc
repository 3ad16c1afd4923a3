// ConfVerify tests: every binary ConfLLVM produces (full instrumentation)
// verifies; targeted mutations — dropped checks, flipped taints, retargeted
// stores, smuggled instructions, jumps into the middle of a check-and-access
// or CFI sequence — are rejected (paper §5.2: ConfVerify guards against
// compiler bugs; it caught real ones during development).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "bench/workloads.h"
#include "src/driver/confcc.h"
#include "src/support/rng.h"
#include "src/verifier/verifier.h"

namespace confllvm {
namespace {

const char* kPrograms[] = {
    // Simple arithmetic.
    "int main() { int s = 0; for (int i = 0; i < 8; i = i + 1) { s = s + i; } "
    "return s; }",
    // Private data + T calls + casts.
    R"(
    int send(int fd, char *buf, int n);
    void read_passwd(char *uname, private char *pass, int n);
    int encrypt(private char *pt, char *ct, int n);
    int main() {
      char uname[8];
      uname[0] = 'a'; uname[1] = 0;
      private char pw[32];
      read_passwd(uname, pw, 32);
      char out[32];
      encrypt(pw, out, 32);
      send(1, out, 32);
      return 0;
    })",
    // Indirect calls.
    R"(
    int f1(int x) { return x + 1; }
    int f2(int x) { return x + 2; }
    int main() {
      int (*f)(int) = f1;
      int a = f(1);
      f = f2;
      return a + f(1);
    })",
    // Private pointer chasing through the private heap.
    R"(
    struct node { private int *v; struct node *next; };
    private void *prv_malloc(int n);
    void *pub_malloc(int n);
    int deliver(private int sum) {
      private int hold[1];
      hold[0] = sum;
      return 3;
    }
    int main() {
      struct node *head = NULL;
      for (int i = 0; i < 5; i = i + 1) {
        struct node *n = (struct node*)pub_malloc(sizeof(struct node));
        n->v = (private int*)prv_malloc(sizeof(int));
        *(n->v) = i;
        n->next = head;
        head = n;
      }
      private int s = 0;
      struct node *it = head;
      while (it != NULL) {
        s = s + *(it->v);
        it = it->next;
      }
      return deliver(s);
    })",
};

class VerifierAccepts
    : public ::testing::TestWithParam<std::tuple<int, BuildPreset>> {};

INSTANTIATE_TEST_SUITE_P(
    Programs, VerifierAccepts,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(BuildPreset::kOurMpx, BuildPreset::kOurSeg)));

TEST_P(VerifierAccepts, CompilerOutputVerifies) {
  const auto [prog_idx, preset] = GetParam();
  DiagEngine diags;
  auto s = MakeSession(kPrograms[prog_idx], preset, &diags);
  ASSERT_NE(s, nullptr) << diags.ToString();
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_TRUE(r.ok) << r.ErrorText();
  EXPECT_GT(r.procedures, 0u);
}

std::unique_ptr<Session> BuildMpx(const char* src) {
  DiagEngine diags;
  auto s = MakeSession(src, BuildPreset::kOurMpx, &diags);
  EXPECT_NE(s, nullptr) << diags.ToString();
  return s;
}

// Re-decodes after mutating code words (mirrors what an attacker-supplied
// binary would look like).
void Redecode(LoadedProgram* prog) {
  prog->decoded.assign(prog->binary.code.size(), {});
  size_t idx = 0;
  while (idx < prog->binary.code.size()) {
    uint32_t consumed = 1;
    auto in = Decode(prog->binary.code, idx, &consumed);
    if (in.has_value()) {
      prog->decoded[idx] = {std::move(in), consumed};
      for (uint32_t k = 1; k < consumed; ++k) {
        prog->decoded[idx + k] = {std::nullopt, 1};
      }
      idx += consumed;
    } else {
      prog->decoded[idx] = {std::nullopt, 1};
      ++idx;
    }
  }
}

const char* kPrivateStoreProgram = R"(
    int deliver(private int x) {
      private int hold[1];
      private int *p = hold;
      *p = x;
      return 5;
    }
    int main() {
      private int v = 37;
      return deliver(v);
    })";

TEST(VerifierRejects, DroppedBoundsCheck) {
  auto s = BuildMpx(kPrivateStoreProgram);
  ASSERT_TRUE(Verify(*s->compiled->prog).ok);
  // Replace every bndcl/bndcu with nop and re-verify.
  Binary& bin = s->compiled->prog->binary;
  int dropped = 0;
  for (size_t w = 0; w < bin.code.size(); ++w) {
    uint32_t consumed = 1;
    auto mi = Decode(bin.code, w, &consumed);
    if (mi.has_value() &&
        (mi->op == Op::kBndclR || mi->op == Op::kBndcuR || mi->op == Op::kBndclM ||
         mi->op == Op::kBndcuM)) {
      std::vector<uint64_t> repl;
      MInstr nop{};
      nop.op = Op::kNop;
      Encode(nop, &repl);
      bin.code[w] = repl[0];
      ++dropped;
    }
    w += consumed - 1;
  }
  ASSERT_GT(dropped, 0);
  Redecode(s->compiled->prog.get());
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ErrorText().find("without a dominating bounds check"), std::string::npos)
      << r.ErrorText();
}

TEST(VerifierRejects, FlippedEntryTaintBits) {
  // The private value reaches deliver() from a private-returning call, so
  // the verifier's own dataflow sees r1 as H at the callsite; claiming the
  // parameter public in deliver's entry magic must then fail the call-taint
  // check.
  auto s = BuildMpx(R"(
    private int secret() { return 7; }
    int deliver(private int x) {
      private int hold[1];
      hold[0] = x;
      return 5;
    }
    int main() {
      return deliver(secret());
    })");
  ASSERT_TRUE(Verify(*s->compiled->prog).ok);
  Binary& bin = s->compiled->prog->binary;
  const int fi = bin.FunctionIndex("deliver");
  ASSERT_GE(fi, 0);
  const uint32_t magic_word = bin.functions[fi].entry_word - 1;
  uint64_t w = bin.code[magic_word];
  ASSERT_TRUE(HasMagicShape(w));
  bin.code[magic_word] = MakeMagicWord(MagicPrefixOf(w), MagicTaintsOf(w) & ~1u);
  Redecode(s->compiled->prog.get());
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok) << "flipped taint bits must not verify";
  EXPECT_NE(r.ErrorText().find("taint exceeds"), std::string::npos) << r.ErrorText();
}

TEST(VerifierRejects, RetargetedStoreToPublicRegion) {
  auto s = BuildMpx(kPrivateStoreProgram);
  Binary& bin = s->compiled->prog->binary;
  // Flip every private-region (bnd1) check to bnd0: the private store now
  // claims a public region — a classic leak-the-secret rewrite.
  int flipped = 0;
  for (size_t w = 0; w < bin.code.size(); ++w) {
    uint32_t consumed = 1;
    auto mi = Decode(bin.code, w, &consumed);
    if (mi.has_value() && mi->bnd == 1 &&
        (mi->op == Op::kBndclR || mi->op == Op::kBndcuR || mi->op == Op::kBndclM ||
         mi->op == Op::kBndcuM)) {
      MInstr m = *mi;
      m.bnd = 0;
      std::vector<uint64_t> repl;
      Encode(m, &repl);
      bin.code[w] = repl[0];
      ++flipped;
    }
    w += consumed - 1;
  }
  ASSERT_GT(flipped, 0);
  Redecode(s->compiled->prog.get());
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ErrorText().find("private value stored to public"), std::string::npos)
      << r.ErrorText();
}

TEST(VerifierRejects, PlainRetSmuggledIn) {
  auto s = BuildMpx("int main() { return 1; }");
  Binary& bin = s->compiled->prog->binary;
  // Overwrite the CFI return sequence's first instruction with a plain ret.
  bool patched = false;
  for (size_t w = 0; w < bin.code.size() && !patched; ++w) {
    uint32_t consumed = 1;
    auto mi = Decode(bin.code, w, &consumed);
    if (mi.has_value() && mi->op == Op::kJmpReg) {
      MInstr r{};
      r.op = Op::kRet;
      std::vector<uint64_t> repl;
      Encode(r, &repl);
      bin.code[w] = repl[0];
      patched = true;
    }
    if (mi.has_value()) {
      w += consumed - 1;
    }
  }
  ASSERT_TRUE(patched);
  Redecode(s->compiled->prog.get());
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ErrorText().find("plain ret"), std::string::npos) << r.ErrorText();
}

TEST(VerifierRejects, UninstrumentedBinary) {
  DiagEngine diags;
  auto s = MakeSession("int main() { return 1; }", BuildPreset::kBase, &diags);
  ASSERT_NE(s, nullptr);
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok);
}

TEST(VerifierRejects, BranchOnPrivateValue) {
  // Hand-mutate: replace a public-branch condition with a private register.
  // Build a program where r0 after a private-returning call feeds a branch.
  auto s = BuildMpx(R"(
    private int secret() { return 99; }
    int deliver(private int x) { private int h[1]; h[0] = x; return 4; }
    int main() {
      private int v = secret();
      return deliver(v);
    })");
  Binary& bin = s->compiled->prog->binary;
  // In main, after `call secret` the return register r0 is private. Insert
  // a jnz on r0 by replacing the mov that consumes it.
  bool patched = false;
  for (size_t w = 0; w < bin.code.size() && !patched; ++w) {
    uint32_t consumed = 1;
    auto mi = Decode(bin.code, w, &consumed);
    if (mi.has_value() && mi->op == Op::kMov && mi->rs1 == kRegRet) {
      MInstr j{};
      j.op = Op::kJnz;
      j.rd = kRegRet;
      j.imm = static_cast<int32_t>(w);  // self-loop target: in-procedure
      std::vector<uint64_t> repl;
      Encode(j, &repl);
      bin.code[w] = repl[0];
      patched = true;
    }
    if (mi.has_value()) {
      w += consumed - 1;
    }
  }
  ASSERT_TRUE(patched);
  Redecode(s->compiled->prog.get());
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ErrorText().find("branch on a private value"), std::string::npos)
      << r.ErrorText();
}

// ---- direct jumps into the middle of a guarded sequence ----

// One decoded instruction of a binary's code, with the procedure it sits in
// (procedures are numbered by the MCall magic words that precede them).
struct CodeInstr {
  uint32_t word;
  int proc;
  MInstr mi;
};

std::vector<CodeInstr> Disassemble(const LoadedProgram& prog) {
  const Binary& bin = prog.binary;
  const uint32_t end = std::min<uint32_t>(
      static_cast<uint32_t>(bin.code.size()),
      std::min(prog.exit_stub_word[0], prog.exit_stub_word[1]));
  std::vector<CodeInstr> out;
  int proc = -1;
  for (uint32_t w = 0; w < end;) {
    const uint64_t v = bin.code[w];
    if (HasMagicShape(v) && MagicPrefixOf(v) == bin.magic_call_prefix) {
      ++proc;
    }
    uint32_t consumed = 1;
    auto mi = Decode(bin.code, w, &consumed);
    if (mi.has_value()) {
      out.push_back({w, proc, *mi});
    }
    w += consumed;
  }
  return out;
}

bool IsDirectJump(const MInstr& mi) {
  return mi.op == Op::kJmp || mi.op == Op::kJnz || mi.op == Op::kJz;
}

bool IsMpxPointerAccess(const MInstr& mi) {
  return (mi.op == Op::kLoad || mi.op == Op::kStore || mi.op == Op::kFLoad ||
          mi.op == Op::kFStore) &&
         mi.mem.seg == Seg::kNone && mi.mem.base != kRegSp;
}

// Rewrites `jump` as `jmp site` in place.
void RetargetAsJmp(Binary* bin, const CodeInstr& jump, const CodeInstr& site) {
  MInstr j = jump.mi;
  j.op = Op::kJmp;
  j.imm = static_cast<int32_t>(site.word);
  std::vector<uint64_t> repl;
  Encode(j, &repl);
  bin->code[jump.word] = repl[0];
}

// Retargets the first direct jump that shares a procedure with an
// instruction matching `is_site` onto that instruction. Returns false when
// no procedure has both.
bool RetargetFirstJumpOnto(LoadedProgram* prog,
                           const std::function<bool(const MInstr&)>& is_site) {
  const std::vector<CodeInstr> code = Disassemble(*prog);
  for (const CodeInstr& site : code) {
    if (!is_site(site.mi)) {
      continue;
    }
    for (const CodeInstr& jump : code) {
      if (jump.proc == site.proc && IsDirectJump(jump.mi)) {
        RetargetAsJmp(&prog->binary, jump, site);
        Redecode(prog);
        return true;
      }
    }
  }
  return false;
}

TEST(VerifierRejects, JumpIntoGuardedAccess) {
  // The loop's jumps share main with the bounds-checked heap accesses; a
  // jump straight onto an access skips its bndcl/bndcu pair, even though
  // the pair still sits right before it in layout.
  auto s = BuildMpx(R"(
    void *pub_malloc(int n);
    int main() {
      int *h = (int*)pub_malloc(8 * sizeof(int));
      int sum = 0;
      for (int i = 0; i < 8; i = i + 1) { h[i] = i; sum = sum + h[i]; }
      return sum;
    })");
  ASSERT_TRUE(Verify(*s->compiled->prog).ok);
  ASSERT_TRUE(RetargetFirstJumpOnto(s->compiled->prog.get(), IsMpxPointerAccess));
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ErrorText().find("without a dominating bounds check"), std::string::npos)
      << r.ErrorText();
}

TEST(VerifierRejects, JumpOntoCfiReturnJmpReg) {
  // Landing on the jmpreg skips the pop / loadcode / compare of the CFI
  // return sequence: an arbitrary return address would be taken unchecked.
  auto s = BuildMpx(kPrograms[0]);
  ASSERT_TRUE(Verify(*s->compiled->prog).ok);
  ASSERT_TRUE(RetargetFirstJumpOnto(s->compiled->prog.get(), [](const MInstr& mi) {
    return mi.op == Op::kJmpReg;
  }));
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ErrorText().find("outside the CFI return pattern"), std::string::npos)
      << r.ErrorText();
}

TEST(VerifierRejects, JumpOntoGuardedIcall) {
  // Landing on the icall skips its MCall-magic check.
  auto s = BuildMpx(R"(
    int f1(int x) { return x + 1; }
    int main() {
      int (*f)(int) = f1;
      int sum = 0;
      for (int i = 0; i < 4; i = i + 1) { sum = sum + f(i); }
      return sum;
    })");
  ASSERT_TRUE(Verify(*s->compiled->prog).ok);
  ASSERT_TRUE(RetargetFirstJumpOnto(s->compiled->prog.get(), [](const MInstr& mi) {
    return mi.op == Op::kICall;
  }));
  VerifyResult r = Verify(*s->compiled->prog);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.ErrorText().find("without a magic-sequence check"), std::string::npos)
      << r.ErrorText();
}

// ---- CFI checks bound to the register they check ----

// Rewrites the one-word `site` to jump or call through register `reg`.
void RewriteTargetReg(Binary* bin, const CodeInstr& site, uint8_t reg) {
  MInstr mi = site.mi;
  mi.rs1 = reg;
  std::vector<uint64_t> repl;
  Encode(mi, &repl);
  bin->code[site.word] = repl[0];
}

// Rewrites every `op` in `prog` to each of the other 15 integer registers in
// turn and counts the rewrites ConfVerify accepts; `rewrites` receives how
// many were tried.
size_t AcceptedRegisterRewrites(LoadedProgram* prog, Op op, size_t* rewrites) {
  size_t accepted = 0;
  for (const CodeInstr& site : Disassemble(*prog)) {
    if (site.mi.op != op) {
      continue;
    }
    const uint64_t saved = prog->binary.code[site.word];
    for (uint8_t reg = 0; reg < kNumIntRegs; ++reg) {
      if (reg == site.mi.rs1) {
        continue;
      }
      RewriteTargetReg(&prog->binary, site, reg);
      const VerifyResult r = Verify(*prog);
      if (r.ok) {
        ++accepted;
        ADD_FAILURE() << OpName(op) << " at word " << site.word
                      << " rewritten to r" << int{reg} << " was accepted";
      }
      ++*rewrites;
    }
    prog->binary.code[site.word] = saved;
  }
  return accepted;
}

TEST(VerifierRejects, CfiReturnThroughOtherRegister) {
  // A return must jump through the register its CFI check popped and
  // compared: the same sequence ending in `jmpreg r5` returns to an address
  // nobody checked.
  for (const BuildPreset preset : {BuildPreset::kOurMpx, BuildPreset::kOurSeg}) {
    DiagEngine diags;
    auto cp = Compile(kPrograms[2], BuildConfig::For(preset), &diags);
    ASSERT_NE(cp, nullptr) << diags.ToString();
    ASSERT_TRUE(Verify(*cp->prog).ok);
    size_t rewrites = 0;
    EXPECT_EQ(AcceptedRegisterRewrites(cp->prog.get(), Op::kJmpReg, &rewrites), 0u);
    EXPECT_EQ(rewrites, 3u * 15u);  // f1, f2 and main each return once
  }
}

TEST(VerifierRejects, IndirectCallThroughUncheckedRegister) {
  // An icall must call through the register whose MCall magic its check
  // compared (or the one pushed before the check and popped after it).
  for (const BuildPreset preset : {BuildPreset::kOurMpx, BuildPreset::kOurSeg}) {
    DiagEngine diags;
    auto cp = Compile(kPrograms[2], BuildConfig::For(preset), &diags);
    ASSERT_NE(cp, nullptr) << diags.ToString();
    ASSERT_TRUE(Verify(*cp->prog).ok);
    size_t rewrites = 0;
    EXPECT_EQ(AcceptedRegisterRewrites(cp->prog.get(), Op::kICall, &rewrites), 0u);
    EXPECT_EQ(rewrites, 2u * 15u);  // main calls through f twice
  }
}

// The benchmark workloads' sources: SPEC kernels, the four apps and the
// serve kernels.
std::vector<std::pair<std::string, const char*>> WorkloadSources() {
  namespace wl = workloads;
  std::vector<std::pair<std::string, const char*>> out;
  for (int k = 0; k < wl::kNumSpecKernels; ++k) {
    out.push_back({wl::kSpecKernels[k].name, wl::kSpecKernels[k].source});
  }
  out.push_back({"nginx", wl::kNginx});
  out.push_back({"ldap", wl::kLdap});
  out.push_back({"privado", wl::kPrivado});
  out.push_back({"merkle", wl::kMerkle});
  for (int k = 0; k < wl::kNumServeKernels; ++k) {
    out.push_back({wl::kServeKernels[k].name, wl::kServeKernels[k].source});
  }
  return out;
}

TEST(VerifierRejects, SeededRetargetLadderOverWorkloads) {
  // Every workload compiles to a verifying binary under both bounds
  // schemes; every seeded rewrite of one of its direct jumps into `jmp` onto
  // an MPX pointer access, a jmpreg or an icall of the same procedure, and
  // every rewrite of a jmpreg or icall to another register, must then be
  // rejected.
  constexpr int kRetargetsPerOutput = 24;
  Rng rng(0xc0ffee14);
  size_t outputs = 0;
  size_t retargets = 0;
  size_t reg_rewrites = 0;
  for (const auto& [name, src] : WorkloadSources()) {
    for (const BuildPreset preset : {BuildPreset::kOurMpx, BuildPreset::kOurSeg}) {
      SCOPED_TRACE(name + "/" + PresetName(preset));
      DiagEngine diags;
      auto cp = Compile(src, BuildConfig::For(preset), &diags);
      ASSERT_NE(cp, nullptr) << diags.ToString();
      LoadedProgram& prog = *cp->prog;
      const VerifyResult pristine = Verify(prog);
      ASSERT_TRUE(pristine.ok) << pristine.ErrorText();
      ++outputs;

      const std::vector<CodeInstr> code = Disassemble(prog);
      std::vector<size_t> sites;
      for (size_t i = 0; i < code.size(); ++i) {
        const MInstr& mi = code[i].mi;
        if (IsMpxPointerAccess(mi) || mi.op == Op::kJmpReg || mi.op == Op::kICall) {
          sites.push_back(i);
        }
      }
      ASSERT_FALSE(sites.empty());
      for (int n = 0; n < kRetargetsPerOutput; ++n) {
        const CodeInstr& site = code[sites[rng.Below(sites.size())]];
        std::vector<size_t> jumps;
        for (size_t i = 0; i < code.size(); ++i) {
          if (code[i].proc == site.proc && IsDirectJump(code[i].mi)) {
            jumps.push_back(i);
          }
        }
        if (jumps.empty()) {
          continue;
        }
        const CodeInstr& jump = code[jumps[rng.Below(jumps.size())]];
        const uint64_t saved = prog.binary.code[jump.word];
        RetargetAsJmp(&prog.binary, jump, site);
        const VerifyResult r = Verify(prog);
        EXPECT_FALSE(r.ok) << "jump at word " << jump.word << " onto "
                           << OpName(site.mi.op) << " at word " << site.word
                           << " was accepted";
        prog.binary.code[jump.word] = saved;
        ++retargets;
      }
      // And every jmpreg / icall rewritten to each other register.
      EXPECT_EQ(AcceptedRegisterRewrites(&prog, Op::kJmpReg, &reg_rewrites), 0u);
      EXPECT_EQ(AcceptedRegisterRewrites(&prog, Op::kICall, &reg_rewrites), 0u);
    }
  }
  EXPECT_GE(retargets, outputs * kRetargetsPerOutput / 2);
  EXPECT_GE(reg_rewrites, outputs * 15);
}

}  // namespace
}  // namespace confllvm
