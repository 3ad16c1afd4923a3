#include "src/verifier/verifier.h"

#include <algorithm>
#include <optional>

#include "src/isa/layout.h"
#include "src/support/strings.h"

namespace confllvm {

namespace {

enum class T : uint8_t { kL = 0, kH = 1 };  // public / private

T Join(T a, T b) { return a == T::kH || b == T::kH ? T::kH : T::kL; }
bool Le(T a, T b) { return a == T::kL || b == T::kH; }

struct RegState {
  T r[kNumIntRegs];
  T f[kNumFloatRegs];

  static RegState Entry(uint8_t magic_taints) {
    RegState s;
    for (int i = 0; i < kNumIntRegs; ++i) {
      s.r[i] = T::kH;  // dead registers conservatively private (paper §4)
    }
    for (T& ft : s.f) {
      ft = T::kH;
    }
    for (int i = 0; i < 4; ++i) {
      s.r[kRegArg0 + i] = ((magic_taints >> i) & 1) != 0 ? T::kH : T::kL;
    }
    for (uint8_t cs : kCalleeSavedRegs) {
      s.r[cs] = T::kL;  // callee-saved forced public (paper §4)
    }
    s.r[kRegSp] = T::kL;
    return s;
  }

  bool MergeFrom(const RegState& o) {
    bool changed = false;
    for (int i = 0; i < kNumIntRegs; ++i) {
      const T j = Join(r[i], o.r[i]);
      if (j != r[i]) {
        r[i] = j;
        changed = true;
      }
    }
    for (int i = 0; i < kNumFloatRegs; ++i) {
      const T j = Join(f[i], o.f[i]);
      if (j != f[i]) {
        f[i] = j;
        changed = true;
      }
    }
    return changed;
  }
};

struct ProcInstr {
  uint32_t word = 0;   // absolute code word index
  MInstr mi;
  bool is_ret_site_magic = false;  // the MRet word after a call
  uint8_t site_taints = 0;
};

// A procedure is a contiguous run of the flat instruction array.
struct Proc {
  uint32_t entry_word = 0;
  uint32_t end_word = 0;  // one past the last word
  uint32_t first = 0;     // index of the entry instruction in instrs_
  uint32_t size = 0;      // number of instructions
  uint8_t magic_taints = 0;
  bool has_chkstk = false;
};

// All tables are dense and index-addressed: words map to instructions
// through one vector over the code, and per-procedure facts (leaders,
// direct-jump targets, block in-states) live in scratch vectors indexed by
// the instruction's position in its procedure, reused across procedures.
class VerifierImpl {
 public:
  explicit VerifierImpl(const LoadedProgram& prog) : prog_(prog), bin_(prog.binary) {}

  VerifyResult Run() {
    if (!bin_.cfi || bin_.scheme == Scheme::kNone) {
      Err(0, "binary lacks full ConfLLVM instrumentation (CFI + bounds scheme)");
      return Finish();
    }
    DiscoverProcedures();
    if (!result_.errors.empty()) {
      return Finish();
    }
    CheckMagicUniqueness();
    for (const Proc& p : procs_) {
      CheckProcedure(p);
    }
    return Finish();
  }

 private:
  VerifyResult Finish() {
    result_.ok = result_.errors.empty();
    result_.procedures = procs_.size();
    return result_;
  }

  void Err(uint32_t word, const std::string& msg) {
    result_.errors.push_back(StrFormat("word %u: %s", word, msg.c_str()));
  }

  bool IsCallMagic(uint64_t w) const {
    return HasMagicShape(w) && MagicPrefixOf(w) == bin_.magic_call_prefix;
  }
  bool IsRetMagic(uint64_t w) const {
    return HasMagicShape(w) && MagicPrefixOf(w) == bin_.magic_ret_prefix;
  }

  // ---- stage 1: discovery & disassembly ----

  void DiscoverProcedures() {
    // Procedure entries are the words following MCall magic values. The
    // exit stubs appended by the loader live after all procedures; we stop
    // each procedure at the next MCall magic or at an exit stub.
    const uint32_t code_size = static_cast<uint32_t>(bin_.code.size());
    std::vector<uint32_t> entries;
    for (uint32_t w = 0; w < code_size; ++w) {
      if (IsCallMagic(bin_.code[w])) {
        entries.push_back(w + 1);
      }
    }
    if (entries.empty()) {
      Err(0, "no procedures found (no MCall magic)");
      return;
    }
    const uint32_t code_end = std::min<uint32_t>(
        code_size, std::min(prog_.exit_stub_word[0], prog_.exit_stub_word[1]));
    index_of_word_.assign(code_size, -1);
    instrs_.reserve(code_size);
    procs_.reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      Proc p;
      p.entry_word = entries[i];
      p.magic_taints = MagicTaintsOf(bin_.code[entries[i] - 1]);
      p.end_word = i + 1 < entries.size() ? entries[i + 1] - 1 : code_end;
      p.first = static_cast<uint32_t>(instrs_.size());
      uint32_t w = p.entry_word;
      while (w < p.end_word) {
        index_of_word_[w] = static_cast<int32_t>(instrs_.size() - p.first);
        ProcInstr& pi = instrs_.emplace_back();
        pi.word = w;
        if (IsRetMagic(bin_.code[w])) {
          // Valid return site (must immediately follow a call; checked in
          // the dataflow stage).
          pi.is_ret_site_magic = true;
          pi.site_taints = MagicTaintsOf(bin_.code[w]);
          ++w;
          continue;
        }
        uint32_t consumed = 1;
        auto mi = Decode(bin_.code, w, &consumed);
        if (!mi.has_value()) {
          Err(w, "disassembly failed inside procedure");
          return;
        }
        pi.mi = *mi;
        if (mi->op == Op::kChkstk) {
          p.has_chkstk = true;
        }
        w += consumed;
      }
      p.size = static_cast<uint32_t>(instrs_.size()) - p.first;
      procs_.push_back(p);
    }
  }

  void CheckMagicUniqueness() {
    // Every magic-prefixed word must be a procedure-entry MCall, a decoded
    // MRet return site, or a loader exit stub. Anything else means the
    // prefix also appears as data — the assumption of §4 is violated.
    std::vector<uint8_t> legit(bin_.code.size(), 0);
    for (const Proc& p : procs_) {
      legit[p.entry_word - 1] = 1;
    }
    for (const ProcInstr& pi : instrs_) {
      if (pi.is_ret_site_magic) {
        legit[pi.word] = 1;
      }
    }
    for (const uint32_t stub : prog_.exit_stub_word) {
      if (stub < legit.size()) {
        legit[stub] = 1;
      }
    }
    for (uint32_t w = 0; w < bin_.code.size(); ++w) {
      const uint64_t v = bin_.code[w];
      if ((IsCallMagic(v) || IsRetMagic(v)) && legit[w] == 0) {
        Err(w, "magic prefix appears outside a legitimate site");
      }
    }
  }

  // ---- stage 2: per-procedure dataflow & checks ----

  // Index of the instruction starting at `word` within the current
  // procedure, or -1 when the word is outside it or not an instruction
  // start.
  int32_t IndexOf(uint32_t word) const {
    if (word < proc_->entry_word || word >= proc_->end_word) {
      return -1;
    }
    return index_of_word_[word];
  }

  void CheckProcedure(const Proc& p) {
    proc_ = &p;
    ins_ = instrs_.data() + p.first;
    const size_t n = p.size;
    if (n == 0) {
      Err(p.entry_word, "control can fall off the end of the procedure");
      return;
    }
    // Block leaders: entry + jump targets + instruction after any branch,
    // call return-site, or terminator. Direct-jump targets are kept apart:
    // they bound the backward guard and CFI-pattern scans.
    leader_.assign(n, 0);
    jump_target_.assign(n, 0);
    leader_[0] = 1;
    for (size_t i = 0; i < n; ++i) {
      const ProcInstr& pi = ins_[i];
      if (pi.is_ret_site_magic) {
        continue;
      }
      const Op op = pi.mi.op;
      if (op == Op::kJmp || op == Op::kJnz || op == Op::kJz) {
        const int32_t target = IndexOf(static_cast<uint32_t>(pi.mi.imm));
        if (target < 0) {
          Err(pi.word, "jump target outside the procedure");
          return;
        }
        leader_[target] = 1;
        jump_target_[target] = 1;
        if (i + 1 < n) {
          leader_[i + 1] = 1;
        }
      }
      if (op == Op::kRet) {
        Err(pi.word, "plain ret in U (must use the CFI return sequence)");
        return;
      }
    }

    // Worklist dataflow across blocks.
    in_state_.resize(n);
    has_state_.assign(n, 0);
    in_state_[0] = RegState::Entry(p.magic_taints);
    has_state_[0] = 1;
    work_.assign(1, 0);
    while (!work_.empty()) {
      const size_t leader = work_.back();
      work_.pop_back();
      RegState s = in_state_[leader];
      size_t i = leader;
      bool fell_off = true;
      while (i < n) {
        if (i != leader && leader_[i] != 0) {
          // Fall into the next block.
          Propagate(i, s);
          fell_off = false;
          break;
        }
        int next_delta = 1;
        const bool cont = Transfer(i, &s, &next_delta);
        if (!cont) {
          fell_off = false;
          break;
        }
        i += next_delta;
      }
      if (fell_off && i >= n) {
        Err(p.entry_word, "control can fall off the end of the procedure");
        return;
      }
      // Revisit logic handled inside Propagate (monotone merge).
      if (result_.errors.size() > 64) {
        return;  // avoid error floods
      }
    }
    result_.instructions += n;
  }

  void Propagate(size_t leader, const RegState& s) {
    if (has_state_[leader] == 0) {
      in_state_[leader] = s;
      has_state_[leader] = 1;
      work_.push_back(static_cast<uint32_t>(leader));
    } else if (in_state_[leader].MergeFrom(s)) {
      work_.push_back(static_cast<uint32_t>(leader));
    }
  }

  // Returns the taint/region of a memory operand if the access is properly
  // guarded at instruction index i, or nullopt with an error.
  std::optional<T> GuardedRegion(size_t i, const MInstr& mi) {
    const MemOperand& m = mi.mem;
    if (bin_.scheme == Scheme::kSeg) {
      if (m.seg == Seg::kNone) {
        Err(ins_[i].word, "segment-scheme access without fs/gs prefix");
        return std::nullopt;
      }
      return m.seg == Seg::kGs ? T::kH : T::kL;
    }
    // MPX scheme.
    if (m.seg != Seg::kNone) {
      Err(ins_[i].word, "unexpected segment prefix under MPX scheme");
      return std::nullopt;
    }
    if (m.base == kRegSp) {
      // Stack access: sound only under chkstk, with the displacement inside
      // a guard band of the public frame or the OFFSET-shifted private one.
      if (!proc_->has_chkstk) {
        Err(ins_[i].word, "unchecked stack access without chkstk");
        return std::nullopt;
      }
      const int64_t d = m.disp;
      if (d >= 0 && d < static_cast<int64_t>(kMpxGuardDispLimit)) {
        return T::kL;
      }
      if (!bin_.separate_stacks &&
          d >= -static_cast<int64_t>(kMpxGuardDispLimit) &&
          d < static_cast<int64_t>(kMpxGuardDispLimit)) {
        return T::kL;
      }
      if (d >= static_cast<int64_t>(kMpxStackOffset) &&
          d < static_cast<int64_t>(kMpxStackOffset + kMpxGuardDispLimit)) {
        return T::kH;
      }
      Err(ins_[i].word, "stack displacement outside guard bands");
      return std::nullopt;
    }
    // Pointer access: find a dominating bndcl/bndcu pair in this block with
    // no intervening call and no redefinition of base/index.
    int bnd = -1;
    bool saw_lower = false;
    bool saw_upper = false;
    for (size_t k = i; k-- > 0;) {
      // A direct-jump target between the check and the access (or at the
      // access itself) lets control skip the check.
      if (jump_target_[k + 1] != 0) {
        break;
      }
      const ProcInstr& prev = ins_[k];
      if (prev.is_ret_site_magic) {
        break;  // a call site ends the window
      }
      const Op op = prev.mi.op;
      if (op == Op::kCall || op == Op::kICall || op == Op::kCallExt) {
        break;
      }
      // A redefinition of the base (or index) register kills prior checks.
      if (WritesReg(prev.mi, m.base) ||
          (m.index != kNoMReg && WritesReg(prev.mi, m.index))) {
        break;
      }
      const bool reg_form = (op == Op::kBndclR || op == Op::kBndcuR) &&
                            prev.mi.rs1 == m.base && m.index == kNoMReg &&
                            std::llabs(m.disp) <
                                static_cast<long long>(kMpxGuardDispLimit);
      const bool mem_form = (op == Op::kBndclM || op == Op::kBndcuM) &&
                            prev.mi.mem.base == m.base &&
                            prev.mi.mem.index == m.index &&
                            prev.mi.mem.disp == m.disp &&
                            prev.mi.mem.scale_log2 == m.scale_log2;
      if (reg_form || mem_form) {
        if (bnd == -1) {
          bnd = prev.mi.bnd;
        }
        if (prev.mi.bnd == bnd) {
          saw_lower = saw_lower || op == Op::kBndclR || op == Op::kBndclM;
          saw_upper = saw_upper || op == Op::kBndcuR || op == Op::kBndcuM;
        }
        if (saw_lower && saw_upper) {
          return bnd == 1 ? T::kH : T::kL;
        }
      }
      // Block boundary: stop at branches and terminators (the emitter
      // always keeps check and access in one block).
      if (op == Op::kJmp || op == Op::kJnz || op == Op::kJz || op == Op::kJmpReg ||
          op == Op::kTrap || op == Op::kHalt) {
        break;
      }
    }
    Err(ins_[i].word, "memory access without a dominating bounds check");
    return std::nullopt;
  }

  // ct binaries: a memory access whose effective address involves a private
  // register leaks the secret through the cache side channel, independently
  // of what is loaded/stored. (rsp is forced public at every entry, so
  // stack traffic always passes.)
  bool CtAddrPublic(const ProcInstr& pi, const MInstr& mi, const RegState& s) {
    if (!bin_.ct) {
      return true;
    }
    if (mi.mem.base != kNoMReg && !Le(s.r[mi.mem.base], T::kL)) {
      Err(pi.word, "ct: memory address depends on a private value");
      return false;
    }
    if (mi.mem.index != kNoMReg && !Le(s.r[mi.mem.index], T::kL)) {
      Err(pi.word, "ct: memory address depends on a private value");
      return false;
    }
    return true;
  }

  static bool WritesReg(const MInstr& mi, uint8_t reg) {
    switch (mi.op) {
      case Op::kStore:
      case Op::kFStore:
      case Op::kPush:
      case Op::kJnz:
      case Op::kJz:
      case Op::kJmp:
      case Op::kJmpReg:
      case Op::kCall:
      case Op::kICall:
      case Op::kCallExt:
      case Op::kBndclR:
      case Op::kBndcuR:
      case Op::kBndclM:
      case Op::kBndcuM:
      case Op::kTrap:
      case Op::kChkstk:
      case Op::kHalt:
      case Op::kNop:
      case Op::kRet:
        return false;
      case Op::kFAdd:
      case Op::kFSub:
      case Op::kFMul:
      case Op::kFDiv:
      case Op::kFNeg:
      case Op::kFMov:
      case Op::kFLoad:
      case Op::kCvtIF:
      case Op::kMovIF:
        return false;  // float destination
      default:
        return mi.rd == reg;
    }
  }

  // Transfer function for one instruction; updates s, pushes successor
  // blocks. Returns false if control does not continue to i+delta.
  bool Transfer(size_t i, RegState* s, int* next_delta) {
    const ProcInstr& pi = ins_[i];
    if (pi.is_ret_site_magic) {
      Err(pi.word, "return-site magic not immediately after a call");
      return false;
    }
    const MInstr& mi = pi.mi;
    auto& r = s->r;
    switch (mi.op) {
      case Op::kMovImm:
      case Op::kMovImm64:
        r[mi.rd] = T::kL;
        return true;
      case Op::kMov:
      case Op::kNeg:
      case Op::kNot:
        r[mi.rd] = r[mi.rs1];
        return true;
      case Op::kDiv:
      case Op::kRem:
        // ct: a private divisor leaks through the divide-by-zero fault (and,
        // on real hardware, through data-dependent latency).
        if (bin_.ct && !Le(r[mi.rs2], T::kL)) {
          Err(pi.word, "ct: division by a private divisor");
          return false;
        }
        r[mi.rd] = Join(r[mi.rs1], r[mi.rs2]);
        return true;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
      case Op::kShl:
      case Op::kShr:
      case Op::kCmp:
        r[mi.rd] = Join(r[mi.rs1], r[mi.rs2]);
        return true;
      case Op::kSelect:
        // Destructive select reads rd, rs1 (mask), and rs2; the result may
        // reveal any of them. A private mask is the whole point in ct mode —
        // the select itself is data flow, not control flow.
        r[mi.rd] = Join(r[mi.rd], Join(r[mi.rs1], r[mi.rs2]));
        return true;
      case Op::kAddImm:
        r[mi.rd] = r[mi.rs1];
        return true;
      case Op::kLea: {
        T t = T::kL;
        if (mi.mem.base != kNoMReg) {
          t = Join(t, r[mi.mem.base]);
        }
        if (mi.mem.index != kNoMReg) {
          t = Join(t, r[mi.mem.index]);
        }
        r[mi.rd] = t;
        return true;
      }
      case Op::kLoad: {
        if (!CtAddrPublic(pi, mi, *s)) {
          return false;
        }
        auto region = GuardedRegion(i, mi);
        if (!region.has_value()) {
          return false;
        }
        r[mi.rd] = *region;
        return true;
      }
      case Op::kStore: {
        if (!CtAddrPublic(pi, mi, *s)) {
          return false;
        }
        auto region = GuardedRegion(i, mi);
        if (!region.has_value()) {
          return false;
        }
        if (!Le(r[mi.rd], *region)) {
          Err(pi.word, "private value stored to public memory");
          return false;
        }
        return true;
      }
      case Op::kFLoad: {
        if (!CtAddrPublic(pi, mi, *s)) {
          return false;
        }
        auto region = GuardedRegion(i, mi);
        if (!region.has_value()) {
          return false;
        }
        s->f[mi.rd] = *region;
        return true;
      }
      case Op::kFStore: {
        if (!CtAddrPublic(pi, mi, *s)) {
          return false;
        }
        auto region = GuardedRegion(i, mi);
        if (!region.has_value()) {
          return false;
        }
        if (!Le(s->f[mi.rd], *region)) {
          Err(pi.word, "private float stored to public memory");
          return false;
        }
        return true;
      }
      case Op::kFAdd:
      case Op::kFSub:
      case Op::kFMul:
      case Op::kFDiv:
        s->f[mi.rd] = Join(s->f[mi.rs1], s->f[mi.rs2]);
        return true;
      case Op::kFNeg:
      case Op::kFMov:
        s->f[mi.rd] = s->f[mi.rs1];
        return true;
      case Op::kMovIF:
        s->f[mi.rd] = r[mi.rs1];
        return true;
      case Op::kFCmp:
        r[mi.rd] = Join(s->f[mi.rs1], s->f[mi.rs2]);
        return true;
      case Op::kCvtIF:
        s->f[mi.rd] = r[mi.rs1];
        return true;
      case Op::kCvtFI:
        r[mi.rd] = s->f[mi.rs1];
        return true;
      case Op::kPush:
        if (!Le(r[mi.rd], T::kL)) {
          Err(pi.word, "push of a private value onto the public stack");
          return false;
        }
        return true;
      case Op::kPop:
        r[mi.rd] = T::kL;
        return true;
      case Op::kJmp: {
        Propagate(IndexOf(static_cast<uint32_t>(mi.imm)), *s);
        return false;
      }
      case Op::kJnz:
      case Op::kJz: {
        if (!Le(r[mi.rd], T::kL)) {
          Err(pi.word, "branch on a private value (implicit flow)");
          return false;
        }
        Propagate(IndexOf(static_cast<uint32_t>(mi.imm)), *s);
        *next_delta = 1;
        return true;  // fall-through continues
      }
      case Op::kCall:
        return CheckDirectCall(i, s, next_delta);
      case Op::kICall:
        return CheckIndirectCall(i, s, next_delta);
      case Op::kCallExt:
        return CheckTrustedCall(i, s);
      case Op::kJmpReg:
        return CheckCfiReturn(i, s);
      case Op::kLoadCode:
        r[mi.rd] = T::kL;
        return true;
      case Op::kBndclR:
      case Op::kBndcuR:
      case Op::kBndclM:
      case Op::kBndcuM:
        return true;  // checks themselves; consumed by GuardedRegion scans
      case Op::kChkstk:
      case Op::kNop:
        return true;
      case Op::kTrap:
        return false;  // terminal
      case Op::kHalt:
        Err(pi.word, "halt instruction inside U");
        return false;
      case Op::kRet:
        Err(pi.word, "plain ret in U");
        return false;
      default:
        Err(pi.word, StrFormat("unsupported instruction '%s' in U", OpName(mi.op)));
        return false;
    }
  }

  bool CheckCallTaints(size_t i, const RegState& s, uint8_t callee_bits) {
    for (int a = 0; a < 4; ++a) {
      const T expected = ((callee_bits >> a) & 1) != 0 ? T::kH : T::kL;
      if (!Le(s.r[kRegArg0 + a], expected)) {
        Err(ins_[i].word,
            StrFormat("argument register r%d taint exceeds callee's expectation", a + 1));
        return false;
      }
    }
    return true;
  }

  void AfterCall(RegState* s, uint8_t ret_bit) {
    for (uint8_t reg = 0; reg <= 9; ++reg) {
      s->r[reg] = T::kH;  // caller-saved conservatively private (paper §5.2)
    }
    for (T& ft : s->f) {
      ft = T::kH;  // all float registers are caller-saved
    }
    s->r[kRegScratch0] = T::kH;
    s->r[kRegScratch1] = T::kH;
    for (uint8_t cs : kCalleeSavedRegs) {
      s->r[cs] = T::kL;  // callee-saved public by convention
    }
    s->r[kRegRet] = ret_bit != 0 ? T::kH : T::kL;
  }

  bool CheckDirectCall(size_t i, RegState* s, int* next_delta) {
    const MInstr& mi = ins_[i].mi;
    const uint32_t target = static_cast<uint32_t>(mi.imm);
    if (target == 0 || target > bin_.code.size() ||
        !IsCallMagic(bin_.code[target - 1])) {
      Err(ins_[i].word, "direct call target is not a procedure entry");
      return false;
    }
    const uint8_t callee_bits = MagicTaintsOf(bin_.code[target - 1]);
    if (!CheckCallTaints(i, *s, callee_bits)) {
      return false;
    }
    // The word after the call must be a valid MRet site whose bit matches
    // the callee's return taint.
    if (i + 1 >= proc_->size || !ins_[i + 1].is_ret_site_magic) {
      Err(ins_[i].word, "call not followed by a return-site magic");
      return false;
    }
    const uint8_t site_bit = ins_[i + 1].site_taints & 1;
    const uint8_t callee_ret = (callee_bits >> 4) & 1;
    if (site_bit != callee_ret) {
      Err(ins_[i].word, "return-site taint does not match callee return taint");
      return false;
    }
    AfterCall(s, site_bit);
    *next_delta = 2;  // skip the magic word
    return true;
  }

  bool CheckTrustedCall(size_t i, RegState* s) {
    const MInstr& mi = ins_[i].mi;
    const uint32_t idx = static_cast<uint32_t>(mi.imm);
    if (idx >= bin_.imports.size()) {
      Err(ins_[i].word, "trusted call to unknown import slot");
      return false;
    }
    const uint8_t bits = bin_.imports[idx].taint_bits;
    if (!CheckCallTaints(i, *s, bits)) {
      return false;
    }
    AfterCall(s, (bits >> 4) & 1);
    return true;
  }

  // True when ins_[first..last] is straight-line code that control can enter
  // only at `first`: no return-site magic inside it and no direct-jump
  // target after `first`.
  bool StraightLine(size_t first, size_t last) const {
    for (size_t k = first; k <= last; ++k) {
      if (ins_[k].is_ret_site_magic || (k > first && jump_target_[k] != 0)) {
        return false;
      }
    }
    return true;
  }

  // `jnz reg, trap`: the branch of a magic check.
  bool JnzToTrap(const MInstr& mi, uint8_t reg) const {
    if (mi.op != Op::kJnz || mi.rd != reg) {
      return false;
    }
    const int32_t t = IndexOf(static_cast<uint32_t>(mi.imm));
    return t >= 0 && ins_[t].mi.op == Op::kTrap;
  }

  // The check EmitICall places before every icall (paper §4):
  //   addimm rB, rT, -8 ; loadcode rB, rB ; movimm64 rA, ~magic ;
  //   not rA, rA ; cmp.ne rB, rB, rA ; jnz rB, trap ; icall rT
  // matched at fixed offsets, so the magic tested is the one before the
  // entry the icall jumps to. When the target sits in a register the check
  // overwrites, it is parked on the stack around the check:
  //   push rT ; addimm rB, rT, -8 ; ... ; jnz rB, trap ; pop rU ; icall rU
  // with rU == rT and none of rT, rA, rB the stack pointer (so the pop
  // reads back the pushed value).
  bool CheckIndirectCall(size_t i, RegState* s, int* next_delta) {
    const MInstr& icall = ins_[i].mi;
    const uint8_t rt = icall.rs1;
    if (!Le(s->r[rt], T::kL)) {
      Err(ins_[i].word, "indirect call through a private register");
      return false;
    }
    const bool spilled = i >= 1 && ins_[i - 1].mi.op == Op::kPop;
    const size_t len = spilled ? 8 : 6;  // instructions before the icall
    const size_t c = i - (spilled ? 7 : 6);  // the addimm
    bool match = i >= len && StraightLine(i - len, i);
    if (match) {
      const MInstr& addr = ins_[c].mi;
      const MInstr& lc = ins_[c + 1].mi;
      const MInstr& imm = ins_[c + 2].mi;
      const MInstr& nt = ins_[c + 3].mi;
      const MInstr& cmp = ins_[c + 4].mi;
      const uint8_t ra = imm.rd;
      const uint8_t rb = addr.rd;
      // The register the check reads and the one icall jumps through hold
      // the same value: one register the check leaves alone, or the one
      // pushed before the check and popped into icall's register after it.
      const bool same_target =
          spilled ? ins_[i - 8].mi.op == Op::kPush &&
                        ins_[i - 8].mi.rd == addr.rs1 &&
                        ins_[i - 1].mi.rd == rt && addr.rs1 != kRegSp &&
                        ra != kRegSp && rb != kRegSp
                  : addr.rs1 == rt && rt != ra && rt != rb;
      match = same_target && addr.op == Op::kAddImm && addr.imm == -8 &&
              lc.op == Op::kLoadCode && lc.rd == rb && lc.rs1 == rb &&
              imm.op == Op::kMovImm64 && nt.op == Op::kNot && nt.rd == ra &&
              nt.rs1 == ra && cmp.op == Op::kCmp && cmp.cc == Cond::kNe &&
              cmp.rd == rb && cmp.rs1 == rb && cmp.rs2 == ra && ra != rb &&
              JnzToTrap(ins_[c + 5].mi, rb);
    }
    if (!match) {
      Err(ins_[i].word, "indirect call without a magic-sequence check");
      return false;
    }
    const uint64_t expected = ~static_cast<uint64_t>(ins_[c + 2].mi.imm64);
    if (!IsCallMagic(expected)) {
      Err(ins_[i].word, "indirect-call check does not test an MCall magic");
      return false;
    }
    const uint8_t bits = MagicTaintsOf(expected);
    if (!CheckCallTaints(i, *s, bits)) {
      return false;
    }
    if (i + 1 >= proc_->size || !ins_[i + 1].is_ret_site_magic) {
      Err(ins_[i].word, "indirect call not followed by a return-site magic");
      return false;
    }
    const uint8_t site_bit = ins_[i + 1].site_taints & 1;
    if (site_bit != ((bits >> 4) & 1)) {
      Err(ins_[i].word, "return-site taint mismatch at indirect call");
      return false;
    }
    AfterCall(s, site_bit);
    *next_delta = 2;
    return true;
  }

  // The CFI return EmitRet emits (paper §4), matched at fixed offsets:
  //   pop rA ; movimm64 rB, ~(MRet|bit) ; not rB, rB ; loadcode rC, rA ;
  //   cmp.ne rC, rC, rB ; jnz rC, trap ; addimm rA, rA, 8 ; jmpreg rA
  // with rA, rB, rC distinct, so the address jumped to is the popped one,
  // past the MRet magic the check compared.
  bool CheckCfiReturn(size_t i, RegState* s) {
    const uint8_t ra = ins_[i].mi.rs1;
    bool match = i >= 7 && StraightLine(i - 7, i);
    if (match) {
      const MInstr& pop = ins_[i - 7].mi;
      const MInstr& imm = ins_[i - 6].mi;
      const MInstr& nt = ins_[i - 5].mi;
      const MInstr& lc = ins_[i - 4].mi;
      const MInstr& cmp = ins_[i - 3].mi;
      const MInstr& skip = ins_[i - 1].mi;
      const uint8_t rb = imm.rd;
      const uint8_t rc = lc.rd;
      match = pop.op == Op::kPop && pop.rd == ra && imm.op == Op::kMovImm64 &&
              nt.op == Op::kNot && nt.rd == rb && nt.rs1 == rb &&
              lc.op == Op::kLoadCode && lc.rs1 == ra && cmp.op == Op::kCmp &&
              cmp.cc == Cond::kNe && cmp.rd == rc && cmp.rs1 == rc &&
              cmp.rs2 == rb && JnzToTrap(ins_[i - 2].mi, rc) &&
              skip.op == Op::kAddImm && skip.rd == ra && skip.rs1 == ra &&
              skip.imm == 8 && ra != rb && ra != rc && rb != rc;
    }
    if (!match) {
      Err(ins_[i].word, "indirect jump outside the CFI return pattern");
      return false;
    }
    const uint64_t expected = ~static_cast<uint64_t>(ins_[i - 6].mi.imm64);
    if (!IsRetMagic(expected)) {
      Err(ins_[i].word, "return check does not test an MRet magic");
      return false;
    }
    const uint8_t bit = MagicTaintsOf(expected) & 1;
    const T declared = bit != 0 ? T::kH : T::kL;
    if (!Le(s->r[kRegRet], declared)) {
      Err(ins_[i].word, "return value taint exceeds the declared return taint");
      return false;
    }
    const uint8_t fn_ret = (proc_->magic_taints >> 4) & 1;
    if (bit != fn_ret) {
      Err(ins_[i].word, "return magic taint differs from the procedure's");
      return false;
    }
    return false;  // terminal
  }

  const LoadedProgram& prog_;
  const Binary& bin_;
  VerifyResult result_;
  std::vector<Proc> procs_;
  std::vector<ProcInstr> instrs_;      // every procedure's, in layout order
  std::vector<int32_t> index_of_word_;  // word -> index in its procedure, or -1
  // Scratch for the procedure being checked, reused across procedures.
  const Proc* proc_ = nullptr;
  const ProcInstr* ins_ = nullptr;
  std::vector<uint8_t> leader_;
  std::vector<uint8_t> jump_target_;
  std::vector<RegState> in_state_;
  std::vector<uint8_t> has_state_;
  std::vector<uint32_t> work_;
};

}  // namespace

VerifyResult Verify(const LoadedProgram& prog) { return VerifierImpl(prog).Run(); }

}  // namespace confllvm
