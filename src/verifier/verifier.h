// ConfVerify (paper §5.2, Appendix A): a static verifier over the *binary*
// that re-establishes, without trusting ConfLLVM, that every private-data
// flow is guarded. It:
//   1. identifies procedure entries by the MCall magic prefix and
//      disassembles each procedure, rejecting on any decode failure;
//   2. re-checks magic uniqueness (every magic-prefixed word is a legit
//      site);
//   3. runs a per-procedure register-taint dataflow seeded from the entry
//      magic's taint bits (unused argument registers and caller-saved
//      registers conservatively private, callee-saved public);
//   4. checks every load/store is guarded: an MPX bndcl/bndcu pair on the
//      same base earlier in the block with no intervening call/redefinition
//      and no direct-jump target between the check and the access (nor at
//      the access), a segment prefix under the segmentation scheme, or an
//      rsp-relative operand in a chkstk-protected frame;
//   5. checks stores flow value-taint ⊑ region-taint, direct/indirect calls
//      match callee magic taints, returns and indirect calls use the exact
//      CFI sequences, matched at fixed offsets with the jump register bound
//      to the checked one (no direct-jump target inside either), branch
//      conditions are public (strict mode), and rejects stray indirect
//      jumps, rets, or out-of-procedure direct jumps.
// Verify is deliberately uncached (every warm build and daemon request
// re-runs it); dense index-addressed tables keep it at about 50 ns per
// verified instruction.
#ifndef CONFLLVM_SRC_VERIFIER_VERIFIER_H_
#define CONFLLVM_SRC_VERIFIER_VERIFIER_H_

#include <string>
#include <vector>

#include "src/vm/program.h"

namespace confllvm {

struct VerifyResult {
  bool ok = false;
  std::vector<std::string> errors;
  size_t procedures = 0;
  size_t instructions = 0;

  std::string ErrorText() const {
    std::string out;
    for (const auto& e : errors) {
      out += e + "\n";
    }
    return out;
  }
};

// Verifies a fully-instrumented (CFI + MPX or segmentation) loaded binary.
VerifyResult Verify(const LoadedProgram& prog);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_VERIFIER_VERIFIER_H_
