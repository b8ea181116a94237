// Function annotations the static-analysis pass keys off.
//
// BIOSENS_HOT marks the per-step simulation kernels: the tridiagonal
// solve, the reactive-surface step, and the electrochemical sweep inner
// loops that run thousands of times per measurement. The annotation has
// two audiences:
//  - the compiler: [[gnu::hot]] biases inlining/layout toward these
//    functions on GCC/Clang (and expands to nothing elsewhere);
//  - biosens-lint: the hot-path-transitive check roots at every
//    BIOSENS_HOT function and walks its body and whole call graph —
//    nothing a BIOSENS_HOT function does or reaches may allocate, lock,
//    throw, or build a std::function — so the zero-allocation contract
//    of docs/performance.md is enforced, not just documented
//    (docs/static-analysis.md).
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define BIOSENS_HOT [[gnu::hot]]
#else
#define BIOSENS_HOT
#endif
