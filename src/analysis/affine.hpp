// Affine analysis of array subscripts, the core of memory disambiguation
// (paper Section III-I.2).
//
// An index expression is normalized to the form  coeff * iv + base, where
// `base` splits into a compile-time constant plus an optional opaque
// residue (a structural fingerprint of any iv-free subexpression, e.g. a
// parameter).  Two accesses can then be compared across arbitrary iteration
// distances:
//
//   a[3*i + 1] vs a[3*i + 2]   -> never conflict ((1-2) % 3 != 0)
//   a[i]       vs a[i]         -> conflict only at distance 0
//   a[i]       vs a[i - 1]     -> conflict at distance 1 (loop-carried)
//   a[idx[i]]  vs anything     -> unknown (conservatively conflicts)
#pragma once

#include <cstdint>
#include <optional>

#include "ir/kernel.hpp"

namespace fgpar::analysis {

struct LinearIndex {
  bool affine = false;        // false => nothing is known
  std::int64_t coeff = 0;     // multiplier on the induction variable
  std::int64_t offset = 0;    // compile-time constant part
  std::uint64_t residue = 0;  // fingerprint of iv-free opaque part (0 = none)
};

/// Attempts to normalize `index` into LinearIndex form.
LinearIndex AnalyzeIndex(const ir::Kernel& kernel, ir::ExprId index);

/// How two accesses with these subscripts may collide.
enum class Overlap {
  kNever,         // provably disjoint at every iteration distance
  kSameIterOnly,  // identical address exactly when both run the same iteration
  kMayConflict,   // anything else (includes loop-carried and unknown)
};

Overlap CompareIndices(const LinearIndex& a, const LinearIndex& b);

/// True when the two subscripts are provably the same address in the same
/// iteration (used by store-to-load forwarding).
bool SameAddressSameIteration(const LinearIndex& a, const LinearIndex& b);

/// The trip count (`fgparc --trip`, a service request's `trip`) sets every
/// i64 parameter, and with them the loop bounds.  Throws Error when `trip`
/// drives an affine subscript c*i + k of the loop body outside its array,
/// so callers can reject the input before anything is compiled.
/// Subscripts the affine analysis cannot see through (gathers, parameter
/// offsets) keep the reference interpreter's own check.
void CheckTripInBounds(const ir::Kernel& kernel, std::int64_t trip);

}  // namespace fgpar::analysis
