#include "analysis/affine.hpp"

#include <optional>
#include <string>

#include "support/error.hpp"

namespace fgpar::analysis {
namespace {

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h == 0 ? 1 : h;  // 0 is reserved for "no residue"
}

LinearIndex NonAffine() { return LinearIndex{}; }

LinearIndex Analyze(const ir::Kernel& k, ir::ExprId id) {
  const ir::ExprNode& node = k.expr(id);
  switch (node.kind) {
    case ir::ExprKind::kConstI:
      return LinearIndex{true, 0, node.const_i, 0};
    case ir::ExprKind::kIvRef:
      return LinearIndex{true, 1, 0, 0};
    case ir::ExprKind::kParamRef:
      return LinearIndex{true, 0, 0,
                         Mix(0xC0FFEE, static_cast<std::uint64_t>(node.sym))};
    case ir::ExprKind::kUnary: {
      if (node.un != ir::UnOp::kNeg) {
        return NonAffine();
      }
      LinearIndex v = Analyze(k, node.child[0]);
      if (!v.affine) {
        return NonAffine();
      }
      v.coeff = -v.coeff;
      v.offset = -v.offset;
      if (v.residue != 0) {
        v.residue = Mix(0x4E4547, v.residue);  // "NEG"
      }
      return v;
    }
    case ir::ExprKind::kBinary: {
      const LinearIndex l = Analyze(k, node.child[0]);
      const LinearIndex r = Analyze(k, node.child[1]);
      if (!l.affine || !r.affine) {
        return NonAffine();
      }
      switch (node.bin) {
        case ir::BinOp::kAdd: {
          LinearIndex out{true, l.coeff + r.coeff, l.offset + r.offset, 0};
          if (l.residue != 0 && r.residue != 0) {
            // Commutative combine so p+q and q+p fingerprint identically.
            out.residue = Mix(0x414444, l.residue ^ r.residue);  // "ADD"
          } else {
            out.residue = l.residue | r.residue;
          }
          return out;
        }
        case ir::BinOp::kSub: {
          LinearIndex out{true, l.coeff - r.coeff, l.offset - r.offset, 0};
          if (l.residue == r.residue) {
            out.residue = 0;  // identical opaque terms cancel
          } else if (l.residue != 0 && r.residue != 0) {
            out.residue = Mix(Mix(0x535542, l.residue), r.residue);  // "SUB"
          } else if (r.residue != 0) {
            out.residue = Mix(0x535542, r.residue);
          } else {
            out.residue = l.residue;
          }
          return out;
        }
        case ir::BinOp::kMul: {
          const LinearIndex* scale = nullptr;
          const LinearIndex* term = nullptr;
          if (l.coeff == 0 && l.residue == 0) {
            scale = &l;
            term = &r;
          } else if (r.coeff == 0 && r.residue == 0) {
            scale = &r;
            term = &l;
          } else {
            return NonAffine();
          }
          LinearIndex out{true, term->coeff * scale->offset,
                          term->offset * scale->offset, 0};
          if (term->residue != 0) {
            out.residue = Mix(Mix(0x4D554C, term->residue),  // "MUL"
                              static_cast<std::uint64_t>(scale->offset));
          }
          return out;
        }
        default:
          return NonAffine();
      }
    }
    default:
      return NonAffine();
  }
}

}  // namespace

LinearIndex AnalyzeIndex(const ir::Kernel& kernel, ir::ExprId index) {
  return Analyze(kernel, index);
}

Overlap CompareIndices(const LinearIndex& a, const LinearIndex& b) {
  if (!a.affine || !b.affine) {
    return Overlap::kMayConflict;
  }
  if (a.residue != b.residue) {
    return Overlap::kMayConflict;
  }
  if (a.coeff == b.coeff) {
    const std::int64_t c = a.coeff;
    const std::int64_t d = a.offset - b.offset;
    if (c == 0) {
      return d == 0 ? Overlap::kMayConflict  // same fixed address every iter
                    : Overlap::kNever;
    }
    if (d % c != 0) {
      return Overlap::kNever;
    }
    return d == 0 ? Overlap::kSameIterOnly : Overlap::kMayConflict;
  }
  return Overlap::kMayConflict;
}

bool SameAddressSameIteration(const LinearIndex& a, const LinearIndex& b) {
  return a.affine && b.affine && a.residue == b.residue && a.coeff == b.coeff &&
         a.offset == b.offset;
}

void CheckTripInBounds(const ir::Kernel& kernel, std::int64_t trip) {
  const auto bound = [&](ir::ExprId id) -> std::optional<std::int64_t> {
    const ir::ExprNode& node = kernel.expr(id);
    if (node.kind == ir::ExprKind::kConstI) {
      return node.const_i;
    }
    if (node.kind == ir::ExprKind::kParamRef &&
        node.type == ir::ScalarType::kI64) {
      return trip;
    }
    return std::nullopt;
  };
  const std::optional<std::int64_t> lower = bound(kernel.loop().lower);
  const std::optional<std::int64_t> upper = bound(kernel.loop().upper);
  if (!lower || !upper || *lower >= *upper) {
    return;  // bounds the check cannot evaluate, or an empty loop
  }
  const auto check = [&](ir::SymbolId sym, ir::ExprId index) {
    const analysis::LinearIndex linear = analysis::AnalyzeIndex(kernel, index);
    if (!linear.affine || linear.residue != 0 || linear.coeff == 0) {
      return;
    }
    const ir::Symbol& array = kernel.symbol(sym);
    for (const std::int64_t iv : {*lower, *upper - 1}) {
      std::int64_t at = 0;
      const bool overflow = __builtin_mul_overflow(linear.coeff, iv, &at) ||
                            __builtin_add_overflow(at, linear.offset, &at);
      if (!overflow && at >= 0 && at < array.array_size) {
        continue;
      }
      throw Error("--trip " + std::to_string(trip) +
                  " is out of range for kernel " + kernel.name() + ": loop " +
                  kernel.loop().iv_name + " = " + std::to_string(*lower) +
                  " .. " + std::to_string(*upper) + " reaches " + array.name +
                  "[" + (overflow ? "beyond i64" : std::to_string(at)) +
                  "], but " + array.name + " has " +
                  std::to_string(array.array_size) + " elements");
    }
  };
  ir::Kernel::VisitStmts(kernel.loop().body, [&](const ir::Stmt& stmt) {
    if (stmt.kind == ir::StmtKind::kStoreArray) {
      check(stmt.sym, stmt.index);
    }
    for (const ir::ExprId root : {stmt.index, stmt.value}) {
      if (root == ir::kNoExpr) {
        continue;
      }
      kernel.VisitExpr(root, [&](ir::ExprId id) {
        const ir::ExprNode& node = kernel.expr(id);
        if (node.kind == ir::ExprKind::kArrayRef) {
          check(node.sym, node.child[0]);
        }
      });
    }
  });
}

}  // namespace fgpar::analysis
