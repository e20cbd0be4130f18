// The bytecode instruction set of the MiniRuby VM.
//
// Opcode names and roles follow CRuby 1.9's YARV instruction set, because the
// paper's mechanism is defined in terms of them: the *extended yield points*
// of §4.2 are exactly the bytecode types getlocal, getinstancevariable,
// getclassvariable, send, opt_plus, opt_minus, opt_mult and opt_aref, in
// addition to CRuby's original yield points (loop back-edges and method/block
// exits, i.e. backward branches and leave).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "vm/symbol.hpp"

namespace gilfree::vm {

enum class Op : u8 {
  kNop = 0,
  // Stack / literals
  kPutNil,        ///< push nil
  kPutTrue,
  kPutFalse,
  kPutSelf,       ///< push self
  kPutObject,     ///< a = literal index (fixnum/float/symbol/frozen string)
  kPutString,     ///< a = literal index; pushes a fresh mutable copy (CRuby
                  ///< putstring dups — an allocation per execution)
  kNewArray,      ///< a = element count popped from stack
  kNewHash,       ///< a = key/value pair count*2 popped from stack
  kNewRange,      ///< a = 1 when exclusive (...) ; pops hi, lo
  kPop,
  kDup,
  // Variables
  kGetLocal,      ///< a = slot index, b = lexical depth       [yield point*]
  kSetLocal,      ///< a = slot index, b = lexical depth
  kGetIvar,       ///< a = ivar symbol, ic = inline cache site [yield point*]
  kSetIvar,       ///< a = ivar symbol, ic = inline cache site
  kGetCvar,       ///< a = cvar symbol                         [yield point*]
  kSetCvar,       ///< a = cvar symbol
  kGetGlobal,     ///< a = global symbol
  kSetGlobal,     ///< a = global symbol
  kGetConst,      ///< a = constant symbol
  kSetConst,      ///< a = constant symbol
  // Calls
  kSend,          ///< a = method symbol, b = argc, c = block iseq (-1 none),
                  ///< ic = inline cache site                  [yield point*]
  kInvokeBlock,   ///< a = argc; invokes the current method's block
  kLeave,         ///< return from method/block                [yield point]
  // Control flow
  kJump,          ///< a = target pc        [yield point when backward]
  kBranchIf,      ///< a = target pc        [yield point when backward]
  kBranchUnless,  ///< a = target pc        [yield point when backward]
  // Definition (executed serially at boot)
  kDefineMethod,  ///< a = method symbol, b = iseq index
  kDefineClass,   ///< a = class name symbol, b = body iseq, c = superclass
                  ///< constant symbol or -1
  // Type-specialized operators (CRuby's opt_ instructions)
  kOptPlus,       ///< [yield point*]
  kOptMinus,      ///< [yield point*]
  kOptMult,       ///< [yield point*]
  kOptDiv,
  kOptMod,
  kOptEq,
  kOptNeq,
  kOptLt,
  kOptLe,
  kOptGt,
  kOptGe,
  kOptUMinus,
  kOptNot,
  kOptAref,       ///< a[i]                                    [yield point*]
  kOptAset,       ///< a[i] = v
  kOptLtLt,       ///< a << v (array append / string concat)
  kOptLength,     ///< a.length fast path
  kMaxOp,
};

constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kMaxOp);

std::string_view op_name(Op op);

/// Extra cycle cost of an opcode on top of the dispatch cost; memory-access
/// costs are charged separately by the engine as accesses happen. Constexpr
/// so the interpreter's per-insn charge folds to a static table lookup.
constexpr Cycles op_extra_cost(Op op) {
  switch (op) {
    // Calls pay for frame setup / teardown and argument shuffling.
    case Op::kSend: return 34;
    case Op::kInvokeBlock: return 26;
    case Op::kLeave: return 12;
    // Allocating instructions pay their allocation cost in the heap layer;
    // this is just the instruction-local work.
    case Op::kNewArray: return 16;
    case Op::kNewHash: return 24;
    case Op::kNewRange: return 10;
    case Op::kPutString: return 14;
    // Variable accesses beyond the raw memory traffic.
    case Op::kGetIvar:
    case Op::kSetIvar: return 8;
    case Op::kGetCvar:
    case Op::kSetCvar: return 10;
    case Op::kGetGlobal:
    case Op::kSetGlobal: return 6;
    case Op::kGetConst:
    case Op::kSetConst: return 6;
    // Specialized operators: a type check plus the ALU op.
    case Op::kOptPlus:
    case Op::kOptMinus:
    case Op::kOptMult:
    case Op::kOptLt:
    case Op::kOptLe:
    case Op::kOptGt:
    case Op::kOptGe:
    case Op::kOptEq:
    case Op::kOptNeq:
    case Op::kOptNot:
    case Op::kOptUMinus: return 4;
    case Op::kOptDiv:
    case Op::kOptMod: return 14;
    case Op::kOptAref:
    case Op::kOptAset:
    case Op::kOptLtLt:
    case Op::kOptLength: return 6;
    default: return 2;
  }
}

/// One instruction. Fixed width; `ic` indexes the global inline-cache slab
/// (kSend/kGetIvar/kSetIvar sites), `yp` is the yield-point id assigned at
/// compile time (-1 when this instruction can never be a yield point).
struct Insn {
  Op op = Op::kNop;
  i32 a = 0;
  i32 b = 0;
  i32 c = 0;
  i32 ic = -1;
  i32 yp = -1;
  u16 line = 0;  ///< Source line for diagnostics.
};

/// A compile-time literal, materialized to a (frozen) Value at boot.
struct Literal {
  enum class Kind : u8 { kInt, kFloat, kString, kSymbol } kind;
  i64 ival = 0;
  double fval = 0.0;
  std::string sval;

  static Literal make_int(i64 v) { return {Kind::kInt, v, 0.0, {}}; }
  static Literal make_float(double v) { return {Kind::kFloat, 0, v, {}}; }
  static Literal make_string(std::string s) {
    return {Kind::kString, 0, 0.0, std::move(s)};
  }
  static Literal make_symbol(std::string s) {
    return {Kind::kSymbol, 0, 0.0, std::move(s)};
  }
};

struct ISeq {
  enum class Type : u8 { kTop, kMethod, kBlock };

  std::string name;
  Type type = Type::kMethod;
  u32 num_params = 0;
  u32 num_locals = 0;  ///< Includes parameters.
  i32 lexical_parent = -1;  ///< Enclosing iseq for blocks.
  std::vector<Insn> insns;
  std::vector<std::string> local_names;  ///< For diagnostics.
};

/// A fully compiled program: shared, immutable at run time.
struct Program {
  SymbolTable symbols;
  std::vector<ISeq> iseqs;
  std::vector<Literal> literals;
  u32 num_ic_sites = 0;
  u32 num_yield_points = 0;
  i32 top_iseq = -1;

  /// Constant / global-variable name tables; the index is the slot index in
  /// the heap's constant / global tables.
  std::vector<SymbolId> constant_names;
  std::vector<SymbolId> global_names;

  const ISeq& iseq(i32 id) const { return iseqs.at(static_cast<u32>(id)); }

  /// Human-readable disassembly, for tests and debugging.
  std::string disassemble() const;
  std::string disassemble(i32 iseq_id) const;
};

/// True when `op` belongs to the paper's *extended* yield-point set (§4.2) —
/// the ones that only yield when extended yield points are enabled.
constexpr bool is_extended_yield_op(Op op) {
  switch (op) {
    case Op::kGetLocal:
    case Op::kGetIvar:
    case Op::kGetCvar:
    case Op::kSend:
    case Op::kOptPlus:
    case Op::kOptMinus:
    case Op::kOptMult:
    case Op::kOptAref:
      return true;
    default:
      return false;
  }
}

/// True when `op` can be an original CRuby yield point: method/block exits
/// always; branches only when they jump backward (checked by the compiler
/// when it assigns yp ids).
constexpr bool is_branch_op(Op op) {
  return op == Op::kJump || op == Op::kBranchIf || op == Op::kBranchUnless;
}

}  // namespace gilfree::vm
