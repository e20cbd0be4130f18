#include "vm/compiler.hpp"

#include <unordered_map>

#include "common/check.hpp"
#include "vm/parser.hpp"

namespace gilfree::vm {

namespace {

class Compiler {
 public:
  explicit Compiler(Program* prog) : prog_(prog) {}

  void compile_toplevel(const Node& seq) {
    const i32 top = new_iseq("<main>", ISeq::Type::kTop, {}, nullptr);
    Scope scope;
    scope.iseq_id = top;
    scope.parent = nullptr;
    compile_node(scope, seq, /*want=*/true);
    emit(scope, Op::kLeave, 0, 0, 0, seq.line);
    prog_->top_iseq = top;
    finalize();
  }

 private:
  struct LoopCtx {
    std::vector<std::size_t> break_patches;
    u32 next_target = 0;
  };

  struct Scope {
    i32 iseq_id = -1;
    std::unordered_map<std::string, u32> locals;
    Scope* parent = nullptr;  ///< Lexical parent (block scopes).
    std::vector<LoopCtx> loops;
  };

  ISeq& iseq(Scope& s) { return prog_->iseqs[static_cast<u32>(s.iseq_id)]; }

  i32 new_iseq(std::string name, ISeq::Type type,
               const std::vector<std::string>& params, Scope* parent) {
    ISeq seq;
    seq.name = std::move(name);
    seq.type = type;
    seq.num_params = static_cast<u32>(params.size());
    seq.num_locals = seq.num_params;
    seq.local_names = params;
    seq.lexical_parent = parent ? parent->iseq_id : -1;
    prog_->iseqs.push_back(std::move(seq));
    return static_cast<i32>(prog_->iseqs.size() - 1);
  }

  std::size_t emit(Scope& s, Op op, i32 a, i32 b, i32 c, u16 line) {
    Insn in;
    in.op = op;
    in.a = a;
    in.b = b;
    in.c = c;
    in.line = line;
    iseq(s).insns.push_back(in);
    return iseq(s).insns.size() - 1;
  }

  u32 here(Scope& s) { return static_cast<u32>(iseq(s).insns.size()); }
  void patch_jump(Scope& s, std::size_t at, u32 target) {
    iseq(s).insns[at].a = static_cast<i32>(target);
  }

  // --- literal / name pools -------------------------------------------------

  u32 add_literal(Literal lit) {
    // Dedupe scalar literals (strings too: putstring copies at run time).
    for (std::size_t i = 0; i < prog_->literals.size(); ++i) {
      const Literal& e = prog_->literals[i];
      if (e.kind != lit.kind) continue;
      switch (lit.kind) {
        case Literal::Kind::kInt:
          if (e.ival == lit.ival) return static_cast<u32>(i);
          break;
        case Literal::Kind::kFloat:
          if (e.fval == lit.fval) return static_cast<u32>(i);
          break;
        case Literal::Kind::kString:
        case Literal::Kind::kSymbol:
          if (e.sval == lit.sval) return static_cast<u32>(i);
          break;
      }
    }
    prog_->literals.push_back(std::move(lit));
    return static_cast<u32>(prog_->literals.size() - 1);
  }

  u32 const_index(const std::string& name) {
    const SymbolId sym = prog_->symbols.intern(name);
    for (std::size_t i = 0; i < prog_->constant_names.size(); ++i)
      if (prog_->constant_names[i] == sym) return static_cast<u32>(i);
    prog_->constant_names.push_back(sym);
    return static_cast<u32>(prog_->constant_names.size() - 1);
  }

  u32 global_index(const std::string& name) {
    const SymbolId sym = prog_->symbols.intern(name);
    for (std::size_t i = 0; i < prog_->global_names.size(); ++i)
      if (prog_->global_names[i] == sym) return static_cast<u32>(i);
    prog_->global_names.push_back(sym);
    return static_cast<u32>(prog_->global_names.size() - 1);
  }

  // --- local resolution -------------------------------------------------------

  bool resolve_local(Scope& s, const std::string& name, u32& idx,
                     u32& level) {
    Scope* scope = &s;
    level = 0;
    while (scope) {
      if (auto it = scope->locals.find(name); it != scope->locals.end()) {
        idx = it->second;
        return true;
      }
      scope = scope->parent;
      ++level;
    }
    return false;
  }

  u32 declare_local(Scope& s, const std::string& name) {
    if (auto it = s.locals.find(name); it != s.locals.end())
      return it->second;
    const u32 idx = iseq(s).num_locals++;
    iseq(s).local_names.push_back(name);
    s.locals[name] = idx;
    return idx;
  }

  void init_param_scope(Scope& s, const std::vector<std::string>& params) {
    for (u32 i = 0; i < params.size(); ++i) s.locals[params[i]] = i;
  }

  // --- code generation ---------------------------------------------------------

  void compile_node(Scope& s, const Node& n, bool want) {
    switch (n.kind) {
      case Node::Kind::kSeq: {
        if (n.kids.empty()) {
          if (want) emit(s, Op::kPutNil, 0, 0, 0, n.line);
          return;
        }
        for (std::size_t i = 0; i < n.kids.size(); ++i) {
          const bool last = i + 1 == n.kids.size();
          compile_node(s, *n.kids[i], last && want);
        }
        return;
      }
      case Node::Kind::kIntLit: {
        if (!want) return;
        emit(s, Op::kPutObject,
             static_cast<i32>(add_literal(Literal::make_int(n.ival))), 0, 0,
             n.line);
        return;
      }
      case Node::Kind::kFloatLit: {
        if (!want) return;
        emit(s, Op::kPutObject,
             static_cast<i32>(add_literal(Literal::make_float(n.fval))), 0,
             0, n.line);
        return;
      }
      case Node::Kind::kStrLit: {
        if (!want) return;
        emit(s, Op::kPutString,
             static_cast<i32>(add_literal(Literal::make_string(n.sval))), 0,
             0, n.line);
        return;
      }
      case Node::Kind::kSymLit: {
        if (!want) return;
        emit(s, Op::kPutObject,
             static_cast<i32>(add_literal(Literal::make_symbol(n.sval))), 0,
             0, n.line);
        return;
      }
      case Node::Kind::kNilLit:
        if (want) emit(s, Op::kPutNil, 0, 0, 0, n.line);
        return;
      case Node::Kind::kTrueLit:
      case Node::Kind::kFalseLit: {
        if (!want) return;
        // true/false via dedicated literals would need new opcodes; reuse
        // putobject with int literals 1/0? No: encode with putnil+not
        // tricks is worse — add literal kind? Use kPutObject with a
        // symbol? Cleanest: emit putnil + opt_not for true? Instead we
        // reserve literal ints and translate in the interpreter — but the
        // simplest correct encoding is below.
        emit(s, n.kind == Node::Kind::kTrueLit ? Op::kPutTrue : Op::kPutFalse,
             0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kSelf:
        if (want) emit(s, Op::kPutSelf, 0, 0, 0, n.line);
        return;
      case Node::Kind::kArrayLit: {
        for (const auto& k : n.kids) compile_node(s, *k, true);
        emit(s, Op::kNewArray, static_cast<i32>(n.kids.size()), 0, 0,
             n.line);
        if (!want) emit(s, Op::kPop, 0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kHashLit: {
        for (const auto& k : n.kids) compile_node(s, *k, true);
        emit(s, Op::kNewHash, static_cast<i32>(n.kids.size()), 0, 0, n.line);
        if (!want) emit(s, Op::kPop, 0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kRangeLit: {
        compile_node(s, *n.kids[0], true);
        compile_node(s, *n.kids[1], true);
        emit(s, Op::kNewRange, static_cast<i32>(n.ival), 0, 0, n.line);
        if (!want) emit(s, Op::kPop, 0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kLocal: {
        u32 idx, level;
        if (resolve_local(s, n.name, idx, level)) {
          if (!want) return;
          emit(s, Op::kGetLocal, static_cast<i32>(idx),
               static_cast<i32>(level), 0, n.line);
          return;
        }
        // Zero-argument self call.
        emit(s, Op::kPutSelf, 0, 0, 0, n.line);
        emit(s, Op::kSend,
             static_cast<i32>(prog_->symbols.intern(n.name)), 0, -1, n.line);
        if (!want) emit(s, Op::kPop, 0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kLocalAssign: {
        compile_node(s, *n.kids[0], true);
        if (want) emit(s, Op::kDup, 0, 0, 0, n.line);
        u32 idx, level;
        if (!resolve_local(s, n.name, idx, level)) {
          idx = declare_local(s, n.name);
          level = 0;
        }
        emit(s, Op::kSetLocal, static_cast<i32>(idx),
             static_cast<i32>(level), 0, n.line);
        return;
      }
      case Node::Kind::kIvar:
        if (!want) return;
        emit(s, Op::kGetIvar,
             static_cast<i32>(prog_->symbols.intern(n.name)), 0, 0, n.line);
        return;
      case Node::Kind::kIvarAssign: {
        compile_node(s, *n.kids[0], true);
        if (want) emit(s, Op::kDup, 0, 0, 0, n.line);
        emit(s, Op::kSetIvar,
             static_cast<i32>(prog_->symbols.intern(n.name)), 0, 0, n.line);
        return;
      }
      case Node::Kind::kCvar:
        if (!want) return;
        emit(s, Op::kGetCvar,
             static_cast<i32>(prog_->symbols.intern(n.name)), 0, 0, n.line);
        return;
      case Node::Kind::kCvarAssign: {
        compile_node(s, *n.kids[0], true);
        if (want) emit(s, Op::kDup, 0, 0, 0, n.line);
        emit(s, Op::kSetCvar,
             static_cast<i32>(prog_->symbols.intern(n.name)), 0, 0, n.line);
        return;
      }
      case Node::Kind::kGvar:
        if (!want) return;
        emit(s, Op::kGetGlobal, static_cast<i32>(global_index(n.name)), 0, 0,
             n.line);
        return;
      case Node::Kind::kGvarAssign: {
        compile_node(s, *n.kids[0], true);
        if (want) emit(s, Op::kDup, 0, 0, 0, n.line);
        emit(s, Op::kSetGlobal, static_cast<i32>(global_index(n.name)), 0, 0,
             n.line);
        return;
      }
      case Node::Kind::kConst:
        if (!want) return;
        emit(s, Op::kGetConst, static_cast<i32>(const_index(n.name)), 0, 0,
             n.line);
        return;
      case Node::Kind::kConstAssign: {
        compile_node(s, *n.kids[0], true);
        if (want) emit(s, Op::kDup, 0, 0, 0, n.line);
        emit(s, Op::kSetConst, static_cast<i32>(const_index(n.name)), 0, 0,
             n.line);
        return;
      }
      case Node::Kind::kIndex: {
        compile_node(s, *n.kids[0], true);
        compile_node(s, *n.kids[1], true);
        emit(s, Op::kOptAref, 0, 0, 0, n.line);
        if (!want) emit(s, Op::kPop, 0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kIndexAssign: {
        compile_node(s, *n.kids[0], true);
        compile_node(s, *n.kids[1], true);
        compile_node(s, *n.kids[2], true);
        emit(s, Op::kOptAset, 0, 0, 0, n.line);
        if (!want) emit(s, Op::kPop, 0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kBinop: {
        compile_node(s, *n.kids[0], true);
        compile_node(s, *n.kids[1], true);
        emit(s, binop_opcode(n), 0, 0, 0, n.line);
        if (!want) emit(s, Op::kPop, 0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kUnop: {
        compile_node(s, *n.kids[0], true);
        emit(s, n.name == "-" ? Op::kOptUMinus : Op::kOptNot, 0, 0, 0,
             n.line);
        if (!want) emit(s, Op::kPop, 0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kAndAnd:
      case Node::Kind::kOrOr: {
        compile_node(s, *n.kids[0], true);
        emit(s, Op::kDup, 0, 0, 0, n.line);
        const std::size_t jump = emit(
            s,
            n.kind == Node::Kind::kAndAnd ? Op::kBranchUnless : Op::kBranchIf,
            0, 0, 0, n.line);
        emit(s, Op::kPop, 0, 0, 0, n.line);
        compile_node(s, *n.kids[1], true);
        patch_jump(s, jump, here(s));
        if (!want) emit(s, Op::kPop, 0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kIf: {
        compile_node(s, *n.kids[0], true);
        const std::size_t to_else =
            emit(s, Op::kBranchUnless, 0, 0, 0, n.line);
        compile_node(s, *n.kids[1], want);
        const std::size_t to_end = emit(s, Op::kJump, 0, 0, 0, n.line);
        patch_jump(s, to_else, here(s));
        if (n.kids[2]) {
          compile_node(s, *n.kids[2], want);
        } else if (want) {
          emit(s, Op::kPutNil, 0, 0, 0, n.line);
        }
        patch_jump(s, to_end, here(s));
        return;
      }
      case Node::Kind::kWhile: {
        const u32 cond_at = here(s);
        s.loops.push_back(LoopCtx{{}, cond_at});
        compile_node(s, *n.kids[0], true);
        const std::size_t exit_jump =
            emit(s, n.ival ? Op::kBranchIf : Op::kBranchUnless, 0, 0, 0,
                 n.line);
        compile_node(s, *n.kids[1], false);
        emit(s, Op::kJump, static_cast<i32>(cond_at), 0, 0, n.line);
        const u32 end_at = here(s);
        patch_jump(s, exit_jump, end_at);
        LoopCtx loop = std::move(s.loops.back());
        s.loops.pop_back();
        for (std::size_t at : loop.break_patches) patch_jump(s, at, end_at);
        if (want) emit(s, Op::kPutNil, 0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kBreak: {
        if (s.loops.empty())
          throw CompileError("break outside of a while loop", n.line);
        s.loops.back().break_patches.push_back(
            emit(s, Op::kJump, 0, 0, 0, n.line));
        return;
      }
      case Node::Kind::kNext: {
        if (s.loops.empty())
          throw CompileError("next outside of a while loop", n.line);
        emit(s, Op::kJump, static_cast<i32>(s.loops.back().next_target), 0,
             0, n.line);
        return;
      }
      case Node::Kind::kReturn: {
        if (iseq(s).type == ISeq::Type::kBlock)
          throw CompileError("return inside a block is not supported",
                             n.line);
        if (n.kids.empty()) {
          emit(s, Op::kPutNil, 0, 0, 0, n.line);
        } else {
          compile_node(s, *n.kids[0], true);
        }
        emit(s, Op::kLeave, 0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kYield: {
        for (const auto& k : n.kids) compile_node(s, *k, true);
        emit(s, Op::kInvokeBlock, static_cast<i32>(n.kids.size()), 0, 0,
             n.line);
        if (!want) emit(s, Op::kPop, 0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kCall: {
        if (n.kids[0]) {
          compile_node(s, *n.kids[0], true);
        } else {
          emit(s, Op::kPutSelf, 0, 0, 0, n.line);
        }
        for (std::size_t i = 1; i < n.kids.size(); ++i)
          compile_node(s, *n.kids[i], true);
        i32 block = -1;
        if (n.block_body) {
          block = compile_block(s, n);
        }
        emit(s, Op::kSend, static_cast<i32>(prog_->symbols.intern(n.name)),
             static_cast<i32>(n.kids.size() - 1), block, n.line);
        if (!want) emit(s, Op::kPop, 0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kDef: {
        const i32 body =
            new_iseq(n.name, ISeq::Type::kMethod, n.params, nullptr);
        Scope method_scope;
        method_scope.iseq_id = body;
        method_scope.parent = nullptr;
        init_param_scope(method_scope, n.params);
        compile_node(method_scope, *n.kids[0], true);
        emit(method_scope, Op::kLeave, 0, 0, 0, n.line);
        emit(s, Op::kDefineMethod,
             static_cast<i32>(prog_->symbols.intern(n.name)), body,
             static_cast<i32>(n.ival), n.line);
        if (want) emit(s, Op::kPutNil, 0, 0, 0, n.line);
        return;
      }
      case Node::Kind::kClassDef: {
        const i32 body =
            new_iseq("<class:" + n.name + ">", ISeq::Type::kMethod, {},
                     nullptr);
        Scope body_scope;
        body_scope.iseq_id = body;
        body_scope.parent = nullptr;
        compile_node(body_scope, *n.kids[0], true);
        emit(body_scope, Op::kLeave, 0, 0, 0, n.line);
        const i32 super =
            n.sval.empty() ? -1 : static_cast<i32>(const_index(n.sval));
        emit(s, Op::kDefineClass, static_cast<i32>(const_index(n.name)),
             body, super, n.line);
        // The class body runs as a frame whose return value lands on the
        // stack after it finishes.
        if (!want) emit(s, Op::kPop, 0, 0, 0, n.line);
        return;
      }
    }
    GILFREE_CHECK_MSG(false, "unhandled AST node kind");
  }

  i32 compile_block(Scope& s, const Node& call) {
    const i32 block = new_iseq("block in " + iseq(s).name,
                               ISeq::Type::kBlock, call.params, &s);
    Scope block_scope;
    block_scope.iseq_id = block;
    block_scope.parent = &s;
    init_param_scope(block_scope, call.params);
    compile_node(block_scope, *call.block_body, true);
    emit(block_scope, Op::kLeave, 0, 0, 0, call.line);
    return block;
  }

  Op binop_opcode(const Node& n) {
    if (n.name == "+") return Op::kOptPlus;
    if (n.name == "-") return Op::kOptMinus;
    if (n.name == "*") return Op::kOptMult;
    if (n.name == "/") return Op::kOptDiv;
    if (n.name == "%") return Op::kOptMod;
    if (n.name == "==") return Op::kOptEq;
    if (n.name == "!=") return Op::kOptNeq;
    if (n.name == "<") return Op::kOptLt;
    if (n.name == "<=") return Op::kOptLe;
    if (n.name == ">") return Op::kOptGt;
    if (n.name == ">=") return Op::kOptGe;
    if (n.name == "<<") return Op::kOptLtLt;
    throw CompileError("unknown binary operator " + n.name, n.line);
  }

  /// Assigns inline-cache site ids and yield-point ids program-wide.
  void finalize() {
    u32 ic = 0;
    u32 yp = 0;
    for (ISeq& seq : prog_->iseqs) {
      for (std::size_t pc = 0; pc < seq.insns.size(); ++pc) {
        Insn& in = seq.insns[pc];
        if (in.op == Op::kSend || in.op == Op::kGetIvar ||
            in.op == Op::kSetIvar) {
          in.ic = static_cast<i32>(ic++);
        }
        const bool backward_branch =
            is_branch_op(in.op) && in.a >= 0 &&
            static_cast<std::size_t>(in.a) <= pc;
        if (in.op == Op::kLeave || backward_branch ||
            is_extended_yield_op(in.op)) {
          in.yp = static_cast<i32>(yp++);
        }
      }
    }
    prog_->num_ic_sites = ic;
    prog_->num_yield_points = yp;
  }

  Program* prog_;
};

}  // namespace

Program compile_sources(const std::vector<std::string>& sources) {
  Program prog;
  auto merged = Node::make(Node::Kind::kSeq, 1);
  for (const auto& src : sources) {
    NodePtr seq = parse_program(src);
    for (auto& kid : seq->kids) merged->kids.push_back(std::move(kid));
  }
  Compiler c(&prog);
  c.compile_toplevel(*merged);
  return prog;
}

Program compile_source(const std::string& source) {
  return compile_sources({source});
}

}  // namespace gilfree::vm
