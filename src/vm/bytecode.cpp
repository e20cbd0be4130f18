#include "vm/bytecode.hpp"

#include <sstream>

#include "common/check.hpp"

namespace gilfree::vm {

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kPutNil: return "putnil";
    case Op::kPutTrue: return "puttrue";
    case Op::kPutFalse: return "putfalse";
    case Op::kPutSelf: return "putself";
    case Op::kPutObject: return "putobject";
    case Op::kPutString: return "putstring";
    case Op::kNewArray: return "newarray";
    case Op::kNewHash: return "newhash";
    case Op::kNewRange: return "newrange";
    case Op::kPop: return "pop";
    case Op::kDup: return "dup";
    case Op::kGetLocal: return "getlocal";
    case Op::kSetLocal: return "setlocal";
    case Op::kGetIvar: return "getinstancevariable";
    case Op::kSetIvar: return "setinstancevariable";
    case Op::kGetCvar: return "getclassvariable";
    case Op::kSetCvar: return "setclassvariable";
    case Op::kGetGlobal: return "getglobal";
    case Op::kSetGlobal: return "setglobal";
    case Op::kGetConst: return "getconstant";
    case Op::kSetConst: return "setconstant";
    case Op::kSend: return "send";
    case Op::kInvokeBlock: return "invokeblock";
    case Op::kLeave: return "leave";
    case Op::kJump: return "jump";
    case Op::kBranchIf: return "branchif";
    case Op::kBranchUnless: return "branchunless";
    case Op::kDefineMethod: return "definemethod";
    case Op::kDefineClass: return "defineclass";
    case Op::kOptPlus: return "opt_plus";
    case Op::kOptMinus: return "opt_minus";
    case Op::kOptMult: return "opt_mult";
    case Op::kOptDiv: return "opt_div";
    case Op::kOptMod: return "opt_mod";
    case Op::kOptEq: return "opt_eq";
    case Op::kOptNeq: return "opt_neq";
    case Op::kOptLt: return "opt_lt";
    case Op::kOptLe: return "opt_le";
    case Op::kOptGt: return "opt_gt";
    case Op::kOptGe: return "opt_ge";
    case Op::kOptUMinus: return "opt_uminus";
    case Op::kOptNot: return "opt_not";
    case Op::kOptAref: return "opt_aref";
    case Op::kOptAset: return "opt_aset";
    case Op::kOptLtLt: return "opt_ltlt";
    case Op::kOptLength: return "opt_length";
    case Op::kMaxOp: break;
  }
  return "?";
}

namespace {
void disasm_iseq(const Program& p, i32 id, std::ostringstream& os) {
  const ISeq& seq = p.iseq(id);
  os << "== iseq " << id << " \"" << seq.name << "\" params=" << seq.num_params
     << " locals=" << seq.num_locals << "\n";
  for (std::size_t pc = 0; pc < seq.insns.size(); ++pc) {
    const Insn& in = seq.insns[pc];
    os << "  " << pc << ": " << op_name(in.op);
    os << " a=" << in.a << " b=" << in.b << " c=" << in.c;
    if (in.ic >= 0) os << " ic=" << in.ic;
    if (in.yp >= 0) os << " yp=" << in.yp;
    os << "\n";
  }
}
}  // namespace

std::string Program::disassemble() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < iseqs.size(); ++i)
    disasm_iseq(*this, static_cast<i32>(i), os);
  return os.str();
}

std::string Program::disassemble(i32 iseq_id) const {
  std::ostringstream os;
  disasm_iseq(*this, iseq_id, os);
  return os.str();
}

}  // namespace gilfree::vm
