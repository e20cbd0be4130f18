#include "stm/stm.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gilfree::stm {

namespace {

/// The STM cause in the hardware's vocabulary, for the runtime's TxAbort
/// catch sites (which dispatch on the recorded StmAbortCause, not this).
htm::AbortReason mapped_reason(StmAbortCause c) {
  switch (c) {
    case StmAbortCause::kOverflowRead: return htm::AbortReason::kOverflowRead;
    case StmAbortCause::kOverflowWrite:
      return htm::AbortReason::kOverflowWrite;
    case StmAbortCause::kUnsupported: return htm::AbortReason::kUnsupported;
    case StmAbortCause::kGilSubscription: return htm::AbortReason::kExplicit;
    default: return htm::AbortReason::kConflict;
  }
}

}  // namespace

StmEngine::StmEngine(const StmConfig& config, htm::HtmFacility* htm)
    : config_(config), htm_(htm) {
  GILFREE_CHECK(config_.line_bytes > 0);
}

StmEngine::Tx& StmEngine::tx_at(u32 tid) {
  if (tid >= tx_.size()) {
    tx_.resize(tid + 1);
    last_cause_.resize(tid + 1, StmAbortCause::kNone);
  }
  return tx_[tid];
}

u64 StmEngine::version_of(LineId line) const {
  const auto* e = line_version_.find(line);
  return e == nullptr ? 0 : e->value;
}

bool StmEngine::mark(Tx& t, LineId line, u8 kind) {
  bool fresh;
  Mark& m = t.marks.insert(line, Mark{}, fresh).value;
  if (fresh) m.version = version_of(line);
  const bool added = !(m.kinds & kind);
  m.kinds |= kind;
  return added;
}

void StmEngine::begin(u32 tid) {
  Tx& t = tx_at(tid);
  GILFREE_CHECK_MSG(!t.active, "nested software transaction on tid " << tid);
  t.active = true;
  t.lazy = config_.subscription == GilSubscription::kLazy;
  t.doom = StmAbortCause::kNone;
  t.marks.clear();
  t.buffer.clear();
  t.reads = t.writes = 0;
  ++active_count_;
  ++stats_.begins;
}

StmEngine::Tx& StmEngine::enter(u32 tid) {
  Tx& t = tx_at(tid);
  GILFREE_CHECK_MSG(t.active, "stm access outside a transaction on " << tid);
  if (t.doom != StmAbortCause::kNone) abort_self(tid, t.doom);
  return t;
}

u64 StmEngine::load(u32 tid, CpuId cpu, const u64* addr, bool shared,
                    LineId line) {
  Tx& t = enter(tid);
  // Read-own-writes: the buffer is the newest value for this transaction.
  if (const auto* w = t.buffer.find(reinterpret_cast<u64>(addr)))
    return w->value.value;
  if (!shared) return *addr;
  if (line == kInvalidLine) line = line_of(addr);
  if (mark(t, line, kRead)) {
    if (t.reads >= config_.max_read_lines)
      abort_self(tid, StmAbortCause::kOverflowRead);
    stats_.max_read_lines = std::max<u64>(stats_.max_read_lines, ++t.reads);
  }
  // A non-speculative coherency request: dooms a concurrent HTM writer of
  // the line (requester wins).
  return htm_ != nullptr ? htm_->nontx_load(cpu, addr, line) : *addr;
}

void StmEngine::store(u32 tid, CpuId cpu, u64* addr, u64 value, bool shared,
                      LineId line) {
  (void)cpu;  // Publishing happens at commit; stores have no bus traffic.
  Tx& t = enter(tid);
  // A shared write marks the line like a read, so two writers of one line
  // never both commit, even blind ones that read nothing.
  if (shared) {
    if (line == kInvalidLine) line = line_of(addr);
    if (mark(t, line, kWritten)) ++t.writes;
  }
  bool fresh;
  auto& w = t.buffer.insert(reinterpret_cast<u64>(addr), {}, fresh);
  if (fresh && t.buffer.size() > config_.max_write_entries)
    abort_self(tid, StmAbortCause::kOverflowWrite);
  w.value = BufferedWrite{value, line, shared};
  stats_.max_write_entries =
      std::max<u64>(stats_.max_write_entries, t.buffer.size());
}

bool StmEngine::marks_valid(const Tx& t) {
  stats_.validated_entries += t.reads + t.writes;
  for (const auto& m : t.marks)
    if (version_of(m.key) != m.value.version) return false;
  return true;
}

bool StmEngine::validate(u32 tid) {
  Tx& t = tx_at(tid);
  GILFREE_CHECK(t.active);
  const StmAbortCause doom = t.doom;
  if (doom == StmAbortCause::kNone && marks_valid(t)) return true;
  if (doom == StmAbortCause::kNone) ++stats_.zombie_kills;
  rollback(tid, doom != StmAbortCause::kNone ? doom
                                             : StmAbortCause::kValidation);
  return false;
}

StmAbortCause StmEngine::commit(u32 tid, CpuId cpu) {
  Tx& t = tx_at(tid);
  GILFREE_CHECK(t.active);
  // Lazy subscription's one look at the GIL word: a holder is mutating
  // memory outside any transaction, and committing would interleave.
  StmAbortCause cause = t.doom;
  if (cause == StmAbortCause::kNone && t.lazy && gil_word_ && *gil_word_)
    cause = StmAbortCause::kGilSubscription;
  if (cause == StmAbortCause::kNone && !marks_valid(t))
    cause = StmAbortCause::kValidation;
  if (cause != StmAbortCause::kNone) {
    rollback(tid, cause);
    return cause;
  }
  // Validated: logically committed. Retire before publishing, so the
  // version bumps of its own writes invalidate other transactions only.
  t.active = false;
  --active_count_;
  ++stats_.commits;
  stats_.committed_writes += t.buffer.size();
  // Private slots (interpreter stacks) were buffered only for rollback and
  // publish in any order. Shared writes publish in line order, then
  // first-store order: a publish that dooms a hardware transaction records
  // its line as the victim's conflict line, which traces and record streams
  // show. Guest lines keep that order process-stable.
  publish_.clear();
  for (const auto& w : t.buffer) {
    if (w.value.shared) publish_.push_back(&w);
    else *reinterpret_cast<u64*>(w.key) = w.value.value;
  }
  std::sort(publish_.begin(), publish_.end(), [](const auto* a, const auto* b) {
    return a->value.line != b->value.line ? a->value.line < b->value.line
                                          : a < b;
  });
  for (const auto* w : publish_) {
    u64* addr = reinterpret_cast<u64*>(w->key);
    if (htm_ != nullptr) {
      // Dooms conflicting hardware transactions and comes back through
      // on_nontx_write, bumping the line version for other transactions.
      htm_->nontx_store(cpu, addr, w->value.value, w->value.line);
    } else {
      *addr = w->value.value;
      bump(w->value.line);
    }
  }
  last_cause_[tid] = StmAbortCause::kNone;
  return StmAbortCause::kNone;
}

void StmEngine::abort(u32 tid, StmAbortCause cause) {
  GILFREE_CHECK(tx_at(tid).active);
  GILFREE_CHECK(cause != StmAbortCause::kNone);
  abort_self(tid, cause);
}

void StmEngine::doom_all(StmAbortCause cause) {
  if (active_count_ == 0) return;
  for (Tx& t : tx_)
    if (t.active && t.doom == StmAbortCause::kNone) t.doom = cause;
}

void StmEngine::on_nontx_write(LineId line) {
  // With no live software transaction nobody holds a mark, and a later
  // first access records whatever version the line has then: skipping the
  // bump is safe and keeps the version table small in STM-free phases.
  if (active_count_ > 0) bump(line);
}

void StmEngine::on_gil_acquired() {
  if (config_.subscription == GilSubscription::kEager)
    doom_all(StmAbortCause::kGilSubscription);
}

void StmEngine::rollback(u32 tid, StmAbortCause cause) {
  tx_at(tid).active = false;
  tx_at(tid).doom = StmAbortCause::kNone;
  --active_count_;
  ++stats_.aborts_by_cause[static_cast<std::size_t>(cause)];
  last_cause_[tid] = cause;
}

void StmEngine::abort_self(u32 tid, StmAbortCause cause) {
  rollback(tid, cause);
  throw htm::TxAbort{mapped_reason(cause)};
}

}  // namespace gilfree::stm
