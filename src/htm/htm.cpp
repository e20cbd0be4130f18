#include "htm/htm.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gilfree::htm {

HtmFacility::HtmFacility(const HtmConfig& config, sim::Machine* machine)
    : config_(config),
      line_shift_(static_cast<u32>(__builtin_ctzll(config.line_bytes))),
      machine_(machine) {
  GILFREE_CHECK(machine_ != nullptr);
  GILFREE_CHECK_MSG(u64{1} << line_shift_ == config_.line_bytes,
                    "line size must be a power of two");
  GILFREE_CHECK_MSG(machine_->num_cpus() <= 64,
                    "conflict table reader masks are 64-bit");
  GILFREE_CHECK(config_.line_bytes == machine_->config().line_bytes);
  tx_.resize(machine_->num_cpus());
  stats_.resize(machine_->num_cpus());
  last_conflict_line_.assign(machine_->num_cpus(), kInvalidLine);
  seed_rngs();
  if (config_.learning)
    learning_.emplace(machine_->num_cpus(), config_.learning_up,
                      config_.learning_decay_txns, learning_seed_);
}

void HtmFacility::seed_rngs() {
  rng_.clear();
  // The shard id perturbs the seed only when nonzero, so shard 0 reproduces
  // the unsharded stream; reset() re-derives from the same pair.
  u64 seed = config_.seed;
  if (config_.shard_id != 0)
    seed = mix64(seed ^ (0x9e3779b97f4a7c15ULL * config_.shard_id));
  Rng seeder(seed);
  for (u32 i = 0; i < machine_->num_cpus(); ++i) rng_.push_back(seeder.split());
  learning_seed_ = seeder.next_u64();
}

AbortReason HtmFacility::tx_begin(CpuId cpu, i32 yp) {
  TxState& t = tx_.at(cpu);
  GILFREE_CHECK_MSG(!t.active, "nested transactions are not supported");
  HtmStats& stats = stats_.at(cpu);
  ++stats.begins;
  // The core refuses to speculate (learning model), or an injected
  // persistent fault pinned to this yield point refuses the transaction:
  // a capacity code without the retry hint, and no new overflow evidence.
  const bool eager = learning_ && learning_->eager_abort(cpu);
  if (eager ||
      (injector_ && injector_->begin_fault(cpu, yp, machine_->clock(cpu)))) {
    if (eager) {
      ++stats.eager_aborts;
      learning_->on_non_overflow(cpu);
    }
    ++stats.aborts_by_reason[static_cast<int>(AbortReason::kOverflowWrite)];
    return AbortReason::kOverflowWrite;
  }
  t.active = true;
  t.doom = AbortReason::kNone;
  t.lines.clear();
  t.read_count = t.write_count = 0;
  t.redo.clear();
  last_conflict_line_.at(cpu) = kInvalidLine;

  const Cycles now = machine_->clock(cpu);
  if (t.next_interrupt <= now) {
    Cycles mean = config_.interrupt_mean_cycles;
    if (injector_) mean = injector_->interrupt_mean(cpu, now, mean);
    t.next_interrupt = now + static_cast<Cycles>(rng_.at(cpu).next_exponential(
                                 static_cast<double>(mean)));
  }
  arm_deadline(t, cpu);
  return AbortReason::kNone;
}

inline HtmFacility::TxState& HtmFacility::enter(CpuId cpu) {
  TxState& t = tx_[cpu];
  GILFREE_CHECK(t.active);
  if (t.doom != AbortReason::kNone) abort_self(cpu, t.doom);
  if (machine_->clock(cpu) >= t.deadline) deadline_due(cpu);
  return t;
}

void HtmFacility::deadline_due(CpuId cpu) {
  TxState& t = tx_[cpu];
  const Cycles now = machine_->clock(cpu);
  if (now >= t.next_interrupt) {
    t.next_interrupt = 0;  // resampled at next tx_begin
    abort_self(cpu, AbortReason::kInterrupt);
  }
  // Spurious faults abort like transient conflicts; an arrival outside the
  // spurious window only resamples the clock.
  if (injector_ && injector_->spurious_due(cpu, now))
    abort_self(cpu, AbortReason::kConflict);
  arm_deadline(t, cpu);
}

AbortReason HtmFacility::tx_commit(CpuId cpu) {
  TxState& t = tx_.at(cpu);
  GILFREE_CHECK(t.active);
  if (const AbortReason reason = t.doom; reason != AbortReason::kNone) {
    rollback(cpu, reason);
    return reason;
  }
  // Drain the store buffer to memory in one atomic step, in first-store
  // order.
  for (const auto& e : t.redo) {
    *reinterpret_cast<u64*>(e.key) = e.value.value;
    if (write_listener_) write_listener_->on_nontx_write(e.value.line);
  }
  detach(cpu);
  t.active = false;
  ++stats_.at(cpu).commits;
  if (learning_) learning_->on_non_overflow(cpu);
  return AbortReason::kNone;
}

void HtmFacility::tx_abort(CpuId cpu, AbortReason reason) {
  GILFREE_CHECK(tx_.at(cpu).active);
  GILFREE_CHECK(reason != AbortReason::kNone);
  rollback(cpu, reason);
}

void HtmFacility::force_abort(CpuId cpu, AbortReason reason) {
  if (tx_.at(cpu).active) rollback(cpu, reason);
}

void HtmFacility::doom_all(CpuId except, AbortReason reason) {
  // Victims' conflict lines stay unset: reset at TBEGIN, set only by a doom.
  u64 all = tx_.size() == 64 ? ~u64{0} : (u64{1} << tx_.size()) - 1;
  if (except < tx_.size()) all &= ~(u64{1} << except);
  doom_mask(all, reason, kInvalidLine);
}

u64 HtmFacility::tx_load(CpuId cpu, const u64* addr, bool shared,
                         LineId line) {
  TxState& t = enter(cpu);
  if (line == kInvalidLine) line = line_of(addr);
  bool fresh;
  u8& marks = t.lines.insert(line, 0, fresh).value;
  // Read own speculative writes.
  if (marks & kWritten) {
    if (const auto* e = t.redo.find(reinterpret_cast<u64>(addr)))
      return e->value.value;
  }
  if (!(marks & kRead)) {
    marks |= kRead;
    check_capacity(cpu, ++t.read_count, effective_max_read(cpu),
                   AbortReason::kOverflowRead);
    // Requester wins: a transactional writer elsewhere is invalidated.
    if (shared) conflict(table_.add_reader(line, cpu), line);
  }
  return *addr;
}

void HtmFacility::tx_store(CpuId cpu, u64* addr, u64 value, bool shared,
                           LineId line) {
  TxState& t = enter(cpu);
  if (line == kInvalidLine) line = line_of(addr);
  bool fresh;
  u8& marks = t.lines.insert(line, 0, fresh).value;
  if (!(marks & kWritten)) {
    marks |= kWritten;
    check_capacity(cpu, ++t.write_count, effective_max_write(cpu),
                   AbortReason::kOverflowWrite);
    if (shared) conflict(table_.add_writer(line, cpu), line);
  }
  t.redo.insert(reinterpret_cast<u64>(addr), Buffered{}, fresh).value =
      Buffered{value, line};
}

void HtmFacility::check_capacity(CpuId cpu, u32 lines, u32 max,
                                 AbortReason reason) {
  u32 limit = max;  // after any injected capacity reduction (never below 1)
  if (injector_) {
    const double f = injector_->capacity_factor(machine_->clock(cpu));
    if (f < 1.0) limit = std::max<u32>(1, static_cast<u32>(max * f));
  }
  if (lines <= limit) return;
  // A footprint the full capacity would have held: the clip caused it.
  if (lines <= max) injector_->capacity_clip(cpu, machine_->clock(cpu));
  if (learning_) learning_->on_overflow(cpu);
  abort_self(cpu, reason);
}

void HtmFacility::conflict(u64 victims, LineId line) {
  if (victims == 0) return;
  if (collect_conflicts_) ++conflict_lines_[line];
  doom_mask(victims, AbortReason::kConflict, line);
}

u64 HtmFacility::nontx_load(CpuId cpu, const u64* addr, LineId line) {
  GILFREE_CHECK(!tx_.at(cpu).active);
  if (line == kInvalidLine) line = line_of(addr);
  conflict(table_.writer_excluding(line, cpu), line);
  return *addr;
}

void HtmFacility::nontx_store(CpuId cpu, u64* addr, u64 value, LineId line) {
  GILFREE_CHECK(!tx_.at(cpu).active);
  if (line == kInvalidLine) line = line_of(addr);
  conflict(table_.holders_excluding(line, cpu), line);
  *addr = value;
  if (write_listener_ != nullptr) write_listener_->on_nontx_write(line);
}

HtmStats HtmFacility::total_stats() const {
  HtmStats total;
  for (const HtmStats& s : stats_) {
    total.begins += s.begins;
    total.commits += s.commits;
    total.eager_aborts += s.eager_aborts;
    for (std::size_t i = 0; i < kNumAbortReasons; ++i)
      total.aborts_by_reason[i] += s.aborts_by_reason[i];
  }
  return total;
}

void HtmFacility::doom_mask(u64 mask, AbortReason reason, LineId line) {
  while (mask) {
    const CpuId victim = static_cast<CpuId>(__builtin_ctzll(mask));
    mask &= mask - 1;
    TxState& t = tx_.at(victim);
    if (!t.active || t.doom != AbortReason::kNone) continue;
    t.doom = reason;
    last_conflict_line_.at(victim) = line;
    // The coherency request invalidated the victim's speculative lines:
    // they leave detection now; the victim notices at its next access.
    detach(victim);
  }
}

void HtmFacility::detach(CpuId cpu) {
  for (const auto& e : tx_.at(cpu).lines) table_.remove(e.key, cpu);
}

void HtmFacility::rollback(CpuId cpu, AbortReason reason) {
  TxState& t = tx_.at(cpu);
  if (t.doom == AbortReason::kNone) detach(cpu);  // a doom detached already
  t.active = false;
  t.doom = AbortReason::kNone;
  ++stats_.at(cpu).aborts_by_reason[static_cast<int>(reason)];
  if (learning_ && reason != AbortReason::kOverflowRead &&
      reason != AbortReason::kOverflowWrite) {
    learning_->on_non_overflow(cpu);
  }
}

void HtmFacility::abort_self(CpuId cpu, AbortReason reason) {
  rollback(cpu, reason);
  throw TxAbort{reason};
}

void HtmFacility::reset() {
  for (auto& t : tx_) t = TxState{};
  for (auto& s : stats_) s = HtmStats{};
  table_ = ConflictTable{};
  conflict_lines_.clear();
  last_conflict_line_.assign(last_conflict_line_.size(), kInvalidLine);
  seed_rngs();
  if (learning_) learning_->reset();
  if (injector_) injector_->reset();
}

}  // namespace gilfree::htm
