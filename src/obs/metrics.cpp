#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace gilfree::obs {

namespace {

void append_reason_counts(
    std::string& out, const std::array<u64, htm::kNumAbortReasons>& counts) {
  out.push_back('{');
  bool first = true;
  for (std::size_t r = 1; r < counts.size(); ++r) {  // skip kNone
    if (counts[r] == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    json_append_string(
        out, htm::abort_reason_name(static_cast<htm::AbortReason>(r)));
    out.push_back(':');
    json_append_number(out, counts[r]);
  }
  out.push_back('}');
}

void append_length_map(std::string& out, const std::map<u32, u64>& m) {
  out.push_back('{');
  bool first = true;
  for (const auto& [len, n] : m) {
    if (!first) out.push_back(',');
    first = false;
    json_append_string(out, std::to_string(len));
    out.push_back(':');
    json_append_number(out, n);
  }
  out.push_back('}');
}

void append_fault_counts(
    std::string& out, const std::array<u64, fault::kNumFaultKinds>& counts) {
  out.push_back('{');
  bool first = true;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    json_append_string(out,
                       fault::fault_kind_name(static_cast<fault::FaultKind>(k)));
    out.push_back(':');
    json_append_number(out, counts[k]);
  }
  out.push_back('}');
}

void append_yield_point(std::string& out, i32 yp,
                        const YieldPointMetrics& m) {
  out += "{\"yp\":";
  json_append_number(out, static_cast<i64>(yp));
  out += ",\"begins\":";
  json_append_number(out, m.begins);
  out += ",\"commits\":";
  json_append_number(out, m.commits);
  out += ",\"aborts\":";
  json_append_number(out, m.total_aborts());
  out += ",\"fallbacks\":";
  json_append_number(out, m.fallbacks);
  out += ",\"final_length\":";
  json_append_number(out, static_cast<u64>(m.final_length));
  out += ",\"length_adjustments\":";
  json_append_number(out, m.length_adjustments);
  out += ",\"quarantine_enters\":";
  json_append_number(out, m.quarantine_enters);
  out += ",\"quarantine_exits\":";
  json_append_number(out, m.quarantine_exits);
  out += ",\"aborts_by_reason\":";
  append_reason_counts(out, m.aborts_by_reason);
  out += ",\"begins_by_length\":";
  append_length_map(out, m.begins_by_length);
  out += ",\"abort_reason_length\":{";
  bool first = true;
  for (std::size_t r = 1; r < m.abort_length.size(); ++r) {
    if (m.abort_length[r].empty()) continue;
    if (!first) out.push_back(',');
    first = false;
    json_append_string(
        out, htm::abort_reason_name(static_cast<htm::AbortReason>(r)));
    out.push_back(':');
    append_length_map(out, m.abort_length[r]);
  }
  out += "}}";
}

void append_requests(std::string& out, const RequestMetrics& r) {
  out += "{\"completed\":";
  json_append_number(out, r.completed);
  out += ",\"dropped\":";
  json_append_number(out, r.dropped);
  out += ",\"latency_min\":";
  json_append_number(out, r.latency_min);
  out += ",\"latency_max\":";
  json_append_number(out, r.latency_max);
  out += ",\"latency_mean\":";
  json_append_number(out, r.latency_mean());
  out += ",\"latency_p50\":";
  json_append_number(out, r.latency_hist.percentile(50.0));
  out += ",\"latency_p90\":";
  json_append_number(out, r.latency_hist.percentile(90.0));
  out += ",\"latency_p99\":";
  json_append_number(out, r.latency_hist.percentile(99.0));
  out += ",\"latency_p999\":";
  json_append_number(out, r.latency_hist.percentile(99.9));
  out += ",\"queue_mean\":";
  json_append_number(out, r.queue_mean());
  out += ",\"queue_max\":";
  json_append_number(out, r.queue_max);
  out += ",\"queue_p50\":";
  json_append_number(out, r.queue_hist.percentile(50.0));
  out += ",\"queue_p99\":";
  json_append_number(out, r.queue_hist.percentile(99.0));
  out += ",\"arrival\":";
  json_append_string(out, r.arrival);
  out += ",\"offered_rps\":";
  json_append_number(out, r.offered_rps);
  // Overload-protection accounting only appears once a run actually shed,
  // CoDel-dropped, or retried something: default runs keep their bytes.
  if (r.shed + r.codel_dropped + r.retries != 0) {
    out += ",\"shed\":";
    json_append_number(out, r.shed);
    out += ",\"codel_dropped\":";
    json_append_number(out, r.codel_dropped);
    out += ",\"retries\":";
    json_append_number(out, r.retries);
  }
  out += ",\"latency_hist\":";
  json_append_string(out, r.latency_hist.to_sparse_string());
  out.push_back('}');
}

void append_stm_causes(
    std::string& out,
    const std::array<u64, stm::kNumStmAbortCauses>& counts) {
  out.push_back('{');
  bool first = true;
  for (std::size_t c = 1; c < counts.size(); ++c) {  // skip kNone
    if (counts[c] == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    json_append_string(
        out, stm::stm_abort_cause_name(static_cast<stm::StmAbortCause>(c)));
    out.push_back(':');
    json_append_number(out, counts[c]);
  }
  out.push_back('}');
}

void append_stm(std::string& out, const StmMetrics& s) {
  out += "{\"begins\":";
  json_append_number(out, s.begins);
  out += ",\"commits\":";
  json_append_number(out, s.commits);
  out += ",\"aborts\":";
  json_append_number(out, s.total_aborts());
  out += ",\"aborts_by_cause\":";
  append_stm_causes(out, s.aborts_by_cause);
  out += ",\"escalations\":";
  json_append_number(out, s.escalations);
  out += ",\"gil_fallbacks\":";
  json_append_number(out, s.gil_fallbacks);
  out += ",\"validated_entries\":";
  json_append_number(out, s.validated_entries);
  out += ",\"committed_writes\":";
  json_append_number(out, s.committed_writes);
  out += ",\"zombie_kills\":";
  json_append_number(out, s.zombie_kills);
  out += ",\"max_read_lines\":";
  json_append_number(out, s.max_read_lines);
  out += ",\"max_write_entries\":";
  json_append_number(out, s.max_write_entries);
  out.push_back('}');
}

void append_cycles(std::string& out, const CycleMetrics& c) {
  out += "{\"begin_end\":";
  json_append_number(out, c.begin_end);
  out += ",\"tx_success\":";
  json_append_number(out, c.tx_success);
  out += ",\"tx_aborted\":";
  json_append_number(out, c.tx_aborted);
  if (c.stm_work != 0) {
    // Conditional so STM-less runs keep the pre-STM document bytes.
    out += ",\"stm_work\":";
    json_append_number(out, c.stm_work);
  }
  out += ",\"gil_held\":";
  json_append_number(out, c.gil_held);
  out += ",\"gil_wait\":";
  json_append_number(out, c.gil_wait);
  out += ",\"blocked_io\":";
  json_append_number(out, c.blocked_io);
  out += ",\"other\":";
  json_append_number(out, c.other);
  out += ",\"total\":";
  json_append_number(out, c.total());
  out.push_back('}');
}

void append_gc(std::string& out, const GcMetrics& g) {
  out += "{\"collections\":";
  json_append_number(out, g.collections);
  out += ",\"total_marked\":";
  json_append_number(out, g.total_marked);
  out += ",\"total_swept\":";
  json_append_number(out, g.total_swept);
  out += ",\"grown_blocks\":";
  json_append_number(out, g.grown_blocks);
  out += ",\"arena_refills\":";
  json_append_number(out, g.arena_refills);
  out += ",\"arena_grows\":";
  json_append_number(out, g.arena_grows);
  out += ",\"arena_shrinks\":";
  json_append_number(out, g.arena_shrinks);
  out += ",\"pool_segments\":";
  json_append_number(out, g.pool_segments);
  out += ",\"segment_slots_min\":";
  json_append_number(out, static_cast<u64>(g.segment_slots_min));
  out += ",\"segment_slots_max\":";
  json_append_number(out, static_cast<u64>(g.segment_slots_max));
  out += ",\"sweep_quanta\":";
  json_append_number(out, g.sweep_quanta);
  out += ",\"sweep_quantum_cycles\":";
  json_append_number(out, g.sweep_quantum_cycles);
  if (g.minor_collections + g.mark_quanta + g.arena_steals != 0) {
    // Conditional so non-generational runs keep the pre-nursery document
    // bytes (same discipline as cycles.stm_work above).
    out += ",\"minor_collections\":";
    json_append_number(out, g.minor_collections);
    out += ",\"nursery_promoted\":";
    json_append_number(out, g.nursery_promoted);
    out += ",\"nursery_freed\":";
    json_append_number(out, g.nursery_freed);
    out += ",\"mark_quanta\":";
    json_append_number(out, g.mark_quanta);
    out += ",\"mark_quantum_cycles\":";
    json_append_number(out, g.mark_quantum_cycles);
    out += ",\"arena_steals\":";
    json_append_number(out, g.arena_steals);
    out += ",\"stolen_segments\":";
    json_append_number(out, g.stolen_segments);
  }
  out += ",\"pause_max\":";
  json_append_number(out, g.max_pause);
  out += ",\"pause_p50\":";
  json_append_number(out, g.pause_hist.percentile(50.0));
  out += ",\"pause_p99\":";
  json_append_number(out, g.pause_hist.percentile(99.0));
  out += ",\"pause_hist\":";
  json_append_string(out, g.pause_hist.to_sparse_string());
  out.push_back('}');
}

void append_run(std::string& out, const RunMetrics& m) {
  out += "{\"run\":";
  json_append_number(out, static_cast<u64>(m.run_id));
  out += ",\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : m.labels) {
    if (!first) out.push_back(',');
    first = false;
    json_append_string(out, k);
    out.push_back(':');
    json_append_string(out, v);
  }
  out += "},\"seed\":";
  json_append_number(out, m.seed);
  out += ",\"mode\":";
  json_append_string(out, m.mode);
  out += ",\"machine\":";
  json_append_string(out, m.machine);
  out += ",\"begins\":";
  json_append_number(out, m.begins);
  out += ",\"commits\":";
  json_append_number(out, m.commits);
  out += ",\"aborts\":";
  json_append_number(out, m.total_aborts());
  out += ",\"abort_ratio\":";
  json_append_number(out, m.abort_ratio());
  out += ",\"aborts_by_reason\":";
  append_reason_counts(out, m.aborts_by_reason);
  out += ",\"gil_fallbacks\":";
  json_append_number(out, m.gil_fallbacks);
  out += ",\"ctx_switch_aborts\":";
  json_append_number(out, m.ctx_switch_aborts);
  out += ",\"length_adjustments\":";
  json_append_number(out, m.length_adjustments);
  out += ",\"insns_retired\":";
  json_append_number(out, m.insns_retired);
  out += ",\"total_cycles\":";
  json_append_number(out, m.total_cycles);
  out += ",\"virtual_seconds\":";
  json_append_number(out, m.virtual_seconds);
  // fused_instructions is always 0 (the interpreter no longer fuses
  // instruction pairs); the key stays because the host-cost benchmark reads it.
  out += ",\"interp\":{\"fused_instructions\":0,\"ic_method_hit_rate\":";
  json_append_number(out, m.ic_method_hit_rate);
  out += ",\"ic_ivar_hit_rate\":";
  json_append_number(out, m.ic_ivar_hit_rate);
  out += "},\"gc\":";
  append_gc(out, m.gc);
  out += ",\"quarantine\":{\"enters\":";
  json_append_number(out, m.quarantine_enters);
  out += ",\"probes\":";
  json_append_number(out, m.quarantine_probes);
  out += ",\"exits\":";
  json_append_number(out, m.quarantine_exits);
  out += "},\"watchdog_events\":";
  json_append_number(out, m.watchdog_events);
  out += ",\"faults_injected\":";
  json_append_number(out, m.faults_injected());
  out += ",\"faults_by_kind\":";
  append_fault_counts(out, m.faults_by_kind);
  if (m.stm.any()) {
    // Conditional so STM-less runs keep the pre-STM document bytes.
    out += ",\"stm\":";
    append_stm(out, m.stm);
  }
  out += ",\"cycles\":";
  append_cycles(out, m.cycles);
  out += ",\"yield_points\":[";
  first = true;
  for (const auto& [yp, ym] : m.per_yield_point) {
    if (!first) out.push_back(',');
    first = false;
    append_yield_point(out, yp, ym);
  }
  out += "],\"requests\":";
  append_requests(out, m.requests);
  out += ",\"trace\":{\"sample\":";
  json_append_number(out, m.trace_sample);
  out += ",\"events_seen\":";
  json_append_number(out, m.events_seen);
  out += ",\"events_recorded\":";
  json_append_number(out, m.events_recorded);
  out += ",\"events_evicted\":";
  json_append_number(out, m.events_evicted);
  out += "}}";
}

}  // namespace

std::string metrics_to_json(const std::vector<RunMetrics>& runs) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"gilfree.metrics/1\",\"runs\":[";
  bool first = true;
  for (const RunMetrics& m : runs) {
    if (!first) out.push_back(',');
    first = false;
    append_run(out, m);
  }
  out += "],\"totals\":{";
  RunMetrics t;
  for (const RunMetrics& m : runs) {
    t.begins += m.begins;
    t.commits += m.commits;
    for (std::size_t r = 0; r < t.aborts_by_reason.size(); ++r)
      t.aborts_by_reason[r] += m.aborts_by_reason[r];
    t.gil_fallbacks += m.gil_fallbacks;
    t.requests.merge(m.requests);
    t.gc.merge(m.gc);
    t.quarantine_enters += m.quarantine_enters;
    t.quarantine_probes += m.quarantine_probes;
    t.quarantine_exits += m.quarantine_exits;
    t.watchdog_events += m.watchdog_events;
    for (std::size_t k = 0; k < t.faults_by_kind.size(); ++k)
      t.faults_by_kind[k] += m.faults_by_kind[k];
    t.stm.begins += m.stm.begins;
    t.stm.commits += m.stm.commits;
    for (std::size_t c = 0; c < t.stm.aborts_by_cause.size(); ++c)
      t.stm.aborts_by_cause[c] += m.stm.aborts_by_cause[c];
    t.stm.escalations += m.stm.escalations;
    t.stm.gil_fallbacks += m.stm.gil_fallbacks;
    t.stm.validated_entries += m.stm.validated_entries;
    t.stm.committed_writes += m.stm.committed_writes;
    t.stm.zombie_kills += m.stm.zombie_kills;
    if (m.stm.max_read_lines > t.stm.max_read_lines)
      t.stm.max_read_lines = m.stm.max_read_lines;
    if (m.stm.max_write_entries > t.stm.max_write_entries)
      t.stm.max_write_entries = m.stm.max_write_entries;
  }
  out += "\"runs\":";
  json_append_number(out, static_cast<u64>(runs.size()));
  out += ",\"begins\":";
  json_append_number(out, t.begins);
  out += ",\"commits\":";
  json_append_number(out, t.commits);
  out += ",\"aborts\":";
  json_append_number(out, t.total_aborts());
  out += ",\"aborts_by_reason\":";
  append_reason_counts(out, t.aborts_by_reason);
  out += ",\"gil_fallbacks\":";
  json_append_number(out, t.gil_fallbacks);
  out += ",\"quarantine\":{\"enters\":";
  json_append_number(out, t.quarantine_enters);
  out += ",\"probes\":";
  json_append_number(out, t.quarantine_probes);
  out += ",\"exits\":";
  json_append_number(out, t.quarantine_exits);
  out += "},\"watchdog_events\":";
  json_append_number(out, t.watchdog_events);
  out += ",\"faults_injected\":";
  json_append_number(out, t.faults_injected());
  if (t.stm.any()) {
    out += ",\"stm\":";
    append_stm(out, t.stm);
  }
  out += ",\"requests_completed\":";
  json_append_number(out, t.requests.completed);
  out += ",\"gc\":";
  append_gc(out, t.gc);
  // Cross-run (per-shard) request merge: the histograms add, so the
  // percentiles here are the merged-population percentiles a single
  // unsharded histogram of every request would report.
  out += ",\"requests\":";
  append_requests(out, t.requests);
  out += "}}\n";
  return out;
}

void GcMetrics::merge(const GcMetrics& o) {
  collections += o.collections;
  total_marked += o.total_marked;
  total_swept += o.total_swept;
  grown_blocks += o.grown_blocks;
  arena_grows += o.arena_grows;
  arena_shrinks += o.arena_shrinks;
  pool_segments += o.pool_segments;
  if (o.arena_refills > 0) {
    if (arena_refills == 0 || o.segment_slots_min < segment_slots_min)
      segment_slots_min = o.segment_slots_min;
    if (o.segment_slots_max > segment_slots_max)
      segment_slots_max = o.segment_slots_max;
  }
  arena_refills += o.arena_refills;
  sweep_quanta += o.sweep_quanta;
  sweep_quantum_cycles += o.sweep_quantum_cycles;
  minor_collections += o.minor_collections;
  nursery_promoted += o.nursery_promoted;
  nursery_freed += o.nursery_freed;
  mark_quanta += o.mark_quanta;
  mark_quantum_cycles += o.mark_quantum_cycles;
  arena_steals += o.arena_steals;
  stolen_segments += o.stolen_segments;
  if (o.max_pause > max_pause) max_pause = o.max_pause;
  pause_hist.merge(o.pause_hist);
}

void RequestMetrics::merge(const RequestMetrics& o) {
  if (o.completed > 0) {
    if (completed == 0 || o.latency_min < latency_min)
      latency_min = o.latency_min;
    if (o.latency_max > latency_max) latency_max = o.latency_max;
  }
  completed += o.completed;
  dropped += o.dropped;
  shed += o.shed;
  codel_dropped += o.codel_dropped;
  retries += o.retries;
  latency_sum += o.latency_sum;
  queue_sum += o.queue_sum;
  if (o.queue_max > queue_max) queue_max = o.queue_max;
  latency_hist.merge(o.latency_hist);
  queue_hist.merge(o.queue_hist);
  if (arrival.empty()) arrival = o.arrival;
  // Shards split one offered stream: rates add when both sides carry one.
  offered_rps += o.offered_rps;
}

}  // namespace gilfree::obs
