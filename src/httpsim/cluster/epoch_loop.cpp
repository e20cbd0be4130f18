#include "httpsim/cluster/epoch_loop.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/strutil.hpp"
#include "obs/sink.hpp"
#include "tle/breaker.hpp"

namespace gilfree::httpsim::cluster {

SliceOutcome serve_slice(runtime::EngineConfig cfg, const std::string& program,
                         const DriverConfig& driver, BatchMsg batch) {
  ServerRunResult r =
      run_open_loop_slice(std::move(cfg), program, driver,
                          std::move(batch.slice),
                          static_cast<std::size_t>(batch.schedule_total));
  SliceOutcome o;
  o.completed = r.completed;
  o.dropped = r.dropped;
  o.shed = r.shed;
  o.retries = r.retries;
  o.last_response = r.last_response;
  o.latency_hist = std::move(r.latency_hist);
  o.queue_hist = std::move(r.queue_hist);
  for (const RequestRecord& rec : r.records) {
    if (rec.accepted > batch.window_end) ++o.backlog;
  }
  o.records = std::move(r.records);
  o.stats = std::move(r.stats);
  return o;
}

InProcessTransport::InProcessTransport(
    const runtime::EngineConfig& base, const std::string& program,
    const DriverConfig& driver, u32 slots, u32 epochs, obs::Sink* sink,
    std::map<std::string, std::string> labels, i32 fault_shard)
    : base_(base),
      program_(program),
      driver_(driver),
      slots_(slots),
      epochs_(epochs),
      sink_(sink),
      labels_(std::move(labels)),
      fault_shard_(fault_shard),
      pending_(slots) {}

void InProcessTransport::send(u32 slot, BatchMsg batch) {
  pending_[slot] = std::move(batch);
}

SliceOutcome InProcessTransport::receive(u32 slot) {
  BatchMsg batch = std::move(pending_[slot]);
  if (batch.slice.empty() && epochs_ > 1) return {};
  runtime::EngineConfig cfg = base_;
  cfg.shard_id = slot;
  cfg.shard_count = slots_;
  // Asymmetric brown-out demonstration: the fault campaign hits only the
  // designated shard, the others stay healthy spill targets.
  if (fault_shard_ >= 0 && static_cast<i32>(slot) != fault_shard_)
    cfg.fault = fault::FaultConfig{};
  if (sink_ != nullptr) {
    auto run_labels = labels_;
    run_labels["shard"] = std::to_string(slot);
    run_labels["shards"] = std::to_string(slots_);
    if (epochs_ > 1) {
      run_labels["epoch"] = std::to_string(batch.epoch);
      run_labels["epochs"] = std::to_string(epochs_);
    }
    sink_->next_labels(std::move(run_labels));
    cfg.obs_sink = sink_;
  }
  return serve_slice(std::move(cfg), program_, driver_, std::move(batch));
}

namespace {

void emit_event(ClusterRunResult& result, obs::Sink* sink,
                const std::string& line, bool trace) {
  result.record_lines.push_back(line);
  if (trace && sink != nullptr && sink->enabled()) sink->write_raw(line);
}

/// Records one breaker transition and mirrors it into the trace stream so
/// trace consumers see brown-outs inline with the per-shard engine events.
void note_transition(ClusterRunResult& result, obs::Sink* sink, u32 epoch,
                     u32 shard, const char* state) {
  result.breaker_transitions.push_back(BreakerTransition{epoch, shard, state});
  if (sink != nullptr && sink->enabled()) {
    sink->write_raw(strprintf(
        "{\"ev\":\"breaker\",\"shard\":%u,\"epoch\":%u,\"state\":\"%s\"}",
        shard, epoch, state));
  }
}

void note_scale(ClusterRunResult& result, obs::Sink* sink,
                const ScaleEvent& ev) {
  result.scales.push_back(ev);
  emit_event(result, sink,
             strprintf("{\"ev\":\"scale\",\"epoch\":%u,\"dir\":\"%s\","
                       "\"slot\":%u}",
                       ev.epoch, ev.up ? "up" : "down", ev.slot),
             /*trace=*/true);
}

bool by_id(const RequestRecord& x, const RequestRecord& y) {
  return x.id < y.id;
}

}  // namespace

void merge_shards(ClusterRunResult& result,
                  std::vector<std::vector<RequestRecord>> slot_records,
                  const std::vector<std::string>& paths, double ghz) {
  std::vector<RequestRecord> merged;
  for (std::size_t s = 0; s < result.shards.size(); ++s) {
    ServerRunResult& a = result.shards[s];
    a.queue_mean_cycles = a.queue_hist.mean();
    if (a.last_response > 0) {
      a.throughput_rps = static_cast<double>(a.completed) /
                         (static_cast<double>(a.last_response) / (ghz * 1e9));
    }
    std::sort(slot_records[s].begin(), slot_records[s].end(), by_id);
    a.request_log = format_request_log(slot_records[s], paths);
    merged.insert(merged.end(), slot_records[s].begin(),
                  slot_records[s].end());
    a.records = std::move(slot_records[s]);
    result.latency_hist.merge(a.latency_hist);
    result.queue_hist.merge(a.queue_hist);
    result.completed += a.completed;
    result.dropped += a.dropped;
    result.shed += a.shed;
    result.retries += a.retries;
    result.makespan = std::max(result.makespan, a.last_response);
  }
  std::sort(merged.begin(), merged.end(), by_id);
  result.request_log = format_request_log(merged, paths);
  if (result.makespan > 0) {
    result.throughput_rps =
        static_cast<double>(result.completed) /
        (static_cast<double>(result.makespan) / (ghz * 1e9));
  }
}

ClusterRunResult run_epochs(const std::vector<ScheduledRequest>& schedule,
                            const DriverConfig& driver, double ghz,
                            const ClusterOptions& opt,
                            const BreakerOptions& breaker,
                            Transport& transport, obs::Sink* sink) {
  const u32 slots = opt.slots();
  ClusterRunResult result;
  result.shards.resize(slots);
  result.slot_used.assign(slots, false);
  std::vector<bool> active(slots, false);
  std::vector<std::vector<ScheduledRequest>> pending(slots);
  std::vector<u64> sent(slots, 0);
  std::vector<u64> backlog_carry(slots, 0);
  std::vector<Cycles> epoch_p99(slots, 0);
  std::vector<std::vector<RequestRecord>> slot_records(slots);
  const tle::BreakerParams params{breaker.trip_streak, breaker.probe_initial,
                                  breaker.probe_max};
  std::vector<tle::BreakerCore> breakers(slots);
  u32 next_slot = opt.shards;
  u32 up_streak = 0;
  u32 idle_streak = 0;

  for (u32 s = 0; s < opt.shards; ++s) {
    transport.start(s);
    active[s] = true;
    result.slot_used[s] = true;
  }

  Cycles window_end = 0;
  for (u32 e = 0; e < opt.epochs; ++e) {
    const std::size_t lo = schedule.size() * e / opt.epochs;
    const std::size_t hi =
        schedule.size() * static_cast<std::size_t>(e + 1) / opt.epochs;
    // A breaker epoch without arrivals is skipped whole: route() counts
    // down an open breaker's wait, and an empty window is no evidence.
    if (breaker.enabled && lo == hi) continue;
    if (hi > lo) window_end = schedule[hi - 1].at;

    std::vector<u32> act;
    for (u32 s = 0; s < slots; ++s) {
      if (active[s]) act.push_back(s);
    }
    result.max_active =
        std::max(result.max_active, static_cast<u32>(act.size()));

    emit_event(result, sink,
               strprintf("{\"ev\":\"epoch\",\"epoch\":%u,\"lo\":%zu,\"hi\":%zu,"
                         "\"active\":%zu}",
                         e, lo, hi, act.size()),
               /*trace=*/false);

    // Breaker routing state for this epoch: a probe epoch serves the slot's
    // own keys, an open epoch spills them.
    std::vector<tle::BreakerRoute> route(slots, tle::BreakerRoute::kClosed);
    if (breaker.enabled) {
      for (const u32 s : act) {
        route[s] = breakers[s].route();
        if (route[s] == tle::BreakerRoute::kProbe)
          note_transition(result, sink, e, s, "probe");
      }
    }

    // 1. Route this window's arrivals across the active slots; an open
    // slot's arrivals go to the next non-open slot in ring order (every
    // slot open: the preferred slot keeps them).
    const u32 n = static_cast<u32>(act.size());
    for (std::size_t i = lo; i < hi; ++i) {
      const ScheduledRequest& r = schedule[i];
      const u32 idx = route_key(opt.router, r.id, r.key, n, driver.seed);
      u32 target = act[idx];
      if (route[target] == tle::BreakerRoute::kOpen) {
        for (u32 step = 1; step < n; ++step) {
          const u32 cand = act[(idx + step) % n];
          if (route[cand] != tle::BreakerRoute::kOpen) {
            target = cand;
            ++result.spilled;
            break;
          }
        }
      }
      pending[target].push_back(r);
    }

    const auto depth = [&](u32 s) {
      return static_cast<u64>(pending[s].size()) + backlog_carry[s];
    };
    for (const u32 s : act)
      result.peak_depth_presteal =
          std::max(result.peak_depth_presteal, depth(s));

    // 2. Steal pass: migrate queued requests from the deepest to the
    // shallowest admission queue until the gap closes or the round budget
    // runs out. Ties break toward the lowest slot id, so the whole pass is
    // a pure function of the depths.
    if (opt.steal && act.size() >= 2) {
      for (u32 round = 0; round < opt.steal_rounds; ++round) {
        u32 deepest = act[0];
        u32 shallowest = act[0];
        for (const u32 s : act) {
          if (depth(s) > depth(deepest)) deepest = s;
          if (depth(s) < depth(shallowest)) shallowest = s;
        }
        const u64 gap = depth(deepest) - depth(shallowest);
        if (gap < opt.steal_margin || pending[deepest].empty()) break;
        const u64 moved =
            std::min<u64>({opt.steal_batch, pending[deepest].size(),
                           std::max<u64>(1, gap / 2)});
        auto& from = pending[deepest];
        auto& to = pending[shallowest];
        to.insert(to.end(), from.end() - static_cast<std::ptrdiff_t>(moved),
                  from.end());
        from.erase(from.end() - static_cast<std::ptrdiff_t>(moved),
                   from.end());
        result.steals.push_back(StealEvent{e, deepest, shallowest, moved});
        result.stolen += moved;
        emit_event(result, sink,
                   strprintf("{\"ev\":\"steal\",\"epoch\":%u,\"from\":%u,"
                             "\"to\":%u,\"moved\":%llu}",
                             e, deepest, shallowest,
                             static_cast<unsigned long long>(moved)),
                   /*trace=*/true);
      }
    }
    for (const u32 s : act)
      result.peak_depth = std::max(result.peak_depth, depth(s));

    // 3. Send one batch per active slot (possibly empty, to keep the epoch
    // lockstep), each sorted back into arrival order. A slice's offered
    // rate is its share of the whole schedule, or of the epoch window in a
    // breaker run.
    for (const u32 s : act) {
      std::sort(pending[s].begin(), pending[s].end(),
                [](const ScheduledRequest& a, const ScheduledRequest& b) {
                  return a.at != b.at ? a.at < b.at : a.id < b.id;
                });
      BatchMsg batch;
      batch.epoch = e;
      batch.window_end = window_end;
      batch.schedule_total = breaker.enabled ? hi - lo : schedule.size();
      batch.slice = std::move(pending[s]);
      pending[s].clear();
      sent[s] = batch.slice.size();
      emit_event(result, sink,
                 strprintf("{\"ev\":\"dispatch\",\"epoch\":%u,\"slot\":%u,"
                           "\"n\":%llu}",
                           e, s, static_cast<unsigned long long>(sent[s])),
                 /*trace=*/false);
      transport.send(s, std::move(batch));
    }

    // 4. Receive the outcomes in slot order (the deterministic merge order)
    // and feed each slot's breaker with its epoch health.
    for (const u32 s : act) {
      SliceOutcome o = transport.receive(s);
      if (breaker.enabled && sent[s] > 0) {
        const double bad = static_cast<double>(o.dropped + o.shed) /
                           static_cast<double>(sent[s]);
        bool unhealthy = bad > breaker.shed_ratio;
        if (breaker.latency_budget > 0 && o.completed > 0 &&
            o.latency_hist.percentile(99.0) >
                static_cast<double>(breaker.latency_budget)) {
          unhealthy = true;
        }
        if (unhealthy) {
          const tle::BreakerOutcome bko =
              breakers[s].on_failure(params, true);
          if (bko.probe_failed)
            note_transition(result, sink, e, s, "probe-failed");
          if (bko.tripped) note_transition(result, sink, e, s, "open");
        } else if (breakers[s].on_success()) {
          note_transition(result, sink, e, s, "closed");
        }
      }

      ServerRunResult& a = result.shards[s];
      a.completed += static_cast<u32>(o.completed);
      a.dropped += static_cast<u32>(o.dropped);
      a.shed += static_cast<u32>(o.shed);
      a.retries += static_cast<u32>(o.retries);
      a.latency_hist.merge(o.latency_hist);
      a.queue_hist.merge(o.queue_hist);
      a.last_response = std::max(a.last_response, o.last_response);
      if (o.stats) a.stats = std::move(*o.stats);  // last engine run's stats
      slot_records[s].insert(slot_records[s].end(), o.records.begin(),
                             o.records.end());
      backlog_carry[s] = o.backlog;
      epoch_p99[s] =
          o.latency_hist.total() > 0 ? o.latency_hist.percentile(99.0) : 0;
    }

    // 5. Autoscale decision for the next epoch.
    if (opt.autoscale && e + 1 < opt.epochs) {
      bool overloaded = false;
      bool idle = true;
      for (const u32 s : act) {
        if (backlog_carry[s] >= opt.scale_up_depth) overloaded = true;
        if (opt.scale_up_p99 > 0 && epoch_p99[s] > opt.scale_up_p99)
          overloaded = true;
        if (backlog_carry[s] > opt.scale_down_depth) idle = false;
      }
      up_streak = overloaded ? up_streak + 1 : 0;
      idle_streak = idle ? idle_streak + 1 : 0;
      if (up_streak >= opt.scale_sustain && next_slot < slots) {
        const u32 s = next_slot++;
        transport.start(s);
        active[s] = true;
        result.slot_used[s] = true;
        note_scale(result, sink, ScaleEvent{e, /*up=*/true, s});
        up_streak = 0;
      } else if (idle_streak >= opt.scale_idle && act.size() > opt.scale_min) {
        const u32 s = act.back();  // retire the highest-id active slot
        transport.stop(s);
        active[s] = false;
        note_scale(result, sink, ScaleEvent{e, /*up=*/false, s});
        idle_streak = 0;
      }
    }
  }

  for (u32 s = 0; s < slots; ++s) {
    if (active[s]) transport.stop(s);
  }

  merge_shards(result, std::move(slot_records), driver.paths, ghz);
  if (result.completed + result.dropped + result.shed != schedule.size())
    throw std::runtime_error("sharded run: request accounting mismatch");
  using ull = unsigned long long;
  emit_event(result, sink,
             strprintf("{\"ev\":\"end\",\"completed\":%llu,\"dropped\":%llu,"
                       "\"shed\":%llu,\"retries\":%llu,\"makespan\":%llu,"
                       "\"stolen\":%llu,\"log_fnv\":\"%llu\"}",
                       ull{result.completed}, ull{result.dropped},
                       ull{result.shed}, ull{result.retries},
                       ull{result.makespan}, ull{result.stolen},
                       ull{fnv1a64(result.request_log)}),
             /*trace=*/false);
  return result;
}

}  // namespace gilfree::httpsim::cluster
