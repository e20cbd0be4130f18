#include "httpsim/cluster/protocol.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace gilfree::httpsim::cluster {

namespace {

/// Far above any real frame (the largest are full-campaign result frames,
/// tens of MB); a length beyond this means a corrupted stream, and failing
/// fast beats a multi-gigabyte allocation.
constexpr u64 kMaxFrameBytes = u64{1} << 32;

void write_full(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("cluster pipe write: ") +
                               std::strerror(errno));
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Returns false on clean EOF before the first byte; throws on EOF midway.
bool read_full(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("cluster pipe read: ") +
                               std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0) return false;
      throw std::runtime_error("cluster pipe closed mid-frame");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void require_no_newline(const std::string& s, const char* what) {
  if (s.find('\n') != std::string::npos || s.find('\r') != std::string::npos)
    throw std::invalid_argument(std::string(what) +
                                " must not contain newlines");
}

/// Line-oriented payload reader: `key rest-of-line` records.
class LineReader {
 public:
  explicit LineReader(const std::string& payload) : in_(payload) {}

  /// Next line split at the first space; false at end of payload.
  bool next(std::string& key, std::string& value) {
    std::string line;
    if (!std::getline(in_, line)) return false;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) {
      key = line;
      value.clear();
    } else {
      key = line.substr(0, sp);
      value = line.substr(sp + 1);
    }
    return true;
  }

 private:
  std::istringstream in_;
};

u64 parse_u64(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const u64 v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("cluster frame: bad ") + what +
                                " \"" + s + "\"");
  }
}

}  // namespace

void write_frame(int fd, FrameKind kind, const std::string& payload) {
  const u32 k = static_cast<u32>(kind);
  const u64 n = payload.size();
  char header[12];
  std::memcpy(header, &k, 4);
  std::memcpy(header + 4, &n, 8);
  write_full(fd, header, sizeof header);
  if (n > 0) write_full(fd, payload.data(), payload.size());
}

std::optional<Frame> read_frame(int fd) {
  char header[12];
  if (!read_full(fd, header, sizeof header)) return std::nullopt;
  u32 k = 0;
  u64 n = 0;
  std::memcpy(&k, header, 4);
  std::memcpy(&n, header + 4, 8);
  if (k < 1 || k > 4)
    throw std::runtime_error("cluster frame: unknown kind " +
                             std::to_string(k));
  if (n > kMaxFrameBytes)
    throw std::runtime_error("cluster frame: implausible size " +
                             std::to_string(n));
  Frame f;
  f.kind = static_cast<FrameKind>(k);
  f.payload.resize(static_cast<std::size_t>(n));
  if (n > 0 && !read_full(fd, f.payload.data(), f.payload.size()))
    throw std::runtime_error("cluster pipe closed mid-frame");
  return f;
}

// --- InitMsg ----------------------------------------------------------------

std::string InitMsg::encode() const {
  require_no_newline(machine, "machine");
  require_no_newline(config, "config");
  require_no_newline(program, "program");
  require_no_newline(trace_path, "trace path");
  require_no_newline(metrics_path, "metrics path");
  std::string out;
  out += "machine " + machine + "\n";
  out += "config " + config + "\n";
  out += "program " + program + "\n";
  out += "seed " + std::to_string(engine_seed) + "\n";
  out += "slot " + std::to_string(slot) + "\n";
  out += "slots " + std::to_string(slots) + "\n";
  if (!trace_path.empty()) out += "trace " + trace_path + "\n";
  if (!metrics_path.empty()) out += "metrics " + metrics_path + "\n";
  for (const std::string& f : engine_flags) {
    require_no_newline(f, "engine flag");
    out += "eflag " + f + "\n";
  }
  for (const std::string& f : driver_flags) {
    require_no_newline(f, "driver flag");
    out += "dflag " + f + "\n";
  }
  return out;
}

InitMsg InitMsg::decode(const std::string& payload) {
  InitMsg m;
  m.machine.clear();
  m.config.clear();
  m.program.clear();
  LineReader lines(payload);
  std::string key, value;
  while (lines.next(key, value)) {
    if (key == "machine") {
      m.machine = value;
    } else if (key == "config") {
      m.config = value;
    } else if (key == "program") {
      m.program = value;
    } else if (key == "seed") {
      m.engine_seed = parse_u64(value, "seed");
    } else if (key == "slot") {
      m.slot = static_cast<u32>(parse_u64(value, "slot"));
    } else if (key == "slots") {
      m.slots = static_cast<u32>(parse_u64(value, "slots"));
    } else if (key == "trace") {
      m.trace_path = value;
    } else if (key == "metrics") {
      m.metrics_path = value;
    } else if (key == "eflag") {
      m.engine_flags.push_back(value);
    } else if (key == "dflag") {
      m.driver_flags.push_back(value);
    } else {
      throw std::invalid_argument("cluster init: unknown field \"" + key +
                                  "\"");
    }
  }
  if (m.machine.empty() || m.config.empty() || m.program.empty())
    throw std::invalid_argument("cluster init: missing machine/config/program");
  if (m.slots == 0 || m.slot >= m.slots)
    throw std::invalid_argument("cluster init: slot out of range");
  return m;
}

// --- BatchMsg ---------------------------------------------------------------

std::string BatchMsg::encode() const {
  std::string out;
  out += "epoch " + std::to_string(epoch) + "\n";
  out += "window_end " + std::to_string(window_end) + "\n";
  out += "schedule_total " + std::to_string(schedule_total) + "\n";
  out += "n " + std::to_string(slice.size()) + "\n";
  for (const ScheduledRequest& r : slice) {
    out += "r " + std::to_string(r.id) + " " + std::to_string(r.at) + " " +
           std::to_string(r.path) + " " + (r.close ? "1" : "0") + " " +
           std::to_string(r.key) + "\n";
  }
  return out;
}

BatchMsg BatchMsg::decode(const std::string& payload) {
  BatchMsg m;
  u64 expected = 0;
  bool have_n = false;
  LineReader lines(payload);
  std::string key, value;
  while (lines.next(key, value)) {
    if (key == "epoch") {
      m.epoch = static_cast<u32>(parse_u64(value, "epoch"));
    } else if (key == "window_end") {
      m.window_end = parse_u64(value, "window_end");
    } else if (key == "schedule_total") {
      m.schedule_total = parse_u64(value, "schedule_total");
    } else if (key == "n") {
      expected = parse_u64(value, "n");
      have_n = true;
      m.slice.reserve(expected);
    } else if (key == "r") {
      std::istringstream fields(value);
      long long id = 0;
      unsigned long long at = 0, req_key = 0;
      unsigned long path = 0;
      int close = 0;
      if (!(fields >> id >> at >> path >> close >> req_key) ||
          (close != 0 && close != 1))
        throw std::invalid_argument("cluster batch: malformed request line");
      ScheduledRequest r;
      r.id = static_cast<i64>(id);
      r.at = static_cast<Cycles>(at);
      r.path = static_cast<u32>(path);
      r.close = close == 1;
      r.key = static_cast<u64>(req_key);
      m.slice.push_back(r);
    } else {
      throw std::invalid_argument("cluster batch: unknown field \"" + key +
                                  "\"");
    }
  }
  if (!have_n || m.slice.size() != expected)
    throw std::invalid_argument("cluster batch: request count mismatch");
  return m;
}

// --- ResultMsg --------------------------------------------------------------

std::string ResultMsg::encode() const {
  const SliceOutcome& o = outcome;
  const std::string latency_hist = o.latency_hist.serialize();
  const std::string queue_hist = o.queue_hist.serialize();
  require_no_newline(latency_hist, "latency histogram");
  require_no_newline(queue_hist, "queue histogram");
  std::string out;
  out += "epoch " + std::to_string(epoch) + "\n";
  out += "completed " + std::to_string(o.completed) + "\n";
  out += "dropped " + std::to_string(o.dropped) + "\n";
  out += "shed " + std::to_string(o.shed) + "\n";
  out += "retries " + std::to_string(o.retries) + "\n";
  out += "backlog " + std::to_string(o.backlog) + "\n";
  out += "last_response " + std::to_string(o.last_response) + "\n";
  out += "lat " + latency_hist + "\n";
  out += "que " + queue_hist + "\n";
  out += "n " + std::to_string(o.records.size()) + "\n";
  for (const RequestRecord& r : o.records) {
    out += "rec " + std::to_string(r.id) + " " + std::to_string(r.arrival) +
           " " + std::to_string(r.accepted) + " " +
           std::to_string(r.responded) + " " + std::to_string(r.path) + " " +
           (r.close ? "1" : "0") + " " + (r.dropped ? "1" : "0") + " " +
           std::to_string(static_cast<u32>(r.outcome)) + " " +
           std::to_string(r.deadline) + " " +
           std::to_string(static_cast<u32>(r.attempts)) + "\n";
  }
  return out;
}

ResultMsg ResultMsg::decode(const std::string& payload) {
  ResultMsg m;
  SliceOutcome& o = m.outcome;
  u64 expected = 0;
  bool have_n = false;
  LineReader lines(payload);
  std::string key, value;
  while (lines.next(key, value)) {
    if (key == "epoch") {
      m.epoch = static_cast<u32>(parse_u64(value, "epoch"));
    } else if (key == "completed") {
      o.completed = parse_u64(value, "completed");
    } else if (key == "dropped") {
      o.dropped = parse_u64(value, "dropped");
    } else if (key == "shed") {
      o.shed = parse_u64(value, "shed");
    } else if (key == "retries") {
      o.retries = parse_u64(value, "retries");
    } else if (key == "backlog") {
      o.backlog = parse_u64(value, "backlog");
    } else if (key == "last_response") {
      o.last_response = parse_u64(value, "last_response");
    } else if (key == "lat") {
      o.latency_hist = obs::LatencyHistogram::deserialize(value);
    } else if (key == "que") {
      o.queue_hist = obs::LatencyHistogram::deserialize(value);
    } else if (key == "n") {
      expected = parse_u64(value, "n");
      have_n = true;
      o.records.reserve(expected);
    } else if (key == "rec") {
      std::istringstream fields(value);
      long long id = 0;
      unsigned long long arrival = 0, accepted = 0, responded = 0,
                         deadline = 0;
      unsigned long path = 0, outcome = 0, attempts = 0;
      int close = 0, dropped = 0;
      if (!(fields >> id >> arrival >> accepted >> responded >> path >>
            close >> dropped >> outcome >> deadline >> attempts) ||
          (close != 0 && close != 1) || (dropped != 0 && dropped != 1) ||
          outcome > static_cast<unsigned long>(RequestOutcome::kCodel) ||
          attempts > 255)
        throw std::invalid_argument("cluster result: malformed record line");
      RequestRecord r;
      r.id = static_cast<i64>(id);
      r.arrival = static_cast<Cycles>(arrival);
      r.accepted = static_cast<Cycles>(accepted);
      r.responded = static_cast<Cycles>(responded);
      r.path = static_cast<u32>(path);
      r.close = close == 1;
      r.dropped = dropped == 1;
      r.outcome = static_cast<RequestOutcome>(outcome);
      r.deadline = static_cast<Cycles>(deadline);
      r.attempts = static_cast<u8>(attempts);
      o.records.push_back(r);
    } else {
      throw std::invalid_argument("cluster result: unknown field \"" + key +
                                  "\"");
    }
  }
  if (!have_n || o.records.size() != expected)
    throw std::invalid_argument("cluster result: record count mismatch");
  return m;
}

}  // namespace gilfree::httpsim::cluster
