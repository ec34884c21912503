#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>

#include "sim/json.hpp"

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_next_tracer{1};
std::atomic<std::uint64_t> g_next_span{1};

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

struct Tracer::ThreadLog {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::uint64_t> open;  // ids of the open spans, innermost last
};

namespace {
// The calling thread's log for the tracer with this serial number. Serial
// numbers are never reused, so a stale entry cannot alias a new Tracer.
struct ThreadSlot {
  std::uint64_t tracer_serial = 0;
  void* log = nullptr;
};
thread_local ThreadSlot t_slot;
}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled),
      serial_(g_next_tracer.fetch_add(1)),
      origin_(Clock::now()) {}

Tracer::~Tracer() = default;

Tracer::ThreadLog& Tracer::log_for_this_thread() {
  if (t_slot.tracer_serial == serial_) {
    return *static_cast<ThreadLog*>(t_slot.log);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto log = std::make_unique<ThreadLog>();
  log->thread = static_cast<std::uint32_t>(logs_.size());
  logs_.push_back(std::move(log));
  t_slot = {serial_, logs_.back().get()};
  return *logs_.back();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::int64_t unit)
    : tracer_(tracer), name_(name), unit_(unit) {
  if (tracer_.enabled_) {
    auto& log = tracer_.log_for_this_thread();
    id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
    parent_ = log.open.empty() ? 0 : log.open.back();
    log.open.push_back(id_);
  }
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (!tracer_.enabled_) return;
  const auto end = Clock::now();
  auto& log = tracer_.log_for_this_thread();
  log.open.pop_back();
  log.spans.push_back({name_, start_, end, id_, parent_, log.thread, unit_});
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const auto& log : logs_) {
    out.insert(out.end(), log->spans.begin(), log->spans.end());
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.thread != b.thread ? a.thread < b.thread : a.start < b.start;
  });
  return out;
}

void Tracer::write_chrome_json(const std::string& path,
                               const std::string& manifest_json) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << manifest_json
      << ",\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans()) {
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    sfs::sim::JsonObjectWriter args;
    args.int_field("id", s.id).int_field("parent", s.parent);
    if (s.unit >= 0) args.int_field("unit", static_cast<std::uint64_t>(s.unit));
    sfs::sim::JsonObjectWriter ev;
    ev.str_field("name", s.name)
        .str_field("cat", layer_of(s.name))
        .str_field("ph", "X")
        .num_field("ts", ts)
        .num_field("dur", dur)
        .int_field("pid", 1)
        .int_field("tid", s.thread)
        .raw_field("args", args.str());
    out << (first ? "\n" : ",\n") << ev.str();
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("trace write failed: " + path);
}

namespace {

// Self seconds per span, indexed like `spans`.
std::vector<double> self_seconds(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] += seconds_between(spans[i].start, spans[i].end);
    if (spans[i].parent == 0) continue;
    const auto it = index.find(spans[i].parent);
    if (it != index.end()) {
      self[it->second] -= seconds_between(spans[i].start, spans[i].end);
    }
  }
  return self;
}

}  // namespace

std::map<std::string, double> layer_self_seconds(
    const std::vector<SpanRecord>& spans) {
  const auto self = self_seconds(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[layer_of(spans[i].name)] += self[i];
  }
  return out;
}

std::map<std::string, double> name_self_seconds(
    const std::vector<SpanRecord>& spans) {
  const auto self = self_seconds(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

double covered_seconds(const std::vector<SpanRecord>& spans,
                       Clock::time_point from, Clock::time_point to) {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
  for (const auto& s : spans) {
    if (s.parent != 0) continue;
    if (std::string_view(s.name).starts_with("bench.")) continue;
    const auto a = std::max(s.start, from);
    const auto b = std::min(s.end, to);
    if (a < b) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  Clock::time_point reach = from;
  for (const auto& [a, b] : iv) {
    const auto lo = std::max(a, reach);
    if (lo < b) covered += seconds_between(lo, b);
    reach = std::max(reach, b);
  }
  return covered;
}

}  // namespace perfbench
