#include "obs/recorder.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "obs/json_util.hpp"

namespace biosens::obs {
namespace {

// Bumped on every install(); lets a thread detect that its cached ring
// pointer belongs to a dead recorder window.
std::atomic<std::uint64_t> g_recorder_generation{0};

struct RecorderSlot {
  FlightRecorder* recorder = nullptr;
  std::uint64_t generation = 0;
  void* ring = nullptr;
};

RecorderSlot& recorder_slot() {
  thread_local RecorderSlot slot;
  return slot;
}

}  // namespace

void append_event_fields(std::string& out, const RecorderEvent& ev) {
  out += "\"ts_ns\":";
  out += std::to_string(ev.event.ts_ns);
  out += ",\"phase\":\"";
  out += to_string(ev.event.phase);
  out += "\",\"layer\":\"";
  out += to_string(ev.event.layer);
  out += "\",\"name\":\"";
  out += json_escape(ev.event.name);
  out += "\",\"dur_ns\":";
  out += std::to_string(ev.dur_ns);
  out += ",\"failed\":";
  out += ev.event.failed ? "true" : "false";
  out += ",\"tenant\":\"";
  out += json_escape(ev.tenant);
  out += "\",\"session\":";
  out += std::to_string(ev.session_id);
  out += ",\"detail\":\"";
  out += json_escape(ev.event.detail);
  out += "\"";
}

namespace {

void append_event_json(std::string& out, const RecorderEvent& ev) {
  out += "{";
  append_event_fields(out, ev);
  out += "}";
}

// The thread-local attribution frame ScopedContext maintains.
thread_local FlightRecorder::ScopedContext* g_context_frame = nullptr;

}  // namespace

std::string RecorderDump::to_json() const {
  std::string out;
  out += "{\"reason\":\"";
  out += json_escape(reason);
  out += "\",\"tenant\":\"";
  out += json_escape(tenant);
  out += "\",\"detail\":\"";
  out += json_escape(detail);
  out += "\",\"dump_ts_ns\":";
  out += std::to_string(dump_ts_ns);
  out += ",\"recorded\":";
  out += std::to_string(recorded);
  out += ",\"overwritten\":";
  out += std::to_string(overwritten);
  out += ",\"triggers\":";
  out += std::to_string(triggers);
  out += ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ",";
    append_event_json(out, events[i]);
  }
  out += "],\"tenant_tail\":[";
  for (std::size_t i = 0; i < tenant_tail.size(); ++i) {
    if (i > 0) out += ",";
    append_event_json(out, tenant_tail[i]);
  }
  out += "]}";
  return out;
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(std::move(options)) {
  if (options_.ring_capacity_per_thread == 0) {
    options_.ring_capacity_per_thread = 1;
  }
}

FlightRecorder::~FlightRecorder() { uninstall(); }

void FlightRecorder::install() {
  if (installed_.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    rings_.clear();
  }
  recorded_.store(0, std::memory_order_relaxed);
  overwritten_.store(0, std::memory_order_relaxed);
  triggers_.store(0, std::memory_order_relaxed);
  triggered_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(trigger_mutex_);
    first_dump_ = RecorderDump{};
  }
  generation_ =
      g_recorder_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  epoch_ = std::chrono::steady_clock::now();
  installed_.store(true, std::memory_order_relaxed);
  current_.store(this, std::memory_order_release);
}

void FlightRecorder::uninstall() {
  if (!installed_.load(std::memory_order_relaxed)) return;
  FlightRecorder* expected = this;
  current_.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_acq_rel);
  installed_.store(false, std::memory_order_relaxed);
  // Rings stay in place for post-hoc dump(); the next install() clears
  // them.
}

std::uint64_t FlightRecorder::now_ns() const {
  return ns_since_install(std::chrono::steady_clock::now());
}

std::uint64_t FlightRecorder::ns_since_install(
    std::chrono::steady_clock::time_point tp) const {
  const auto delta =
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_)
          .count();
  return delta > 0 ? static_cast<std::uint64_t>(delta) : 0;
}

FlightRecorder::ThreadRing* FlightRecorder::ring_for_this_thread() {
  RecorderSlot& slot = recorder_slot();
  if (slot.recorder == this && slot.generation == generation_) {
    return static_cast<ThreadRing*>(slot.ring);
  }
  auto owned = std::make_unique<ThreadRing>();
  ThreadRing* ring = owned.get();
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    ring->tid = rings_.size() + 1;
    rings_.push_back(std::move(owned));
  }
  slot.recorder = this;
  slot.generation = generation_;
  slot.ring = ring;
  return ring;
}

void FlightRecorder::record_event(RecorderEvent&& event) {
  // Attribute from the calling thread's context frame unless the
  // caller (a trigger) already pinned a tenant.
  if (event.tenant.empty() && g_context_frame != nullptr) {
    // The frame's fields are private to ScopedContext but we are the
    // enclosing class.
    event.tenant = g_context_frame->tenant_;
    event.session_id = g_context_frame->session_id_;
  }
  ThreadRing* ring = ring_for_this_thread();
  std::lock_guard<std::mutex> lock(ring->mutex);
  const std::size_t cap = options_.ring_capacity_per_thread;
  if (ring->slots.size() < cap) {
    ring->slots.push_back(std::move(event));
  } else {
    ring->slots[ring->next % cap] = std::move(event);
    overwritten_.fetch_add(1, std::memory_order_relaxed);
  }
  ++ring->next;
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

FlightRecorder::ScopedContext::ScopedContext(std::string_view tenant,
                                             std::uint64_t session_id) {
  if (FlightRecorder::current() == nullptr) return;
  tenant_ = std::string(tenant);
  session_id_ = session_id;
  previous_ = g_context_frame;
  g_context_frame = this;
  active_ = true;
}

FlightRecorder::ScopedContext::~ScopedContext() {
  if (!active_) return;
  g_context_frame = static_cast<ScopedContext*>(previous_);
}

void FlightRecorder::trigger_overload(std::string_view tenant,
                                      std::string_view detail) {
  FlightRecorder* recorder = current();
  if (recorder == nullptr) return;
  recorder->trigger("overloaded", tenant, detail,
                    recorder->options_.trigger_on_overload);
}

void FlightRecorder::trigger_job_failure(std::string_view tenant,
                                         std::string_view detail) {
  FlightRecorder* recorder = current();
  if (recorder == nullptr) return;
  recorder->trigger("job-failure", tenant, detail,
                    recorder->options_.trigger_on_job_failure);
}

void FlightRecorder::trigger(std::string_view reason,
                             std::string_view tenant,
                             std::string_view detail, bool enabled) {
  if (!enabled) return;
  // Mark the incident in the ring itself, attributed to the failing
  // tenant, so even a tenant with no completed spans yet has a tail.
  RecorderEvent marker;
  marker.event.phase = EventPhase::kInstant;
  marker.event.layer = Layer::kService;
  marker.event.name = "recorder-trigger";
  marker.event.ts_ns = now_ns();
  marker.event.failed = true;
  marker.event.detail = std::string(reason);
  if (!detail.empty()) {
    marker.event.detail += ": ";
    marker.event.detail += detail;
  }
  marker.tenant = std::string(tenant);
  record_event(std::move(marker));
  triggers_.fetch_add(1, std::memory_order_relaxed);

  bool expected = false;
  if (!triggered_.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
    return;  // later triggers only count; the first dump wins
  }
  RecorderDump snapshot = dump(reason, tenant, detail);
  if (!options_.auto_dump_path.empty()) {
    std::ofstream out(options_.auto_dump_path);
    out << snapshot.to_json() << "\n";
    out.close();
    snapshot.auto_dump_written = !out.fail();
  }
  std::lock_guard<std::mutex> lock(trigger_mutex_);
  first_dump_ = std::move(snapshot);
}

RecorderDump FlightRecorder::dump(std::string_view reason,
                                  std::string_view tenant,
                                  std::string_view detail) const {
  RecorderDump out;
  out.reason = std::string(reason);
  out.tenant = std::string(tenant);
  out.detail = std::string(detail);
  out.dump_ts_ns = now_ns();
  out.recorded = recorded_events();
  out.overwritten = overwritten_events();
  out.triggers = trigger_count();
  {
    std::lock_guard<std::mutex> registry_lock(registry_mutex_);
    for (const auto& ring : rings_) {
      std::lock_guard<std::mutex> lock(ring->mutex);
      const std::size_t cap = options_.ring_capacity_per_thread;
      const std::uint64_t first =
          ring->next > cap ? ring->next - cap : 0;
      for (std::uint64_t i = first; i < ring->next; ++i) {
        out.events.push_back(ring->slots[i % cap]);
        out.events.back().tid = ring->tid;
      }
    }
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const RecorderEvent& a, const RecorderEvent& b) {
                     return a.event.ts_ns < b.event.ts_ns;
                   });
  if (!out.tenant.empty()) {
    for (const RecorderEvent& ev : out.events) {
      if (ev.tenant == out.tenant) out.tenant_tail.push_back(ev);
    }
    if (out.tenant_tail.size() > options_.dump_last_n) {
      out.tenant_tail.erase(
          out.tenant_tail.begin(),
          out.tenant_tail.end() -
              static_cast<std::ptrdiff_t>(options_.dump_last_n));
    }
  }
  return out;
}

RecorderDump FlightRecorder::first_trigger_dump() const {
  std::lock_guard<std::mutex> lock(trigger_mutex_);
  return first_dump_;
}

bool FlightRecorder::auto_dump_written() const {
  std::lock_guard<std::mutex> lock(trigger_mutex_);
  return first_dump_.auto_dump_written;
}

}  // namespace biosens::obs
