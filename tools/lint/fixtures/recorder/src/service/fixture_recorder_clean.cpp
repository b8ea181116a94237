// Legal constructs the recorder-discipline and span-temporary checks
// must stay silent on: named ObsSpan locals (the RAII contract), a span
// taken by reference, the sanctioned instant / attribution / trigger /
// stats surface, banned words in strings and comments, and identifiers
// that merely contain a banned word.
#include <cstdint>
#include <string>

#include "obs/span.hpp"

namespace biosens::obs {

class FlightRecorder {
 public:
  class ScopedContext {
   public:
    ScopedContext(const std::string&, std::uint64_t) {}
  };
  static void trigger_overload(const std::string&, const std::string&) {}
  static void trigger_job_failure(const std::string&, const std::string&) {}
  [[nodiscard]] std::uint64_t recorded_events() const { return 0; }
};

struct HealthInputs {
  std::uint64_t rejected_since_baseline = 0;
  bool draining = false;
};

}  // namespace biosens::obs

namespace biosens::service {

double fixture_named_span(double x) {
  obs::ObsSpan span(Layer::kService, "measure");
  obs::ObsSpan detail_span{Layer::kService, "measure", "detail"};
  obs::instant(Layer::kService, "svc-overloaded", "clinic-a");
  return x;
}

void fixture_span_by_reference(obs::ObsSpan& span, const char** out) {
  span.annotate("fixture");
  // Strings and comments may say record_event or EventPhase::kEnd:
  *out = "EventPhase::kEnd record_event RecorderEvent";
}

// Attribution, triggering, and stats reads are the public seam — all
// fine outside src/obs/.
std::uint64_t fixture_sanctioned_surface(obs::FlightRecorder& recorder) {
  const obs::FlightRecorder::ScopedContext context("clinic-a", 7);
  obs::FlightRecorder::trigger_overload("clinic-a", "queue full");
  obs::FlightRecorder::trigger_job_failure("clinic-a", "body fault");
  return recorder.recorded_events();
}

// Describing state through HealthInputs is the sanctioned way to talk
// to the health model; only add_reason itself is confined.
obs::HealthInputs fixture_describe_state(bool draining) {
  obs::HealthInputs inputs;
  inputs.rejected_since_baseline = 3;
  inputs.draining = draining;
  return inputs;
}

// Identifiers that merely contain a banned word are distinct tokens.
void fixture_containing_words() {
  int record_events_total = 0;  // not record_event
  int add_reasons = 0;          // not add_reason
  (void)record_events_total;
  (void)add_reasons;
}

}  // namespace biosens::service
