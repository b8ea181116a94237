// Seeded recorder-discipline + span-temporary violations: a layer
// outside src/obs/ fabricating recorder events and health reasons
// directly instead of going through ObsSpan / instant / ScopedContext /
// trigger_* / HealthInputs, and ObsSpan discarded temporaries that
// would destruct immediately and record a zero-length span.
namespace biosens::obs {
struct RecorderEvent;  // SEED recorder-discipline
class FlightRecorder;
struct HealthReport;
}  // namespace biosens::obs

namespace biosens::engine {

void fixture_forge_event(obs::FlightRecorder& recorder) {
  obs::RecorderEvent* forged = nullptr;  // SEED recorder-discipline
  (void)forged;
  (void)recorder;
}

template <class Recorder, class Event>
void fixture_raw_emission(Recorder& recorder, Event event) {
  event.event.phase = obs::EventPhase::kEnd;  // SEED recorder-discipline
  recorder.record_event(static_cast<Event&&>(event));  // SEED recorder-discipline
}

template <class Report>
void fixture_forge_reason(Report& report) {
  add_reason(report, 1, "queue-saturation", "forged");  // SEED recorder-discipline
}

void fixture_temporary_span() {
  obs::ObsSpan(Layer::kEngine, "job");  // SEED span-temporary
}

void fixture_braced_temporary_span() {
  obs::ObsSpan{Layer::kEngine, "attempt"};  // SEED span-temporary
}

}  // namespace biosens::engine
