// Inside src/obs/ the raw primitives are legal: this is where the event
// phases, the ring accounting and the health policy live — every
// recorder and span check is scoped out here.
namespace biosens::obs {

enum class EventPhase { kEnd };

struct RecorderEvent {
  EventPhase phase = EventPhase::kEnd;
};

struct FakeRing {
  void record_event(RecorderEvent&&) {}
};

template <class Report>
void add_reason(Report& report, int severity) {
  report.state = severity;
}

void fixture_home_layer(FakeRing& ring) {
  ring.record_event(RecorderEvent{});
  ObsSpan(Layer::kCommon, "obs-internal-temporary-is-fine");
}

}  // namespace biosens::obs
