#include "service/session.hpp"

#include <utility>

#include "common/serialize.hpp"

namespace biosens::service {
namespace {

constexpr std::string_view kFormatTag = "biosens-session-snapshot-v1";
constexpr Layer kLayer = Layer::kService;

}  // namespace

Expected<PriorityClass> try_parse_priority(std::string_view text) {
  if (text == "interactive") return PriorityClass::kInteractive;
  if (text == "bulk") return PriorityClass::kBulk;
  return make_error(ErrorCode::kSpec, kLayer, "parse_priority",
                    "unknown priority class '" + std::string(text) + "'");
}

std::string SessionSnapshot::encode() const {
  serialize::KvWriter w;
  w.text("format", kFormatTag);
  w.text("tenant", tenant);
  w.text("priority", to_string(priority));
  w.u64("seed", seed);
  w.count("next_index", next_index);
  w.count("completed", completed);
  w.count("failed", failed);
  w.f64("sim_time", sim_time_s);
  w.u64_array("rng_words",
              std::vector<std::uint64_t>(session_rng.words.begin(),
                                         session_rng.words.end()));
  w.u64("rng_cached", session_rng.cached_normal_bits);
  w.count("rng_has_cached", session_rng.has_cached_normal ? 1 : 0);
  w.f64_array("state", state);
  std::vector<std::uint64_t> indices(records.size());
  std::vector<double> times(records.size());
  std::vector<double> values(records.size());
  std::vector<std::uint64_t> flags(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    indices[i] = records[i].index;
    times[i] = records[i].sim_time_s;
    values[i] = records[i].value;
    flags[i] = records[i].ok ? 1 : 0;
  }
  w.u64_array("record_indices", indices);
  w.f64_array("record_times", times);
  w.f64_array("record_values", values);
  w.u64_array("record_flags", flags);
  return w.str();
}

Expected<SessionSnapshot> SessionSnapshot::try_decode(std::string_view text) {
  serialize::KvReader r(text);
  SessionSnapshot snap;

  auto format = r.try_text("format");
  if (!format.has_value()) return format.error();
  BIOSENS_EXPECT(format.value() == kFormatTag, ErrorCode::kSpec, kLayer,
                 "decode_snapshot",
                 "unsupported snapshot format '" + format.value() + "'");

  auto tenant = r.try_text("tenant");
  if (!tenant.has_value()) return tenant.error();
  snap.tenant = tenant.value();

  auto priority =
      r.try_text("priority").and_then([](const std::string& tag) {
        return try_parse_priority(tag);
      });
  if (!priority.has_value()) return priority.error();
  snap.priority = priority.value();

  auto seed = r.try_u64("seed");
  if (!seed.has_value()) return seed.error();
  snap.seed = seed.value();

  auto next_index = r.try_count("next_index");
  if (!next_index.has_value()) return next_index.error();
  snap.next_index = next_index.value();

  auto completed = r.try_count("completed");
  if (!completed.has_value()) return completed.error();
  snap.completed = completed.value();

  auto failed = r.try_count("failed");
  if (!failed.has_value()) return failed.error();
  snap.failed = failed.value();

  auto sim_time = r.try_f64("sim_time");
  if (!sim_time.has_value()) return sim_time.error();
  snap.sim_time_s = sim_time.value();

  auto words = r.try_u64_array("rng_words");
  if (!words.has_value()) return words.error();
  BIOSENS_EXPECT(words.value().size() == snap.session_rng.words.size(),
                 ErrorCode::kSpec, kLayer, "decode_snapshot",
                 "rng_words must carry exactly 4 state words");
  for (std::size_t i = 0; i < snap.session_rng.words.size(); ++i) {
    snap.session_rng.words[i] = words.value()[i];
  }

  auto cached = r.try_u64("rng_cached");
  if (!cached.has_value()) return cached.error();
  snap.session_rng.cached_normal_bits = cached.value();

  auto has_cached = r.try_count("rng_has_cached");
  if (!has_cached.has_value()) return has_cached.error();
  BIOSENS_EXPECT(has_cached.value() <= 1, ErrorCode::kSpec, kLayer,
                 "decode_snapshot", "rng_has_cached must be 0 or 1");
  snap.session_rng.has_cached_normal = has_cached.value() == 1;

  auto state = r.try_f64_array("state");
  if (!state.has_value()) return state.error();
  snap.state = state.value();

  auto indices = r.try_u64_array("record_indices");
  if (!indices.has_value()) return indices.error();
  auto times = r.try_f64_array("record_times");
  if (!times.has_value()) return times.error();
  auto values = r.try_f64_array("record_values");
  if (!values.has_value()) return values.error();
  auto flags = r.try_u64_array("record_flags");
  if (!flags.has_value()) return flags.error();

  const std::size_t n = indices.value().size();
  BIOSENS_EXPECT(times.value().size() == n && values.value().size() == n &&
                     flags.value().size() == n,
                 ErrorCode::kSpec, kLayer, "decode_snapshot",
                 "record arrays disagree on length");
  snap.records.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    BIOSENS_EXPECT(flags.value()[i] <= 1, ErrorCode::kSpec, kLayer,
                   "decode_snapshot", "record_flags entries must be 0 or 1");
    // The service records every measurement index exactly once, in
    // order, so a restored stream must be dense.
    BIOSENS_EXPECT(indices.value()[i] == i, ErrorCode::kSpec, kLayer,
                   "decode_snapshot",
                   "record_indices must be dense: entry " +
                       std::to_string(i) + " carries index " +
                       std::to_string(indices.value()[i]));
    snap.records[i] = MeasurementRecord{indices.value()[i],
                                        times.value()[i], values.value()[i],
                                        flags.value()[i] == 1};
  }

  // A snapshot is taken at a quiesce point: every submitted measurement
  // has executed, so the stream is dense and fully accounted for.
  BIOSENS_EXPECT(snap.next_index == n, ErrorCode::kSpec, kLayer,
                 "decode_snapshot",
                 "snapshot is not quiesced: next_index " +
                     std::to_string(snap.next_index) + " != " +
                     std::to_string(n) + " records");
  BIOSENS_EXPECT(snap.completed + snap.failed == n, ErrorCode::kSpec,
                 kLayer, "decode_snapshot",
                 "completed + failed must equal the record count");
  BIOSENS_EXPECT(r.exhausted(), ErrorCode::kSpec, kLayer, "decode_snapshot",
                 "trailing lines after the last snapshot field");
  return snap;
}

}  // namespace biosens::service
