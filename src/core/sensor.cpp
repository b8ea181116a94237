#include "core/sensor.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/span.hpp"

namespace biosens::core {

BiosensorModel::BiosensorModel(SensorSpec spec, MeasurementOptions options)
    : spec_(std::move(spec)),
      options_(options),
      transducer_(make_transducer(spec_, options_)) {
  spec_.try_validate().value();
}

const electrode::EffectiveLayer& BiosensorModel::layer() const {
  const electrode::EffectiveLayer* layer = transducer_->effective_layer();
  require<SpecError>(layer != nullptr,
                     "sensor '" + spec_.name +
                         "' has no electrochemical layer (" +
                         std::string(to_string(spec_.technique)) + ")");
  return *layer;
}

Expected<Measurement> BiosensorModel::try_measure(
    const chem::Sample& sample, Rng& rng, engine::SimCache* cache) const {
  obs::ObsSpan span(Layer::kCore, "measure", spec_.name);
  const std::string frame = "measure " + spec_.name;
  if (auto v = span.watch(chem::try_validate_species(sample)); !v) {
    return ctx(frame, Expected<Measurement>(v.error()));
  }
  // The backend returns unwrapped errors; the single ctx() here keeps
  // error chains identical to the pre-seam monolithic pipeline.
  return ctx(frame,
             span.watch(transducer_->try_transduce(sample, rng, cache)));
}

}  // namespace biosens::core
