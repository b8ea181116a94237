#include "chem/solution.hpp"

#include "chem/species.hpp"
#include "common/error.hpp"
#include "obs/span.hpp"

namespace biosens::chem {

void Sample::set(std::string_view species, Concentration c) {
  require<SpecError>(c.milli_molar() >= 0.0,
                     "concentration must be non-negative");
  concentrations_.insert_or_assign(std::string(species), c);
}

void Sample::spike(std::string_view species, Concentration delta) {
  require<SpecError>(delta.milli_molar() >= 0.0,
                     "spike must be non-negative");
  auto it = concentrations_.find(species);
  if (it == concentrations_.end()) {
    concentrations_.emplace(std::string(species), delta);
  } else {
    it->second += delta;
  }
}

Concentration Sample::concentration_of(std::string_view species) const {
  const auto it = concentrations_.find(species);
  return it == concentrations_.end() ? Concentration{} : it->second;
}

bool Sample::contains(std::string_view species) const {
  const auto it = concentrations_.find(species);
  return it != concentrations_.end() && it->second.milli_molar() > 0.0;
}

void Sample::dilute(double factor) {
  require<SpecError>(factor >= 1.0, "dilution factor must be >= 1");
  for (auto& [name, c] : concentrations_) {
    c = c / factor;
  }
}

void Sample::set_dissolved_oxygen(Concentration oxygen) {
  require<SpecError>(oxygen.milli_molar() >= 0.0,
                     "dissolved oxygen must be non-negative");
  dissolved_oxygen_ = oxygen;
}

std::vector<std::string> Sample::species_names() const {
  std::vector<std::string> names;
  names.reserve(concentrations_.size());
  for (const auto& [name, c] : concentrations_) names.push_back(name);
  return names;
}

Expected<void> try_validate_species(const Sample& sample) {
  obs::ObsSpan span(Layer::kChem, "validate-species");
  for (const std::string& name : sample.species_names()) {
    if (auto sp = try_species(name); !sp) {
      ErrorInfo err = sp.error();
      err.context.emplace_back("sample validation");
      span.fail(err);
      return err;
    }
  }
  return ok();
}

Sample blank_sample() { return Sample(Buffer{}); }

Sample calibration_sample(std::string_view species, Concentration c) {
  Sample s(Buffer{});
  s.set(species, c);
  return s;
}

Sample serum_sample(std::string_view species, Concentration c) {
  Sample s(Buffer{});
  // Mid-physiological interferent levels (see species registry).
  for (const char* name : {"ascorbic acid", "uric acid", "paracetamol"}) {
    const Species& sp = *try_species(name).value();
    s.set(name, 0.5 * (sp.physiological_low + sp.physiological_high));
  }
  s.set(species, c);
  return s;
}

}  // namespace biosens::chem
