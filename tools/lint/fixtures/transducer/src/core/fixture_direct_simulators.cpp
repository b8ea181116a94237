// Seeded transducer-discipline violations: core code naming the
// electrochemical simulator types directly instead of going through
// the core::Transducer seam.
namespace biosens::electrochem {
class Cell;
class ChronoamperometrySim;
}  // namespace biosens::electrochem

namespace biosens::core {

void fixture_direct_cell(electrochem::Cell& cell) {  // SEED transducer-discipline
  (void)cell;
}

void fixture_direct_sim() {
  electrochem::ChronoamperometrySim* sim = nullptr;  // SEED transducer-discipline
  (void)sim;
}

}  // namespace biosens::core
