// The simulator types are perfectly legal outside src/core/ — the
// transducer-discipline check is scoped to core, where only the
// Transducer seam may appear. Identifiers that merely *contain* a
// banned word (CellIndex, cell) never match: the lint is token-exact.
namespace biosens::electrochem {

class Cell {};
class ChronoamperometrySim {};

void fixture_amperometric_backend() {
  Cell cell;
  ChronoamperometrySim sim;
  (void)cell;
  (void)sim;
}

}  // namespace biosens::electrochem
