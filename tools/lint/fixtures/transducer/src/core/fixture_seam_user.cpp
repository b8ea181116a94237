// Core code using the seam (and near-miss identifiers) stays clean:
// Transducer calls, a CellIndex type, and a member named cell_count
// must not trip the token-exact ban.
namespace biosens::core {

class Transducer;

struct CellIndex {
  int cell_count = 0;
};

void fixture_seam_usage(Transducer& transducer, CellIndex& index) {
  (void)transducer;
  (void)index.cell_count;
}

}  // namespace biosens::core
