// Suppressions that match nothing: the code they cover is legal, so
// each allow() is dead weight silently blessing a future regression.
#include <vector>

namespace biosens::core {

std::vector<double> fixture_growth_outside_service() {
  std::vector<double> out;
  // Unbounded growth is banned in src/service/ only, so nothing fires
  // here.  SEED below:
  // biosens-lint: allow(service-discipline)
  out.push_back(2.0);
  return out;
}

double fixture_no_banned_primitive() {
  // Neither named check has anything to say about plain arithmetic.
  // biosens-lint: allow(determinism-discipline, throw-discipline)
  return 2.0 * 21.0;
}

double fixture_foreign_id() {
  // A whole-program check id is judged like any other: no BIOSENS_HOT
  // root is reported here, so the directive is dead.  SEED below:
  // biosens-lint: allow(hot-path-transitive)
  return 1.0;
}

double fixture_wildcard() {
  // allow(*) names every check, and none fires here.  SEED below:
  // biosens-lint: allow(*)
  return 2.0;
}

}  // namespace biosens::core
