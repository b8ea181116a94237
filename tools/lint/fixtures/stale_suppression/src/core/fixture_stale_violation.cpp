// Suppressions that match nothing: the code they cover is legal, so
// each allow() is dead weight silently blessing a future regression.
#include "common/expected.hpp"

namespace biosens::core {

[[nodiscard]] Expected<double> try_fixture_stale(double x);

Expected<double> fixture_consumed_anyway() {
  // The result IS consumed, so nothing fires here.  SEED below:
  // biosens-lint: allow(expected-discard)
  auto result = try_fixture_stale(2.0);
  if (!result.has_value()) return result.error();
  return result.value();
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
