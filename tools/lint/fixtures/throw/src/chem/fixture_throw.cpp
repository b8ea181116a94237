// Seeded throw-discipline violations: exception constructs outside the
// error core. The word throw in this comment must NOT fire, nor the
// string literal or the value_or_throw identifier below.
#include <stdexcept>

namespace biosens::chem {

int fixture_throw_site(int x) {
  if (x < 0) throw std::runtime_error("negative");  // SEED throw-discipline
  return x;
}

int fixture_try_block(int x) {
  try {  // SEED throw-discipline
    return fixture_throw_site(x);
  } catch (const std::exception&) {  // SEED throw-discipline
    return -1;
  }
}

const char* fixture_not_a_throw() {
  // A lexer-level check must see through both of these:
  return "please do not throw here";
}

int fixture_identifier_containing_throw(int v) {
  auto value_or_throw = [v] { return v; };  // identifier, not a keyword
  return value_or_throw();
}

}  // namespace biosens::chem
