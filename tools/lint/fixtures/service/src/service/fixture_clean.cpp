// Legal constructs the service-discipline check must stay silent on:
// the sanctioned bounded wrappers, identifiers that merely contain a
// banned word, non-member uses, and the audited allow() escape.
#include <cstddef>
#include <string>
#include <vector>

namespace biosens::service {

struct FakeBounded {
  [[nodiscard]] bool try_push_back(int) { return true; }
  [[nodiscard]] bool try_push_front(int) { return true; }
};

// A free function named like a banned member is not a member call.
inline void push_back(std::vector<int>&) {}

bool fixture_sanctioned_growth(FakeBounded& queue, std::vector<int>& v) {
  const bool pushed = queue.try_push_back(1);  // wrapper, distinct name
  const bool undone = queue.try_push_front(2);  // undo-only wrapper
  push_back(v);                   // free function, no object expression
  v.resize(4);                    // pre-sized assignment is legal
  v[0] = 1;
  return pushed && undone;
}

void fixture_audited_escape(std::vector<std::string>& log) {
  // biosens-lint: allow(service-discipline)
  log.push_back("drain report");
}

}  // namespace biosens::service
