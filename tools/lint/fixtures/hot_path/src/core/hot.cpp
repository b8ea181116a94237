// Fixture: BIOSENS_HOT roots transitively reaching each banned
// primitive class, plus the sanctioned escapes (suppression, exempt
// guard) that must stay silent.
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>

namespace fix {

double* deep_alloc(std::size_t n) {
  return new double[n];  // the allocation, two hops below the hot root
}

double alloc_helper(std::size_t n) {
  double* p = deep_alloc(n);
  const double v = p[0];
  delete[] p;
  return v;
}

BIOSENS_HOT double hot_alloc_path(std::size_t n) {
  return alloc_helper(n);
}

void raise_range_error(const char* what) {
  throw what;  // exception rematerialization one hop below the root
}

BIOSENS_HOT int hot_throw_path(int x) {
  if (x < 0) raise_range_error("negative");
  return x;
}

std::mutex g_registry_mu;

void locked_update() {
  std::lock_guard<std::mutex> lk(g_registry_mu);
}

BIOSENS_HOT void hot_lock_path() {
  locked_update();
}

int with_callback(int v) {
  std::function<int(int)> f = [](int a) { return a; };
  return f(v);
}

BIOSENS_HOT int hot_function_path(int v) {
  return with_callback(v);
}

// Allocation directly in the annotated body, no hop below the root.
BIOSENS_HOT double hot_direct_new(std::size_t n) {
  double* p = new double[n];
  const double v = p[0];
  delete[] p;
  return v;
}

BIOSENS_HOT double hot_direct_make_unique(std::size_t n) {
  auto p = std::make_unique<double[]>(n);
  return p[0];
}

// Negative: the same allocation pattern under a suppression on the
// reported (root) line stays silent.
// biosens-lint: allow(hot-path-transitive)
BIOSENS_HOT double hot_scratch_suppressed() {
  double* p = new double[4];
  const double v = p[0];
  delete[] p;
  return v;
}

template <class E>
void require(bool ok, const char* what) {
  if (!ok) throw E(what);
}

// Negative: the audited precondition guard is config-exempt.
BIOSENS_HOT double hot_guarded(double x) {
  require<int>(x > 0.0, "x must be positive");
  return x;
}

// An allocation in a constructor's member-initializer list.
struct Leaky {
  explicit Leaky(int v);
  std::unique_ptr<int> p;
};

Leaky::Leaky(int v) : p(std::make_unique<int>(v)) {}

BIOSENS_HOT int hot_ctor_init_path(int v) {
  const Leaky leaky(v);
  return *leaky.p;
}

}  // namespace fix

// An allocation reached through a call qualified by a nested namespace.
namespace fix::leak {

double* leaky_helper() {
  return new double[1];
}

}  // namespace fix::leak

namespace fix {

BIOSENS_HOT double hot_qualified_path() {
  return *leak::leaky_helper();
}

}  // namespace fix
