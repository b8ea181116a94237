// Clean counterpart: an allow() that fires is left alone.

namespace biosens::core {

int fixture_live_suppression(int x) {
  // Fires: the throw below is a real finding.
  if (x < 0) throw x;  // biosens-lint: allow(throw-discipline)
  return x;
}

}  // namespace biosens::core
