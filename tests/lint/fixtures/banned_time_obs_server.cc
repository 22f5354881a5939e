// mhb-lint: path(src/obs/fixture_live.cc)
// Fixture: src/obs is not blanket-exempt from the wall-clock rules — only
// the manifest timestamp helper is.  Telemetry code under src/obs (the
// live-file publisher, say) must either avoid wall time, as
// src/obs/live.cc does in the real tree, or carry a justified allow.
#include <chrono>
#include <ctime>

long BareStamp() {
  long t = std::time(nullptr);  // expect: no-time-call
  auto wall =
      std::chrono::system_clock::now();  // expect: no-system-clock
  return t + wall.time_since_epoch().count();
}

long WaivedStamp() {
  // mhb-lint: allow(no-time-call) -- fixture: a telemetry timestamp is operator output only
  return static_cast<long>(std::time(nullptr));
}

long Monotonic() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // legal
}
