// Fixture: D2 must stay silent — seeded pmc::Rng, a member function that
// happens to be called time(), a declaration of one, steady_clock and a raw
// string naming rand() are all fine.
#include <chrono>
#include <cstdint>

struct Engine {
  double time_ = 0.0;
  [[nodiscard]] double time() const { return time_; }
};

double modelled_time(const Engine& engine) {
  return engine.time();
}

std::int64_t wall_nanos() {
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

// A raw string may hold quotes around a banned name; it is still a literal.
const char* kNotes = R"doc(never " rand() " in src/)doc";
