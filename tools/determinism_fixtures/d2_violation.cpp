// Fixture: D2 must fire on every hidden-entropy source: rand/srand (also as
// ::rand()), libc time(), std::random_device and std::chrono::system_clock.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

unsigned hidden_entropy() {
  std::srand(42);
  const int r = rand();
  const auto t = time(nullptr);
  std::random_device rd;
  const auto now = std::chrono::system_clock::now();
  (void)now;
  return static_cast<unsigned>(r) + static_cast<unsigned>(t) + rd();
}

int global_entropy() { return ::rand(); }
