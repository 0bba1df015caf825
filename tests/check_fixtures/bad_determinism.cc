// Seeded-bad fixture: wall-clock and process randomness are banned outside
// common/rng.h and common/clock.h. Every line below must trip the
// `determinism` rule. This file is never compiled.

#include <cstdlib>
#include <ctime>
#include <random>

int BadSeed() {
  std::srand(static_cast<unsigned>(time(nullptr)));  // bad: time()
  std::random_device rd;                             // bad: random_device
  return rand() + static_cast<int>(rd());            // bad: rand()
}
