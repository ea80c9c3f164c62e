#include "util/rng.h"

#include <cmath>
#include <limits>

#include "util/error.h"

namespace icn::util {
namespace {

constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

std::uint64_t splitmix64(std::uint64_t& x) {
  x += kSplitMixGamma;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed) {
  std::uint64_t x = seed;
  return splitmix64(x);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a) {
  std::uint64_t x = seed;
  std::uint64_t h = splitmix64(x);
  x = h ^ a;
  return splitmix64(x);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  return derive_seed(derive_seed(seed, a), b);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) {
  return derive_seed(derive_seed(seed, a, b), c);
}

std::uint64_t backoff_delay(std::uint64_t initial, std::uint64_t cap,
                            std::uint64_t attempt, std::uint64_t seed,
                            std::uint64_t key) {
  std::uint64_t raw = cap;
  if (attempt < 64 && initial <= (cap >> attempt)) raw = initial << attempt;
  if (raw <= 1) return raw;
  Rng rng(derive_seed(seed, key, attempt));
  return raw / 2 + rng.uniform_index(raw - raw / 2);
}

Rng::Rng(std::uint64_t seed) {
  // Expand the seed through SplitMix64 as recommended by the xoshiro authors.
  std::uint64_t x = seed;
  for (auto& s : state_) s = splitmix64(x);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  ICN_REQUIRE(lo <= hi, "uniform range");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  ICN_REQUIRE(n > 0, "uniform_index requires n > 0");
  // Lemire-style rejection-free-enough bounded draw; bias is negligible for
  // the n used here, but we still reject the unfair zone for exactness.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  ICN_REQUIRE(lo <= hi, "uniform_int range");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal() {
  // Box–Muller without caching the second variate: reproducibility across
  // call sites matters more than saving one log/sqrt.
  double u1 = uniform();
  while (u1 <= std::numeric_limits<double>::min()) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * std::cos(2.0 * M_PI * u2);
}

double Rng::normal(double mean, double sigma) {
  ICN_REQUIRE(sigma >= 0.0, "normal sigma");
  return mean + sigma * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double lambda) {
  ICN_REQUIRE(lambda > 0.0, "exponential rate");
  double u = uniform();
  while (u <= std::numeric_limits<double>::min()) u = uniform();
  return -std::log(u) / lambda;
}

std::uint64_t Rng::poisson(double lambda) {
  ICN_REQUIRE(lambda >= 0.0, "poisson mean");
  if (lambda == 0.0) return 0;
  if (lambda > 256.0) {
    // Normal approximation, adequate for traffic volumes at this scale.
    const double draw = normal(lambda, std::sqrt(lambda));
    return draw <= 0.5 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
  }
  // Knuth's product method.
  const double limit = std::exp(-lambda);
  std::uint64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= uniform();
  } while (p > limit);
  return k - 1;
}

double Rng::gamma(double shape, double scale) {
  ICN_REQUIRE(shape > 0.0 && scale > 0.0, "gamma parameters");
  if (shape < 1.0) {
    // Boost to shape+1 and correct (Marsaglia–Tsang trick).
    const double u = uniform();
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = uniform();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v * scale;
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v)))
      return d * v * scale;
  }
}

std::vector<double> Rng::dirichlet(std::span<const double> alphas) {
  ICN_REQUIRE(!alphas.empty(), "dirichlet alphas");
  std::vector<double> out(alphas.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    ICN_REQUIRE(alphas[i] > 0.0, "dirichlet alpha > 0");
    out[i] = gamma(alphas[i], 1.0);
    sum += out[i];
  }
  ICN_REQUIRE(sum > 0.0, "dirichlet degenerate draw");
  for (auto& v : out) v /= sum;
  return out;
}

std::size_t Rng::categorical(std::span<const double> weights) {
  ICN_REQUIRE(!weights.empty(), "categorical weights");
  double total = 0.0;
  for (const double w : weights) {
    ICN_REQUIRE(w >= 0.0, "categorical weight >= 0");
    total += w;
  }
  ICN_REQUIRE(total > 0.0, "categorical weight sum > 0");
  const double target = uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  return weights.size() - 1;  // numerical edge: target == total
}

}  // namespace icn::util
