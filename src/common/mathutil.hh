/**
 * @file
 * Combinatorial and probabilistic helpers used by the statistical density
 * models (Sec. 5.3.2 of the paper). All heavy-tail computations go through
 * log-gamma to stay numerically stable for tensors with millions of
 * elements.
 */

#ifndef SPARSELOOP_COMMON_MATHUTIL_HH
#define SPARSELOOP_COMMON_MATHUTIL_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace sparseloop {
namespace math {

/** Natural log of n! via lgamma. Requires n >= 0. */
double logFactorial(std::int64_t n);

/** Natural log of binomial coefficient C(n, k); -inf when k out of range. */
double logChoose(std::int64_t n, std::int64_t k);

/** Binomial coefficient as a double (may overflow to inf for huge inputs). */
double choose(std::int64_t n, std::int64_t k);

/**
 * Hypergeometric PMF: probability that a sample of @p s elements drawn
 * without replacement from a population of @p pop elements containing
 * @p succ successes contains exactly @p k successes.
 */
double hypergeometricPmf(std::int64_t pop, std::int64_t succ,
                         std::int64_t s, std::int64_t k);

/**
 * Probability that a sample of @p s elements drawn without replacement
 * from a population of @p pop elements with @p succ nonzeros contains
 * no nonzero at all, i.e., the tile-empty probability of the uniform
 * density model.
 */
double hypergeometricProbEmpty(std::int64_t pop, std::int64_t succ,
                               std::int64_t s);

/** Mean of the hypergeometric distribution: s * succ / pop. */
double hypergeometricMean(std::int64_t pop, std::int64_t succ,
                          std::int64_t s);

/** Largest support value with nonzero probability: min(s, succ). */
std::int64_t hypergeometricMax(std::int64_t pop, std::int64_t succ,
                               std::int64_t s);

/** Binomial PMF with success probability p (used as large-pop limit). */
double binomialPmf(std::int64_t n, double p, std::int64_t k);

/** ceil(log2(x)) for x >= 1; returns 0 for x <= 1. */
int ceilLog2(std::int64_t x);

/** Integer ceiling division; requires b > 0. */
std::int64_t ceilDiv(std::int64_t a, std::int64_t b);

/** All positive divisors of n in increasing order; requires n >= 1. */
std::vector<std::int64_t> divisors(std::int64_t n);

/**
 * @name Index-space helpers
 * Building blocks for enumerable/indexable search spaces (the mapper's
 * MapSpace IR): factorials, permutation unranking, mixed-radix index
 * decomposition, and counting of ordered factorizations.
 */
/// @{

/** n! as a saturating int64 (exact for n <= 20, INT64_MAX beyond). */
std::int64_t factorial(int n);

/**
 * The @p index -th permutation of {0, 1, ..., n-1} in lexicographic
 * order (Lehmer-code unranking). Requires 0 <= index < n!.
 */
std::vector<int> nthPermutation(int n, std::int64_t index);

/**
 * Decompose a flat index into mixed-radix digits: the result r
 * satisfies index == r[0] + radices[0]*(r[1] + radices[1]*(r[2]...)),
 * i.e., r[0] is the fastest-varying digit. Requires every radix >= 1
 * and 0 <= index < product(radices).
 */
std::vector<std::int64_t>
mixedRadixDecode(std::int64_t index,
                 const std::vector<std::int64_t> &radices);

/** Prime factorization of n >= 1 as (prime, exponent) pairs. */
std::vector<std::pair<std::int64_t, int>>
primeFactorization(std::int64_t n);

/**
 * Number of ways to write n >= 1 as an ordered product of @p slots
 * factors (1s allowed): prod_i C(e_i + slots - 1, slots - 1) over the
 * prime exponents e_i. Saturates at INT64_MAX. Zero slots: 1 when
 * n == 1, else 0.
 */
std::int64_t orderedFactorizationCount(std::int64_t n, int slots);

/** a * b with saturation at INT64_MAX; requires a, b >= 0. */
std::int64_t mulSat(std::int64_t a, std::int64_t b);

/// @}

/** Relative error |a - b| / max(|b|, eps). */
double relativeError(double a, double b, double eps = 1e-12);

/**
 * @name Stable 64-bit hashing (FNV-1a + splitmix finalization)
 * Building blocks for the evaluation-cache signatures
 * (`Workload::signature()`, `Mapping::signature()`, ...). The mixing is
 * deterministic within a process run, which is all an in-memory cache
 * key needs.
 */
/// @{

/** Seed for incremental hashing chains (FNV-1a offset basis). */
constexpr std::uint64_t kHashSeed = 1469598103934665603ull;

/** splitmix64 finalizer: avalanche a 64-bit value. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Mix a 64-bit value into a running hash. Inline: the cache keys
 *  call it tens of times per evaluation. */
inline std::uint64_t
hashCombine(std::uint64_t h, std::uint64_t value)
{
    // FNV-1a over the mixed value's bytes, one xor-multiply per word.
    constexpr std::uint64_t kPrime = 1099511628211ull;
    return (h ^ mix64(value)) * kPrime;
}

/** Mix a string (length-prefixed bytes) into a running hash. */
std::uint64_t hashString(std::uint64_t h, const std::string &s);

/** Mix a double (by bit pattern) into a running hash. */
inline std::uint64_t
hashDouble(std::uint64_t h, double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value), "double width");
    std::memcpy(&bits, &value, sizeof(bits));
    return hashCombine(h, bits);
}

/// @}

} // namespace math
} // namespace sparseloop

#endif // SPARSELOOP_COMMON_MATHUTIL_HH
