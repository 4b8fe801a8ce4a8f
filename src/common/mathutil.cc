/**
 * @file
 * Implementation of combinatorial helpers.
 */

#include "common/mathutil.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace sparseloop {
namespace math {

double
logFactorial(std::int64_t n)
{
    SL_ASSERT(n >= 0, "logFactorial of negative number ", n);
    // Not std::lgamma: glibc's lgamma writes the global `signgam`,
    // which is a data race when pool workers evaluate densities
    // concurrently. The argument is positive, so the sign is always
    // +1 and the reentrant variant is drop-in.
#if defined(__GLIBC__) || defined(__unix__) || defined(__APPLE__)
    int sign = 0;
    return ::lgamma_r(static_cast<double>(n) + 1.0, &sign);
#else
    return std::lgamma(static_cast<double>(n) + 1.0);
#endif
}

double
logChoose(std::int64_t n, std::int64_t k)
{
    if (k < 0 || k > n || n < 0) {
        return -std::numeric_limits<double>::infinity();
    }
    return logFactorial(n) - logFactorial(k) - logFactorial(n - k);
}

double
choose(std::int64_t n, std::int64_t k)
{
    double lc = logChoose(n, k);
    if (std::isinf(lc)) {
        return 0.0;
    }
    return std::exp(lc);
}

double
hypergeometricPmf(std::int64_t pop, std::int64_t succ, std::int64_t s,
                  std::int64_t k)
{
    SL_ASSERT(pop >= 0 && succ >= 0 && s >= 0,
              "invalid hypergeometric parameters");
    if (succ > pop || s > pop) {
        return 0.0;
    }
    if (k < std::max<std::int64_t>(0, s - (pop - succ)) ||
        k > std::min(s, succ)) {
        return 0.0;
    }
    double lp = logChoose(succ, k) + logChoose(pop - succ, s - k) -
                logChoose(pop, s);
    return std::exp(lp);
}

double
hypergeometricProbEmpty(std::int64_t pop, std::int64_t succ, std::int64_t s)
{
    if (succ <= 0) {
        return 1.0;
    }
    if (s <= 0) {
        return 1.0;
    }
    if (s > pop - succ) {
        // Not enough zeros in the population to fill the sample.
        return 0.0;
    }
    double lp = logChoose(pop - succ, s) - logChoose(pop, s);
    return std::exp(lp);
}

double
hypergeometricMean(std::int64_t pop, std::int64_t succ, std::int64_t s)
{
    if (pop == 0) {
        return 0.0;
    }
    return static_cast<double>(s) * static_cast<double>(succ) /
           static_cast<double>(pop);
}

std::int64_t
hypergeometricMax(std::int64_t pop, std::int64_t succ, std::int64_t s)
{
    (void)pop;
    return std::min(s, succ);
}

double
binomialPmf(std::int64_t n, double p, std::int64_t k)
{
    if (k < 0 || k > n) {
        return 0.0;
    }
    if (p <= 0.0) {
        return k == 0 ? 1.0 : 0.0;
    }
    if (p >= 1.0) {
        return k == n ? 1.0 : 0.0;
    }
    double lp = logChoose(n, k) + k * std::log(p) +
                (n - k) * std::log1p(-p);
    return std::exp(lp);
}

int
ceilLog2(std::int64_t x)
{
    if (x <= 1) {
        return 0;
    }
    int bits = 0;
    std::int64_t v = x - 1;
    while (v > 0) {
        v >>= 1;
        ++bits;
    }
    return bits;
}

std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    SL_ASSERT(b > 0, "ceilDiv by non-positive divisor ", b);
    return (a + b - 1) / b;
}

std::vector<std::int64_t>
divisors(std::int64_t n)
{
    SL_ASSERT(n >= 1, "divisors of non-positive number ", n);
    std::vector<std::int64_t> low, high;
    for (std::int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            low.push_back(d);
            if (d != n / d) {
                high.push_back(n / d);
            }
        }
    }
    low.insert(low.end(), high.rbegin(), high.rend());
    return low;
}

std::int64_t
mulSat(std::int64_t a, std::int64_t b)
{
    SL_ASSERT(a >= 0 && b >= 0, "mulSat of negative operands");
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    if (a == 0 || b == 0) {
        return 0;
    }
    if (a > kMax / b) {
        return kMax;
    }
    return a * b;
}

std::int64_t
factorial(int n)
{
    SL_ASSERT(n >= 0, "factorial of negative number ", n);
    std::int64_t f = 1;
    for (int i = 2; i <= n; ++i) {
        f = mulSat(f, i);
    }
    return f;
}

std::vector<int>
nthPermutation(int n, std::int64_t index)
{
    SL_ASSERT(n >= 0, "permutation of negative-size set");
    SL_ASSERT(index >= 0 && index < factorial(n),
              "permutation index ", index, " out of range for n=", n);
    std::vector<int> pool(n);
    for (int i = 0; i < n; ++i) {
        pool[i] = i;
    }
    std::vector<int> perm;
    perm.reserve(n);
    std::int64_t rest = index;
    for (int k = n; k > 0; --k) {
        std::int64_t block = factorial(k - 1);
        std::int64_t digit = rest / block;
        rest %= block;
        perm.push_back(pool[static_cast<std::size_t>(digit)]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(digit));
    }
    return perm;
}

std::vector<std::int64_t>
mixedRadixDecode(std::int64_t index,
                 const std::vector<std::int64_t> &radices)
{
    SL_ASSERT(index >= 0, "negative mixed-radix index");
    std::vector<std::int64_t> digits(radices.size(), 0);
    for (std::size_t i = 0; i < radices.size(); ++i) {
        SL_ASSERT(radices[i] >= 1, "mixed radix must be positive");
        digits[i] = index % radices[i];
        index /= radices[i];
    }
    SL_ASSERT(index == 0, "mixed-radix index exceeds the space");
    return digits;
}

std::vector<std::pair<std::int64_t, int>>
primeFactorization(std::int64_t n)
{
    SL_ASSERT(n >= 1, "factorization of non-positive number ", n);
    std::vector<std::pair<std::int64_t, int>> factors;
    for (std::int64_t p = 2; p * p <= n; ++p) {
        if (n % p == 0) {
            int e = 0;
            while (n % p == 0) {
                n /= p;
                ++e;
            }
            factors.emplace_back(p, e);
        }
    }
    if (n > 1) {
        factors.emplace_back(n, 1);
    }
    return factors;
}

std::int64_t
orderedFactorizationCount(std::int64_t n, int slots)
{
    SL_ASSERT(n >= 1, "factorization count of non-positive number ", n);
    if (slots <= 0) {
        return n == 1 ? 1 : 0;
    }
    std::int64_t count = 1;
    for (const auto &[prime, exp] : primeFactorization(n)) {
        (void)prime;
        // C(exp + slots - 1, slots - 1) by incremental products, kept
        // exact in int64 until saturation.
        std::int64_t c = 1;
        for (int i = 1; i <= exp; ++i) {
            c = mulSat(c, slots - 1 + i) / i;
        }
        count = mulSat(count, c);
    }
    return count;
}

double
relativeError(double a, double b, double eps)
{
    double denom = std::max(std::abs(b), eps);
    return std::abs(a - b) / denom;
}

std::uint64_t
hashString(std::uint64_t h, const std::string &s)
{
    constexpr std::uint64_t kPrime = 1099511628211ull;
    h = hashCombine(h, s.size());
    for (unsigned char c : s) {
        h = (h ^ c) * kPrime;
    }
    return h;
}

} // namespace math
} // namespace sparseloop
