"""Primality and factorization of the integers certificates carry.

isprime is exact for every n.  Below 3317044064679887385961981 (about
3.3 * 10**24, 82 bits) it is the Miller-Rabin test on the first 13 prime
bases, which no composite in that range passes (Sorenson and Webster,
2015); the bound itself is the first composite that does.  At the bound
and above it is the strong Baillie-PSW test (a strong base-2 test and a
strong Lucas test with Selfridge's parameters), for which no composite is
known, and which sympy's isprime runs there too.

factorint divides out the primes below TRIAL_LIMIT, then splits what is
left with Pollard's rho in Brent's form, and keeps a part only once
isprime accepts it.  The result does not depend on how rho splits, since
factorization is unique.  Rho's steps grow with the square root of the
second-largest prime factor: two primes near 2**40 take 0.4 s, near 2**48
16 s on a shared 2-core host, where sympy's elliptic-curve method takes
0.3 s.  Certificate coefficients have at most 81 bits in the catalog;
applicability.prime_factors_exceed, which factors numbers a user types,
still uses sympy.
"""

from __future__ import annotations

import math

# the least composite that passes Miller-Rabin on the first 13 prime bases
_MR_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
TRIAL_LIMIT = 1 << 12


def _primes_below(n: int) -> list[int]:
    """The sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p, is_prime in enumerate(sieve) if is_prime]


_SMALL = _primes_below(TRIAL_LIMIT)


def _strong_probable_prime(n: int, base: int) -> bool:
    """The Miller-Rabin test of odd n > base to one base."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of odd n, not a square, with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D / n) = -1,
    P = 1 and Q = (1 - D) / 4."""
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and abs(d) != n:
            return False  # d shares a factor with n
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    k, s = n + 1, 0
    while not k & 1:
        k >>= 1
        s += 1
    # U_k, V_k and Q^k mod n from k = 1 up, by the binary digits of k
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, d * u + v
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
            u, v, qk = u % n, v % n, qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def isprime(n: int) -> bool:
    """Whether the integer n is prime."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_LIMIT:
        return all(_strong_probable_prime(n, base) for base in _MR_BASES)
    return (_strong_probable_prime(n, 2) and math.isqrt(n) ** 2 != n
            and _strong_lucas_probable_prime(n))


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's form of Pollard's
    rho on x -> x^2 + c from x = 2, for c = 1, 2, ... until one splits n.
    The differences are multiplied up in batches of 128 before each gcd;
    a batch that overshoots to n is replayed one gcd at a time."""
    for c in range(1, n):
        y, r, g, prod = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                saved = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = math.gcd(prod, n)
                done += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(x - saved, n)
        if g != n:
            return g
    raise AssertionError(f"{n} is prime")


def factorint(n: int) -> dict[int, int]:
    """The prime factorization of the integer n >= 1, as {prime: exponent}
    in ascending order of the primes."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    found: dict[int, int] = {}
    for p in _SMALL:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            found[p] = found.get(p, 0) + 1
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if isprime(m):
            found[m] = found.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            parts += [d, m // d]
    return dict(sorted(found.items()))
