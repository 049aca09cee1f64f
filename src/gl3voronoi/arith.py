"""Exact integer utilities, and the residual accumulator of the checks.

Everything here is pure and deterministic, and all values are immutable
after construction.  Trial division is used throughout: every modulus
handled by the suite is far below 10**6.  The indices of the Hecke
relations are powers of primes up to 65536, so factorize tests once, past
a small trial bound, whether what is left is a perfect power.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "factorize",
    "divisors",
    "mobius",
    "mod_inverse",
    "euler_phi",
    "primes_up_to",
    "unit_group_generators",
    "worse",
]

_MAX_N = 2**63 - 1
# the trial divisor at which factorize tests once for a perfect power: a
# test on every call made factorize(1..20000) 5x slower
_ROOT_TEST_AT = 101


def worse(worst: float, *residuals: float) -> float:
    """The largest of worst and residuals, where a NaN beats every number.

    Builtin max keeps its first argument when a comparison is False, so
    max(0.0, nan) is 0.0 and a NaN residual would vanish; here, once a
    non-finite residual is seen, the result stays non-finite.
    """
    for r in residuals:
        if r > worst or r != r:
            worst = r
    return worst


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as sorted (prime, exponent) pairs.

    factorize(1) is the empty list.  Rejects n < 1 and n > 2**63 - 1.
    """
    if n < 1 or n > _MAX_N:
        raise ValueError(f"factorize requires 1 <= n <= 2**63-1, got {n}")
    out = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    f = 5
    step = 2
    while f * f <= m:
        if f == _ROOT_TEST_AT:
            # trial division would take about sqrt(p)/3 steps on a prime
            # power p^k; here, where the prime factors of m are all large
            # and so its exponents few, m is tested once for a perfect power
            root, k = _perfect_power(m)
            if k > 1:
                return out + [(p, e * k) for p, e in factorize(root)]
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out.append((f, e))
        f += step
        step = 6 - step  # alternate 5,7,11,13,... wheel
    if m > 1:
        out.append((m, 1))
    return out


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with m = r^k and k largest, for 1 < m <= 2**63 - 1 with no
    prime factor below _ROOT_TEST_AT.

    Every prime factor of r is then >= 101, and 101**11 > 2**63, so k has
    no prime factor above 7.  A root of m that is not an e-th power is no
    e-th power either, so each e is exhausted once.  For e >= 3 an e-th
    root of m is below 2**21 and the float root's relative error far below
    2**-22, so it rounds to the true root whenever m is an e-th power.
    """
    k = 1
    for e in (2, 3, 5, 7):
        while _ROOT_TEST_AT**e <= m:
            r = math.isqrt(m) if e == 2 else round(m ** (1 / e))
            if r**e != m:
                break
            m, k = r, k * e
    return m, k


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of |n|, ascending.  Rejects n = 0.

    Cached: every caller of one n shares the result, hence a tuple.
    """
    if n == 0:
        raise ValueError("divisors of 0 are not defined")
    divs = [1]
    for p, e in factorize(abs(n)):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def mobius(n: int) -> int:
    """Moebius function of n >= 1."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def mod_inverse(a: int, c: int) -> int:
    """Inverse of a modulo c, in [0, c).  For c = 1 returns 0.

    Raises ValueError when gcd(a, c) > 1.
    """
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    try:
        return pow(a, -1, c)
    except ValueError as exc:
        raise ValueError(f"{a} is not invertible mod {c}") from exc


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes up to n inclusive."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : n + 1 : p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, v in enumerate(sieve) if v]


def _primitive_root_prime_power(p: int, e: int) -> int:
    """Smallest primitive root mod p, adjusted to generate mod p**e."""
    order_factors = [q for q, _ in factorize(p - 1)]
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in order_factors):
        g += 1
    if e >= 2 and pow(g, p - 1, p * p) == 1:
        g += p  # g was not primitive mod p^2; g+p always is
    return g


def _crt_lift(g: int, pe: int, q: int) -> int:
    """Lift g mod pe to x mod q with x = g (mod pe), x = 1 (mod q//pe)."""
    rest = q // pe
    if rest == 1:
        return g % q
    t = ((1 - g) * mod_inverse(pe, rest)) % rest
    return (g + pe * t) % q


def unit_group_generators(q: int) -> tuple[tuple[int, int], ...]:
    """Generators of (Z/qZ)^x as (generator, order) pairs.

    One primitive root per odd prime power; for 2**e with e >= 3 the pair
    (-1 of order 2, 5 of order 2**(e-2)); modulus 4 contributes (3, 2).
    The product of the orders is euler_phi(q).
    """
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    gens: list[tuple[int, int]] = []
    for p, e in factorize(q):
        pe = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                local = [(3, 2)]
            else:
                local = [(pe - 1, 2), (5, 2 ** (e - 2))]
        else:
            local = [(_primitive_root_prime_power(p, e), euler_phi(pe))]
        for g, order in local:
            gens.append((_crt_lift(g, pe, q), order))
    return tuple(gens)
