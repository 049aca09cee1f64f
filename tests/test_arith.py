import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3voronoi.arith import (
    divisors,
    euler_phi,
    factorize,
    mobius,
    mod_inverse,
    primes_up_to,
    unit_group_generators,
    worse,
)


def trial_division_oracle(n):
    out = []
    f = 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            out.append((f, e))
        f += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == trial_division_oracle(97) == [(97, 1)]


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_factorize_shape(n):
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac) == n
    primes = [p for p, _ in fac]
    assert primes == sorted(primes)
    assert all(e >= 1 for _, e in fac)


def test_factorize_roundtrip_exhaustive():
    for n in range(1, 10**5 + 1):
        assert math.prod(p**e for p, e in factorize(n)) == n


def test_factorize_equals_trial_division_by_primes():
    # trial division by every prime below 10**6 factors each n below 10**12
    # and each power below 2**63 of a prime below 10**6; factorize
    # takes a perfect-power step once its trial divisor reaches 101
    sieve = bytearray([1]) * 10**6
    sieve[:2] = b"\x00\x00"
    for f in range(2, 1000):
        if sieve[f]:
            sieve[f * f :: f] = bytes(len(range(f * f, 10**6, f)))
    primes = [f for f in range(10**6) if sieve[f]]

    def oracle(n):
        out = []
        for f in primes:
            if f * f > n:
                break
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            if e:
                out.append((f, e))
        else:
            raise AssertionError("ran out of trial divisors")
        return out + [(n, 1)] * (n > 1)

    rng = random.Random(1729)
    near_70000 = [p for p in primes if 69_900 < p < 70_100]
    values = [
        *range(1, 30_001),
        # factorize itself takes about 1 ms per n here, so 300 of them
        *(rng.randrange(1, 10**12) for _ in range(300)),
        *(p**k for p in near_70000 for k in range(1, 4)),
        2**63 - 1,
    ]
    for n in values:
        assert factorize(n) == oracle(n), n


def test_divisors_examples():
    assert divisors(6) == (1, 2, 3, 6)
    assert divisors(-6) == (1, 2, 3, 6)  # divisors taken of the absolute value
    assert divisors(1) == (1,)
    with pytest.raises(ValueError):
        divisors(0)
    # cached: one shared, immutable result per n
    assert divisors(360) is divisors(360)


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0


def test_mobius_divisor_sum():
    for n in range(1, 10**4 + 1):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0), n


def test_mod_inverse_examples():
    assert mod_inverse(3, 7) == 5
    for c in (2, 5, 17):
        assert mod_inverse(1, c) == 1
    assert mod_inverse(123, 1) == 0
    with pytest.raises(ValueError):
        mod_inverse(2, 4)


def test_mod_inverse_all_units():
    for c in range(1, 501):
        for a in range(1, c + 1):
            if math.gcd(a, c) != 1:
                continue
            inv = mod_inverse(a, c)
            if c == 1:
                assert inv == 0
            else:
                assert 0 < inv < c and a * inv % c == 1


def test_unit_group_generators_examples():
    assert unit_group_generators(1) == ()
    assert unit_group_generators(5) == ((2, 4),)
    assert sorted(r for _, r in unit_group_generators(8)) == [2, 2]


def test_unit_group_orders_multiply_to_phi():
    for q in range(1, 2001):
        gens = unit_group_generators(q)
        assert math.prod(r for _, r in gens) == euler_phi(q), q
        for g, r in gens:
            assert math.gcd(g, q) == 1
            assert pow(g, r, q) == 1 % q


def test_unit_group_generates():
    # exhaustive group generation check at small moduli
    import itertools

    for q in range(1, 200):
        gens = unit_group_generators(q)
        seen = set()
        for combo in itertools.product(*[range(r) for _, r in gens]):
            n = 1 % q
            for (g, _), k in zip(gens, combo):
                n = n * pow(g, k, q) % q
            seen.add(n)
        assert len(seen) == euler_phi(q), q


def test_primes_and_is_prime():
    ps = primes_up_to(100)
    assert ps[:5] == [2, 3, 5, 7, 11] and ps[-1] == 97
    assert ps == [n for n in range(2, 101) if factorize(n) == [(n, 1)]]
    assert primes_up_to(1) == [] and primes_up_to(2) == [2]


def test_worse_keeps_non_finite_residuals():
    nan = math.nan
    assert max(0.0, nan) == 0.0  # the builtin hides a NaN that comes second
    assert worse(0.0, 1e-12, 3e-13) == 1e-12
    assert worse(2.0) == 2.0
    assert math.isnan(worse(0.0, nan, 1.0))
    assert math.isnan(worse(0.0, 1.0, nan))
    assert math.isnan(worse(nan, 5.0))
    assert math.isnan(worse(math.inf, nan))
    assert worse(0.0, math.inf, 1.0) == math.inf
