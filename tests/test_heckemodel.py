import collections
import itertools
import math
import random

import pytest

from gl3voronoi import heckemodel
from gl3voronoi.arith import factorize
from gl3voronoi.characters import enumerate_characters, primitive_characters, principal_character
from gl3voronoi.formal import Window
from gl3voronoi.heckemodel import (
    CoefficientDomainError,
    euler_product_residual,
    hecke_relation_residual_1,
    hecke_relation_residual_2,
    new_model,
    relation_residuals,
)
from gl3voronoi.identities import verify_fe_rearrangement


def quadratic_mod(p):
    (chi,) = [
        c for c in enumerate_characters(p) if not c.is_principal and c == c.conjugate()
    ]
    return chi


def elementary_symmetric(triple):
    a, b, c = triple
    return a + b + c, a * b + b * c + c * a, a * b * c


def test_normalization_and_local_values():
    m = new_model(1, seed=7)
    assert m.coefficient(1, 1) == 1
    e1, e2, e3 = elementary_symmetric(m.satake(2))
    assert abs(m.coefficient(1, 2) - e1) < 1e-14  # degree-one Schur value
    assert abs(m.coefficient(2, 1) - e2) < 1e-14
    assert abs(e3 - 1) < 1e-12
    # A(p,1) A(1,p) - A(p,p) = psi(p)
    v = m.coefficient(2, 1) * m.coefficient(1, 2) - m.coefficient(2, 2)
    assert abs(v - 1) < 1e-13


def test_central_character_constraint():
    psi = quadratic_mod(3)
    m = new_model(3, psi, seed=5)
    for p in (2, 5, 7, 11):
        _, _, e3 = elementary_symmetric(m.satake(p))
        assert abs(e3 - psi(p)) < 1e-12


def test_determinism():
    psi = quadratic_mod(3)
    a = new_model(3, psi, seed=42)
    b = new_model(3, psi, seed=42)
    assert a.coefficient(35, 18) == b.coefficient(35, 18)
    assert a.satake(7) == b.satake(7)
    assert a.ramified(3, 2) == b.ramified(3, 2)
    c = new_model(3, psi, seed=43)
    assert a.coefficient(35, 18) != c.coefficient(35, 18)


def test_domain_error_on_level_first_index():
    psi = quadratic_mod(3)
    m = new_model(3, psi, seed=0)
    with pytest.raises(CoefficientDomainError):
        m.coefficient(3, 1)
    with pytest.raises(ValueError):
        m.coefficient(0, 1)


def test_sign_rule_exact():
    psi = quadratic_mod(3)
    m = new_model(3, psi, seed=1)
    for m1, m2 in ((2, 5), (4, 9), (1, 6)):
        base = m.coefficient(m1, m2)
        assert m.coefficient(-m1, m2) == base
        assert m.coefficient(m1, -m2) == psi.parity * base
        assert m.coefficient(-m1, -m2) == psi.parity * base


def test_multiplicativity():
    psi = [c for c in enumerate_characters(5) if c.is_primitive][0]
    m = new_model(5, psi, seed=3)
    pairs = [((2, 3), (7, 11)), ((4, 9), (7, 1)), ((3, 8), (49, 11)), ((9, 2), (77, 121))]
    for (a, b), (c, d) in pairs:
        lhs = m.coefficient(a * c, b * d)
        rhs = m.coefficient(a, b) * m.coefficient(c, d)
        assert abs(lhs - rhs) < 1e-12
    # indices up to 1e4
    assert abs(m.coefficient(99 * 101, 98 * 103) - m.coefficient(99, 98) * m.coefficient(101, 103)) < 1e-10


def test_hecke_relation_1_examples():
    m = new_model(1, seed=0)
    for p in (2, 3):
        assert hecke_relation_residual_1(m, p, 1, 1) < 1e-14  # both sides A(p,1)
        assert hecke_relation_residual_1(m, p, 1, p) < 1e-12
        assert hecke_relation_residual_1(m, p * p, p, p) < 1e-10


def test_hecke_relation_sweep_with_nebentypus():
    worst = 0.0
    for level in (1, 2, 3, 5):
        for psi in enumerate_characters(level):
            for seed in range(6):
                m = new_model(level, psi, seed=seed)
                for p in (2, 3, 5, 7):
                    if level % p == 0:
                        continue
                    for e in range(1, 4):
                        for e1 in range(4):
                            for e2 in range(4):
                                worst = max(
                                    worst,
                                    hecke_relation_residual_1(m, p**e, p**e1, p**e2),
                                    hecke_relation_residual_2(m, p**e, p**e1, p**e2),
                                )
    assert worst < 1e-10


@pytest.mark.parametrize("power_bound", [1, 2, 3, 4])
def test_relation_residuals_equal_the_divisor_sums_by_repr(power_bound):
    # the exponent plan replays the generic divisor loops term for term, so
    # every residual, pure and mixed, is the generic one bit for bit
    for level in range(1, 10):
        level_primes = [q for q, _ in factorize(level)]
        for i, psi in enumerate(enumerate_characters(level)):
            m = new_model(level, psi, seed=100 + i)
            for p in (2, 3, 5, 7, 11, 13, 17):
                if level % p == 0:
                    continue
                powers = [p**e for e in range(power_bound + 1)]
                expected = []
                for n, n1, n2 in itertools.product(powers[1:], powers, powers):
                    expected.append(hecke_relation_residual_1(m, n, n1, n2))
                    expected.append(hecke_relation_residual_2(m, n, n1, n2))
                for q, j, e, a, b in itertools.product(
                    level_primes, (1, 2), (0, 1, 2), (1, p, p * p), (1, p)
                ):
                    expected.append(hecke_relation_residual_2(m, q**j * p**e, a, b))
                got = relation_residuals(m, p, power_bound, level_primes)
                assert list(map(repr, got)) == list(map(repr, expected)), (level, i, p)


def test_hecke_relation_2_ramified_m():
    psi = quadratic_mod(3)
    m = new_model(3, psi, seed=11)
    # m = p^2 with p | N: only (a,b,c) = (p^2,1,1) survives, both sides c_{p,2}
    assert hecke_relation_residual_2(m, 9, 1, 1) < 1e-14
    assert abs(m.coefficient(1, 9) - m.ramified(3, 2)) < 1e-15
    for mm in (3, 9, 6, 18, 45):
        for n1, n2 in ((1, 1), (2, 5), (4, 2)):
            assert hecke_relation_residual_2(m, mm, n1, n2) < 1e-12


def test_relation_preconditions():
    psi = quadratic_mod(3)
    m = new_model(3, psi, seed=0)
    with pytest.raises(CoefficientDomainError):
        hecke_relation_residual_1(m, 3, 1, 1)
    with pytest.raises(CoefficientDomainError):
        hecke_relation_residual_1(m, 2, 1, 3)
    with pytest.raises(CoefficientDomainError):
        hecke_relation_residual_2(m, 2, 3, 1)


def test_relation_fails_for_corrupted_model():
    m = new_model(1, seed=0).corrupted((1, 2), 1e-3)
    assert hecke_relation_residual_1(m, 2, 1, 2) > 1e-5


def test_adjoint_relation_unitary():
    psi = [c for c in enumerate_characters(5) if c.is_primitive][0]
    m = new_model(5, psi, seed=3)
    for n in range(1, 101):
        if math.gcd(n, 5) != 1:
            continue
        lhs = m.coefficient(n, 1)
        rhs = psi(n) * m.coefficient(1, n).conjugate()
        assert abs(lhs - rhs) < 1e-10, n


def test_adjoint_relation_fails_non_unitary():
    # a corrupted A(2, 1) is no longer a unitary draw: the adjoint
    # relation, exact for the plain model, fails by the corruption
    def adjoint_gap(m):
        return max(
            abs(m.coefficient(n, 1) - m.coefficient(1, n).conjugate()) for n in (2, 3, 5)
        )

    m = new_model(1, seed=9)
    assert adjoint_gap(m) < 1e-12
    assert adjoint_gap(m.corrupted((2, 1), 1e-3)) >= 1e-4


def test_contragredient():
    psi = quadratic_mod(3)
    m = new_model(3, psi, seed=4)
    ct = m.contragredient()
    assert ct.coefficient(1, 1) == 1
    for a, b in ((2, 5), (5, 2), (7, 4), (10, 1)):
        lhs = m.coefficient(a, b)
        rhs = psi(a) * psi(b) * ct.coefficient(b, a)
        assert abs(lhs - rhs) < 1e-12
    # at level 1: dual of A(p,1) is A(1,p)
    m1 = new_model(1, seed=4)
    assert abs(m1.contragredient().coefficient(2, 1) - m1.coefficient(1, 2)) < 1e-13
    # double contragredient restores the unramified part
    cc = ct.contragredient()
    for a, b in ((2, 5), (7, 4)):
        assert abs(cc.coefficient(a, b) - m.coefficient(a, b)) < 1e-12
    # the dual satisfies its own relations with the conjugate nebentypus
    for p in (2, 5, 7):
        for e in (1, 2, 3):
            assert hecke_relation_residual_2(ct, p**e, p, p * p) < 1e-10
    # ramified dual data is an independent draw, not the transpose
    assert ct.ramified(3, 1) != m.ramified(3, 1)


def test_euler_product_examples():
    m = new_model(1, seed=1)
    chi = principal_character(5)
    assert euler_product_residual(m, chi, 2.5, 1) == 0          # both sides 1
    assert euler_product_residual(m, chi, 2.5, 2) < 1e-12       # single prime
    assert euler_product_residual(m, chi, 2.5, 300) < 1e-9


def test_euler_product_relation_consistent_sweep():
    for level in (1, 3):
        for psi in enumerate_characters(level):
            m = new_model(level, psi, seed=1)
            for chi in enumerate_characters(5):
                assert euler_product_residual(m, chi, 2.5, 300) < 1e-9


def _euler_residual(model, chi, n_max, quadratic_psi):
    """euler_product_residual's comparison, each local factor expanded
    on its own; quadratic_psi also puts psi(p) on the quadratic term."""
    worst = 0.0
    for n in range(1, n_max + 1):
        if math.gcd(n, model.level) != 1:
            continue
        rhs = 1 + 0j
        for p, e in factorize(n):
            cp, psi_p = chi(p), model.psi(p)
            a = model.coefficient(1, p) * cp
            b = model.coefficient(p, 1) * cp * cp * (psi_p if quadratic_psi else 1)
            c = psi_p * cp**3
            u = [1 + 0j]
            for k in range(1, e + 1):
                u.append(
                    a * u[k - 1]
                    - b * (u[k - 2] if k >= 2 else 0)
                    + c * (u[k - 3] if k >= 3 else 0)
                )
            rhs *= u[e]
        worst = max(worst, abs(model.coefficient(1, n) * chi(n) - rhs))
    return worst


def test_euler_product_alt_form_fails_with_nebentypus():
    psi = quadratic_mod(3)
    m = new_model(3, psi, seed=1)
    chi = enumerate_characters(5)[1]
    good = euler_product_residual(m, chi, 2.5, 60)
    assert repr(_euler_residual(m, chi, 60, quadratic_psi=False)) == repr(good)
    alt = _euler_residual(m, chi, 60, quadratic_psi=True)
    assert good < 1e-10
    assert alt > 1e-2  # moving psi(p) to the quadratic term is wrong


def test_euler_product_domain():
    m = new_model(1, seed=0)
    with pytest.raises(ValueError):
        euler_product_residual(m, principal_character(5), 1.0, 10)


def test_memoized_coefficients_match_a_fresh_model():
    psi = quadratic_mod(3)  # odd: a negative m2 flips the sign
    grid = [(m1, m2) for m1 in (1, 2, 5, 7, 10) for m2 in (1, -1, 2, -3, 9, -10, 25, -36)]
    warm = new_model(3, psi, seed=11)
    first = {k: warm.coefficient(*k) for k in grid}
    again = {k: warm.coefficient(*k) for k in reversed(grid)}
    fresh = {k: new_model(3, psi, seed=11).coefficient(*k) for k in grid}
    assert first == again == fresh
    assert first[(2, -3)] == -warm.coefficient(2, 3) != 0
    for _ in range(2):  # a domain error is never memoized
        with pytest.raises(CoefficientDomainError):
            warm.coefficient(6, 1)


def test_hvals_reads_a_long_enough_list_without_satake(monkeypatch):
    m = new_model(1, seed=3)
    first = list(m._hvals(7, 6))
    calls = []
    satake = m.satake
    monkeypatch.setattr(m, "satake", lambda p: calls.append(p) or satake(p))
    for k in (0, 3, 6):
        assert m._hvals(7, k) == first
    assert calls == []
    assert len(m._hvals(7, 9)) == 10 and calls == [7]  # growing needs the triple
    assert m._hvals(7, 9) == new_model(1, seed=3)._hvals(7, 9)


def test_twins_built_after_the_memo_fills_see_their_own_values():
    m = new_model(2, seed=5)
    grid = [(1, 2), (1, 4), (3, 2), (1, -2), (3, 1)]
    parent = {k: m.coefficient(*k) for k in grid}
    delta = 1e-3 - 2e-3j
    bad = m.corrupted((1, 2), delta)
    assert bad.coefficient(1, 2) == parent[(1, 2)] + delta
    assert {k: bad.coefficient(*k) for k in grid[1:]} == {k: parent[k] for k in grid[1:]}
    assert {k: m.coefficient(*k) for k in grid} == parent
    m1 = new_model(1, seed=4)
    a12 = m1.coefficient(1, 2)
    assert abs(m1.contragredient().coefficient(2, 1) - a12) < 1e-13


def test_euler_product_residual_keeps_nan():
    m = new_model(1, seed=1729).corrupted((1, 7), math.nan)
    for chi in enumerate_characters(5):
        assert math.isnan(euler_product_residual(m, chi, 2.0, 300))


def test_twins_compose():
    m = new_model(2, seed=5)
    d = 1e-3 - 2e-3j
    grid = [(1, 2), (1, 4), (3, 2), (1, 3), (3, 1), (5, 6)]
    plain = m.contragredient()
    # a corrupted dual keeps the dual's values and adds the corruption
    bad_dual = plain.corrupted((1, 3), d)
    assert bad_dual.coefficient(1, 3) == plain.coefficient(1, 3) + d
    assert {k: bad_dual.coefficient(*k) for k in grid if k != (1, 3)} == {
        k: plain.coefficient(*k) for k in grid if k != (1, 3)
    }
    # the dual of a corrupted model is the plain dual: the corruption does
    # not reach it, and its ramified data (2 | N) is the same fresh draw
    dual = m.corrupted((1, 2), d).contragredient()
    assert {k: dual.coefficient(*k) for k in grid} == {k: plain.coefficient(*k) for k in grid}


def test_corruptions_stack():
    m = new_model(1, seed=1)
    d1, d2, d3 = 1e-3, 2e-3j, -5e-4
    stacked = m.corrupted((1, 2), d1).corrupted((1, 3), d2).corrupted((1, 2), d3)
    grid = [(1, 2), (1, 3), (1, 4), (2, 1), (3, 1)]
    want = {k: m.coefficient(*k) for k in grid}
    want[(1, 2)] = want[(1, 2)] + d1 + d3  # each matching delta, in order
    want[(1, 3)] = want[(1, 3)] + d2
    assert {k: stacked.coefficient(*k) for k in grid} == want
    # the dual drops every corruption
    dual, plain = stacked.contragredient(), m.contragredient()
    assert {k: dual.coefficient(*k) for k in grid} == {k: plain.coefficient(*k) for k in grid}


def test_satake_guard_raises_on_a_triple_off_psi(monkeypatch):
    monkeypatch.setattr(heckemodel, "_unit", lambda rng: complex("nan"))
    with pytest.raises(ValueError, match="Satake triple at 2"):
        new_model(1, seed=7).satake(2)


def _local_by_definition(model, p, k1, k2):
    """A(p^k1, p^k2) = s_{(k1+k2, k1, 0)} via Jacobi-Trudi."""
    h = model._hvals(p, k1 + k2 + 1)
    val = h[k1 + k2] * h[k1]
    if k1 >= 1:
        val -= h[k1 + k2 + 1] * h[k1 - 1]
    return val


def coefficient_by_definition(model, m1, m2):
    """A(m1, m2), (m1, N) = 1, formed from scratch on every call: both
    indices factorized afresh and each local value read through _hvals,
    multiplied in the order of coefficient (primes of m2, then those of
    m1 alone)."""
    val = 1 + 0j
    ps = dict(factorize(abs(m1)))
    for p, e in factorize(abs(m2)):
        k1 = ps.pop(p, 0)
        if model.level % p == 0:
            val *= model.ramified(p, e)
        else:
            val *= _local_by_definition(model, p, k1, e)
    for p, k1 in ps.items():
        val *= _local_by_definition(model, p, k1, 0)
    if m2 < 0:
        val *= model.psi.parity
    for index, delta in model._corruption:
        if index == (m1, m2):
            val += delta
    return val


def _oracle_models(level, psi, seed):
    """A model, its contragredient and a twin with stacked corruptions."""
    model = new_model(level, psi, seed=seed)
    stacked = model.corrupted((1, 2), 1e-3).corrupted((5, -4), -2e-3j).corrupted((1, 2), 3e-4)
    return [model, model.contragredient(), stacked]


@pytest.mark.parametrize("shuffled", [False, True], ids=["ascending", "shuffled"])
def test_coefficient_equals_its_definition_by_repr(shuffled):
    # levels 1-9 with every nebentypus; each side reads its own model, so
    # the caches of coefficient never feed the definition
    for level in range(1, 10):
        grid = [
            (m1, m2)
            for m1 in range(1, 21)
            if math.gcd(m1, level) == 1
            for m2 in itertools.chain(range(1, 49), range(-1, -49, -1))
        ]
        if shuffled:
            random.Random(level).shuffle(grid)
        for i, psi in enumerate(enumerate_characters(level)):
            pairs = zip(_oracle_models(level, psi, 40 + i), _oracle_models(level, psi, 40 + i))
            for model, oracle in pairs:
                got = [repr(model.coefficient(*k)) for k in grid]
                want = [repr(coefficient_by_definition(oracle, *k)) for k in grid]
                assert got == want, (level, i)


def test_one_fe_case_factorizes_each_index_once(monkeypatch):
    # every coefficient miss reads its factorizations from one shared cache
    counts = collections.Counter()

    def spy(n):
        counts[n] += 1
        return factorize(n)

    monkeypatch.setattr(heckemodel, "factorize", spy)
    heckemodel._factors.cache_clear()
    try:
        chi = primitive_characters(4)[0]
        assert verify_fe_rearrangement(new_model(1, seed=9), 6, chi, Window(144, 48, 48)) < 1e-8
    finally:
        heckemodel._factors.cache_clear()
    assert len(counts) > 100
    assert max(counts.values()) == 1, counts.most_common(3)
