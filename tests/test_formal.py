import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3voronoi.formal import (
    PRUNE_EPS,
    CompletenessError,
    FormalSeries,
    Window,
    build_lseries,
    compare,
    series_mul,
)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(0, 1, 1)
    w = Window(4, 4, 4)
    assert w.contains(4, 4, 4) and not w.contains(5, 1, 1)


def test_counting_series():
    w = Window(12, 1, 1)
    s = build_lseries(lambda n: 1.0, 1, 0, 0, None, w)
    assert len(s) == 12
    for n in range(1, 13):
        assert s.terms[(n, 1, 1)] == 1


def test_hand_product():
    # (sum over n <= 2 of n^-(2w-s)) * (sum over m <= 3 of m^-s):
    # key (4, 3/2) receives exactly the n=2, m=3 contribution
    a = build_lseries(lambda n: 1.0, 2, -1, 0, None, Window(4, 1, 2))
    b = build_lseries(lambda n: 1.0, 0, 1, 0, None, Window(4, 8, 1))
    p = series_mul(a, b, Window(4, 4, 2))
    assert abs(p.coeff(4, Fraction(3, 2)) - 1) < 1e-15
    assert abs(p.coeff(1, Fraction(2)) - 1) < 1e-15


def test_mul_identity_and_empty():
    a = build_lseries(lambda n: complex(n, 1), 2, -1, 0, None, Window(9, 1, 3))
    unit = FormalSeries({(1, 1, 1): 1 + 0j}, Window(9, 3, 3), num_bound=1, den_bound=1)
    w = Window(9, 1, 3)
    assert series_mul(a, unit, w).terms == a.terms
    empty = FormalSeries({}, Window(9, 3, 3), num_bound=1, den_bound=1)
    assert len(series_mul(empty, a, w)) == 0


def test_builder_bounds_and_errors():
    with pytest.raises(CompletenessError):
        build_lseries(lambda n: 1.0, 0, 0, 0, None, Window(4, 4, 4))
    # s-only with negative s_mult: denominators drive the index bound
    s = build_lseries(lambda n: 1.0, 0, -2, 0, None, Window(1, 1, 25))
    assert {k[2] for k in s.terms} == {1, 4, 9, 16, 25}
    assert s.num_bound == 1 and s.den_bound is None


def test_guard_refuses_undersized_factor():
    a = build_lseries(lambda n: 1.0, 2, -1, 0, None, Window(16, 1, 4))
    b = build_lseries(lambda n: 1.0, 0, 1, 0, None, Window(16, 12, 1))
    # b would need numerators up to p_max * den_bound(a) = 8*4 = 32
    with pytest.raises(CompletenessError):
        series_mul(a, b, Window(16, 8, 8))
    b2 = build_lseries(lambda n: 1.0, 0, 1, 0, None, Window(16, 32, 1))
    p = series_mul(a, b2, Window(16, 8, 8))
    assert abs(p.coeff(4, Fraction(3)) - 1) < 1e-15  # n=2, m=6


def test_guard_refuses_short_x_window():
    a = build_lseries(lambda n: 1.0, 1, 0, 0, None, Window(4, 1, 1))
    with pytest.raises(CompletenessError):
        series_mul(a, a, Window(9, 1, 1))


def test_compare():
    w = Window(4, 4, 4)
    a = build_lseries(lambda n: 1.0, 1, 0, 0, None, w)
    assert compare(a, a, w) == 0.0
    bumped = dict(a.terms)
    bumped[(3, 1, 1)] += 2.5e-7
    b = FormalSeries(bumped, w, a.num_bound, a.den_bound)
    assert abs(compare(a, b, w) - 2.5e-7) < 1e-15
    with pytest.raises(CompletenessError):
        compare(a, b, Window(8, 4, 4))


def test_restriction():
    s = build_lseries(lambda n: 1.0, 1, 0, 0, lambda n: n % 2 == 1, Window(10, 1, 1))
    assert {k[0] for k in s.terms} == {1, 3, 5, 7, 9}


_coeffs = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=4.0, allow_nan=False, allow_infinity=False
)


@st.composite
def small_series(draw):
    w = Window(16, 6, 6)
    n_terms = draw(st.integers(1, 5))
    terms = {}
    for _ in range(n_terms):
        x = draw(st.sampled_from((1, 2, 3, 4)))
        num = draw(st.integers(1, 3))
        den = draw(st.integers(1, 3))
        g = math.gcd(num, den)
        terms[(x, num // g, den // g)] = draw(_coeffs)
    return FormalSeries(terms, w, num_bound=3, den_bound=3)


@given(small_series(), small_series(), small_series())
@settings(max_examples=60, deadline=None)
def test_mul_associative_commutative(a, b, c):
    w = Window(16, 6, 6)
    ab = series_mul(a, b, w)
    ba = series_mul(b, a, w)
    assert compare(ab, ba, w) < 1e-13
    left = series_mul(series_mul(a, b, Window(16, 27, 27)), c, w)
    right = series_mul(a, series_mul(b, c, Window(16, 27, 27)), w)
    assert compare(left, right, w) < 1e-13


def test_pruning_does_not_change_compares():
    w = Window(16, 6, 6)
    tiny = PRUNE_EPS / 10
    pruned = FormalSeries({(2, 1, 1): 1.0 + 0j, (3, 2, 1): tiny + 0j}, w, 2, 1)
    assert pruned.terms == {(2, 1, 1): 1.0 + 0j}  # the sub-PRUNE_EPS term is dropped
    other = build_lseries(lambda n: 1.0, 2, -1, 0, None, Window(16, 1, 4))
    product = series_mul(pruned, other, w)
    # the unpruned product by hand: (2,1,1) and (3,2,1) times (n^2, 1, n), X <= 16
    reference = {(2, 1, 1): 1.0, (8, 1, 2): 1.0, (3, 2, 1): tiny, (12, 1, 1): tiny}
    assert product.terms == {(2, 1, 1): 1.0, (8, 1, 2): 1.0}
    assert max(abs(product.terms.get(k, 0j) - v) for k, v in reference.items()) == tiny
    assert compare(product, FormalSeries(reference, w), w) == 0.0


def test_non_finite_terms_are_never_pruned():
    w = Window(4, 4, 4)
    s = FormalSeries({(1, 1, 1): math.nan, (2, 1, 1): math.inf, (3, 1, 1): 1e-16}, w)
    assert set(s.terms) == {(1, 1, 1), (2, 1, 1)}
    assert math.isnan(compare(s, FormalSeries({}, w), w))
    assert math.isnan(compare(FormalSeries({(1, 1, 1): 1.0}, w), s, w))
