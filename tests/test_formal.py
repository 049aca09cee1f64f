import math

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
    assert abs(p.terms[(4, 3, 2)] - 1) < 1e-15
    assert abs(p.terms[(1, 2, 1)] - 1) < 1e-15


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
    with pytest.raises(ValueError, match="shift"):
        build_lseries(lambda n: 1.0, 1, 0, -1, None, Window(4, 4, 4))


def test_guard_refuses_undersized_factor():
    a = build_lseries(lambda n: 1.0, 2, -1, 0, None, Window(16, 1, 4))
    b = build_lseries(lambda n: 1.0, 0, 1, 0, None, Window(16, 12, 1))
    # b would need numerators up to p_max * den_bound(a) = 8*4 = 32
    with pytest.raises(CompletenessError):
        series_mul(a, b, Window(16, 8, 8))
    b2 = build_lseries(lambda n: 1.0, 0, 1, 0, None, Window(16, 32, 1))
    p = series_mul(a, b2, Window(16, 8, 8))
    assert abs(p.terms[(4, 3, 1)] - 1) < 1e-15  # n=2, m=6


def test_guard_refuses_short_x_window():
    a = build_lseries(lambda n: 1.0, 1, 0, 0, None, Window(4, 1, 1))
    with pytest.raises(CompletenessError):
        series_mul(a, a, Window(9, 1, 1))


def test_compare():
    w = Window(4, 4, 4)
    a = build_lseries(lambda n: 1.0, 1, 0, 0, None, w)
    assert compare(a, a) == 0.0
    bumped = dict(a.terms)
    bumped[(3, 1, 1)] += 2.5e-7
    b = FormalSeries(bumped, w, a.num_bound, a.den_bound)
    assert abs(compare(a, b) - 2.5e-7) < 1e-15
    with pytest.raises(CompletenessError):
        compare(a, FormalSeries(b.terms, Window(8, 4, 4)))


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
    assert compare(ab, ba) < 1e-13
    left = series_mul(series_mul(a, b, Window(16, 27, 27)), c, w)
    right = series_mul(a, series_mul(b, c, Window(16, 27, 27)), w)
    assert compare(left, right) < 1e-13


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
    assert compare(product, FormalSeries(reference, w)) == 0.0


def test_non_finite_terms_are_never_pruned():
    w = Window(4, 4, 4)
    s = FormalSeries({(1, 1, 1): math.nan, (2, 1, 1): math.inf, (3, 1, 1): 1e-16}, w)
    assert set(s.terms) == {(1, 1, 1), (2, 1, 1)}
    assert math.isnan(compare(s, FormalSeries({}, w)))
    assert math.isnan(compare(FormalSeries({(1, 1, 1): 1.0}, w), s))


def _pair_loop(a, b, window):
    """The product as a loop over every pair of terms, written out apart
    from series_mul as an independent reference for it."""
    acc = {}
    x_max, p_max, q_max = window.x_max, window.p_max, window.q_max
    dropped_y = False
    for (xa, na, da), ca in a.terms.items():
        if xa > x_max:
            continue
        for (xb, nb, db), cb in b.terms.items():
            x = xa * xb
            if x > x_max:
                continue
            nn = na * nb
            dd = da * db
            if nn > p_max * dd or dd > q_max * nn:
                dropped_y = True
                continue
            g = math.gcd(nn, dd)
            nn //= g
            dd //= g
            if nn > p_max or dd > q_max:
                dropped_y = True
                continue
            key = (x, nn, dd)
            acc[key] = acc.get(key, 0j) + ca * cb
    if not dropped_y and all(
        s.num_bound <= s.window.p_max and s.den_bound <= s.window.q_max for s in (a, b)
    ):
        bounds = (max((k[1] for k in acc), default=1), max((k[2] for k in acc), default=1))
    else:
        bounds = (a.num_bound * b.num_bound, a.den_bound * b.den_bound)
    # the product is a FormalSeries, which prunes sums that cancel below PRUNE_EPS
    return [(k, repr(v)) for k, v in acc.items() if not abs(v) < PRUNE_EPS], bounds


def _same_as_pair_loop(a, b, window):
    product = series_mul(a, b, window)
    terms, bounds = _pair_loop(a, b, window)
    # the same terms in the same order, so a product of products sums alike
    assert [(k, repr(v)) for k, v in product.terms.items()] == terms
    assert (product.num_bound, product.den_bound) == bounds
    return bounds


def test_series_mul_matches_the_pair_loop():
    big = Window(64, 64, 64)
    a = FormalSeries({(1, 1, 1): 1 + 1j, (2, 1, 3): 0.5 + 0j, (4, 5, 2): -2j}, big, 5, 3)
    # an X-dropped partner whose Y is out of range too leaves the bounds exact
    far = FormalSeries({(1, 1, 1): 1 + 0j, (8, 40, 1): 3 + 0j}, big, 40, 1)
    assert _same_as_pair_loop(a, far, Window(4, 30, 30)) == (5, 3)
    # a Y-dropped partner with X in range gives the product bounds
    near = FormalSeries({(1, 1, 1): 1 + 0j, (1, 40, 1): 3 + 0j}, big, 40, 1)
    assert _same_as_pair_loop(a, near, Window(4, 30, 30)) == (200, 3)
    one = FormalSeries({(1, 1, 1): 1 + 0j}, big, 1, 1)
    assert _same_as_pair_loop(one, near, Window(4, 30, 30)) == (40, 1)
    low = FormalSeries({(1, 1, 1): 1 + 0j, (1, 1, 40): 3 + 0j}, big, 1, 40)
    assert _same_as_pair_loop(a, low, Window(4, 30, 30)) == (5, 120)
    # Y exactly on the window's edges, partners out of Y order, a NaN term
    b = FormalSeries(
        {(1, 6, 1): 1j, (1, 1, 1): 2 + 0j, (1, 1, 6): math.nan, (2, 3, 2): 1 - 1j}, big, 6, 6
    )
    _same_as_pair_loop(a, b, Window(8, 6, 6))
    _same_as_pair_loop(b, a, Window(8, 6, 6))
    assert math.isnan(series_mul(a, b, Window(8, 6, 6)).terms[(1, 1, 6)].real)
    # two pairs that cancel exactly at Y = 1/2 leave no term there
    c = FormalSeries({(1, 1, 1): 1 + 0j, (1, 1, 2): 1 + 0j}, big, 1, 2)
    d = FormalSeries({(1, 1, 2): 1 + 0j, (1, 1, 1): -1 + 0j}, big, 1, 2)
    assert _same_as_pair_loop(c, d, Window(1, 1, 2)) == (1, 4)
    assert list(series_mul(c, d, Window(1, 1, 2)).terms) == [(1, 1, 1)]


@st.composite
def _wide_series(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 12))):
        num, den = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        g = math.gcd(num, den)
        key = (draw(st.integers(1, 6)), num // g, den // g)
        terms[key] = draw(st.one_of(_coeffs, st.just(complex(math.nan, 0))))
    bounds = (max((k[1] for k in terms), default=1), max((k[2] for k in terms), default=1))
    return FormalSeries(terms, Window(36, 144, 144), *bounds)


@given(_wide_series(), _wide_series(), st.integers(1, 12), st.integers(1, 10), st.integers(1, 10))
@settings(max_examples=50, deadline=None)
def test_series_mul_matches_the_pair_loop_everywhere(a, b, x_max, p_max, q_max):
    _same_as_pair_loop(a, b, Window(x_max, p_max, q_max))
