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
    # the slice ends exactly at X = k^w, and one step below it at k^w - 1
    cases = [(1, 12, 12), (1, 11, 11), (2, 99**2, 99), (2, 99**2 - 1, 98)]
    cases += [(3, 4096**3, 4096), (3, 4096**3 - 1, 4095), (3, 10**15, 10**5)]
    for w_mult, x_max, top in cases:
        s = build_lseries(lambda n: 1.0, w_mult, 0, 0, None, Window(x_max, 1, 1))
        assert len(s) == top, (w_mult, x_max)
        for n in range(1, top + 1):
            assert s.terms[(n**w_mult, 1, 1)] == 1


def test_hand_product():
    # (sum of n^-(2w-s)) * (sum of m^-(w+s)) on X <= 16: the pair (n, m)
    # lands at X = n^2 m, Y = m/n, which fixes it, so each of the 22 pairs
    # with n^2 m <= 16 gives its own key with coefficient 1; key (12, 3/2)
    # is exactly the n=2, m=3 contribution
    a = build_lseries(lambda n: 1.0, 2, -1, 0, None, Window(16, 1, 4))
    b = build_lseries(lambda n: 1.0, 1, 1, 0, None, Window(16, 16, 1))
    p = series_mul(a, b, Window(16, 16, 4))
    assert len(p) == 22 and all(c == 1 for c in p.terms.values())
    assert abs(p.terms[(12, 3, 2)] - 1) < 1e-15
    assert abs(p.terms[(8, 1, 1)] - 1) < 1e-15  # n=2, m=2 reduces to Y = 1
    assert abs(p.terms[(16, 1, 4)] - 1) < 1e-15


def test_mul_identity_and_empty():
    a = build_lseries(lambda n: complex(n, 1), 2, -1, 0, None, Window(9, 1, 3))
    unit = FormalSeries({(1, 1, 1): 1 + 0j}, Window(9, 3, 3))
    w = Window(9, 1, 3)
    assert series_mul(a, unit, w).terms == a.terms
    empty = FormalSeries({}, Window(9, 3, 3))
    assert len(series_mul(empty, a, w)) == 0


def test_builder_bounds_and_errors():
    # X must bound the index: an s-only series is never a whole X-slice
    for s_mult in (0, 1, -2):
        with pytest.raises(CompletenessError, match="w_mult = 0"):
            build_lseries(lambda n: 1.0, 0, s_mult, 0, None, Window(1, 25, 25))
    # n = 3 and n = 4 lie in X <= 16 with Y = 1/3, 1/4 past q_max = 2
    with pytest.raises(CompletenessError, match="index 3"):
        build_lseries(lambda n: 1.0, 2, -1, 0, None, Window(16, 1, 2))
    s = build_lseries(lambda n: 1.0, 2, -1, 0, lambda n: n <= 2, Window(16, 1, 2))
    assert set(s.terms) == {(1, 1, 1), (4, 1, 2)}  # restricted-out indices hold no term
    with pytest.raises(ValueError, match="shift"):
        build_lseries(lambda n: 1.0, 1, 0, -1, None, Window(4, 4, 4))


def test_mul_refuses_a_pair_outside_the_window():
    a = build_lseries(lambda n: 1.0, 2, -1, 0, None, Window(16, 1, 4))
    b = build_lseries(lambda n: 1.0, 1, 1, 0, None, Window(16, 16, 1))
    # the pair n=1, m=9 lands at X = 9 <= 16 with Y = 9 past p_max = 8
    with pytest.raises(CompletenessError, match=r"\(9, 9, 1\)"):
        series_mul(a, b, Window(16, 8, 4))
    # n=4, m=1 lands at X = 16 with Y = 1/4 past q_max = 3
    with pytest.raises(CompletenessError, match=r"\(16, 1, 4\)"):
        series_mul(a, b, Window(16, 16, 3))


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
    b = FormalSeries(bumped, w)
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
    return FormalSeries(terms, w)


@given(small_series(), small_series(), small_series())
@settings(max_examples=60, deadline=None)
def test_mul_associative_commutative(a, b, c):
    # Y numerators and denominators are at most 3 per factor, so these
    # windows hold every product of two and of three
    w2, w3 = Window(16, 9, 9), Window(16, 27, 27)
    ab = series_mul(a, b, w2)
    ba = series_mul(b, a, w2)
    assert compare(ab, ba) < 1e-13
    left = series_mul(series_mul(a, b, w2), c, w3)
    right = series_mul(a, series_mul(b, c, w2), w3)
    assert compare(left, right) < 1e-13


def test_pruning_does_not_change_compares():
    w = Window(16, 6, 6)
    tiny = PRUNE_EPS / 10
    pruned = FormalSeries({(2, 1, 1): 1.0 + 0j, (3, 2, 1): tiny + 0j}, w)
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
    from series_mul as an independent reference for it; None when a pair
    with X in the window has its reduced Y outside it."""
    acc = {}
    for (xa, na, da), ca in a.terms.items():
        for (xb, nb, db), cb in b.terms.items():
            if xa * xb > window.x_max:
                continue
            g = math.gcd(na * nb, da * db)
            key = (xa * xb, na * nb // g, da * db // g)
            if not window.contains(*key):
                return None
            acc[key] = acc.get(key, 0j) + ca * cb
    # the product is a FormalSeries, which prunes sums that cancel below PRUNE_EPS
    return [(k, repr(v)) for k, v in acc.items() if not abs(v) < PRUNE_EPS]


def _same_as_pair_loop(a, b, window):
    """series_mul refuses where the pair loop meets a Y outside the window,
    and otherwise gives the same terms in the same order, so a product of
    products sums alike."""
    terms = _pair_loop(a, b, window)
    if terms is None:
        with pytest.raises(CompletenessError):
            series_mul(a, b, window)
    else:
        assert [(k, repr(v)) for k, v in series_mul(a, b, window).terms.items()] == terms
    return terms


def test_series_mul_matches_the_pair_loop():
    big = Window(64, 64, 64)
    a = FormalSeries({(1, 1, 1): 1 + 1j, (2, 1, 3): 0.5 + 0j, (4, 5, 2): -2j}, big)
    # a partner whose X is past the window may have its Y past it too
    far = FormalSeries({(1, 1, 1): 1 + 0j, (8, 40, 1): 3 + 0j}, big)
    assert _same_as_pair_loop(a, far, Window(4, 30, 30))
    # a partner with X in the window and Y past it is refused
    near = FormalSeries({(1, 1, 1): 1 + 0j, (1, 40, 1): 3 + 0j}, big)
    assert _same_as_pair_loop(a, near, Window(4, 30, 30)) is None
    one = FormalSeries({(1, 1, 1): 1 + 0j}, big)
    assert _same_as_pair_loop(one, near, Window(4, 30, 30)) is None
    low = FormalSeries({(1, 1, 1): 1 + 0j, (1, 1, 40): 3 + 0j}, big)
    assert _same_as_pair_loop(a, low, Window(4, 30, 30)) is None
    # Y exactly on the window's edges (15 and 1/18), partners out of Y
    # order, a NaN term; one step in from either edge is refused
    b = FormalSeries(
        {(1, 6, 1): 1j, (1, 1, 1): 2 + 0j, (1, 1, 6): math.nan, (2, 3, 2): 1 - 1j}, big
    )
    for first, second in ((a, b), (b, a)):
        assert _same_as_pair_loop(first, second, Window(8, 15, 18))
        assert _same_as_pair_loop(first, second, Window(8, 14, 18)) is None
        assert _same_as_pair_loop(first, second, Window(8, 15, 17)) is None
    assert math.isnan(series_mul(a, b, Window(8, 15, 18)).terms[(1, 1, 6)].real)
    # two pairs that cancel exactly at Y = 1/2 leave no term there
    c = FormalSeries({(1, 1, 1): 1 + 0j, (1, 1, 2): 1 + 0j}, big)
    d = FormalSeries({(1, 1, 2): 1 + 0j, (1, 1, 1): -1 + 0j}, big)
    assert _same_as_pair_loop(c, d, Window(1, 1, 4))
    assert list(series_mul(c, d, Window(1, 1, 4)).terms) == [(1, 1, 1), (1, 1, 4)]


@st.composite
def _wide_series(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 12))):
        num, den = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        g = math.gcd(num, den)
        key = (draw(st.integers(1, 6)), num // g, den // g)
        terms[key] = draw(st.one_of(_coeffs, st.just(complex(math.nan, 0))))
    return FormalSeries(terms, Window(36, 144, 144))


# Y bounds up to 144 = 12 * 12, so that both refused and whole products are drawn
@given(_wide_series(), _wide_series(), st.integers(1, 12), st.integers(1, 144), st.integers(1, 144))
@settings(max_examples=50, deadline=None)
def test_series_mul_matches_the_pair_loop_everywhere(a, b, x_max, p_max, q_max):
    _same_as_pair_loop(a, b, Window(x_max, p_max, q_max))
