import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from alleekit.errors import NoRoot, NoSignChange
from alleekit.rootfind import (
    bracketed_root,
    real_cubic_roots,
    roots_from_scan,
    scan_grid,
    scan_roots,
)


def test_bracketed_root_simple():
    r = bracketed_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert abs(r - math.sqrt(2.0)) < 1e-10


def test_bracketed_root_endpoint_zero():
    assert bracketed_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert bracketed_root(lambda x: x - 3.0, 1.0, 3.0) == 3.0


def test_bracketed_root_reversed_bracket():
    r = bracketed_root(lambda x: math.cos(x), 2.0, 1.0)
    assert abs(r - math.pi / 2.0) < 1e-10


def test_bracketed_root_steep_function():
    # Secant alone would overshoot badly here; the bracket must save it.
    f = lambda x: math.tanh(50.0 * (x - 0.123456789))
    r = bracketed_root(f, -1.0, 1.0)
    assert abs(r - 0.123456789) < 1e-9


def test_bracketed_root_no_sign_change():
    with pytest.raises(NoSignChange):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_scan_roots_collects_all():
    roots = scan_roots(lambda x: math.sin(x), 0.5, 10.0, n=200)
    expected = [math.pi, 2 * math.pi, 3 * math.pi]
    assert len(roots) == 3
    np.testing.assert_allclose(roots, expected, atol=1e-9)


def test_scan_roots_empty_interval():
    with pytest.raises(NoRoot):
        scan_roots(lambda x: 1.0 + x * x, -1.0, 1.0, n=50)


def test_roots_from_scan_reuses_a_grid():
    xs, fs = scan_grid(math.sin, 0.5, 10.0, n=200)
    assert roots_from_scan(math.sin, xs, fs) == scan_roots(math.sin, 0.5, 10.0, n=200)
    xs, fs = scan_grid(lambda x: 1.0 + x * x, -1.0, 1.0, n=50)
    assert roots_from_scan(lambda x: 1.0 + x * x, xs, fs) == []


def test_cubic_three_real_roots():
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    roots = real_cubic_roots(1.0, -6.0, 11.0, -6.0)
    np.testing.assert_allclose(roots, [1.0, 2.0, 3.0], atol=1e-12)


def test_cubic_one_real_root():
    # x^3 + x + 1 has a single real root near -0.6823278
    roots = real_cubic_roots(1.0, 0.0, 1.0, 1.0)
    assert len(roots) == 1
    assert abs(roots[0] ** 3 + roots[0] + 1.0) < 1e-13


def test_cubic_double_root_reported_once():
    # (x-2)^2 (x+1) = x^3 - 3x^2 + 4
    roots = real_cubic_roots(1.0, -3.0, 0.0, 4.0)
    np.testing.assert_allclose(roots, [-1.0, 2.0], atol=1e-7)


def test_cubic_triple_root():
    # (x-1)^3
    roots = real_cubic_roots(1.0, -3.0, 3.0, -1.0)
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) < 1e-5


def test_cubic_degenerates_to_quadratic():
    roots = real_cubic_roots(0.0, 1.0, -3.0, 2.0)
    np.testing.assert_allclose(roots, [1.0, 2.0], atol=1e-12)
    assert real_cubic_roots(0.0, 1.0, 0.0, 1.0) == []


def test_cubic_degenerates_to_linear():
    roots = real_cubic_roots(0.0, 0.0, 2.0, -5.0)
    np.testing.assert_allclose(roots, [2.5], atol=1e-14)


def test_cubic_random_polish_accuracy(rng):
    """Residual after polish stays at roundoff for well-scaled cubics."""
    for _ in range(200):
        c = rng.uniform(-2.0, 2.0, size=4)
        if abs(c[0]) < 1e-3:
            c[0] = 1.0
        roots = real_cubic_roots(*c)
        for r in roots:
            res = ((c[0] * r + c[1]) * r + c[2]) * r + c[3]
            assert abs(res) < 1e-10 * max(1.0, abs(r) ** 3)


# Coefficients from 0 and 1e-20 up to 1e3 in magnitude, drawn both by
# hypothesis's own float search and spread evenly over the decades.
_COEF = st.one_of(
    st.floats(-1e3, 1e3),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-20, 3)),
).filter(lambda c: c == 0.0 or abs(c) >= 1e-20)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_COEF, _COEF, _COEF, _COEF)
@example(1e-15, 0.0, 1e-13, 1.0)  # a tiny leading term ruling a far root
@example(0.125, 480.0, 1.0, 0.0)  # a close pair beside a far root
def test_cubic_roots_zero_the_cubic(c3, c2, c1, c0):
    """Each root is a root of the cubic itself, to roundoff in its terms."""
    coeffs = (c3, c2, c1, c0)
    assume(any(coeffs))
    for r in real_cubic_roots(*coeffs):
        res = ((c3 * r + c2) * r + c1) * r + c0
        terms = abs(c3 * r**3) + abs(c2 * r * r) + abs(c1 * r) + abs(c0)
        assert abs(res) <= 1e-9 * terms + 1e-12 * max(map(abs, coeffs)), r
