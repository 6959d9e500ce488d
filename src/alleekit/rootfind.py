"""Scalar root finding shared by every module.

One bracketed solver (bisection that takes a secant step only well inside
the bracket), one sign-change scanner built on it (split into grid
evaluation and root extraction, so one scanned grid can serve several
functions), and a closed-form real-cubic solver with Newton polish for
coefficients anywhere in the float range.
Everything downstream (threshold curves, branch-point locations, Hopf
location) goes through these so tolerances live in one place.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import NoRoot, NonFinite

__all__ = [
    "bracketed_root",
    "scan_grid",
    "roots_from_scan",
    "real_cubic_roots",
]

# bracket width or residual at which every root refinement stops
ROOT_TOL = 1e-10


def bracketed_root(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    fa: float | None = None,
    fb: float | None = None,
) -> float:
    """Root of ``f`` in ``[a, b]``, assuming a sign change.

    Bisection, taking the secant point instead when it falls inside the
    middle 80 % of the current bracket; stops when the bracket is narrower
    than ``ROOT_TOL`` (or after 200 iterations, or at an exact zero).
    Close to a root the secant point falls within 10 % of an endpoint and
    is refused, so most steps bisect: about 25 evaluations per root from a
    scan cell of the ``thresholds`` bracket. Endpoint zeros are returned
    directly. ``fa``/``fb`` let callers reuse endpoint evaluations from a
    scan.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFinite(f"bracket endpoints must be finite, got [{a}, {b}]")
    if a > b:
        a, b = b, a
        fa, fb = fb, fa
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise NonFinite(f"f is not finite at a bracket endpoint: f({a})={fa}, f({b})={fb}")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoRoot(
            f"no sign change on [{a}, {b}]: f(a)={fa:.6g}, f(b)={fb:.6g}"
        )
    for _ in range(200):
        width = b - a
        if width <= ROOT_TOL:
            break
        # Secant proposal; fall back to the midpoint when it degenerates or
        # crowds an endpoint (which would stall the bracket shrink).
        denom = fb - fa
        x = a - fa * width / denom if denom != 0.0 else 0.5 * (a + b)
        margin = 0.1 * width
        if not (a + margin < x < b - margin):
            x = 0.5 * (a + b)
        fx = f(x)
        if not math.isfinite(fx):
            raise NonFinite(f"f({x}) is not finite during root refinement")
        if fx == 0.0 or abs(fx) < 1e-300:
            return x
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
        else:
            b, fb = x, fx
    return a if abs(fa) <= abs(fb) else b


def scan_grid(
    f: Callable[[float], float], a: float, b: float, *, n: int = 400
) -> tuple[list[float], list[float]]:
    """The ``n``-cell grid of ``[a, b]`` and the values of ``f`` on it."""
    if n < 1:
        raise ValueError(f"scan needs at least one cell, got n={n}")
    xs = [a + (b - a) * i / n for i in range(n + 1)]
    return xs, [f(x) for x in xs]


def roots_from_scan(
    f: Callable[[float], float],
    xs: Sequence[float],
    fs: Sequence[float],
) -> list[float]:
    """Roots of ``f`` at the grid zeros and sign changes of a scanned grid
    (``fs[i] = f(xs[i])``), each change refined with :func:`bracketed_root`;
    ascending, and empty when the scan sees none."""
    roots: list[float] = []
    for x, fx in zip(xs, fs):
        if not math.isfinite(fx):
            raise NonFinite(f"f({x}) is not finite during root scan")
        if fx == 0.0:
            roots.append(x)
    for i in range(len(xs) - 1):
        fa, fb = fs[i], fs[i + 1]
        if fa == 0.0 or fb == 0.0:
            continue
        if (fa > 0) != (fb > 0):
            roots.append(
                bracketed_root(f, xs[i], xs[i + 1], fa=fa, fb=fb)
            )
    roots.sort()
    return roots


def _polish_cubic(c3: float, c2: float, c1: float, c0: float, x: float) -> float:
    """A few Newton steps on the cubic itself, not its depressed form."""
    for _ in range(8):
        fx = ((c3 * x + c2) * x + c1) * x + c0
        dfx = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if dfx == 0.0:
            break
        step = fx / dfx
        x -= step
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            break
    return x


# log2 of a root size past which real_cubic_roots rescales (2**(6*128)
# keeps p**3 and q*q in range), and of a gap between sizes past which it
# solves each size apart
_UNSCALED_EXPONENT = 128


def _newton_polygon(coeffs: Sequence[float]) -> list[tuple[int, int, int]]:
    """(i, j, k) per edge of the upper hull of (index, binary exponent) over
    the nonzero coefficients: coeffs[i..j] hold j - i roots of size ~2**k."""
    exps = [math.frexp(c)[1] if c else None for c in coeffs]
    i = next(n for n, e in enumerate(exps) if e is not None)
    edges = []
    while ends := [(-((exps[i] - e) // (j - i)), j)
                   for j, e in enumerate(exps) if j > i and e is not None]:
        k, j = max(ends)
        edges.append((i, j, k))
        i = j
    return edges


def real_cubic_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """Real roots of ``c3 x³ + c2 x² + c1 x + c0``, ascending, once each;
    roots past the float range are dropped.

    Zero leading coefficients fall through to the quadratic and linear
    cases. Three-real-root cubics use the trigonometric form, the one-real
    case Cardano via cube roots; every root gets a Newton polish.

    Where a binary exponent lies past ±32, root sizes are read off the
    Newton polygon (Kahan, "To solve a real cubic equation", 1986): sizes
    more than 2**128 apart are solved apart, from their own edges'
    coefficients, and a size 2**k past 2**±128 for x = 2**k*y. Scaling by
    powers of two is exact, so a common power-of-two factor leaves the
    roots unchanged to the bit.
    """
    coeffs = (c3, c2, c1, c0)
    if not all(math.isfinite(c) for c in coeffs):
        raise NonFinite(f"cubic coefficients must be finite, got {coeffs}")
    if not any(coeffs):
        raise ValueError("all cubic coefficients are zero")
    if all(abs(math.frexp(c)[1]) <= 32 for c in coeffs):
        return _cubic_roots(c3, c2, c1, c0)
    edges = _newton_polygon(coeffs)
    # the size 2**k of the roots of the edge from coeffs[i], past 2**±128
    sizes = {i: k for i, _, k in edges if abs(k) > _UNSCALED_EXPONENT}
    ends = [next(i for i, c in enumerate(coeffs) if c),
            *(j for (_, j, k), (_, _, k_next) in zip(edges, edges[1:])
              if k - k_next > _UNSCALED_EXPONENT), 3]
    roots = []
    for i, j in zip(ends, ends[1:]):
        k = sizes.get(i, 0)
        e = math.frexp(coeffs[i])[1]
        ys = _cubic_roots(*(0.0,) * (3 - j + i),
                          *(math.ldexp(c, -e - m * k)
                            for m, c in enumerate(coeffs[i:j + 1])))
        roots += [math.ldexp(y, k) for y in ys
                  if not y or math.frexp(y)[1] + k <= 1024]
    return sorted(roots)


def _cubic_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """:func:`real_cubic_roots` by the closed forms, on coefficients whose
    sizes keep p**3 and q*q in range."""
    if c3 == 0.0:
        # Quadratic (or linear) case.
        if c2 == 0.0:
            return [] if c1 == 0.0 else [-c0 / c1]
        disc = c1 * c1 - 4.0 * c2 * c0
        # as in the cubic below, a discriminant lost in roundoff means a
        # repeated root
        if abs(disc) <= 1e-12 * (c1 * c1 + abs(4.0 * c2 * c0)):
            disc = 0.0
        if disc < 0.0:
            return []
        s = math.sqrt(disc)
        # Numerically stable pairing: avoid cancellation in one root.
        q = -0.5 * (c1 + math.copysign(s, c1)) if c1 != 0.0 else 0.5 * s
        if q == 0.0:
            roots = [0.0, 0.0] if disc == 0.0 else [0.0, -c1 / c2]
        else:
            roots = [q / c2, c0 / q]
        roots = [_polish_cubic(0.0, c2, c1, c0, r) for r in roots]
        return sorted(set(roots)) if disc == 0.0 else sorted(roots)

    b, c, dd = c2 / c3, c1 / c3, c0 / c3
    # Depressed form t³ + p t + q with x = t - b/3.
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + dd
    shift = -b / 3.0
    disc = -(4.0 * p**3 + 27.0 * q * q)
    # The two discriminant terms cancel at a repeated root; float noise can
    # land on either side, so route near-zero values to the repeated case.
    disc_scale = 4.0 * abs(p) ** 3 + 27.0 * q * q
    if abs(disc) <= 1e-12 * disc_scale:
        disc = 0.0
    roots: list[float]
    if disc > 0.0:
        # Three distinct real roots: trigonometric form (p < 0 here).
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        roots = [
            shift + m * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)
        ]
    elif disc < 0.0:
        # One real root: Cardano with real cube roots.
        h = math.sqrt(q * q / 4.0 + p**3 / 27.0)
        u = math.copysign(abs(-q / 2.0 + h) ** (1.0 / 3.0), -q / 2.0 + h)
        v = math.copysign(abs(-q / 2.0 - h) ** (1.0 / 3.0), -q / 2.0 - h)
        roots = [shift + u + v]
    elif p == 0.0:
        roots = [shift]  # triple root
    else:
        # A (nearly) repeated pair beside the simple root shift + 3q/p: divide
        # that root out, from the end of the cubic that keeps the division
        # stable, and let the quadratic tell a real pair from a complex one.
        r = _polish_cubic(c3, c2, c1, c0, shift + 3.0 * q / p)
        if abs(r) > abs(shift - 3.0 * q / (2.0 * p)):
            e0 = -c0 / r
            e1 = (e0 - c1) / r
        else:
            e1 = c2 + c3 * r
            e0 = c1 + e1 * r
        roots = [r] + _cubic_roots(0.0, c3, e1, e0)
    roots = [_polish_cubic(c3, c2, c1, c0, r) for r in roots]
    roots.sort()
    # Collapse duplicates the polish may have merged.
    out: list[float] = []
    for r in roots:
        if not out or abs(r - out[-1]) > 1e-12 * max(1.0, abs(r)):
            out.append(r)
    return out
