"""Path-gain integrals on a fixed quadrature rule, plus an adaptive reference rule."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


def _gauss_legendre(n: int) -> tuple[tuple[float, float], ...]:
    """Even-``n`` Gauss-Legendre rule on [-1, 1] as ascending (node, weight) pairs.

    Newton's method on the Legendre recurrence, from ``cos(pi*(i+3/4)/(n+1/2))``,
    reaches each positive node in three steps (six are taken); the negative
    nodes mirror them, so the rule is exactly symmetric.
    """

    def legendre(x: float) -> tuple[float, float]:  # P_n(x), P_n'(x)
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    half = []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(6):
            p, dp = legendre(x)
            x -= p / dp
        _, dp = legendre(x)
        half.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return tuple((-x, w) for x, w in half) + tuple(reversed(half))


_RULE = _gauss_legendre(24)
_NODES, _WEIGHTS = np.array(_RULE).T
_FIRST_PANEL = 1.0 + _NODES  # panel 0's node offsets in half-widths


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 0.0,
    max_depth: int = 48,
) -> float:
    """Integrate ``f`` over ``[a, b]`` with adaptive Simpson refinement.

    Intervals are split until the Richardson error estimate of the local
    Simpson rule drops below the tolerance (halved on each split). Signed
    intervals (``a > b``) integrate with the usual sign flip.
    """
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = max(abs_tol, rel_tol * abs(whole))
    if tol == 0.0:
        tol = rel_tol
    return _refine(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _refine(f, a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm, frm = f(lm), f(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    half = 0.5 * tol
    return _refine(f, a, mid, fa, flm, fm, left, half, depth - 1) + _refine(
        f, mid, b, fm, frm, fb, right, half, depth - 1
    )


class CumulativeIntegral:
    """Integral over t of the path gain ``(base + (speed*t - shift)**2) ** (exponent/2)``.

    With ``speed*t - shift = sqrt(base)*sinh(s)`` the integrand becomes
    ``base**((exponent+1)/2) * cosh(s)**(exponent+1) / speed``, smooth in
    ``s``. One fixed Gauss-Legendre rule on ``ceil(|ds|*(exponent+1)/60)``
    equal panels integrates it to about 3e-14 relative; nothing is cached. The
    width ``ds`` is formed without cancellation (see ``between``), so an interval
    short beside its distance from closest approach keeps that precision.

    ``shift`` is a scalar, or a column ``[[shift_1], [shift_2], ...]`` that makes
    one row per shift: paths that share ``base``, ``speed`` and ``exponent`` are
    then integrated in one call, each row with the bits of its scalar-shift object.
    """

    def __init__(self, base: float, speed: float, shift, exponent: float):
        self._power = exponent + 1.0
        self._panels_per_width = self._power / 60.0
        self._gain_power = 0.5 * self._power - 0.5
        inv_root = 1.0 / math.sqrt(base)
        self._slope, self._offset = speed * inv_root, np.asarray(shift, dtype=float) * inv_root
        self._log_gain_scale = exponent * self._slope
        self._weights = _WEIGHTS * (base ** (0.5 * self._power) / speed)
        self._scale = base ** (0.5 * exponent)

    def value(self, t: float) -> float:
        """Integral from 0 to ``t``."""
        return self.between(0.0, t)

    def between(self, a, b):
        """Integral over ``[a, b]`` (negative when ``a > b``); a float when the ends and ``shift`` are scalars.

        ``a`` and ``b`` are scalars or 1-d or 2-d arrays that broadcast against each other and
        the ``shift`` column. Each element keeps its own panel count, panels past it add
        exactly +0.0, and nodes are reduced by a row sum, not BLAS ``@``: an element's bits do
        not depend on the rest of the batch. NaN or infinite ends raise ``ValueError`` or
        ``OverflowError``.
        """
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        y, x = a * self._slope - self._offset, b * self._slope - self._offset
        sa = np.arcsinh(y)
        # asinh(x) - asinh(y) = asinh(x*s_y - y*s_x) with s_u = sqrt(1 + u*u) cancels where x*y > 0;
        # there it is (x - y)*(x + y)/(x*s_y + y*s_x), and x - y = (b - a)*slope. A NaN or
        # infinite end makes a NaN or infinite width, on which math.ceil below raises.
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            p, q = x * np.hypot(1.0, y), y * np.hypot(1.0, x)
            width = np.arcsinh(np.where(x * y > 0.0, (b - a) * self._slope * (x + y) / (p + q), p - q))
        # the largest width has the most panels; an empty batch takes one panel of nothing
        size = np.abs(width)
        count = max(1, math.ceil(float(np.maximum.reduce(size, None, initial=0.0)) * self._panels_per_width))
        if count > 1:
            panels = np.maximum(1.0, np.ceil(size * self._panels_per_width))
            half = 0.5 * width / panels
        else:
            half = 0.5 * width  # one panel each: dividing by 1.0 is exact
        for k in range(count):
            # in place: at n = 1001 a stacked (2, n, 24) temporary is 384 KB, and fewer of
            # them leave the solve's page faults less dependent on the heap's history
            nodes = half[..., None] * (_FIRST_PANEL if k == 0 else 2 * k + 1 + _NODES)
            nodes += sa[..., None]
            np.cosh(nodes, out=nodes)
            nodes **= self._power
            nodes *= self._weights
            panel = np.add.reduce(nodes, -1)
            total = total + np.where(k < panels, panel, 0.0) if k else panel
        out = total * half
        return out if out.ndim else out.item()

    def gain(self, t):
        """The path gain at ``t``, one row per shift: the slope of ``between(a, t)`` in ``t``."""
        u = t * self._slope - self._offset
        return self._scale * (1.0 + u * u) ** self._gain_power

    def log_gain_slope(self, t):
        """The slope of ``log(gain(t))`` in ``t``, one row per shift: ``exponent*slope*u/(1 + u*u)``."""
        u = t * self._slope - self._offset
        return self._log_gain_scale * u / (1.0 + u * u)
