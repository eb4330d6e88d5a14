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
    equal panels integrates it to about 3e-14 relative; nothing is cached.
    """

    def __init__(
        self, base: float, speed: float, shift: float, exponent: float, origin: float = 0.0
    ):
        self.origin = origin
        self._power = exponent + 1.0
        inv_root = 1.0 / math.sqrt(base)
        self._slope, self._offset = speed * inv_root, shift * inv_root
        self._weights = _WEIGHTS * (base ** (0.5 * self._power) / speed)

    def value(self, t: float) -> float:
        """Integral from ``origin`` to ``t``."""
        return self.between(self.origin, t)

    def between(self, a, b):
        """Integral over ``[a, b]`` (negative when ``a > b``); two scalars give a float.

        ``a`` and ``b`` are scalars or 1-d arrays that broadcast. Each element keeps its own
        panel count, panels past it add exactly +0.0, and nodes are reduced by a row sum, not
        BLAS ``@``: an element's bits do not depend on the rest of the batch.
        """
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        sa = np.arcsinh(np.atleast_1d(a) * self._slope - self._offset)
        width = np.arcsinh(np.atleast_1d(b) * self._slope - self._offset) - sa
        panels = np.maximum(1.0, np.ceil(np.abs(width) * (self._power / 60.0)))
        half = 0.5 * width / panels
        total = 0.0
        for k in range(int(panels.max(initial=0.0))):
            nodes = sa[..., None] + half[..., None] * (2 * k + 1 + _NODES)
            panel = (np.cosh(nodes) ** self._power * self._weights).sum(axis=-1)
            total = total + np.where(k < panels, panel, 0.0)
        out = total * half
        return out if a.ndim or b.ndim else out.item()
