"""Rational functions with poles off the closed annulus.

Coefficients are stored ascending.  Evaluation on matrices goes through
p(T) q(T)^{-1}; pole location uses companion-matrix eigenvalues so polynomial
roots inherit the accuracy contract of the shared eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .numerics import as_matrix, eigenvalues, identity_like, inverse
from .pencil import AnnulusParams

# Slack around the boundary circles when classifying pole locations.
POLE_SLACK = 1e-9

# Golden-section steps per bracket in ``sup_on_annulus``.
_GOLDEN_ITERS = 60

# Largest number of boundary samples per circle in ``sup_on_annulus``.
MAX_SAMPLES = 1 << 20


def _trim(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=complex).ravel()
    nz = np.nonzero(np.abs(c) > 0.0)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1]


@dataclass(frozen=True, eq=False)
class RationalFunction:
    """f = p / q with ascending complex coefficient arrays."""

    p: np.ndarray
    q: np.ndarray

    def __init__(self, p, q):
        object.__setattr__(self, "p", _trim(p))
        object.__setattr__(self, "q", _trim(q))
        if self.q.size == 1 and self.q[0] == 0:
            raise DomainError("denominator is identically zero")

    def __call__(self, z):
        zs = np.asarray(z, dtype=complex)
        return polyval(self.p, zs) / polyval(self.q, zs)

    def to_dict(self) -> dict:
        return {
            "p": [[float(c.real), float(c.imag)] for c in self.p],
            "q": [[float(c.real), float(c.imag)] for c in self.q],
        }


def polyval(c: np.ndarray, z):
    """Horner evaluation of an ascending-coefficient polynomial."""
    zs = np.asarray(z, dtype=complex)
    acc = np.zeros_like(zs)
    for a in c[::-1]:
        acc = acc * zs + a
    return acc


def polyder(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    if c.size <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, c.size)


def polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def poly_roots(c: np.ndarray) -> np.ndarray:
    """Roots via the companion matrix of the monic normalization."""
    c = _trim(c)
    n = c.size - 1
    if n == 0:
        return np.zeros(0, dtype=complex)
    monic = c / c[-1]
    comp = np.zeros((n, n), dtype=complex)
    if n > 1:
        comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -monic[:-1]
    return eigenvalues(comp)


def poles_off_annulus(f: RationalFunction, ap: AnnulusParams) -> bool:
    """True iff every denominator root avoids the closed annulus (with slack)."""
    roots = poly_roots(f.q)
    mods = np.abs(roots)
    return bool(np.all((mods < ap.r - POLE_SLACK) | (mods > 1.0 + POLE_SLACK)))


def polyval_matrix(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(t)
    eye = identity_like(t)
    for a in c[::-1]:
        acc = acc @ t + a * eye
    return acc


def eval_matrix(f: RationalFunction, t) -> np.ndarray:
    """f(T) = p(T) q(T)^{-1}."""
    tm = as_matrix(t)
    qt = polyval_matrix(f.q, tm)
    try:
        qinv = inverse(qt)
    except SingularityError as exc:
        raise SingularityError(f"q(T) is singular: {exc}") from exc
    return polyval_matrix(f.p, tm) @ qinv


def derivative(f: RationalFunction) -> RationalFunction:
    """(p' q - p q') / q**2."""
    num = polymul(polyder(f.p), f.q)
    sub = polymul(f.p, polyder(f.q))
    n = max(num.size, sub.size)
    num = np.pad(num, (0, n - num.size))
    sub = np.pad(sub, (0, n - sub.size))
    return RationalFunction(num - sub, polymul(f.q, f.q))


def _golden_max(fun, lo: list[float], hi: list[float]) -> list[float]:
    """Golden-section maximization on the brackets [lo[i], hi[i]], all advanced together.

    ``fun`` maps a list of angles, one per bracket, to the list of values
    there.  Each bracket takes exactly the steps of a scalar golden-section
    search run on it alone: keep the side of the larger interior value
    (``fc < fd`` moves up), shrink by 1/phi, probe one new point.  One
    iteration probes every bracket with a single ``fun`` call, so a search
    costs 2 + _GOLDEN_ITERS calls whatever the number of brackets.  The bookkeeping
    stays in Python floats: for a handful of brackets that is cheaper than
    array updates and gives the same IEEE results.  Returns max(fc, fd) per
    bracket.
    """
    inv_phi = float((np.sqrt(5.0) - 1.0) / 2.0)
    a, b = list(lo), list(hi)
    c = [bi - inv_phi * (bi - ai) for ai, bi in zip(a, b)]
    d = [ai + inv_phi * (bi - ai) for ai, bi in zip(a, b)]
    fc, fd = fun(c), fun(d)
    for _ in range(_GOLDEN_ITERS):
        up = [x < y for x, y in zip(fc, fd)]
        probe = []
        for i, u in enumerate(up):
            if u:
                a[i], c[i], fc[i] = c[i], d[i], fd[i]
                d[i] = a[i] + inv_phi * (b[i] - a[i])
                probe.append(d[i])
            else:
                b[i], d[i], fd[i] = d[i], c[i], fc[i]
                c[i] = b[i] - inv_phi * (b[i] - a[i])
                probe.append(c[i])
        for i, (u, v) in enumerate(zip(up, fun(probe))):
            if u:
                fd[i] = v
            else:
                fc[i] = v
    return [max(x, y) for x, y in zip(fc, fd)]


def sup_on_annulus(f: RationalFunction, ap: AnnulusParams, m: int = 1024) -> float:
    """Sup of |f| over the two boundary circles.

    Samples m equispaced angles per circle (one ``f`` call per circle), then
    refines a bracket of one sample step on each side of the best three
    samples of each circle by golden section.  The six brackets are refined
    together, one ``f`` call on a six-entry array per iteration, so a sup
    costs 2 + 2 + 60 evaluations of ``f``; each bracket's result is exactly
    that of its own scalar search.  The maximum principle makes the boundary
    search exhaustive for pole-free f, but the value is a sampled estimate,
    not a certified upper bound.
    """
    if not 8 <= m <= MAX_SAMPLES:
        raise DomainError(f"samples per circle must lie in [8, {MAX_SAMPLES}], got {m}")
    if not poles_off_annulus(f, ap):
        raise DomainError("f has poles on or inside the closed annulus")
    rhos = (ap.r, 1.0)
    step = 2.0 * np.pi / m
    theta = step * np.arange(m)
    peaks, starts = [], []
    for rho in rhos:
        vals = np.abs(f(rho * np.exp(1j * theta)))
        peaks.append(float(np.max(vals)))
        starts.append(theta[np.argsort(vals)[-3:]])
    t0 = np.concatenate(starts)
    radii = np.repeat(rhos, 3)
    mod = lambda t: np.abs(f(radii * np.exp(1j * np.array(t)))).tolist()
    refined = _golden_max(mod, (t0 - step).tolist(), (t0 + step).tolist())
    best = 0.0
    for k, peak in enumerate(peaks):
        best = max(best, peak, *refined[3 * k:3 * k + 3])
    return best
