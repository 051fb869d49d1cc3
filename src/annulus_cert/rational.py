"""Rational functions with poles off the closed annulus.

Coefficients are stored ascending.  Evaluation on matrices goes through
p(T) q(T)^{-1}.  A function finds its poles once, when it is built, from the
companion-matrix eigenvalues of its denominator (so polynomial roots inherit
the accuracy contract of the shared eigensolver); every pole test reads those
moduli.  Boundary sups and matrix values take a batch of functions at once:
their coefficients are stacked, zero-padded at the top, and one Horner loop
(and for sups one golden-section pass) serves them all with the IEEE
operations a single function would see.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .io import complex_pair
from .numerics import _check_integer, as_matrix, eigenvalues, inverse
from .pencil import AnnulusParams

# Slack around the boundary circles when classifying pole locations.
POLE_SLACK = 1e-9

# Golden-section steps per bracket in ``sup_on_annulus``.
_GOLDEN_ITERS = 60

# Largest number of boundary samples per circle in ``sup_on_annulus``.
MAX_SAMPLES = 1 << 20

# Boundary points per chunk of the dense sample in ``sup_on_annulus``; a chunk
# holds max(1, _CHUNK_POINTS // m) functions.
_CHUNK_POINTS = 1 << 13


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop zero top coefficients; a non-finite one is kept, so it can be rejected."""
    c = np.asarray(c, dtype=complex).ravel()
    nz = np.flatnonzero(c)
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1]


@dataclass(frozen=True, eq=False)
class RationalFunction:
    """f = p / q with ascending finite complex coefficient arrays; ``pole_moduli``
    holds |root| for every root of q, from one companion eigensolve."""

    p: np.ndarray
    q: np.ndarray
    pole_moduli: np.ndarray

    def __init__(self, p, q):
        object.__setattr__(self, "p", _trim(p))
        object.__setattr__(self, "q", _trim(q))
        if not (np.all(np.isfinite(self.p)) and np.all(np.isfinite(self.q))):
            raise DomainError("coefficients must be finite")
        if self.q.size == 1 and self.q[0] == 0:
            raise DomainError("denominator is identically zero")
        object.__setattr__(self, "pole_moduli", np.abs(poly_roots(self.q)))

    def __call__(self, z):
        zs = np.asarray(z, dtype=complex)
        return polyval(self.p, zs) / polyval(self.q, zs)

    def to_dict(self) -> dict:
        return {"p": [complex_pair(c) for c in self.p], "q": [complex_pair(c) for c in self.q]}


def polyval(c: np.ndarray, z):
    """Horner evaluation of ascending coefficients at z.

    ``c`` is one coefficient vector, evaluated at every point of z, or an
    (N, d) stack whose row i is evaluated against row i of z: z is then (k,)
    points shared by all rows or (N, k) points per row, and the result is
    (N, k).  Zero padding at the top keeps the accumulator at +0 until a row's
    leading coefficient, so a padded row gives exactly its trimmed vector's
    values.
    """
    c = np.asarray(c)
    zs = np.asarray(z, dtype=complex)
    cols = c if c.ndim == 1 else c.T[:, :, None]
    acc = np.zeros(np.broadcast_shapes(cols.shape[1:], zs.shape), dtype=complex)
    for a in cols[::-1]:
        acc = acc * zs + a
    return acc


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
    mods = f.pole_moduli
    return bool(np.all((mods < ap.r - POLE_SLACK) | (mods > 1.0 + POLE_SLACK)))


def polyval_matrix(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Horner evaluation of the (N, d) stack ``c`` of ascending coefficient
    vectors at the matrix T, giving the (N, n, n) stack of its rows' values.

    As in ``polyval``, zero padding at the top keeps a row's accumulator at
    exactly +0 until its leading coefficient, so a padded row gives exactly
    its trimmed vector's value.
    """
    eye = np.eye(t.shape[0], dtype=complex)
    acc = np.zeros((c.shape[0], *t.shape), dtype=complex)
    for a in c.T[::-1]:
        acc = acc @ t
        acc += a[:, None, None] * eye
    return acc


def eval_matrix(f: RationalFunction | Sequence[RationalFunction], t) -> np.ndarray:
    """f(T) = p(T) q(T)^{-1} for one function, giving (n, n), or for a
    sequence of N, giving the (N, n, n) stack; both take the same path.

    The coefficients are stacked as in ``sup_on_annulus``, so one Horner loop
    (``polyval_matrix``) per side and one guarded ``inverse`` serve every
    function.  numpy runs gemm, gesv and gesdd on each matrix of a stack in
    turn, so each f(T) is bit for bit what its function gives alone.  When
    some q(T) fails the whole call raises: ContractViolationError if any q(T)
    is non-finite, else the first singular q(T)'s SingularityError, with the
    message its function raises alone.

    Finite T can overflow inside the Horner steps; numpy's overflow warnings
    are silenced, and the non-finite result is left to the callers' checks
    (``inverse`` or ``operator_norm`` raise ContractViolationError).
    """
    fs = [f] if isinstance(f, RationalFunction) else list(f)
    tm = as_matrix(t)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            qinv = inverse(polyval_matrix(_stack([g.q for g in fs]), tm))
        except SingularityError as exc:
            raise SingularityError(f"q(T) is singular: {exc}") from exc
        ft = polyval_matrix(_stack([g.p for g in fs]), tm) @ qinv
    return ft[0] if isinstance(f, RationalFunction) else ft


def _stack(coeffs) -> np.ndarray:
    """(N, d) array of ascending coefficient vectors, zero-padded at the top."""
    out = np.zeros((len(coeffs), max((c.size for c in coeffs), default=1)), dtype=complex)
    for row, c in zip(out, coeffs):
        row[:c.size] = c
    return out


def _modulus(p: np.ndarray, q: np.ndarray, z) -> np.ndarray:
    """|p(z) / q(z)| for the (N, d) coefficient stacks p and q, row by row (see ``polyval``)."""
    return np.abs(polyval(p, z) / polyval(q, z))


def _golden_max(fun, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Golden-section maximization on every bracket [lo, hi] at once, elementwise.

    ``fun`` maps an array of angles, one per bracket, to the values there.
    Each bracket takes exactly the steps of a scalar golden-section search run
    on it alone: keep the side of the larger interior value (``fc < fd`` moves
    up), shrink by 1/phi, probe one new point.  Both candidate probes are
    formed for every bracket and ``np.where`` keeps the one its scalar search
    would take, so every value is that search's own IEEE result.  One
    iteration probes every bracket with a single ``fun`` call, so a search
    costs 2 + _GOLDEN_ITERS calls whatever the number of brackets.  Returns
    max(fc, fd) per bracket.
    """
    inv_phi = float((np.sqrt(5.0) - 1.0) / 2.0)
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(_GOLDEN_ITERS):
        up = fc < fd
        a = np.where(up, c, a)
        b = np.where(up, b, d)
        probe = np.where(up, a + inv_phi * (b - a), b - inv_phi * (b - a))
        v = fun(probe)
        c, d = np.where(up, d, probe), np.where(up, probe, c)
        fc, fd = np.where(up, fd, v), np.where(up, v, fc)
    return np.maximum(fc, fd)


def sup_on_annulus(f: RationalFunction | Sequence[RationalFunction], ap: AnnulusParams,
                   m: int = 1024) -> float | list[float]:
    """Sup of |f| over the two boundary circles, for one function or a batch.

    ``f`` is a RationalFunction, giving a float, or a sequence of them, giving
    a list with one float per function; both take the same path.  Samples m
    equispaced angles per circle, then refines a bracket of one sample step on
    each side of the best three samples of each circle by golden section.

    The N functions are evaluated together as zero-padded coefficient stacks.
    The dense samples go in chunks of rows = max(1, _CHUNK_POINTS // m)
    functions, so memory does not grow with N, and all 6N brackets advance in
    one ``_golden_max``.  A call therefore costs 2 ceil(N / rows) + 2 + 60
    evaluations of the stack, and each function's sup is bit for bit that of
    six scalar searches run on it alone.  The maximum principle makes the
    boundary search exhaustive for pole-free f, but the value is a sampled
    estimate, not a certified upper bound.
    """
    m = _check_integer("samples per circle", m, 8, MAX_SAMPLES)
    fs = [f] if isinstance(f, RationalFunction) else list(f)
    for g in fs:
        if not poles_off_annulus(g, ap):
            raise DomainError("f has poles on or inside the closed annulus")
    if not fs:
        return []
    p, q = _stack([g.p for g in fs]), _stack([g.q for g in fs])
    rows = max(1, _CHUNK_POINTS // m)
    rhos = (ap.r, 1.0)
    step = 2.0 * np.pi / m
    theta = step * np.arange(m)
    peak = np.zeros(len(fs))
    starts = np.empty((len(fs), 6))
    for k, rho in enumerate(rhos):
        z = rho * np.exp(1j * theta)
        for i in range(0, len(fs), rows):
            vals = _modulus(p[i:i + rows], q[i:i + rows], z)
            peak[i:i + rows] = np.maximum(peak[i:i + rows], vals.max(axis=1))
            starts[i:i + rows, 3 * k:3 * k + 3] = theta[np.argsort(vals, axis=1)[:, -3:]]
    radii = np.repeat(rhos, 3)
    mod = lambda t: _modulus(p, q, radii * np.exp(1j * t))
    refined = _golden_max(mod, starts - step, starts + step)
    best = np.maximum(peak, refined.max(axis=1)).tolist()
    return best[0] if isinstance(f, RationalFunction) else best
