"""Evaluation of the annulus operator pencil at scalars and matrices.

The pencil at regularization eps and unimodular alpha is the bilateral series

    Gamma(z) = sum_k  c_k (alpha z)^k,   c_k = 2 (1-eps)^k / (1 + (1-eps)^{2k} r^k),

which converges on the band (1-eps) r <= |z| <= 1/(1-eps).  Naive evaluation
is numerically fatal: c_k underflows while z^k overflows on the negative side,
even though their product decays geometrically.  Everything here therefore
works with the folded terms

    c_k (alpha z)^k = a_k x^k        (k >= 0,  x = (1-eps) alpha z)
    c_{-m} (alpha z)^{-m} = a_m y^m  (m >= 1,  y = (1-eps) r / (alpha z))

where a_j = 2 / (1 + d^j) and d = (1-eps)^2 r, so both sides are power series
with moduli below 1 inside the band.  Expanding a_j = 2 sum_k (-1)^k d^{jk}
turns each side into an alternating sum of resolvents whose terms shrink like
d^k whatever eps is, summed in closed form after a term count fixed in advance
(``scalar_terms``): scalars one at a time in ``gamma_scalar_batch``, matrices
in one ``MatrixPencil`` per T, for every eps, with X = (1-eps) T and
Y = (1-eps) r T^{-1}.

At the M-th roots of unity alpha_k, alpha_k^j depends only on j mod M, so
each side W (X or Y) needs only the buckets B_b = sum_{j = b mod M} a_j W^j,
and one inverse FFT over them gives Gamma(alpha_k T) for every k.  With
V = W^M and R_k = (I - d^{kM} V)^{-1} each bucket closes exactly:

    B_b = W^b [a_b I + 2 sum_k (-1)^k d^{k(b+M)} V R_k]        (b = 1..M).

``scalar_fold`` runs the same fold elementwise on a vector of scalars, the
diagonal of a diagonal W, and sums over alpha by a product with the stored
alphas instead of the FFT, since that product's rounding has a proof.
``scalar_pencil_bound`` bounds a priori how far Gamma of a perturbed diagonal
matrix lies from that fold of its diagonal, rounding included, which lets
near-normal T skip the matrix sweep.

The derivative pencil needs no second closed form: f([[T, I], [0, T]]) =
[[f(T), f'(T)], [0, f(T)]], so Gamma'(alpha T) is the top-right block of
the sweep of [[T, I], [0, T]], with its tail bound and rounding guard.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationError
from .numerics import MAX_DIM, PSD_TOL, _check_integer, _upper_block, as_matrix, inverse

# Closed-form sums: remainder bound and term cap (r within ~1e-4 of 1).
SCALAR_TOL = 1e-16
SCALAR_MAX_TERMS = 1 << 20

# Absolute rounding of a matrix sweep per unit of sum_b ||B_b||_F: ten times
# the largest part of the measured errors not proportional to |Gamma| (see
# README).  A sweep whose rounding could reach ROUNDING_BUDGET raises
# TruncationError, so the refutation slack is never spent on rounding.
SWEEP_ROUNDING = 1e-15

# Largest absolute error a pencil evaluation may carry into a margin: a tenth
# of the refutation slack PSD_TOL.  It caps the sweep's rounding estimate and
# the a-priori bound of the scalar route (``scalar_pencil_bound``).
ROUNDING_BUDGET = 0.1 * PSD_TOL

# Unit roundoff of float64.
_UNIT = float(np.finfo(float).eps) / 2.0

# Bucket products are formed this many matrix entries at a time, so a sweep
# holds no (M, n, n) stack besides the buckets.
_CHUNK = 1 << 16

# Largest alpha grid: each eps rung folds into that many n x n complex
# buckets, 256 MiB at the largest file dimension (128).
MAX_ALPHAS = 1024

# Entries the level arrays of a fold may hold per side, the buckets' own
# size at the largest grid and dimension: a fold of L levels over m alphas
# holds (L, m) coefficients and L resolvents of n^2 entries (of n entries in
# ``scalar_fold``, for n scalars).
_LEVEL_BUDGET = MAX_ALPHAS * (2 * MAX_DIM) ** 2


@dataclass(frozen=True)
class AnnulusParams:
    """The annulus { z : r < |z| < 1 }."""

    r: float

    def __post_init__(self):
        if isinstance(self.r, bool) or not (isinstance(self.r, numbers.Real) and 0.0 < self.r < 1.0):
            raise DomainError(f"inner radius must lie in (0, 1), got {self.r!r}")
        object.__setattr__(self, "r", float(self.r))


def _check_eps(eps) -> float:
    """``eps`` as a Python float, or DomainError unless it is a real number in
    [0, 1); a bool is not one, and a numpy float runs as its float64 value."""
    if isinstance(eps, bool) or not (isinstance(eps, numbers.Real) and 0.0 <= eps < 1.0):
        raise DomainError(f"eps must lie in [0, 1), got {eps!r}")
    return float(eps)


def _unit_roots(m: int) -> np.ndarray:
    """The stored alphas exp(2 pi i k / m), k = 0..m-1."""
    j = np.arange(m)
    return np.exp(2j * np.pi * j / m)


@dataclass(frozen=True)
class PencilGrid:
    """Sampled surrogate for the (eps in [0, 1), alpha on the circle) continuum.

    eps = 0 is the limit rung, summed on the closed annulus itself (see
    ``_check_band``); a spectrum on a circle makes it inconclusive.
    """

    eps_values: tuple = (0.5, 0.25, 0.1, 0.05, 0.02, 0.01)
    alpha_count: int = 64

    def __post_init__(self):
        if not hasattr(self.eps_values, "__len__") or len(self.eps_values) == 0:
            raise DomainError(f"eps_values must be a nonempty sequence, got {self.eps_values!r}")
        object.__setattr__(self, "eps_values", tuple(_check_eps(e) for e in self.eps_values))
        _check_integer("alpha_count", self.alpha_count, 8, MAX_ALPHAS)

    def alphas(self) -> np.ndarray:
        """alpha_k = exp(2 pi i k / m), k = 0..m-1, in ``MatrixPencil.gamma_for_alphas``'s order."""
        return _unit_roots(self.alpha_count)

    def to_dict(self) -> dict:
        return {"eps_values": list(self.eps_values), "alpha_count": int(self.alpha_count)}


def _inner_slack(lo: float) -> float:
    """The slack below an inner edge lo > 0: PSD_TOL, but at most lo / 2, so
    modulus 0 stays outside however small r is."""
    return min(PSD_TOL, 0.5 * lo)


def eigenvalues_in_annulus(eigs: np.ndarray, ap: AnnulusParams) -> bool:
    """True iff every modulus of ``eigs`` lies in [r - s, 1 + PSD_TOL], with s
    the ``_inner_slack`` of r."""
    mods = np.abs(eigs)
    return bool(np.all((mods >= ap.r - _inner_slack(ap.r)) & (mods <= 1.0 + PSD_TOL)))


def _check_band(mods: np.ndarray, eps: float, r: float) -> float:
    """eps as a Python float once both series converge at it and these moduli, or raise.

    DomainError when eps is not a real number in [0, 1), when there is no
    modulus or one is not finite, or when a modulus leaves the band
    [(1-eps) r, 1/(1-eps)] by more than the slack of
    ``eigenvalues_in_annulus`` (PSD_TOL, at most half the inner edge);
    TruncationError when one lies on or past a band edge, where a series
    ratio reaches 1.

    eps = 0 is the limit rung: the band is the closed annulus [r, 1], X = T
    and Y = r T^{-1}, and a spectrum strictly inside sums there, while one on
    a circle raises TruncationError.  A refutation on that rung is sound: for
    an annulus contraction with spectrum inside, Re Gamma_eps(alpha T) is
    positive semidefinite at every eps > 0, and Gamma_eps(alpha T) tends to
    Gamma_0(alpha T) in norm as eps -> 0 (both series converge uniformly on a
    neighbourhood of the spectrum), so Re Gamma_0(alpha T) >= 0 is necessary.
    """
    eps = _check_eps(eps)
    if mods.size == 0 or not np.isfinite(mods).all():
        raise DomainError("the pencil needs at least one point, and only finite ones")
    lo, hi = (1.0 - eps) * r, 1.0 / (1.0 - eps)
    mn, mx = float(mods.min()), float(mods.max())
    floor = lo - _inner_slack(lo)  # 0 only where lo underflows
    if not (0.0 < floor <= mn and mx <= hi + PSD_TOL):
        raise DomainError(
            f"moduli [{mn:.6g}, {mx:.6g}] leave the convergence band "
            f"[{lo:.6g}, {hi:.6g}] at eps = {eps}"
        )
    rho = (1.0 - eps) * max(mx, r / mn)
    if rho >= 1.0:
        raise TruncationError(f"series ratio {rho:.6g} >= 1: the sum diverges on the band edge")
    return eps


def scalar_terms(q: float, bound: float) -> int:
    """Term count, fixed before any evaluation, of a closed-form sum
    (``gamma_scalar_batch``, ``misra.kernel_diag``, the levels of a
    ``MatrixPencil`` sweep): the smallest K >= 1 with q^K <= bound, for a
    series ratio 0 <= q < 1."""
    k = 1 if q <= bound else math.ceil(math.log(bound) / math.log(q))
    if k > SCALAR_MAX_TERMS:
        raise TruncationError(f"series ratio {q!r} needs {k} terms, exceeding the cap {SCALAR_MAX_TERMS}")
    return k


def gamma_scalar_batch(z, eps: float, ap: AnnulusParams) -> np.ndarray:
    """Vectorized Gamma over an array of scalars u, summed in closed form at u
    exactly as given (a rotation alpha z is the caller's product).

    Expanding a_j = 2 / (1 + d^j) geometrically and summing over j gives

        Gamma(u) = 1 + 2 sum_{k>=0} (-1)^k [x d^k / (1 - x d^k) + y d^k / (1 - y d^k)],

    with x = (1-eps) u, y = (1-eps) r / u and remainder at most
    4 d^K / ((1-d)(1-d^K)) after K terms while |x|, |y| < 1, below SCALAR_TOL
    once d^K <= SCALAR_TOL (1-d) / 8.  Denominators are
    formed as (1 - d^k u) + eps d^k u and (u - r d^k) + eps r d^k, so no
    1 - (1-eps) cancels near the circles.
    """
    u = np.atleast_1d(np.asarray(z, dtype=complex))
    r = ap.r
    eps = _check_band(np.abs(u), eps, r)
    b = 1.0 - eps
    d = b * b * r
    acc = np.zeros_like(u)
    for k in range(scalar_terms(d, SCALAR_TOL * (1.0 - d) / 8.0) - 1, -1, -1):
        du, rd = d**k * u, r * d**k
        acc = b * du / ((1.0 - du) + eps * du) + b * rd / ((u - rd) + eps * rd) - acc
    return 1.0 + 2.0 * acc


def _fold_levels(d: float, m: int, wn: float, vn: float, size: int) -> int:
    """Level count L of a fold over m alphas at d = (1-eps)^2 r, fixed before
    any solve, for a side W and V = W^m with ||W|| <= wn and ||V|| <= vn, both
    at least 1 (``MatrixPencil``), whose resolvents have ``size`` entries;
    TruncationError past SCALAR_MAX_TERMS, or when L max(m, size) passes
    _LEVEL_BUDGET, before any level array exists."""
    q = d ** (m + 1)
    levels = max(
        scalar_terms(d, 1.0 / wn),
        scalar_terms(d**m, 0.5 / vn),
        scalar_terms(q, SCALAR_TOL * (1.0 - q) / (16.0 * m * m * wn * vn)),
    )
    if levels * max(m, size) > _LEVEL_BUDGET:
        raise TruncationError(f"the fold needs {levels} levels of {max(m, size)} entries, "
                              f"past the budget of {_LEVEL_BUDGET} entries")
    return levels


def _fold_coefs(d: float, m: int, levels: int, sign: int):
    """The arrays that fold a side into m buckets over ``levels`` levels:
    c_k = d^{km}, coef[k, b-1] = 2 (-1)^k d^{k(b+m)}, diag[b-1] = a_b and
    slot[b-1] = (sign b) mod m, for k < levels and b = 1..m."""
    k = np.arange(levels)
    j = np.arange(1, m + 1)
    coef = 2.0 * (-1.0) ** k[:, None] * d ** (k[:, None] * (j + m))
    diag = 2.0 / (1.0 + d ** j.astype(float))
    return d ** (m * k), coef, diag, (sign * j) % m


def _fold_scalars(x: np.ndarray, d: float, levels: int, sign: int, buckets: np.ndarray) -> None:
    """``MatrixPencil._fold`` elementwise: add the side of the scalars x, all
    of modulus below 1, into the (m, n) ``buckets`` over ``levels`` levels."""
    m = buckets.shape[0]
    c, coef, diag, slot = _fold_coefs(d, m, levels, sign)
    pw = np.cumprod(np.broadcast_to(x, (m, x.size)), axis=0)  # x^1, ..., x^m
    vr = pw[-1] / (1.0 - c[:, None] * pw[-1])  # V R_k
    buckets[slot] += pw * (coef.T @ vr + diag[:, None])


def scalar_fold(w, eps: float, ap: AnnulusParams, m: int) -> tuple[np.ndarray, int]:
    """Gamma(alpha_k w_i) at the m grid alphas (``PencilGrid.alphas``) and the
    scalars w_i, as an (m, n) array, and the level count of both sides.

    The sides x = (1-eps) w and y = (1-eps) r / w fold into m buckets with
    ``MatrixPencil``'s closed form and level rule, at norms 1 since every
    |x_i| and |y_i| is below 1, and the sum over alpha is the product with
    the m x m matrix alpha_{kb mod m} of the stored alphas, whose rounding
    ``scalar_pencil_bound`` covers.
    """
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    m = _check_integer("m", m, 1, MAX_ALPHAS)
    r = ap.r
    eps = _check_band(np.abs(w), eps, r)
    b = 1.0 - eps
    d = b * b * r
    buckets = np.zeros((m, w.size), dtype=complex)
    buckets[0] += 1.0  # the j = 0 term, a_0 = 1
    levels = _fold_levels(d, m, 1.0, 1.0, w.size)
    _fold_scalars(b * w, d, levels, 1, buckets)
    _fold_scalars(b * r / w, d, levels, -1, buckets)
    j = np.arange(m)
    return _unit_roots(m)[np.outer(j, j) % m] @ buckets, levels


def scalar_pencil_bound(w, e: float, eps: float, ap: AnnulusParams, m: int) -> float:
    """Bound, uniform over the m grid alphas, on ||Gamma(alpha (D + F)) - G||
    for D = diag(w), any F with ||F|| <= e, and G the diagonal of
    ``scalar_fold(w, eps, ap, m)`` at alpha; inf when the series ratios leave
    no room for e or ``scalar_fold``'s level count would raise.

    The weight Gamma(alpha Z) = I + sum_j a_j X^j + sum_j a_j Y^j has
    X = (1-eps) alpha Z, Y = (1-eps) r (alpha Z)^{-1} and 0 < a_j <= 2
    (module docstring).  Write u for the unit roundoff, g(k) = k u / (1 - k u),
    b and d for the computed 1 - eps and b^2 r, L for the level count of
    ``_fold_levels`` at norms 1, and alpha_k = exp(2 pi i k / m) for the root
    that the stored alpha stands for.

    Elementary functions (pow, cos, sin) are taken within four ulps, 8 u,
    which covers vectorized builds as well as libm.

    Absorbed rounding.  The stored alpha is within 34 u of alpha_k (its phase
    2 pi k / m carries at most four roundings, and cos and sin 8 u) and b
    within u of 1 - eps, so (1-eps) alpha = b alpha_k (1 + delta) and
    (1-eps) / alpha = b / (alpha_k (1 + delta')) with |delta|, |delta'| <= 36 u.
    ``scalar_fold`` forms x_i = b w_i, one rounding per part, and
    y_i = b r / w_i with numpy's complex division (Smith's method, within
    10 u), so x_i = b wx_i and y_i = b r / wy_i with wx_i and wy_i within
    12 u |w_i| of w_i.  Hence X = b alpha_k (Dx + Fx) and
    Y = b r (alpha_k (Dy + Fy))^{-1} with Dx = diag(wx), Dy = diag(wy) and
    ||Fx||, ||Fy|| <= e' = e + 48 u (max|w_i| + e), and every |wx_i| and
    |wy_i| lies in [mn, M], M = (1 + 12 u) max|w_i|, mn = (1 - 12 u) min|w_i|.
    Let rho = b M and sigma = b r / mn, and take X_0, Y_0 at Dx, Dy and
    X_1, Y_1 at Dx + Fx, Dy + Fy.

    Perturbation.  X_1^j - X_0^j = sum_{k<j} X_1^k (X_1 - X_0) X_0^{j-1-k}
    gives, for ||X_0|| <= p < 1 and ||X_1|| <= p' < 1,

        ||sum_j a_j (X_1^j - X_0^j)|| <= 2 ||X_1 - X_0|| / ((1 - p)(1 - p')).

    On the X side ||X_1 - X_0|| <= b e', p = rho and p' = rho + b e'.  On the
    Y side (Dy + Fy)^{-1} - Dy^{-1} = -(Dy + Fy)^{-1} Fy Dy^{-1} with
    ||(Dy + Fy)^{-1}|| <= 1 / (mn - e'), so ||Y_1 - Y_0|| <= t = sigma e' / (mn - e'),
    p = sigma and p' = sigma + t.  Hence

        ||Gamma(alpha (D + F)) - Gamma_0|| <= 2 b e' / ((1 - rho - b e')(1 - rho))
                                              + 2 t / ((1 - sigma - t)(1 - sigma))

    for the diagonal Gamma_0 = I + sum_j a_j X_0^j + sum_j a_j Y_0^j.

    Rounding.  ``scalar_fold`` differs from Gamma_0 through d, the folds of
    the two sides, their truncation and the alpha sum.

    - d is within g(4) d of (1-eps)^2 r, and |a_j(d') - a_j(d)| <= 2 |d'^j - d^j|,
      so summing with it moves Gamma_0 by at most 17 u z / (1 - z)^2, where
      z = (1 + 9 u) d max(rho, sigma).
    - The X side puts into bucket b (b = 1..m) the terms x^b a_b and
      x^b coef_kb V R_k (k < L, V = x^m, R_k = 1 / (1 - d^{km} V),
      coef_kb = 2 (-1)^k d^{k(b+m)}).  Expanding R_k geometrically shows that
      their moduli sum to at most 2 Sx, Sx = rho / ((1 - rho)(1 - d)).  Each
      term is off by at most g(kx) times its modulus.  A complex product is
      within sqrt(2) g(2) <= g(3), so x^b counts 3 (b - 1) and d^{km} V
      counts 3 m + 6.  Then 1 - d^{km} V, of modulus at least 1 - P with
      P = rho^m, is off by at most g(3 m + 6) P plus one rounding, which is
      g((3 m + 6) / (1 - P) + 2) relative and counts twice as a divisor.  The
      division counts 10, coef_kb 8, a_b 6, the level sum L, adding a_b 1,
      the product with x^b 3 and the two bucket additions 2: in all
      kx = 6 m + (6 m + 12) / (1 - P) + L + 22.
      The unit in bucket 0 is off by g(2), and the Y side is the X side with
      sigma for rho (Sy, ky).
    - The level rule leaves at most SCALAR_TOL per side (``MatrixPencil``);
      values below the normal range add at most 2^-1074 per operation, far
      below one more SCALAR_TOL.
    - Gamma_0 at alpha_k is sum_b alpha_k^b B_b over the exact buckets B_b.
      It is formed with the stored alphas alpha_{kb mod m}, each within 34 u
      of alpha_k^b, and in whatever order BLAS sums the real and imaginary
      parts, a complex dot product errs by at most sqrt(2) g(2 m) sum_b
      |alpha_{kb}| |B_b|.  So the alpha sum adds at most
      (34 u + sqrt(2) g(2 m) (1 + 34 u)) S with
      S = 1 + g(2) + 2 Sx (1 + g(kx)) + 2 Sy (1 + g(ky)).

    The bound is the sum of these terms; it is inf where some k u reaches 1/2.
    """
    mods = np.abs(np.asarray(w))
    big, small = float(mods.max()), float(mods.min())
    b, r = 1.0 - eps, ap.r
    d = b * b * r
    try:
        levels = _fold_levels(d, m, 1.0, 1.0, mods.size)
    except TruncationError:
        return math.inf
    e = e + 48.0 * _UNIT * (big + e)
    mx, mn = (1.0 + 12.0 * _UNIT) * big, (1.0 - 12.0 * _UNIT) * small
    rho, sigma = b * mx, b * r / mn if mn > 0.0 else math.inf
    t = sigma * (e / (mn - e)) if mn > e else math.inf  # mn (mn - e) may underflow
    if not (rho + b * e < 1.0 and sigma + t < 1.0):
        return math.inf
    perturb = (2.0 * b * e / ((1.0 - rho - b * e) * (1.0 - rho))
               + 2.0 * t / ((1.0 - sigma - t) * (1.0 - sigma)))
    g = lambda k: k * _UNIT / (1.0 - k * _UNIT) if k * _UNIT < 0.5 else math.inf
    sx, sy = rho / ((1.0 - rho) * (1.0 - d)), sigma / ((1.0 - sigma) * (1.0 - d))
    kx, ky = (6.0 * m + (6.0 * m + 12.0) / (1.0 - p**m) + levels + 22.0 for p in (rho, sigma))
    z = (1.0 + 9.0 * _UNIT) * d * max(rho, sigma)
    total = 1.0 + g(2.0) + 2.0 * sx * (1.0 + g(kx)) + 2.0 * sy * (1.0 + g(ky))
    rounding = (17.0 * _UNIT * z / (1.0 - z) ** 2 + g(2.0) + 2.0 * (g(kx) * sx + g(ky) * sy)
                + (34.0 * _UNIT + math.sqrt(2.0) * g(2.0 * m) * (1.0 + 34.0 * _UNIT)) * total
                + 3.0 * SCALAR_TOL)
    return perturb + rounding


def _powers(w: np.ndarray, count: int) -> np.ndarray:
    """W^1, ..., W^count, by doubling: log2(count) batched products."""
    out = np.empty((count, *w.shape), dtype=complex)
    out[0] = w
    done = 1
    while done < count:
        take = min(done, count - done)
        np.matmul(out[done - 1], out[:take], out=out[done:done + take])
        done += take
    return out


class MatrixPencil:
    """Pencil evaluation for one matrix T, whose eigenvalues ``eigs`` and
    eigenvectors ``vecs`` (as columns) come from one ``np.linalg.eig``; the
    eigenvectors give ``certifier``'s scalar route its basis.  Each sweep
    takes its eps and first runs ``_check_band`` on the eigenvalues; the first
    sweep that passes it takes T^{-1}, which later sweeps reuse.

    A sweep over m alphas adds each side W (X or Y) into the m buckets in
    closed form (module docstring).  The level count L of the resolvent sum
    over k is fixed before any solve.  While d^L ||W|| <= 1 and
    d^{Lm} ||V|| <= 1/2 (so ||R_k|| <= 2 for k >= L), the levels k >= L of
    all buckets together have operator norm at most

        16 m^2 ||W|| ||V|| q^L / (1 - q),     q = d^{m+1},

    since sum_b ||W^b|| d^{kb} <= m ||W|| d^k.  This holds for non-normal W
    too, and ``_fold_levels`` puts it below SCALAR_TOL.  On the default grid
    at r = 0.5, L is 1 to 3 for normal T up to n = 64, whatever eps is.  The
    powers W^b are built _CHUNK entries at a time, and the L resolvents and
    their coefficients stay within _LEVEL_BUDGET entries, so a sweep holds
    the m buckets plus a bounded remainder.
    """

    def __init__(self, t: np.ndarray, ap: AnnulusParams):
        self.t, self.ap = as_matrix(t), ap
        self.eigs, self.vecs = np.linalg.eig(self.t)
        self._inv: np.ndarray | None = None
        # per-side level counts of the last sweep and the last derivative sweep
        self._levels: tuple[int, int] | None = None
        self._deriv_levels: tuple[int, int] | None = None

    @staticmethod
    def _fold(w: np.ndarray, d: float, sign: int, buckets: np.ndarray) -> int:
        """Add the side of W at d = (1-eps)^2 r into ``buckets``, W^j to bucket
        (sign j) mod m; returns its level count."""
        m, n = buckets.shape[0], w.shape[0]
        v = np.linalg.matrix_power(w, m)
        # Frobenius norms, at least 1: upper bounds of ||W|| and ||V||
        wn, vn = max(float(np.linalg.norm(w)), 1.0), max(float(np.linalg.norm(v)), 1.0)
        levels = _fold_levels(d, m, wn, vn, n * n)
        c, coef, diag, slot = _fold_coefs(d, m, levels, sign)
        vr = np.linalg.solve(np.eye(n) - c[:, None, None] * v, np.broadcast_to(v, (levels, n, n)))
        vr = vr.reshape(levels, n * n)  # V R_k
        step = max(1, _CHUNK // (n * n))
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            if lo == 0:
                pw = _powers(w, hi)
                top = pw[-1]  # W^step, the shift to the next chunk
            else:
                pw = (top @ pw)[: hi - lo]
            s = (coef[:, lo:hi].T @ vr).reshape(hi - lo, n, n)
            s[:, np.arange(n), np.arange(n)] += diag[lo:hi, None]
            buckets[slot[lo:hi]] += pw @ s
        return levels

    def gamma_for_alphas(self, eps: float, m: int) -> np.ndarray:
        """Gamma(alpha_k T) at eps and alpha_k = exp(2 pi i k / m), k = 0..m-1,
        in one pass, for 1 <= m <= MAX_ALPHAS; records the level counts."""
        m = _check_integer("m", m, 1, MAX_ALPHAS)
        eps = _check_band(np.abs(self.eigs), eps, self.ap.r)
        r, b = self.ap.r, 1.0 - eps
        if self._inv is None:
            self._inv = inverse(self.t)
        d, n = b * b * r, self.t.shape[0]
        buckets = np.zeros((m, n, n), dtype=complex)
        buckets[0] += np.eye(n)  # the j = 0 term, a_0 = 1
        self._levels = (self._fold(b * self.t, d, 1, buckets),
                        self._fold(b * r * self._inv, d, -1, buckets))
        rounding = SWEEP_ROUNDING * float(np.sum(np.linalg.norm(buckets, axis=(1, 2))))
        if not rounding <= ROUNDING_BUDGET:
            raise TruncationError(f"sweep rounding up to {rounding:.3g} at eps = {eps} "
                                  f"would reach the refutation slack PSD_TOL = {PSD_TOL:g}")
        return m * np.fft.ifft(buckets, axis=0)

    def gamma_indices(self) -> tuple[int, int] | None:
        """Per-side level counts (n_pos, n_neg) of the last sweep, None before any."""
        return self._levels

    def deriv_indices(self) -> tuple[int, int] | None:
        """The ``gamma_indices`` of the embedded pencil of [[T, I], [0, T]] in
        the last derivative sweep, None before any."""
        return self._deriv_levels

    def derivative_for_alphas(self, eps: float, m: int) -> np.ndarray:
        """z-derivative of z -> Gamma(alpha_k z) at T, at the same eps and alphas:
        the top-right block of the sweep of [[T, I], [0, T]] (module docstring),
        whose band check covers T's spectrum, copied to free that sweep."""
        n = self.t.shape[0]
        embedded = MatrixPencil(_upper_block(self.t, np.eye(n), self.t), self.ap)
        corner = embedded.gamma_for_alphas(eps, m)[:, :n, n:].copy()
        self._deriv_levels = embedded.gamma_indices()
        return corner

