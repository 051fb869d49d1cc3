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
with moduli strictly below 1 on the band and O(1) coefficients.  Scalars sum
them in closed form (``gamma_scalar_batch``); the matrix case replaces x, y
by the scaled operators (1-eps) alpha T and (1-eps) r (alpha T)^{-1}.

A sweep over the M-th roots of unity alpha_k needs only one pass over the
power ladders of X = (1-eps) T and Y = (1-eps) r T^{-1}: since alpha_k^j
depends only on j mod M, the pass adds a_j X^j into bucket j mod M and
a_j Y^j into bucket (-j) mod M, and one inverse FFT over the M buckets gives
Gamma(alpha_k T) for every k.  Memory is O(M n^2), independent of the number
of terms.  A single arbitrary alpha is the M = 1 sweep of the rotated
matrix alpha T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationError
from .numerics import PSD_TOL, as_matrix, eigenvalues, inverse

# Relative slack when testing membership in the convergence band.
BAND_SLACK = 1e-9

# Matrix pencil truncation: each side of the sum stops once its term norms
# stay below TAIL_TOL * (1 + accumulated term norms) for _DECAY_RUN consecutive
# indices (a guard against transient growth of non-normal powers); N_MAX is
# the hard per-side cap, past which the sum raises TruncationError.
TAIL_TOL = 1e-10
N_MAX = 4096
_DECAY_RUN = 3

# Closed-form scalar sums: remainder bound and term cap (r within ~1e-4 of 1).
SCALAR_TOL = 1e-16
SCALAR_MAX_TERMS = 1 << 20


@dataclass(frozen=True)
class AnnulusParams:
    """The annulus { z : r < |z| < 1 }."""

    r: float

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise DomainError(f"inner radius must lie in (0, 1), got {self.r}")


def spectrum_in_annulus(t, ap: AnnulusParams) -> bool:
    """True iff every eigenvalue modulus lies in [r - PSD_TOL, 1 + PSD_TOL]."""
    mods = np.abs(eigenvalues(as_matrix(t)))
    return bool(np.all((mods >= ap.r - PSD_TOL) & (mods <= 1.0 + PSD_TOL)))


@dataclass(frozen=True)
class PencilPoint:
    """A single (eps, alpha) evaluation point, alpha on the unit circle."""

    eps: float
    alpha: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise DomainError(f"eps must lie in (0, 1), got {self.eps}")
        if abs(abs(self.alpha) - 1.0) > 1e-12:
            raise DomainError(f"alpha must be unimodular, got |alpha| = {abs(self.alpha)}")


def gamma_coeff(k: int, eps: float, r: float) -> float:
    """Series coefficient c_k, evaluated in the overflow-free algebraic form."""
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if not (0.0 < r < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r}")
    b = 1.0 - eps
    d = b * b * r
    if k >= 0:
        return 2.0 * b**k / (1.0 + d**k)
    m = -k
    return 2.0 * (b * r) ** m / (1.0 + d**m)


def re_part(a) -> np.ndarray:
    """Hermitian real part (A + A*)/2."""
    m = as_matrix(a)
    return 0.5 * (m + m.conj().T)


def _check_band(mods: np.ndarray, eps: float, r: float) -> None:
    """DomainError unless every modulus lies in the convergence band [(1-eps) r, 1/(1-eps)]."""
    lo, hi = (1.0 - eps) * r, 1.0 / (1.0 - eps)
    mn, mx = float(mods.min()), float(mods.max())
    if mn < lo * (1.0 - BAND_SLACK) or mx > hi * (1.0 + BAND_SLACK):
        raise DomainError(
            f"moduli [{mn:.6g}, {mx:.6g}] leave the convergence band "
            f"[{lo:.6g}, {hi:.6g}] at eps = {eps}"
        )


def scalar_terms(q: float, bound: float) -> int:
    """Term count, fixed before any evaluation, of a closed-form scalar sum
    (``gamma_scalar_batch``, ``misra.kernel_diag``): the smallest K >= 1 with
    q^K <= bound, for a series ratio 0 <= q < 1."""
    k = 1 if q <= bound else math.ceil(math.log(bound) / math.log(q))
    if k > SCALAR_MAX_TERMS:
        raise TruncationError(f"series ratio {q!r} needs {k} terms, exceeding the cap {SCALAR_MAX_TERMS}")
    return k


def gamma_scalar_batch(z, pt: PencilPoint, ap: AnnulusParams) -> np.ndarray:
    """Vectorized Gamma over an array of scalars, summed in closed form.

    Expanding a_j = 2 / (1 + d^j) geometrically and summing over j gives

        Gamma(alpha z) = 1 + 2 sum_{k>=0} (-1)^k [x d^k / (1 - x d^k) + y d^k / (1 - y d^k)],

    with remainder at most 4 d^K / ((1-d)(1-d^K)) after K terms while |x|, |y| < 1.
    Denominators are formed as (1 - d^k u) + eps d^k u and (u - r d^k) + eps r d^k
    (u = alpha z), so no 1 - (1-eps) cancels near the circles.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    absz = np.abs(zs)
    eps, r = pt.eps, ap.r
    _check_band(absz, eps, r)
    b = 1.0 - eps
    d = b * b * r
    rho = b * max(float(absz.max()), r / float(absz.min()))
    if rho >= 1.0:
        raise TruncationError(f"series ratio {rho:.6g} >= 1: the sum diverges on the band edge")
    u = pt.alpha * zs
    acc = np.zeros_like(u)
    # d^K <= SCALAR_TOL (1-d) / 8 puts the remainder bound below SCALAR_TOL
    for k in range(scalar_terms(d, SCALAR_TOL * (1.0 - d) / 8.0) - 1, -1, -1):
        du, rd = d**k * u, r * d**k
        acc = b * du / ((1.0 - du) + eps * du) + b * rd / ((u - rd) + eps * rd) - acc
    return 1.0 + 2.0 * acc


class _Ladder:
    """Powers of one step matrix, kept two deep, with their Frobenius norms."""

    __slots__ = ("step", "prev", "cur", "run", "stop")

    def __init__(self, step: np.ndarray):
        n = step.shape[0]
        self.step = step
        self.prev = self._buffer(np.eye(n, dtype=complex))
        self.cur = self._buffer(np.empty((n, n), dtype=complex))
        self.run = 0
        self.stop: int | None = None

    @staticmethod
    def _buffer(a: np.ndarray) -> tuple:
        flat = a.reshape(-1)
        return a, flat.real, flat.imag

    def advance(self) -> tuple[np.ndarray, float]:
        """The next power and its Frobenius norm, summed as np.linalg.norm sums it."""
        prev, cur = self.prev, self.cur
        np.matmul(prev[0], self.step, out=cur[0])
        self.prev, self.cur = cur, prev
        _, re, im = cur
        return cur[0], math.sqrt(re.dot(re) + im.dot(im))


class MatrixPencil:
    """Pencil evaluation for one matrix T at one eps.

    Each sweep is one streaming pass over the ladders X^j = ((1-eps) T)^j and
    Y^j = ((1-eps) r T^-1)^j that applies the stop rule to their Frobenius
    norms and folds every term into M buckets (j mod M, see the module
    docstring).  Only the current powers and the buckets are kept, so memory
    is O(M n^2) however deep the ladder runs.  The stop indices do not depend
    on M, so every pass records them.
    """

    def __init__(self, t: np.ndarray, eps: float, ap: AnnulusParams):
        if not (0.0 < eps < 1.0):
            raise DomainError(f"eps must lie in (0, 1), got {eps}")
        self.t = as_matrix(t)
        self.eps = eps
        self.ap = ap
        b = 1.0 - eps
        _check_band(np.abs(eigenvalues(self.t)), eps, ap.r)
        self._x = b * self.t
        self._y = b * ap.r * inverse(self.t)
        self._d = b * b * ap.r
        # stop indices of Gamma and of the derivative pencil, set by any pass
        self._stops: list[tuple[int, int] | None] = [None, None]

    def _fold(self, m: int, weighted: bool) -> tuple[np.ndarray, tuple[int, int]]:
        """One pass over both ladders into m buckets; returns (buckets, stop indices).

        Bucket b holds the terms w_j X^j with j = b mod m and w_j Y^j with
        -j = b mod m, where w_j = a_j, or with ``weighted`` +j a_j on the
        positive and -j a_j on the negative side.
        The sides are scanned interleaved, positive first; each stops after
        _DECAY_RUN consecutive term norms below TAIL_TOL * (1 + acc), acc
        being the running sum of the term norms of both sides.
        """
        n = self.t.shape[0]
        d = self._d
        buckets = np.zeros((m, n, n), dtype=complex)
        if not weighted:
            buckets[0] += np.eye(n)  # the j = 0 term, a_0 = 1
        bins = list(buckets)
        scratch = np.empty((n, n), dtype=complex)
        pos = _Ladder(self._x)
        neg = _Ladder(self._y)
        sides = ((pos, 1), (neg, -1))
        acc = 0.0 if weighted else math.sqrt(n)
        j = 1
        while pos.stop is None or neg.stop is None:
            if j > N_MAX:
                side = "positive" if pos.stop is None else "negative"
                raise TruncationError(
                    f"{side} side of the bilateral sum not decayed after {N_MAX} "
                    f"terms at eps = {self.eps} (TAIL_TOL = {TAIL_TOL:g})"
                )
            a = 2.0 / (1.0 + d ** float(j))
            for ladder, sign in sides:
                if ladder.stop is not None:
                    continue
                power, norm = ladder.advance()
                np.multiply(power, sign * j * a if weighted else a, out=scratch)
                bins[(sign * j) % m] += scratch
                term = a * norm * j if weighted else a * norm
                small = term < TAIL_TOL * (1.0 + acc)
                acc += term
                ladder.run = ladder.run + 1 if small else 0
                if ladder.run >= _DECAY_RUN:
                    ladder.stop = j
            j += 1
        return buckets, (pos.stop, neg.stop)

    def _sweep(self, m: int, weighted: bool) -> np.ndarray:
        """Values at the m-th roots of unity; the pass records the stop indices."""
        buckets, self._stops[weighted] = self._fold(m, weighted)
        return m * np.fft.ifft(buckets, axis=0)

    def _indices(self, weighted: bool) -> tuple[int, int]:
        if self._stops[weighted] is None:
            self._stops[weighted] = self._fold(1, weighted)[1]
        return self._stops[weighted]

    def gamma_indices(self) -> tuple[int, int]:
        """Per-side truncation (n_pos, n_neg) of Gamma."""
        return self._indices(False)

    def deriv_indices(self) -> tuple[int, int]:
        """Per-side truncation of the derivative pencil (weighted stop rule)."""
        return self._indices(True)

    def gamma_for_alphas(self, m: int) -> np.ndarray:
        """Gamma(alpha_k T) at alpha_k = exp(2 pi i k / m), k = 0..m-1, in one pass."""
        values = self._sweep(m, weighted=False)
        self.gamma_indices()  # a lookup now; the index methods report the truncation
        return values

    def derivative_for_alphas(self, m: int) -> np.ndarray:
        """z-derivative of z -> Gamma(alpha_k z) at T, at the same alphas."""
        core = self._sweep(m, weighted=True)
        self.deriv_indices()
        tinv = self._y / ((1.0 - self.eps) * self.ap.r)
        return tinv @ core


def gamma_matrix(t, pt: PencilPoint, ap: AnnulusParams) -> np.ndarray:
    """Gamma(alpha T) for a square matrix T with spectrum in the band."""
    mp = MatrixPencil(pt.alpha * as_matrix(t), pt.eps, ap)
    return mp.gamma_for_alphas(1)[0]


def gamma_derivative_matrix(t, pt: PencilPoint, ap: AnnulusParams) -> np.ndarray:
    """Derivative pencil: sum_k k c_k alpha^k T^(k-1).

    This is the z-derivative of z -> Gamma(alpha z) evaluated at T, the unique
    convention under which Gamma(alpha T_X) has top-right block X times this
    matrix when X commutes with T.  By the chain rule it is alpha Gamma'(alpha T).
    """
    mp = MatrixPencil(pt.alpha * as_matrix(t), pt.eps, ap)
    return pt.alpha * mp.derivative_for_alphas(1)[0]
