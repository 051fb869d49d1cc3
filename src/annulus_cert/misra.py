"""Kernel threshold for scalar Jordan-type 2x2 blocks, plus its pencil cross-check.

For w inside the open annulus, the block [[w, h], [0, w]] stays an annulus
contraction exactly up to |h| equal to the reciprocal of the boundary Hardy
kernel diagonal

    K(w) = sum_n |w|^{2n} / (1 + r^{2n+1}),

the reproducing kernel of the Hardy space over both boundary circles weighted
by arclength (the inner circle contributes r * r^{2n} to ||z^n||^2).  That
normalization is forced: it is the unique one whose reciprocal matches the
extremal derivative bound sup { |f'(w)| : ||f|| <= 1 } realized by the pencil
certificates at the limit rung eps = 0.

Expanding 1 / (1 + r^{2n+1}) geometrically and summing over n gives, with
rho = |w|, the closed form

    K(w) = sum_{k>=0} (-1)^k [ r^k / ((1 - rho r^k)(1 + rho r^k))
                               + r^{k+1} / ((rho - r^{k+1})(rho + r^{k+1})) ],

whose positive terms t_k shrink by at least r per step, so the remainder
after K terms is at most r^K t_0 <= r^K K(w) / (1 - r).  The denominators
stay factored, so no distance to a circle is lost to cancellation.

``threshold_via_pencil`` recomputes the same number from the pencil
certificates, giving the library a two-sided oracle on itself.  Since
Gamma(alpha [[w, h], [0, w]]) = [[g, h g'], [0, g]] with g = Gamma(alpha w)
and g' its z-derivative, the Hermitian part has smallest eigenvalue
Re g - h |g'| / 2, so the flip point is the minimum of 2 Re g / |g'| over the
alphas of ``MISRA_GRID``'s one rung eps = 0 (the certificate flips a hair
above it, as it lets margins dip to -PSD_TOL * scale).  One pencil sweep
reads that number off, and two certificates confirm the bracket around it; a
scan or a certificate that does not confirm it raises DiagnosticError.
"""

from __future__ import annotations

import math

import numpy as np

from .certifier import VERDICT_INCONCLUSIVE, certify_ar
from .errors import DiagnosticError, DomainError, TruncationError
from .numerics import _check_integer
from .pencil import SCALAR_TOL, AnnulusParams, MatrixPencil, PencilGrid, scalar_terms

# Threshold hunting runs on the limit rung eps = 0 alone.  Every eps > 0
# overstates the flip point, by an amount linear in eps, so any finite ladder
# is a slower and biased stand-in for this one rung.  A refutation there is
# sound: an annulus contraction with spectrum inside has Re Gamma_eps(alpha T)
# >= 0 at every eps > 0, and Gamma_eps(alpha T) -> Gamma_0(alpha T) in norm as
# eps -> 0, so Re Gamma_0(alpha T) >= 0 is necessary (``pencil._check_band``).
# A spectrum on a circle makes the rung inconclusive, never refuted.
MISRA_GRID = PencilGrid(eps_values=(0.0,), alpha_count=64)

# Width of the h bracket that ``threshold_via_pencil`` returns the midpoint of.
SEARCH_TOL = 2e-5


def _check_point(w: complex, ap: AnnulusParams) -> float:
    aw = abs(w)
    if not (ap.r < aw < 1.0):
        raise DomainError(f"|w| = {aw:.6g} outside the open annulus ({ap.r}, 1); the series diverges on the boundary")
    return aw


def kernel_diag(w: complex, r: float) -> float:
    """Bilateral kernel diagonal in closed form, relative remainder below SCALAR_TOL."""
    aw = _check_point(w, AnnulusParams(r))
    rk = r ** np.arange(scalar_terms(r, SCALAR_TOL * (1.0 - r)) + 1, dtype=float)
    p, q = rk[:-1], rk[1:]
    terms = p / ((1.0 - aw * p) * (1.0 + aw * p)) + q / ((aw - q) * (aw + q))
    terms[1::2] *= -1.0
    return float(np.sum(terms))


def misra_threshold(w: complex, r: float) -> float:
    """Largest |h| keeping [[w, h], [0, w]] an annulus contraction: 1 / K(w)."""
    return 1.0 / kernel_diag(w, r)


def jordan_block(w: complex, h: complex) -> np.ndarray:
    return np.array([[w, h], [0.0, w]], dtype=complex)


def _pencil_bracket(w: complex, ap: AnnulusParams) -> tuple[float, float]:
    """Bracket of width SEARCH_TOL around min 2 Re Gamma(alpha w) / |Gamma'(alpha w)|.

    Entry [0, 0] of Gamma(alpha J) for J = [[w, 1], [0, w]] is Gamma(alpha w)
    and entry [0, 1] its z-derivative.  Raises DiagnosticError when the scan
    fails, a Re Gamma is negative, or the minimum leaves (0, 2).
    """
    mp = MatrixPencil(jordan_block(w, 1.0), ap)
    m = MISRA_GRID.alpha_count
    try:
        gam = np.concatenate([mp.gamma_for_alphas(eps, m) for eps in MISRA_GRID.eps_values])
    except (TruncationError, DomainError) as exc:
        raise DiagnosticError(f"pencil scan failed: {exc}") from exc
    re_g = gam[:, 0, 0].real
    if np.any(re_g < 0.0):
        raise DiagnosticError(f"Re Gamma(alpha w) reaches {float(re_g.min()):.6g} < 0 on the grid")
    h_star = float(np.min(2.0 * re_g / np.abs(gam[:, 0, 1])))
    if not 0.0 < h_star < 2.0:
        raise DiagnosticError(f"pencil flip point {h_star:.6g} lies outside (0, 2)")
    lo = max(h_star - 0.5 * SEARCH_TOL, 0.0)
    hi = lo + SEARCH_TOL
    while hi - lo > SEARCH_TOL:  # the sum may round up
        hi = math.nextafter(hi, lo)
    return lo, hi


def threshold_via_pencil(w: complex, r: float) -> float:
    """Certificate flip point of [[w, h], [0, w]] over real h >= 0, to within SEARCH_TOL.

    The phase of h is irrelevant (a diagonal unitary similarity moves it onto
    the positive axis).  Certificates use ``MISRA_GRID``.  The result is the
    midpoint of the pencil bracket of width SEARCH_TOL (see the module
    docstring), whose lower end must be certified and whose upper end refuted;
    any other outcome raises DiagnosticError.  The kernel diagonal never drops
    below 1/(1+r) > 1/2, so every flip point lies well inside (0, 2).
    """
    ap = AnnulusParams(r)
    _check_point(w, ap)

    def certified(h: float) -> bool:
        cert = certify_ar(jordan_block(w, h), ap, MISRA_GRID)
        if cert.verdict == VERDICT_INCONCLUSIVE:
            raise DiagnosticError(
                f"certificate inconclusive at h = {h:.6g}: {cert.diagnostics}"
            )
        return cert.certified

    lo, hi = _pencil_bracket(w, ap)
    if not certified(lo):
        raise DiagnosticError(f"lower bracket end h = {lo:.6g} refuted; the pencil flip point is too high")
    if certified(hi):
        raise DiagnosticError(f"upper bracket end h = {hi:.6g} certified; the pencil flip point is too low")
    return 0.5 * (lo + hi)


def sweep_rows(r: float, samples: int, seed: int = 0) -> list[dict]:
    """Threshold comparison rows at random annulus points (PCG64-seeded).

    Radii stay inside [r + 0.07 (1-r), r + 0.9 (1-r)], away from the boundary
    circles, within about 3e-3 of which the scan of J_1 trips the sweep
    rounding guard.  For r of about 0.8 and above every point ends in
    DiagnosticError: Re Gamma(alpha w) near alpha w = -|w| is below rounding.
    """
    _check_integer("samples", samples, 1)
    _check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    rows = []
    lo, hi = r + 0.07 * (1.0 - r), r + 0.9 * (1.0 - r)
    for _ in range(samples):
        aw = lo + (hi - lo) * rng.random()
        w = aw * np.exp(2j * np.pi * rng.random())
        tk = misra_threshold(w, r)
        tp = threshold_via_pencil(w, r)
        rows.append({
            "w_re": float(w.real),
            "w_im": float(w.imag),
            "r": r,
            "threshold_kernel": tk,
            "threshold_pencil": tp,
            "rel_gap": abs(tp - tk) / tk,
        })
    return rows
