"""Dense complex-matrix kernels shared by every other module.

All operations are pure functions of immutable inputs.  Matrices are square
``numpy.ndarray`` blocks of ``complex128``; ``as_matrix`` is the single entry
point that normalizes and validates operands.  Eigen/SVD work is delegated to
``numpy.linalg``; the contracts here fix tolerances and failure modes.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ContractViolationError,
    DomainError,
    NumericalFailureError,
    SingularityError,
)

# Desk-scale guard for matrices entering through files or generators.
# Assembled 2x2 block operators may reach twice this.
MAX_DIM = 64


# Relative slacks used across the library.  An eigenvalue may dip to
# -PSD_TOL (relative) before a matrix stops counting as positive; EQ_TOL
# bounds residuals of identities; RANK_TOL is the relative singular-value
# (or eigenvalue) cutoff for inversion and pseudo-inversion.
PSD_TOL = 1e-8
EQ_TOL = 1e-8
RANK_TOL = 1e-10


def as_matrix(a, cap: int | None = None) -> np.ndarray:
    """Validate and return a square finite complex matrix (copy not forced)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ContractViolationError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ContractViolationError("matrix has non-finite entries")
    if cap is not None and m.shape[0] > cap:
        raise ContractViolationError(f"dimension {m.shape[0]} exceeds cap {cap}")
    return m


def identity_like(a: np.ndarray) -> np.ndarray:
    return np.eye(a.shape[0], dtype=complex)


def operator_norm(a) -> float:
    """Largest singular value."""
    m = as_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues with algebraic multiplicity, in solver order."""
    m = as_matrix(a)
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - QR stall is rare
        raise NumericalFailureError(f"eigenvalue iteration failed: {exc}") from exc


def hermitian_check(h) -> np.ndarray:
    m = as_matrix(h)
    defect = operator_norm(m - m.conj().T)
    if defect > EQ_TOL * (1.0 + operator_norm(m)):
        raise ContractViolationError(f"matrix is not Hermitian within tolerance (defect {defect:.3e})")
    return 0.5 * (m + m.conj().T)


def hermitian_min_eig(h) -> float:
    """Smallest eigenvalue of the Hermitian part (H + H*)/2."""
    m = hermitian_check(h)
    try:
        return float(np.linalg.eigvalsh(m)[0])
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailureError(f"Hermitian eigensolve failed: {exc}") from exc


def sqrt_psd(h) -> np.ndarray:
    """Positive square root of a PSD matrix; slightly negative eigenvalues are clamped."""
    m = hermitian_check(h)
    lam, v = np.linalg.eigh(m)
    floor = -PSD_TOL * (1.0 + float(np.max(np.abs(lam)) if lam.size else 0.0))
    if lam[0] < floor:
        raise DomainError(f"matrix is indefinite beyond PSD slack (min eig {lam[0]:.3e})")
    lam = np.clip(lam, 0.0, None)
    root = (v * np.sqrt(lam)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def inverse(a) -> np.ndarray:
    """Inverse with an explicit relative singular-value guard."""
    m = as_matrix(a)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0] or sv[0] == 0.0:
        raise SingularityError(f"matrix numerically singular (sigma_min/sigma_max = {sv[-1]:.3e}/{sv[0]:.3e})")
    return np.linalg.solve(m, identity_like(m))


def psd_pinv(s):
    """(B -> S^+ B, range projector) for an exactly Hermitian PSD S, from one eigh.

    The rank rule is written here only: eigenvalues at or below RANK_TOL times
    the largest modulus count as zero.
    """
    lam, v = np.linalg.eigh(s)
    keep = lam > RANK_TOL * max(float(np.max(np.abs(lam))), 1e-300)
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / lam[keep]
    vr = v[:, keep]
    return (lambda b: (v * inv) @ (v.conj().T @ b)), vr @ vr.conj().T
