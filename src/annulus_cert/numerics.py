"""Dense complex-matrix kernels shared by every other module.

All operations are pure functions of immutable inputs.  Matrices are square
``numpy.ndarray`` blocks of ``complex128``; ``as_matrix`` is the single entry
point that normalizes and validates operands.  Eigen/SVD work is delegated to
``numpy.linalg``; the contracts here fix tolerances and failure modes, and a
LAPACK failure leaves as numpy's ``LinAlgError``.

``hermitian_check``, ``sqrt_psd``, ``inverse`` and ``psd_pinv`` take a stack
(..., n, n) of matrices and apply every check to each matrix; a 2-D argument
is the stack of one.  Stacked eigh, SVD and solve run LAPACK on each matrix
in turn, so a stack gives bit for bit what its matrices give one at a time.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ContractViolationError, DomainError, SingularityError

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


def _check_integer(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as a Python int (numpy's fixed-width integers can wrap), or
    DomainError unless it is an integer in [lo, hi], or at least lo when ``hi``
    is None; a numpy integer is an integer, a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if hi is None:
        if value < lo:
            raise DomainError(f"{name} must be at least {lo}, got {value}")
    elif not lo <= value <= hi:
        raise DomainError(f"{name} must lie in [{lo}, {hi}], got {value}")
    return int(value)


def _as_stack(a, stack: bool = True) -> np.ndarray:
    """Validate a stack (..., n, n) of nonempty square finite complex matrices,
    or with ``stack`` false a single one (copy not forced)."""
    m = np.asarray(a, dtype=complex)
    if (m.ndim < 2 if stack else m.ndim != 2) or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ContractViolationError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ContractViolationError("matrix has non-finite entries")
    return m


def as_matrix(a) -> np.ndarray:
    """Validate and return a square finite complex matrix (copy not forced)."""
    return _as_stack(a, stack=False)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix of a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def _norm2(a) -> np.ndarray:
    """Largest singular value of every matrix of a stack (0-d for one matrix),
    after the checks of ``as_matrix``."""
    return np.linalg.svd(_as_stack(a), compute_uv=False)[..., 0]


def _upper_block(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """[[a, b], [0, c]] on the doubled space."""
    return np.block([[a, b], [np.zeros_like(a), c]])


def re_part(a) -> np.ndarray:
    """Hermitian part (A + A*)/2 of a matrix, or of each matrix of a stack."""
    m = _as_stack(a)
    # A* as a fresh C-ordered array, so numpy sums into it instead of a third array
    return 0.5 * (m + np.conjugate(np.swapaxes(m, -1, -2), order="C"))


def _first(bad: np.ndarray) -> tuple | None:
    """Index of the first true entry of ``bad`` in C order, or None."""
    hits = np.flatnonzero(bad)
    return np.unravel_index(int(hits[0]), bad.shape) if hits.size else None


def operator_norm(a) -> float:
    """Largest singular value."""
    return float(_norm2(as_matrix(a)))


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues with algebraic multiplicity, in solver order."""
    return np.linalg.eigvals(as_matrix(a))


def hermitian_check(h) -> np.ndarray:
    """(H + H*)/2 for each matrix of a stack, after bounding its Hermitian
    defect; a stack equal to its adjoint has defect 0 and skips the bound."""
    m = _as_stack(h)
    mh = _adjoint(m)
    if not np.array_equal(m, mh):
        defect = _norm2(m - mh)
        i = _first(defect > EQ_TOL * (1.0 + _norm2(m)))
        if i is not None:
            raise ContractViolationError(
                f"matrix is not Hermitian within tolerance (defect {defect[i]:.3e})")
    return re_part(m)


def hermitian_min_eig(h) -> float:
    """Smallest eigenvalue of the Hermitian part (H + H*)/2."""
    return float(np.linalg.eigvalsh(hermitian_check(as_matrix(h)))[0])


def sqrt_psd(h) -> np.ndarray:
    """Positive square root of each PSD matrix of a stack; slightly negative
    eigenvalues are clamped.

    The first matrix (in C order) that fails raises what that matrix alone
    raises: ContractViolationError if it is not Hermitian, else DomainError
    below the PSD floor, with its stack index as ``index``.
    """
    m = _as_stack(h)
    lam, v = np.linalg.eigh(re_part(m))
    floor = -PSD_TOL * (1.0 + np.max(np.abs(lam), axis=-1))
    i = _first(lam[..., 0] < floor)
    # the Hermitian bound on every matrix up to the first indefinite one
    stop = None if i is None else np.ravel_multi_index(i, floor.shape) + 1
    hermitian_check(m.reshape(-1, *m.shape[-2:])[:stop])
    if i is not None:
        exc = DomainError(f"matrix is indefinite beyond PSD slack (min eig {lam[i][0]:.3e})")
        exc.index = i
        raise exc
    lam = np.clip(lam, 0.0, None)
    return re_part((v * np.sqrt(lam)[..., None, :]) @ _adjoint(v))


def inverse(a) -> np.ndarray:
    """Inverse of each matrix of a stack, with an explicit relative
    singular-value guard.

    A non-finite matrix anywhere in the stack raises ContractViolationError,
    as in ``as_matrix``.  Otherwise the first matrix (in C order) whose
    sigma_min / sigma_max is at most RANK_TOL raises the SingularityError
    that matrix alone raises.
    """
    m = _as_stack(a)
    sv = np.linalg.svd(m, compute_uv=False)
    # sigma_max = 0 makes sigma_min = 0 too, so the one ratio test covers it
    bad = sv[..., -1] <= RANK_TOL * sv[..., 0]
    if bad.any():
        i = _first(bad)
        raise SingularityError(f"matrix numerically singular "
                               f"(sigma_min/sigma_max = {sv[i][-1]:.3e}/{sv[i][0]:.3e})")
    # the identity with one leading axis per stack axis, so solve broadcasts it
    eye = np.eye(m.shape[-1], dtype=complex)
    return np.linalg.solve(m, eye.reshape((1,) * (m.ndim - 2) + eye.shape))


def psd_pinv(s):
    """(B -> S^+ B, range projector) for each exactly Hermitian PSD S of a
    stack, from one stacked eigh; ranks may differ across the stack.

    The rank rule is written here only: eigenvalues at or below RANK_TOL times
    the largest modulus count as zero.  The kept eigenvalues are the top
    ``rank`` of the ascending ones, so the projector is V_r V_r* with V_r the
    last ``rank`` eigenvectors, formed once per distinct rank of the stack.
    """
    lam, v = np.linalg.eigh(s)
    keep = lam > RANK_TOL * np.maximum(np.max(np.abs(lam), axis=-1, keepdims=True), 1e-300)
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / lam[keep]
    rank = np.count_nonzero(keep, axis=-1)
    proj = np.zeros_like(v)
    for k in set(rank.flat):  # np.unique would import numpy.ma, a megabyte of heap
        vr = v[rank == k][..., v.shape[-1] - k:]
        proj[rank == k] = vr @ _adjoint(vr)
    return (lambda b: (v * inv[..., None, :]) @ (_adjoint(v) @ b)), proj
