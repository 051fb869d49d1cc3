"""Positive 2x2 block completions and contraction factorizations.

The central primitive extracts the middle factor K from R = S1 K S2 with
S1, S2 positive semidefinite, using rank-truncated pseudo-inverses and
reporting how much of R lives outside the attainable ranges.  The block
[[P, R], [R*, Q]] is positive exactly when that K is a contraction and R is
range-compatible, which the library exploits as a two-sided consistency check.

``factor_through``, ``defects``, ``halmos_unitary`` and ``compress_through``
take stacks (..., n, n) and apply every check to each matrix; a 2-D argument
is the stack of one.  A stacked ``FactorResult`` holds arrays over the stack;
its ``passing()`` is the pass mask and ``passes()`` is true when every matrix
passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockSpec, assemble
from .errors import ContractViolationError, DomainError
from .io import matrix_to_dict
from .numerics import (
    EQ_TOL,
    PSD_TOL,
    _adjoint,
    _as_stack,
    _first,
    _norm2,
    as_matrix,
    hermitian_min_eig,
    operator_norm,
    psd_pinv,
    re_part,
    sqrt_psd,
)


@dataclass(frozen=True, eq=False)
class FactorResult:
    """Middle factor of R = S1 K S2 with its quality metrics.

    The metrics are floats for one matrix and arrays over a stack.
    ``passing()`` is the one pass rule, a mask over the stack.
    """

    k: np.ndarray
    k_norm: float | np.ndarray
    residual: float | np.ndarray
    range_defect: float | np.ndarray

    def passing(self) -> bool | np.ndarray:
        """Per matrix: K a contraction within PSD_TOL, residual and range
        defect within EQ_TOL."""
        return ((self.k_norm <= 1.0 + PSD_TOL)
                & (self.residual <= EQ_TOL)
                & (self.range_defect <= EQ_TOL))

    def passes(self) -> bool:
        """True when every matrix of the stack passes."""
        return bool(np.all(self.passing()))

    def to_dict(self) -> dict:
        """For a stack (s, n, n), ``k`` and the metrics are lists over the stack."""
        return {
            "k": matrix_to_dict(self.k) if self.k.ndim == 2 else [matrix_to_dict(m) for m in self.k],
            "k_norm": np.asarray(self.k_norm).tolist(),
            "residual": np.asarray(self.residual).tolist(),
            "range_defect": np.asarray(self.range_defect).tolist(),
            "verdict": self.passes(),
        }


def _metric(x: np.ndarray) -> float | np.ndarray:
    """A float for one matrix, the array for a stack."""
    return float(x) if x.ndim == 0 else x


def factor_through(s1, s2, r) -> FactorResult:
    """K = S1^+ R S2^+ restricted to the ranges, for PSD square roots S1, S2.

    S1 and S2 must be exactly Hermitian, as ``sqrt_psd`` returns them; one
    eigendecomposition of each gives its pseudo-inverse and range projector.
    All three may be stacks (..., n, n), factored matrix by matrix.
    """
    s1m = _as_stack(s1)
    s2m = _as_stack(s2)
    rm = _as_stack(r)
    pinv1, p1 = psd_pinv(s1m)
    pinv2, p2 = psd_pinv(s2m)
    # S1^+ (S2^+ R*)*, in this association order
    k = pinv1(_adjoint(pinv2(_adjoint(rm))))
    scale = 1.0 + _norm2(rm)
    residual = _norm2(s1m @ k @ s2m - rm) / scale
    eye = np.eye(rm.shape[-1], dtype=complex)
    range_defect = (_norm2((eye - p1) @ rm) + _norm2(rm @ (eye - p2))) / scale
    return FactorResult(k=k, k_norm=_metric(_norm2(k)), residual=_metric(residual),
                        range_defect=_metric(range_defect))


def _pqr(p, q, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pm, qm, rm = as_matrix(p), as_matrix(q), as_matrix(r)
    if not pm.shape == qm.shape == rm.shape:
        raise ContractViolationError(
            f"P, Q and R must share one dimension, got {pm.shape[0]}, {qm.shape[0]}, {rm.shape[0]}"
        )
    return pm, qm, rm


def douglas_factor(p, q, r) -> FactorResult:
    """Extract K with R = P^{1/2} K Q^{1/2} for PSD P, Q.

    The block [[P, R], [R*, Q]] is positive iff the result passes: contraction
    norm within psd slack and residual and range defect within equality slack.
    """
    pm, qm, rm = _pqr(p, q, r)
    try:
        sp, sq = sqrt_psd(np.stack([pm, qm]))
    except DomainError as exc:
        raise DomainError(f"P and Q must be PSD within slack: {exc}") from exc
    return factor_through(sp, sq, rm)


def block_psd_check(p, q, r) -> tuple[bool, float]:
    """Verdict and margin: smallest eigenvalue of [[P, R], [R*, Q]]."""
    pm, qm, rm = _pqr(p, q, r)
    block = np.block([[pm, rm], [rm.conj().T, qm]])
    margin = hermitian_min_eig(block)
    scale = 1.0 + operator_norm(block)
    return margin >= -PSD_TOL * scale, margin


def defects(k) -> tuple[np.ndarray, np.ndarray]:
    """(D, Dstar) = ((I - K*K)^{1/2}, (I - KK*)^{1/2}) for each K of a stack with
    ||K|| <= 1 + PSD_TOL, the norm rule of ``FactorResult.passing``: from one SVD
    K = U S V*, D = V C V* and Dstar = U C U* with C = (1 - S^2)^{1/2}, 1 - S^2
    clamped at 0."""
    km = _as_stack(k)
    nrm = _norm2(km)
    i = _first(nrm > 1.0 + PSD_TOL)
    if i is not None:
        raise DomainError(f"not a contraction within slack (norm {nrm[i]:.6g})")
    u, s, vh = np.linalg.svd(km)
    c = np.sqrt(np.clip(1.0 - s * s, 0.0, None))[..., None, :]
    return re_part((_adjoint(vh) * c) @ vh), re_part((u * c) @ _adjoint(u))


def halmos_unitary(k) -> np.ndarray:
    """The unitary [[K, Dstar], [D, -K*]] on the doubled space, per matrix of a stack."""
    km = _as_stack(k)
    d, dstar = defects(km)
    return np.block([[km, dstar], [d, -_adjoint(km)]])


def compress_through(u: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """[S1 0] U [S2; 0], the top-left compression of U between the factors."""
    n = s1.shape[-1]
    return s1 @ u[..., :n, :n] @ s2


@dataclass(frozen=True, eq=False)
class DiskBlockResult:
    """Outcome of the disk-case block test for [[T1, X], [0, T2]]: ``factor`` factors
    X = D_{T1*} C D_{T2}, None when ``defects`` rejects T1 or T2."""

    factor: FactorResult | None
    t1_norm: float
    t2_norm: float
    direct_norm: float
    direct_verdict: bool

    @property
    def verdict(self) -> bool:
        return self.factor is not None and self.factor.passes()


def disk_block_check(t1, t2, x) -> DiskBlockResult:
    """Factor X = D_{T1*} C D_{T2}; contraction verdict for the block with that structure.

    Also reports the directly computed norm of [[T1, X], [0, T2]] so callers can
    confirm the equivalence between the factorization verdict and the norm test.
    """
    spec = BlockSpec("general", t1, x, t2)
    direct = operator_norm(assemble(spec))
    try:
        d, dstar = defects(np.stack([spec.t1, spec.t2]))
    except DomainError:
        fr = None
    else:
        fr = factor_through(dstar[0], d[1], spec.x)
    return DiskBlockResult(fr, operator_norm(spec.t1), operator_norm(spec.t2), direct,
                           direct <= 1.0 + PSD_TOL)
