"""Upper-triangular 2x2 block operators and their rational functional calculus.

Three block kinds are supported:

    tx      [[T, X], [0, T]]            with TX = XT
    hat     [[T1, X(T1-T2)], [0, T2]]   with X commuting with T1 and T2
    general [[T1, Y], [0, T2]]          no commutation assumed

For the commuting kinds, f(block) reduces to n x n arithmetic in f(T), f'(T)
or f(T1) - f(T2); those reductions are exact identities and the heart of the
block certification pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DomainError
from .numerics import EQ_TOL, MAX_DIM, PSD_TOL, as_matrix, eigenvalues, operator_norm
from .pencil import AnnulusParams
from .rational import RationalFunction, derivative, eval_matrix, poles_off_annulus

KINDS = ("tx", "hat", "general")


def commutation_defect(a: np.ndarray, b: np.ndarray) -> float:
    return operator_norm(a @ b - b @ a)


def check_commutes(a, b, what: str = "X") -> None:
    am = as_matrix(a)
    bm = as_matrix(b)
    bound = EQ_TOL * (1.0 + operator_norm(am) * operator_norm(bm))
    defect = commutation_defect(am, bm)
    if defect > bound:
        raise ContractViolationError(
            f"{what} does not commute within tolerance (defect {defect:.3e} > {bound:.3e})"
        )


@dataclass(frozen=True, eq=False)
class BlockSpec:
    """Ingredients of one block operator; ``x`` is Y itself for kind 'general'."""

    kind: str
    t1: np.ndarray
    x: np.ndarray
    t2: np.ndarray | None = None

    def __init__(self, kind: str, t1, x, t2=None):
        if kind not in KINDS:
            raise DomainError(f"kind must be one of {KINDS}, got {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "t1", as_matrix(t1, cap=MAX_DIM))
        object.__setattr__(self, "x", as_matrix(x, cap=MAX_DIM))
        t2m = self.t1 if t2 is None else as_matrix(t2, cap=MAX_DIM)
        object.__setattr__(self, "t2", t2m)
        n = self.t1.shape[0]
        if self.x.shape[0] != n or self.t2.shape[0] != n:
            raise ContractViolationError("all blocks must share one dimension")


def assemble(spec: BlockSpec) -> np.ndarray:
    """Build the 2n x 2n operator, enforcing the commutation contract of the kind."""
    n = spec.t1.shape[0]
    if spec.kind == "tx":
        check_commutes(spec.t1, spec.x)
        top_right = spec.x
    elif spec.kind == "hat":
        check_commutes(spec.t1, spec.x, what="X (against T1)")
        check_commutes(spec.t2, spec.x, what="X (against T2)")
        top_right = spec.x @ (spec.t1 - spec.t2)
    else:
        top_right = spec.x
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = spec.t1
    out[:n, n:] = top_right
    out[n:, n:] = spec.t2
    return out


def _check_annulus_spectrum(t: np.ndarray, ap: AnnulusParams) -> None:
    mods = np.abs(eigenvalues(t))
    if mods.min() < ap.r - PSD_TOL or mods.max() > 1.0 + PSD_TOL:
        raise DomainError(
            f"spectrum moduli [{mods.min():.6g}, {mods.max():.6g}] leave the closed annulus "
            f"[{ap.r}, 1]"
        )


def fcalc_tx(t, x, f: RationalFunction, ap: AnnulusParams) -> np.ndarray:
    """f of the tx block through the reduction [[f(T), X f'(T)], [0, f(T)]]."""
    tm = as_matrix(t)
    xm = as_matrix(x)
    check_commutes(tm, xm)
    if not poles_off_annulus(f, ap):
        raise DomainError("f has poles on the closed annulus")
    _check_annulus_spectrum(tm, ap)
    ft = eval_matrix(f, tm)
    fpt = eval_matrix(derivative(f), tm)
    n = tm.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = ft
    out[:n, n:] = xm @ fpt
    out[n:, n:] = ft
    return out


def fcalc_hat(t1, t2, x, f: RationalFunction, ap: AnnulusParams) -> np.ndarray:
    """f of the hat block through [[f(T1), X (f(T1) - f(T2))], [0, f(T2)]]."""
    t1m = as_matrix(t1)
    t2m = as_matrix(t2)
    xm = as_matrix(x)
    check_commutes(t1m, xm, what="X (against T1)")
    check_commutes(t2m, xm, what="X (against T2)")
    if not poles_off_annulus(f, ap):
        raise DomainError("f has poles on the closed annulus")
    _check_annulus_spectrum(t1m, ap)
    _check_annulus_spectrum(t2m, ap)
    f1 = eval_matrix(f, t1m)
    f2 = eval_matrix(f, t2m)
    n = t1m.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = f1
    out[:n, n:] = xm @ (f1 - f2)
    out[n:, n:] = f2
    return out

