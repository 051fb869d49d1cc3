"""Upper-triangular 2x2 block operators and their rational functional calculus.

Three block kinds are supported:

    tx      [[T, X], [0, T]]            with TX = XT
    hat     [[T1, X(T1-T2)], [0, T2]]   with X commuting with T1 and T2
    general [[T1, Y], [0, T2]]          no commutation assumed

The contract of a kind (one shared dimension, and the commutation it needs)
is enforced when its ``BlockSpec`` is built, so every spec in hand is valid.
For the commuting kinds f(block) = [[f(T1), X F], [0, f(T2)]], where F is
the corner of f(E) for the *unit block* E = [[T1, C], [0, T2]], C = I (tx,
F = f'(T)) or C = T1 - T2 (hat, F = f(T1) - f(T2); no commutation of T1 with
T2 is needed, as [[I, -I], [0, I]] conjugates E to T1 (+) T2).  ``fcalc`` and
the theorem checks of ``certifier`` both read F off ``unit_block``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DomainError
from .numerics import EQ_TOL, MAX_DIM, _upper_block, as_matrix, eigenvalues, operator_norm
from .pencil import AnnulusParams, eigenvalues_in_annulus
from .rational import RationalFunction, eval_matrix, poles_off_annulus

KINDS = ("tx", "hat", "general")


def check_commutes(a: np.ndarray, b: np.ndarray, what: str = "X") -> None:
    bound = EQ_TOL * (1.0 + operator_norm(a) * operator_norm(b))
    defect = operator_norm(a @ b - b @ a)
    if defect > bound:
        raise ContractViolationError(
            f"{what} does not commute within tolerance (defect {defect:.3e} > {bound:.3e})"
        )


@dataclass(frozen=True, eq=False)
class BlockSpec:
    """Ingredients of one block operator; ``x`` is Y itself for kind 'general'.

    ``t2`` defaults to ``t1`` for kind 'tx', and the other kinds need it.
    Building a spec enforces the contract of its kind and the cap MAX_DIM.
    """

    kind: str
    t1: np.ndarray
    x: np.ndarray
    t2: np.ndarray

    def __init__(self, kind: str, t1, x, t2=None):
        if kind not in KINDS:
            raise DomainError(f"kind must be one of {KINDS}, got {kind!r}")
        if t2 is None and kind != "tx":
            raise DomainError(f"kind {kind!r} needs a second diagonal block T2")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "t1", as_matrix(t1))
        object.__setattr__(self, "x", as_matrix(x))
        t2m = self.t1 if t2 is None else as_matrix(t2)
        object.__setattr__(self, "t2", t2m)
        n = self.t1.shape[0]
        if self.x.shape[0] != n or self.t2.shape[0] != n:
            raise ContractViolationError("all blocks must share one dimension")
        if n > MAX_DIM:
            raise ContractViolationError(f"dimension {n} exceeds cap {MAX_DIM}")
        if kind == "tx":
            if not np.array_equal(self.t2, self.t1):
                raise ContractViolationError("kind 'tx' has one diagonal block: T2 must equal T1")
            check_commutes(self.t1, self.x)
        elif kind == "hat":
            check_commutes(self.t1, self.x, what="X (against T1)")
            check_commutes(self.t2, self.x, what="X (against T2)")


def assemble(spec: BlockSpec) -> np.ndarray:
    """The 2n x 2n operator of the spec."""
    top_right = spec.x @ (spec.t1 - spec.t2) if spec.kind == "hat" else spec.x
    return _upper_block(spec.t1, top_right, spec.t2)


def unit_block(spec: BlockSpec) -> np.ndarray:
    """E = [[T1, I], [0, T1]] (tx) or [[T1, T1 - T2], [0, T2]] (hat); 'general' has none."""
    if spec.kind == "general":
        raise DomainError("kind 'general' has no functional-calculus reduction")
    n = spec.t1.shape[0]
    corner = np.eye(n, dtype=complex) if spec.kind == "tx" else spec.t1 - spec.t2
    return _upper_block(spec.t1, corner, spec.t2)


def fcalc(spec: BlockSpec, f: RationalFunction, ap: AnnulusParams) -> np.ndarray:
    """f of the block as [[F11, X F12], [0, F22]] with F = f(unit_block(spec)).

    That is [[f(T), X f'(T)], [0, f(T)]] for tx and
    [[f(T1), X (f(T1) - f(T2))], [0, f(T2)]] for hat.
    """
    e = unit_block(spec)
    if not poles_off_annulus(f, ap):
        raise DomainError("f has poles on the closed annulus")
    if not (eigenvalues_in_annulus(eigenvalues(spec.t1), ap)
            and eigenvalues_in_annulus(eigenvalues(spec.t2), ap)):
        raise DomainError(f"spectrum leaves the closed annulus [{ap.r}, 1]")
    n = spec.t1.shape[0]
    fe = eval_matrix(f, e)
    return _upper_block(fe[:n, :n], spec.x @ fe[:n, n:], fe[n:, n:])
