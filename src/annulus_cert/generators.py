"""Deterministic random instance factories.

All randomness flows through ``numpy.random.Generator`` seeded with PCG64, so
a (function, seed) pair reproduces bit-identical matrices on any platform
running the same numpy build.  Ginibre samples (iid standard complex normals)
are the raw material throughout.
"""

from __future__ import annotations

import numpy as np

from .numerics import MAX_DIM, _check_integer, operator_norm, re_part
from .pencil import AnnulusParams


def _rng(n: int, seed: int) -> np.random.Generator:
    """The PCG64 generator of ``seed``, once n and the seed are checked."""
    _check_integer("dimension", n, 1, MAX_DIM)
    _check_integer("seed", seed, 0)
    return np.random.default_rng(seed)


def ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    n = _check_integer("dimension", n, 1, MAX_DIM)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """QR of a Ginibre sample with the phase convention fixed for determinism."""
    q, r = np.linalg.qr(ginibre(n, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _annulus_diag(n: int, ap: AnnulusParams, rng: np.random.Generator) -> np.ndarray:
    moduli = ap.r + (1.0 - ap.r) * rng.random(n)
    phases = np.exp(2j * np.pi * rng.random(n))
    return moduli * phases


def random_normal_annulus(n: int, ap: AnnulusParams, seed: int = 0) -> np.ndarray:
    """Normal matrix with eigenvalue moduli uniform in [r, 1], angles uniform.

    Such matrices are guaranteed annulus contractions by spectral mapping,
    which makes them the positive-control population for the certifier.
    """
    rng = _rng(n, seed)
    lam = _annulus_diag(n, ap, rng)
    u = haar_unitary(n, rng)
    return (u * lam) @ u.conj().T


def random_contraction(n: int, seed: int = 0) -> np.ndarray:
    """Ginibre sample scaled to operator norm strictly below one."""
    g = ginibre(n, _rng(n, seed))
    return g / (operator_norm(g) + 1e-3)


def random_psd(n: int, seed: int = 0) -> np.ndarray:
    """Gram matrix of a Ginibre sample, normalized to unit operator norm."""
    g = ginibre(n, _rng(n, seed))
    h = re_part(g.conj().T @ g)
    return h / operator_norm(h)

