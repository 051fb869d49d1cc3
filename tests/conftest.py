"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from annulus_cert import certifier, pencil
from annulus_cert.generators import haar_unitary
from annulus_cert.pencil import AnnulusParams

_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


def eig_match_max(a, b) -> float:
    """Greedy multiset matching distance between two eigenvalue collections."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    assert len(a) == len(b), "multisets must have equal size"
    worst = 0.0
    for za in a:
        j = min(range(len(b)), key=lambda i: abs(b[i] - za))
        worst = max(worst, abs(b[j] - za))
        b.pop(j)
    return worst


def interior_commuting_triple(n: int, ap: AnnulusParams, seed: int,
                              lo_frac: float = 0.15, hi_frac: float = 0.85,
                              x_scale: float = 1.0):
    """Commuting (T1, T2, X) with eigenvalue moduli kept away from both circles.

    Near either boundary circle the admissible off-diagonal mass of a block
    collapses toward zero, which makes flip-point hunting ill-conditioned;
    interior spectra keep the flip at a workable scale.
    """
    rng = np.random.default_rng(seed)
    u = haar_unitary(n, rng)
    span = 1.0 - ap.r

    def diag():
        mods = ap.r + span * (lo_frac + (hi_frac - lo_frac) * rng.random(n))
        return mods * np.exp(2j * np.pi * rng.random(n))

    dx = x_scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    conj = lambda d: (u * d) @ u.conj().T
    return conj(diag()), conj(diag()), conj(dx)


def random_poles_off_rational(rng, ap: AnnulusParams, num_deg: int = 3, den_deg: int = 2):
    """Random rational with poles strictly off the closed annulus."""
    from annulus_cert.rational import RationalFunction, polymul

    p = rng.standard_normal(num_deg + 1) + 1j * rng.standard_normal(num_deg + 1)
    q = np.array([1.0 + 0j])
    for _ in range(den_deg):
        if rng.random() < 0.5:
            root = (0.5 * ap.r * rng.random()) * np.exp(2j * np.pi * rng.random())
        else:
            root = (1.3 + 2.0 * rng.random()) * np.exp(2j * np.pi * rng.random())
        q = polymul(q, np.array([-root, 1.0 + 0j]))
    return RationalFunction(p, q)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def pencil_calls(monkeypatch):
    """Log of the pencil work done while the test runs: ("build", shape) per
    ``MatrixPencil`` built, ("sweep", shape, eps) per ``gamma_for_alphas`` call,
    and "eigenvalues" or "inverse" per call from ``pencil`` or ``certifier``."""
    log = []
    init, sweep = pencil.MatrixPencil.__init__, pencil.MatrixPencil.gamma_for_alphas

    def counting_init(self, t, ap):
        log.append(("build", np.shape(t)))
        init(self, t, ap)

    def counting_sweep(self, eps, m):
        log.append(("sweep", self.t.shape, eps))
        return sweep(self, eps, m)

    monkeypatch.setattr(pencil.MatrixPencil, "__init__", counting_init)
    monkeypatch.setattr(pencil.MatrixPencil, "gamma_for_alphas", counting_sweep)
    for module, name in ((pencil, "eigenvalues"), (certifier, "eigenvalues"), (pencil, "inverse")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda a, _fn=fn, _name=name: log.append(_name) or _fn(a))
    return log
