"""A fixed reference computation, timed next to every benchmarked call.

The cores this benchmark shares drift in speed by tens of percent within a
minute, and a whole run can land in a slow stretch.  The library's calls do
two kinds of work: interpreter-bound Python complex arithmetic and numpy calls
on small arrays, and contractions that stream a stack of matrix powers larger
than the L2 cache (the pencil's alpha sweep).  So the reference does both with
fixed inputs: a pure Python complex-arithmetic loop, a loop of 4x4 products,
scalings and singular values, and a phased sum over a 6 MB stack of 64x64
powers, in the way ``MatrixPencil`` sums its ladder (the stack is built once,
so no call pays for page faults).  The benchmark times it right before and
right after each call and divides the call's time by the mean of the two; a
slow stretch of the host slows both, and the ratio keeps little of it.  The reference uses no
annulus_cert code, so a change to the library moves the ratio, never the
reference.
"""

from __future__ import annotations

import time

import numpy as np

PY_STEPS = 25_000
NP_STEPS = 200
STACK_TERMS = 96
STACK_ALPHAS = 8

_B = np.array([[0.6 + 0.1j, -0.2 + 0.3j, 0.1 - 0.4j, 0.5 + 0.0j],
               [0.3 - 0.2j, 0.4 + 0.4j, -0.1 + 0.2j, 0.2 - 0.3j],
               [-0.5 + 0.1j, 0.2 + 0.1j, 0.7 - 0.1j, -0.3 + 0.2j],
               [0.1 + 0.3j, -0.4 - 0.2j, 0.2 + 0.5j, 0.6 + 0.1j]])


def _ladder(n: int = 64) -> np.ndarray:
    k = np.arange(n)
    a = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)  # unitary DFT matrix
    a = 0.9 * a + 0.1 * np.eye(n)
    powers = [a]
    for _ in range(STACK_TERMS - 1):
        powers.append(powers[-1] @ a)
    return np.stack(powers)


_LADDER = _ladder()
_PHASES = (np.exp(2j * np.pi * np.arange(STACK_ALPHAS) / STACK_ALPHAS)[:, None]
           ** np.arange(STACK_TERMS)[None, :])


def work() -> float:
    """The reference computation; returns a value that depends on all of it."""
    s, z = 0j, 0.3 + 0.4j
    for i in range(PY_STEPS):
        s += (z * i + 1.0) / (z - 2.0)
    x = _B
    for _ in range(NP_STEPS):
        x = x @ _B
        x = x / np.abs(x).max()
        sv = np.linalg.svd(x, compute_uv=False)
    swept = np.einsum("ak,kij->aij", _PHASES, _LADDER)
    return abs(s) + float(sv[0]) + float(np.abs(swept[0, 0, 0]))


def timed() -> float:
    """Seconds one run of the reference takes now."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
