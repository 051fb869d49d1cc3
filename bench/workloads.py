"""Workloads of the annulus-cert benchmark.

A workload is a fixed batch of public library calls on seeded instances.  The
benchmark runs batches back to back from one process; every call starts after
the previous one returns.  Each call carries a check that runs outside the
timed region and decides whether its output is correct, against references
computed independently of the call: the kernel threshold ``misra_threshold``,
the verdict class fixed by construction, the ``agree`` flag of the theorem
checks, and a direct re-evaluation of every von Neumann witness.

Instance costs depend strongly on how close the spectrum comes to the
boundary circles (that sets the truncation depth of the pencil series), so
the generators below fix those distances and draw everything else from the
seed.  Without that, the cost of a batch varies by a factor of two from one
seed to the next.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from annulus_cert import certifier, misra
from annulus_cert.generators import haar_unitary, random_normal_annulus
from annulus_cert.pencil import AnnulusParams

CERTIFIED = "certified"
REFUTED = "refuted"

# Largest admissible gap between the pencil and kernel thresholds (criterion 1).
THRESHOLD_GAP_MAX = 0.01
# Largest ratio ||f(T)|| / sup |f| tolerated on a normal matrix (criterion 7).
VN_NORMAL_RATIO_MAX = 1.0 + 1e-6
# Relative agreement required between a reported witness ratio and its re-evaluation.
VN_WITNESS_RTOL = 1e-6


@dataclass
class Outcome:
    """Result of checking one call; ``ok`` false counts the call as failed."""

    ok: bool
    detail: str = ""
    rel_gap: float | None = None
    witness: bool | None = None


@dataclass
class Op:
    """One public library call and the check of its output."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome] = field(repr=False)


def _rng(seed: int, workload: str, batch: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), batch])


# --- certify_large ----------------------------------------------------------

CHAIN_H_BELOW = (0.06, 0.14)  # the n = 16 chain flips near h = 0.26
CHAIN_H_ABOVE = (0.32, 0.38)  # ||0.75 I + h S|| > 1 here for n >= 4


def pinned_normal(n: int, ap: AnnulusParams, rng: np.random.Generator) -> np.ndarray:
    """Normal matrix with a Haar eigenbasis and eigenvalue moduli in [r, 1].

    The smallest and largest moduli sit at the expected extremes of n uniform
    draws, r + (1-r)/(n+1) and 1 - (1-r)/(n+1); the other moduli and all the
    phases are random.
    """
    gap = (1.0 - ap.r) / (n + 1)
    mods = ap.r + gap + (1.0 - ap.r - 2.0 * gap) * rng.random(n)
    mods[0] = ap.r + gap
    if n > 1:
        mods[-1] = 1.0 - gap
    lam = mods * np.exp(2j * np.pi * rng.random(n))
    u = haar_unitary(n, rng)
    return (u * lam) @ u.conj().T


def chain(n: int, h: float) -> np.ndarray:
    """The non-normal chain 0.75 I + h S with S the forward shift."""
    return 0.75 * np.eye(n, dtype=complex) + h * np.eye(n, k=1, dtype=complex)


def _certify_op(t: np.ndarray, ap: AnnulusParams, expected: str) -> Op:
    def check(cert) -> Outcome:
        if cert.verdict != expected:
            return Outcome(False, f"verdict {cert.verdict}, expected {expected}")
        if not cert.spectrum_ok:
            return Outcome(False, "spectrum check failed")
        grid = cert.grid
        if expected == CERTIFIED and len(cert.records) != len(grid.eps_values) * grid.alpha_count:
            return Outcome(False, f"only {len(cert.records)} grid points evaluated")
        return Outcome(True)

    return Op(f"certify_n{t.shape[0]}", lambda: certifier.certify_ar(t, ap), check)


def certify_large(seed: int, batch: int, tiny: bool = False) -> list[Op]:
    rng = _rng(seed, "certify_large", batch)
    ap = AnnulusParams(0.5)
    # three n = 32 calls put the median call time inside their cluster,
    # between the two cheap chain calls and the one n = 64 call
    sizes = (8, 4, 4, 4) if tiny else (64, 32, 32, 32)
    n_chain = 4 if tiny else 16
    ops = [_certify_op(pinned_normal(n, ap, rng), ap, CERTIFIED) for n in sizes]
    h_lo = CHAIN_H_BELOW[0] + (CHAIN_H_BELOW[1] - CHAIN_H_BELOW[0]) * rng.random()
    h_hi = CHAIN_H_ABOVE[0] + (CHAIN_H_ABOVE[1] - CHAIN_H_ABOVE[0]) * rng.random()
    ops.append(_certify_op(chain(n_chain, h_lo), ap, CERTIFIED))
    ops.append(_certify_op(chain(n_chain, h_hi), ap, REFUTED))
    return ops


def certify_large_warmup(seed: int, tiny: bool = False) -> Op:
    return certify_large(seed, 0, tiny)[-2]


# --- threshold_small --------------------------------------------------------

# radius -> strata; an odd number of calls per batch puts the median call
# time inside one cluster of call times instead of in the gap between two
THRESHOLD_STRATA = {0.3: 2, 0.5: 3}
THRESHOLD_JITTER = 0.02  # share of a stratum the radius may move


def band(r: float) -> tuple[float, float]:
    """Radii used by ``misra.sweep_rows``: away from both circles."""
    return r + 0.07 * (1.0 - r), r + 0.9 * (1.0 - r)


def _threshold_op(w: complex, r: float) -> Op:
    def check(tp: float) -> Outcome:
        tk = misra.misra_threshold(w, r)
        gap = abs(tp - tk) / tk
        if not gap <= THRESHOLD_GAP_MAX:
            return Outcome(False, f"threshold gap {gap:.3e} at w = {w:.4f}, r = {r}", rel_gap=gap)
        return Outcome(True, rel_gap=gap)

    return Op(f"threshold_r{r}", lambda: misra.threshold_via_pencil(w, r), check)


def threshold_small(seed: int, batch: int, tiny: bool = False) -> list[Op]:
    """Jordan blocks at radii stratified over the band.

    The cost of one threshold grows steeply toward either end of the band, so
    each stratum keeps its radius near the stratum centre and the seed moves
    it by at most THRESHOLD_JITTER of the stratum width; the phase is free.
    """
    rng = _rng(seed, "threshold_small", batch)
    ops = []
    for r, strata in {0.5: 1}.items() if tiny else THRESHOLD_STRATA.items():
        lo, hi = band(r)
        for k in range(strata):
            u = (k + 0.5 + THRESHOLD_JITTER * (rng.random() - 0.5)) / strata
            w = (lo + (hi - lo) * u) * np.exp(2j * np.pi * rng.random())
            ops.append(_threshold_op(complex(w), r))
    return ops


def threshold_small_warmup(seed: int, tiny: bool = False) -> Op:
    """The first call of batch 0, at the lower of the two r = 0.3 radii."""
    return threshold_small(seed, 0, tiny)[0]


# --- block_factor -----------------------------------------------------------

BLOCK1_MULT = {True: 0.5, False: 1.5}  # share of the kernel threshold
BLOCK2_MULT = {True: 0.5, False: 2.0}  # share of the smaller diagonal threshold


def interior_triple(n: int, ap: AnnulusParams, rng: np.random.Generator):
    """Commuting (T1, T2, X) sharing a Haar eigenbasis, with interior spectra.

    Eigenvalue moduli of T1 lie in the middle 70% of (r, 1), as in the
    acceptance tests, and reach both ends of that range, which fixes the
    truncation depth.  T2 moves each eigenvalue of T1 by at most 8% in
    modulus and 0.15 in angle.  Returns the eigenvalues of T1 and T2, those
    of X, and the map from eigenvalues to matrices.
    """
    u = haar_unitary(n, rng)
    lo, hi = ap.r + 0.15 * (1.0 - ap.r), ap.r + 0.85 * (1.0 - ap.r)
    m1 = lo + (hi - lo) * rng.random(n)
    m1[0], m1[-1] = lo, hi
    a1 = 2.0 * np.pi * rng.random(n)
    m2 = np.clip(m1 * (1.0 + 0.08 * (2.0 * rng.random(n) - 1.0)), lo, hi)
    a2 = a1 + 0.15 * (2.0 * rng.random(n) - 1.0)
    dx = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    conj = lambda d: (u * d) @ u.conj().T
    return m1 * np.exp(1j * a1), m2 * np.exp(1j * a2), dx, conj


def _kernel_thresholds(d: np.ndarray, r: float) -> np.ndarray:
    return np.array([misra.misra_threshold(complex(w), r) for w in d])


def _thm_check(passes: bool) -> Callable[[Any], Outcome]:
    expected = CERTIFIED if passes else REFUTED

    def check(rep) -> Outcome:
        if not rep.agree:
            return Outcome(False, "factorization and certificate disagree")
        if rep.factor_verdict != passes or rep.certificate.verdict != expected:
            return Outcome(False, f"factor verdict {rep.factor_verdict}, certificate "
                                  f"{rep.certificate.verdict}, expected {expected}")
        if passes and not (rep.max_k_norm <= 1.0 + 1e-8 and rep.max_recon_residual is not None
                           and rep.max_recon_residual <= 1e-8):
            return Outcome(False, f"k_norm {rep.max_k_norm}, residual {rep.max_recon_residual}")
        return Outcome(True)

    return check


def _block1_op(n: int, r: float, passes: bool, rng: np.random.Generator) -> Op:
    """[[T, X], [0, T]] is a direct sum of Jordan-type blocks [[w_i, x_i], [0, w_i]],
    so it is an annulus contraction iff every |x_i| is below 1/K(w_i)."""
    ap = AnnulusParams(r)
    d1, _, dx, conj = interior_triple(n, ap, rng)
    x = dx * BLOCK1_MULT[passes] / np.max(np.abs(dx) / _kernel_thresholds(d1, r))
    t, xm = conj(d1), conj(x)
    return Op("thm_block1", lambda: certifier.check_thm_block1(t, xm, ap), _thm_check(passes))


def _block2_op(n: int, r: float, passes: bool, rng: np.random.Generator) -> Op:
    """[[T1, X(T1-T2)], [0, T2]] is a direct sum of blocks [[a_i, y_i], [0, b_i]].

    For nearby a_i, b_i the flip of |y_i| lies close to the smaller of their
    Jordan thresholds: on 200 sampled pairs 0.7x of it certified and 1.5x
    refuted, so 0.5x and 2x sit well inside each class.  Far-apart pairs can
    flip at a few percent of it, which is why T2 stays near T1.
    """
    ap = AnnulusParams(r)
    d1, d2, dx, conj = interior_triple(n, ap, rng)
    th = np.minimum(_kernel_thresholds(d1, r), _kernel_thresholds(d2, r))
    s = BLOCK2_MULT[passes] / np.max(np.abs(dx * (d1 - d2)) / th)
    t1, t2, xm = conj(d1), conj(d2), conj(s * dx)
    return Op("thm_block2", lambda: certifier.check_thm_block2(t1, t2, xm, ap),
              _thm_check(passes))


def block_factor(seed: int, batch: int, tiny: bool = False) -> list[Op]:
    rng = _rng(seed, "block_factor", batch)
    n = 2 if tiny else 4
    return [_block1_op(n, 0.3, True, rng), _block1_op(n, 0.5, False, rng),
            _block2_op(n, 0.3, False, rng), _block2_op(n, 0.5, True, rng)]


def block_factor_warmup(seed: int, tiny: bool = False) -> Op:
    return block_factor(seed, 0, tiny)[0]


# --- vn_oracle --------------------------------------------------------------

VN_JORDAN = ((0.3, 0.35), (0.5, 0.55))  # (r, |w|) as in criterion 7
VN_JORDAN_MULT = 1.5


def vn_ratio(f, t: np.ndarray, ap: AnnulusParams, m: int = 4096, fine: int = 257) -> float:
    """||f(T)|| / sup |f| over both circles, computed without annulus_cert.

    The sup is a dense sample refined on a fine grid around the best three
    samples of each circle; f(T) is q(T)^{-1} p(T) by a linear solve.
    """
    pv = np.polynomial.polynomial.polyval
    mod = lambda z: np.abs(pv(z, f.p) / pv(z, f.q))
    step = 2.0 * np.pi / m
    theta = step * np.arange(m)
    sup = 0.0
    for rho in (ap.r, 1.0):
        vals = mod(rho * np.exp(1j * theta))
        sup = max(sup, float(vals.max()))
        for idx in np.argsort(vals)[-3:]:
            local = theta[idx] + np.linspace(-step, step, fine)
            sup = max(sup, float(mod(rho * np.exp(1j * local)).max()))
    eye = np.eye(t.shape[0], dtype=complex)
    powers = [eye]
    for _ in range(max(f.p.size, f.q.size)):
        powers.append(powers[-1] @ t)
    p_t = sum(c * powers[k] for k, c in enumerate(f.p))
    q_t = sum(c * powers[k] for k, c in enumerate(f.q))
    return float(np.linalg.norm(np.linalg.solve(q_t, p_t), 2)) / sup


def _vn_op(t: np.ndarray, ap: AnnulusParams, count: int, seed: int, normal: bool) -> Op:
    def check(rep) -> Outcome:
        if rep.count != count:
            return Outcome(False, f"ran {rep.count} trials, asked for {count}")
        if normal:
            if rep.violation or not 0.0 < rep.worst_ratio <= VN_NORMAL_RATIO_MAX:
                return Outcome(False, f"violation on a normal matrix, ratio {rep.worst_ratio}")
            return Outcome(True)
        if not rep.violation:
            return Outcome(True, witness=False)
        ref = vn_ratio(rep.witness, t, ap)
        if not (ref > 1.0 and abs(ref - rep.worst_ratio) <= VN_WITNESS_RTOL * ref):
            return Outcome(False, f"witness ratio {rep.worst_ratio} re-evaluates to {ref}",
                           witness=False)
        return Outcome(True, witness=True)

    kind = "vn_normal" if normal else "vn_jordan"
    return Op(kind, lambda: certifier.vn_sample(t, ap, count=count, seed=seed), check)


VN_COUNT = 100
VN_COUNT_TINY = 10


def vn_oracle(seed: int, batch: int, tiny: bool = False, count: int | None = None) -> list[Op]:
    rng = _rng(seed, "vn_oracle", batch)
    if count is None:
        count = VN_COUNT_TINY if tiny else VN_COUNT
    ap5 = AnnulusParams(0.5)
    gen_seed = int(rng.integers(2**31))
    ops = [_vn_op(random_normal_annulus(4, ap5, seed=gen_seed), ap5, count,
                  int(rng.integers(2**31)), normal=True)]
    for r, aw in VN_JORDAN[1:] if tiny else VN_JORDAN:
        w = aw * np.exp(2j * np.pi * rng.random())
        t = misra.jordan_block(w, VN_JORDAN_MULT * misra.misra_threshold(w, r))
        ops.append(_vn_op(t, AnnulusParams(r), count, int(rng.integers(2**31)), normal=False))
    return ops


def vn_oracle_warmup(seed: int, tiny: bool = False) -> Op:
    """The first normal-matrix call of batch 0, with a tenth of the trials."""
    return vn_oracle(seed, 0, tiny, count=VN_COUNT_TINY)[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    batch: Callable[[int, int, bool], list[Op]]
    warmup: Callable[[int, bool], Op]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("certify_large",
                 "certify_ar at n = 64 and 32 plus a non-normal chain: the alpha sweep "
                 "dominates and the stored power ladder outgrows the cache",
                 certify_large, certify_large_warmup),
        Workload("threshold_small",
                 "threshold_via_pencil on 2x2 Jordan blocks: deep ladders on tiny "
                 "matrices, so per-call overhead and the stop-rule scan dominate",
                 threshold_small, threshold_small_warmup),
        Workload("block_factor",
                 "check_thm_block1/2 at n = 4: Douglas factorization and the derivative "
                 "pencil; pencil-side changes should barely move it",
                 block_factor, block_factor_warmup),
        Workload("vn_oracle",
                 "vn_sample(count=100) on normal and Jordan matrices: never touches the "
                 "pencil, so it is the control for pencil changes",
                 vn_oracle, vn_oracle_warmup),
    )
}
