"""Annulus-contraction certification and the theorem-level equivalence checks.

A certificate is a sampled object: positivity of the pencil real part is
tested on a finite (eps, alpha) grid, so "certified" means no violation was
found at the recorded grid density, while "refuted" is a hard disproof.  A
margin must fall below -PSD_TOL * (1 + ||Gamma||) to refute.  Neither the
truncation nor the rounding of the pencil may spend that slack: the sum is
taken in closed form with an a-priori tail below SCALAR_TOL = 1e-16, and a
sweep whose rounding could reach a tenth of PSD_TOL raises TruncationError.
That error, like a spectrum on a band edge where the series diverges, makes
the eps rung inconclusive rather than refuted.  The rung eps = 0 sums on the
closed annulus, so there a spectrum on a circle is such an edge, and a
refutation on it is sound (``pencil._check_band``).  A near-normal T reads a
rung off the scalar pencil at its eigenvalues instead, when an a-priori bound
on the difference, rounding included, fits the same tenth of PSD_TOL.

The theorem checks read their point factorizations off one sweep per eps of
the unit block of ``blocks``, factor the whole alpha grid of a rung as one
stack (the kernels of ``numerics`` and ``factorization`` take stacks, a 2-D
matrix being the stack of one), and only once every diagonal root exists
compare the result with the assembled block's certificate.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .blocks import BlockSpec, assemble, unit_block
from .errors import ContractViolationError, DomainError, SingularityError, TruncationError
from .factorization import compress_through, factor_through, halmos_unitary
from .io import complex_pair
from .numerics import (
    PSD_TOL,
    _check_integer,
    _norm2,
    as_matrix,
    eigenvalues,
    operator_norm,
    re_part,
    sqrt_psd,
)
from .pencil import (
    ROUNDING_BUDGET,
    AnnulusParams,
    MatrixPencil,
    eigenvalues_in_annulus,
    gamma_scalar_batch,
    scalar_pencil_bound,
    scalar_sum_terms,
)
from .rational import (
    RationalFunction,
    _stack,
    eval_matrix,
    polymul,
    sup_on_annulus,
)

VERDICT_CERTIFIED = "certified"
VERDICT_REFUTED = "refuted"
VERDICT_INCONCLUSIVE = "inconclusive"

# Largest alpha grid: each eps rung folds into alpha_count n x n complex
# buckets, 256 MiB at the largest file dimension (128).
MAX_ALPHAS = 1024


@dataclass(frozen=True)
class PencilGrid:
    """Sampled surrogate for the (eps in [0, 1), alpha on the circle) continuum.

    eps = 0 is the limit rung, summed on the closed annulus itself (see
    ``pencil._check_band``); a spectrum on a circle makes it inconclusive.
    """

    eps_values: tuple = (0.5, 0.25, 0.1, 0.05, 0.02, 0.01)
    alpha_count: int = 64

    def __post_init__(self):
        if not hasattr(self.eps_values, "__len__") or len(self.eps_values) == 0:
            raise DomainError(f"eps_values must be a nonempty sequence, got {self.eps_values!r}")
        for e in self.eps_values:
            if not (isinstance(e, numbers.Real) and 0.0 <= e < 1.0):
                raise DomainError(f"eps must lie in [0, 1), got {e!r}")
        _check_integer("alpha_count", self.alpha_count)
        if not 8 <= self.alpha_count <= MAX_ALPHAS:
            raise DomainError(f"alpha_count must lie in [8, {MAX_ALPHAS}], got {self.alpha_count}")

    def alphas(self) -> np.ndarray:
        j = np.arange(self.alpha_count)
        return np.exp(2j * np.pi * j / self.alpha_count)

    def to_dict(self) -> dict:
        return {"eps_values": list(self.eps_values), "alpha_count": int(self.alpha_count)}


DEFAULT_GRID = PencilGrid()


def _point_dict(eps: float, alpha: complex, **fields) -> dict:
    """One grid point of a report: eps and alpha first, then ``fields``."""
    return {"eps": eps, "alpha": complex_pair(alpha), **fields}


# One row per grid point of a certificate.  ``scale`` is 1 + ||Gamma(alpha T)||,
# the factor of the refutation slack PSD_TOL * scale.  On the matrix route it is
# exact at every point whose slack could be the least of its eps rung, and
# elsewhere an upper bound (1 + ||Gamma||_F, widened past rounding), which
# cannot make the point the worst or refute.  On the scalar route it is the
# upper bound 1 + max_i |Gamma(alpha w_i)| plus the rung's bound.  It is not
# serialized.  ``trunc_n`` is the larger per-side level count of the resolvent
# sum on the matrix route and the term count of ``gamma_scalar_batch`` on the
# scalar route.
RECORD = np.dtype([("eps", "f8"), ("alpha", "c16"), ("lambda_min", "f8"), ("trunc_n", "i8"),
                   ("scale", "f8")])


@dataclass(frozen=True, eq=False)
class Certificate:
    """Verdict of ``certify_ar``.  ``records`` holds one RECORD row per
    evaluated grid point, in grid order; ``worst_point`` is its row of least
    slack.  ``scalar_rungs`` holds (eps, bound) for every rung decided on the
    scalar route, in grid order."""

    verdict: str
    spectrum_ok: bool
    min_margin: float | None
    worst_point: np.void | None
    records: np.ndarray
    grid: PencilGrid = DEFAULT_GRID
    diagnostics: tuple = ()
    scalar_rungs: tuple = ()

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED

    def to_dict(self) -> dict:
        worst = self.worst_point
        return {
            "verdict": self.verdict,
            "spectrum_ok": self.spectrum_ok,
            "min_margin": self.min_margin,
            "worst": None if worst is None else _point_dict(*worst.item()[:2]),
            "grid": self.grid.to_dict(),
            "records": [_point_dict(eps, a, lambda_min=lm, trunc_n=n)
                        for eps, a, lm, n, _ in self.records.tolist()],
            "diagnostics": list(self.diagnostics),
            "scalar_rungs": [{"eps": eps, "bound": bound} for eps, bound in self.scalar_rungs],
        }


def _rung_records(dtype, eps, alphas, *columns):
    """The ``dtype`` records of one eps rung, one per alpha, in grid order: the
    fields take eps, alphas, then ``columns`` in field order."""
    recs = np.empty(alphas.size, dtype)
    for name, column in zip(dtype.names, (eps, alphas, *columns), strict=True):
        recs[name] = column
    return recs


def _eps_records(mp, eps, alphas):
    """Margins of Re Gamma(alpha T) for all alphas at one eps, off the pencil ``mp`` of T.

    The scale 1 + ||Gamma|| only matters where the slack lambda_min +
    PSD_TOL * scale could be the rung's least, so it is bracketed by
    ||Re Gamma|| <= ||Gamma|| <= ||Gamma||_F, each widened by 1e-12 past the
    rounding of eigvalsh and the SVD.  Only the points whose lower slack
    reaches the least upper slack get the exact norm; the rest keep the
    upper bound, which leaves their slack strictly above the rung's least.
    The sweep guard keeps ||Gamma||_F below 1e6, so the norm cannot overflow.
    """
    gam = mp.gamma_for_alphas(eps, alphas.size)
    lam = np.linalg.eigvalsh(re_part(gam))
    lam_min = lam[:, 0]
    lo = (1.0 + np.maximum(-lam_min, lam[:, -1])) * (1.0 - 1e-12)
    scales = (1.0 + np.linalg.norm(gam, axis=(1, 2))) * (1.0 + 1e-12)
    cand = lam_min + PSD_TOL * lo <= np.min(lam_min + PSD_TOL * scales)
    scales[cand] = 1.0 + _norm2(gam[cand])
    return _rung_records(RECORD, eps, alphas, lam_min, max(mp.gamma_indices()), scales)


def _diagonal_form(tm, eigs, grid):
    """(w, e) with T = U (diag(w) + F) U* for some unitary U and ||F|| <= e,
    or None when no rung of ``grid`` could take the scalar route.

    Q is the QR factor of the eigenvectors of T and A = Q* T Q, with w its
    diagonal and F its off-diagonal part.  Q is unitary only to rounding: with
    eta = ||Q* Q - I||_F and E = T Q - Q A, the unitary polar factor U of Q
    has ||Q - U|| <= eta and U* T U = A + U* ((Q - U) A + E - T (Q - U)), so

        e = ||F||_F + ||E||_F + eta (a + t),   a = max|w_i| + ||F||_F,
        t = ((1 + eta) a + ||E||_F) / (1 - eta),

    where a bounds ||A|| and t bounds ||T||.  The residuals are evaluated in
    floating point; ROUNDING_BUDGET keeps the route a factor ten inside the
    refutation slack, as it keeps the sweep guard's estimate.

    A rung's bound is at least 2 (1 - eps) e, and e is at least ||F||_F,
    whose square is about the Henrici departure ||T||_F^2 - sum |lambda_i|^2
    of the eigenvalues ``eigs`` already computed.  A departure clearly past
    what the largest eps admits returns None before any factorization, and
    so does an entry past 2, which puts ||T|| far from the spectral radius
    of at most 1 + PSD_TOL and could overflow the squares; non-normal input
    pays only these checks.  They decide which route runs, never a verdict.
    """
    n = tm.shape[0]
    if not np.abs(tm).max() <= 2.0:
        return None
    fro2 = np.vdot(tm, tm).real
    e_cap = ROUNDING_BUDGET / (2.0 * (1.0 - max(grid.eps_values)))
    if not fro2 - np.vdot(eigs, eigs).real <= 4.0 * e_cap**2 + 8.0 * n * np.finfo(float).eps * fro2:
        return None
    try:
        q = np.linalg.qr(np.linalg.eig(tm)[1])[0]
    except np.linalg.LinAlgError:  # pragma: no cover - QR stall is rare
        return None
    a = q.conj().T @ tm @ q
    w = np.diagonal(a).copy()
    f = float(np.linalg.norm(a - np.diag(w)))
    res = float(np.linalg.norm(tm @ q - q @ a))
    eta = float(np.linalg.norm(q.conj().T @ q - np.eye(n)))
    if not eta < 1.0:
        return None
    an = float(np.abs(w).max()) + f
    tn = ((1.0 + eta) * an + res) / (1.0 - eta)
    return w, f + res + eta * (an + tn)


def _scalar_records(w, eps, alphas, ap, bound):
    """The records of one rung from Gamma at the scalars alpha w_i: margin
    min_i Re Gamma and scale 1 + max_i |Gamma| + bound, an upper bound of
    1 + ||Gamma(alpha T)||; ``trunc_n`` is the scalar term count."""
    g = gamma_scalar_batch((alphas[:, None] * w).ravel(), eps, ap)
    g = g.reshape(alphas.size, w.size)
    lam_min = g.real.min(axis=1)
    scales = 1.0 + np.abs(g).max(axis=1) + bound
    return _rung_records(RECORD, eps, alphas, lam_min, scalar_sum_terms(eps, ap.r), scales)


def certify_ar(t, ap: AnnulusParams, grid: PencilGrid = DEFAULT_GRID) -> Certificate:
    """Decide annulus contractivity on the sampled grid.

    Spectrum containment is checked first; the pencil sweep then records the
    smallest eigenvalue of Re Gamma(alpha T) at every grid point.  Any point
    below -PSD_TOL * (1 + ||Gamma||) refutes.  Truncation failures downgrade
    the verdict to inconclusive unless a refutation was found anyway.  Rungs
    run serially, in grid order.

    Near-normal T takes the scalar route where it can.  With T = U (D + F) U*
    (``_diagonal_form``), Gamma(alpha T) is unitarily similar to
    Gamma(alpha (D + F)), so by Weyl's inequality lambda_min Re Gamma(alpha T)
    lies within ||Gamma(alpha (D + F)) - Gamma(alpha D)|| of
    min_i Re Gamma(alpha w_i).  A rung whose ``scalar_pencil_bound`` on that
    distance, rounding included, fits ROUNDING_BUDGET reads its records off
    one ``gamma_scalar_batch`` call; every other rung runs the matrix sweep.
    """
    mp = MatrixPencil(t, ap)
    if not eigenvalues_in_annulus(mp.eigs, ap):
        return Certificate(VERDICT_REFUTED, False, None, None, np.empty(0, RECORD), grid,
                           ("spectrum outside the closed annulus",))
    alphas = grid.alphas()
    form = _diagonal_form(mp.t, mp.eigs, grid)
    rungs, diagnostics, scalar_rungs = [], [], []
    for eps in grid.eps_values:
        bound = np.inf if form is None else scalar_pencil_bound(form[0], form[1], eps, ap)
        if bound <= ROUNDING_BUDGET:
            rungs.append(_scalar_records(form[0], eps, alphas, ap, bound))
            scalar_rungs.append((eps, bound))
            continue
        try:
            rungs.append(_eps_records(mp, eps, alphas))
        except TruncationError as exc:
            diagnostics.append(f"eps={eps}: {exc}")

    if not rungs:
        return Certificate(VERDICT_INCONCLUSIVE, True, None, None, np.empty(0, RECORD), grid,
                           tuple(diagnostics))
    records = np.concatenate(rungs)
    slack = records["lambda_min"] + PSD_TOL * records["scale"]
    worst = int(np.argmin(slack))
    if slack[worst] < 0.0:
        verdict = VERDICT_REFUTED
    elif diagnostics:
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = VERDICT_CERTIFIED
    return Certificate(verdict, True, float(records["lambda_min"].min()), records[worst], records,
                       grid, tuple(diagnostics), tuple(scalar_rungs))


# --- von Neumann sampling -------------------------------------------------

# Trials per block of ``vn_sample``; a block's functions share one batched
# boundary sup and its recentered candidates a second one.
_VN_BLOCK = 256

# Entries of the f(T) stack ``vn_sample`` evaluates at once, so its memory
# does not grow with the block: max(1, _VN_CHUNK // n^2) functions per chunk.
_VN_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class VnReport:
    worst_ratio: float
    witness: RationalFunction | None
    violation: bool
    count: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "worst_ratio": self.worst_ratio,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "violation": self.violation,
            "count": self.count,
            "seed": self.seed,
        }


def _fat_band(ap: AnnulusParams) -> tuple[float, float]:
    pad = 0.1 * (1.0 - ap.r)
    return ap.r - pad, 1.0 + pad


def _poles_off_fat(f: RationalFunction, ap: AnnulusParams) -> bool:
    lo, hi = _fat_band(ap)
    mods = f.pole_moduli
    return bool(np.all((mods < lo - 1e-12) | (mods > hi + 1e-12)))


def _plain_rational(rng, ap: AnnulusParams) -> RationalFunction:
    """Gaussian numerator; denominator roots at the origin or outside the fat band."""
    lo, hi = _fat_band(ap)
    nd = int(rng.integers(0, 5))
    dd = int(rng.integers(0, 5))
    p = rng.standard_normal(nd + 1) + 1j * rng.standard_normal(nd + 1)
    q = np.array([1.0 + 0j])
    for _ in range(dd):
        kind = rng.random()
        ang = 2.0 * np.pi * rng.random()
        if kind < 0.4:
            root = 0.0 + 0.0j
        elif kind < 0.7:
            root = lo * (0.35 + 0.6 * rng.random()) * np.exp(1j * ang)
        else:
            root = hi * (1.03 + 1.5 * rng.random() ** 2) * np.exp(1j * ang)
        q = polymul(q, np.array([-root, 1.0 + 0j]))
    return RationalFunction(p, q)


def _blaschke_pair(lam: complex, ap: AnnulusParams, phase: float) -> RationalFunction | None:
    """Product of the outer-disk Blaschke factor at lam and an inner-circle
    factor vanishing on |z| = r/|lam|; None when a pole hits the fat band."""
    r = ap.r
    z2 = (r / np.conj(lam)) * np.exp(1j * phase)
    p_out = np.array([-lam, 1.0 + 0j])
    q_out = np.array([1.0 + 0j, -np.conj(lam)])
    scale = r / abs(z2)
    p_in = scale * np.array([-z2, 1.0 + 0j])
    q_in = np.array([-r * r / np.conj(z2), 1.0 + 0j])
    f = RationalFunction(polymul(p_out, p_in), polymul(q_out, q_in))
    return f if _poles_off_fat(f, ap) else None


def _recenter(f: RationalFunction, sup: float, value: complex,
              ap: AnnulusParams) -> RationalFunction | None:
    """Compose with a disk automorphism sending value/sup to 0; degree is preserved."""
    c = value / sup
    if abs(c) > 0.999:
        return None
    p, q = _stack([f.p, f.q])
    for damp in (1.0, 0.9, 0.7):
        cc = damp * c
        cand = RationalFunction(p - (cc * sup) * q, sup * q - np.conj(cc) * p)
        if _poles_off_fat(cand, ap):
            return cand
    return None


def vn_sample(t, ap: AnnulusParams, count: int = 100, seed: int = 0,
              m: int = 1024) -> VnReport:
    """Worst ratio ||f(T)|| / sup |f| over sampled rational test functions.

    Functions have numerator and denominator degree at most four with poles
    rejected inside the annulus fattened by ten percent of (1 - r).  Each trial
    draws either a plain random rational or a Blaschke-type product aimed at a
    random eigenvalue of T; a trial whose ratio stays below one retries once
    after recentering the function at an eigenvalue.  A worst ratio above
    1 + PSD_TOL disproves contractivity; ratios near one prove nothing.

    Trials run in blocks of _VN_BLOCK.  No draw depends on a sup, so a block
    first draws all its functions, then takes their sups in one batched
    ``sup_on_annulus`` call and their ratios.  It then recenters each trial
    whose ratio is at most one and takes the candidates' sups in a second
    call.  The f(T) of a call's functions with sup |f| >= 1e-14 are evaluated
    as stacks of at most max(1, _VN_CHUNK // n^2) functions, one
    ``eval_matrix`` and one stacked norm per chunk.  Ratios are folded into
    the worst in trial order, so the report is the one that trials run one at
    a time would give; when a chunk fails, its functions are evaluated again
    one at a time, so the first failing trial raises its own error.
    """
    _check_integer("count", count)
    if count < 1:
        raise DomainError(f"count must be at least 1, got {count}")
    _check_integer("seed", seed)
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    tm = as_matrix(t)
    eigs = eigenvalues(tm)
    if not eigenvalues_in_annulus(eigs, ap):
        raise DomainError("vn_sample requires the spectrum inside the closed annulus")
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness: RationalFunction | None = None
    rows = max(1, _VN_CHUNK // tm.size)

    def ratios_of(fs: list[RationalFunction]) -> tuple[list[float], list[float]]:
        """||f(T)|| / sup |f| and sup |f| per function; the ratio is 0 when sup |f| < 1e-14."""
        sups = sup_on_annulus(fs, ap, m)
        live = [i for i, sup in enumerate(sups) if not sup < 1e-14]
        norms = np.zeros(len(fs))
        for j in range(0, len(live), rows):
            chunk = [fs[i] for i in live[j:j + rows]]
            try:
                norms[live[j:j + rows]] = _norm2(eval_matrix(chunk, tm))
            except (ContractViolationError, SingularityError):
                # the stack's error need not be the first failing function's;
                # one at a time, that function raises first
                for f in chunk:
                    operator_norm(eval_matrix(f, tm))
                raise
        ratios = [0.0 if sup < 1e-14 else norm / sup for norm, sup in zip(norms.tolist(), sups)]
        return ratios, sups

    for start in range(0, count, _VN_BLOCK):
        lams, fs = [], []
        for _ in range(min(_VN_BLOCK, count - start)):
            lam = complex(eigs[int(rng.integers(0, eigs.size))])
            f: RationalFunction | None = None
            if rng.random() < 0.5:
                f = _blaschke_pair(lam, ap, 2.0 * np.pi * rng.random())
            lams.append(lam)
            fs.append(_plain_rational(rng, ap) if f is None else f)
        ratios, sups = ratios_of(fs)
        retries = {}
        for i, (f, lam, ratio, sup) in enumerate(zip(fs, lams, ratios, sups)):
            if ratio <= 1.0 and sup > 1e-14:
                cand = _recenter(f, sup, complex(f(lam)), ap)
                if cand is not None:
                    retries[i] = cand
        for (i, cand), r2 in zip(retries.items(), ratios_of(list(retries.values()))[0]):
            if r2 > ratios[i]:
                ratios[i], fs[i] = r2, cand
        for ratio, f in zip(ratios, fs):
            if ratio > worst:
                worst, witness = ratio, f
    return VnReport(worst, witness, worst > 1.0 + PSD_TOL, int(count), int(seed))


# --- theorem-level block checks --------------------------------------------

# One row per grid point of a theorem report, fields in the key order of its points:
# the Douglas factorization (``passes`` is ``FactorResult.passing()``), the Halmos
# reconstruction residual, nan where the point fails, and the certificate margin,
# nan on a rung the certificate skipped.  A nan is serialized as null.
THM_RECORD = np.dtype([("eps", "f8"), ("alpha", "c16"), ("k_norm", "f8"), ("lambda_min", "f8"),
                       ("residual", "f8"), ("range_defect", "f8"), ("passes", "?"),
                       ("recon_residual", "f8")])


def _null(x: float) -> float | None:
    return None if np.isnan(x) else x


@dataclass(frozen=True, eq=False)
class ThmReport:
    """``records`` holds one THM_RECORD row per grid point of ``certificate.grid``,
    in grid order; the verdicts and maxima are reductions of it.  ``agree`` is
    None when the certificate is inconclusive: it then decides nothing."""

    records: np.ndarray
    certificate: Certificate
    factor_verdict: bool
    agree: bool | None
    max_k_norm: float
    max_recon_residual: float | None

    def to_dict(self) -> dict:
        return {
            "factor_verdict": self.factor_verdict,
            "certificate_verdict": self.certificate.verdict,
            "agree": self.agree,
            "max_k_norm": self.max_k_norm,
            "max_recon_residual": self.max_recon_residual,
            "min_margin": self.certificate.min_margin,
            "points": [_point_dict(eps, a, k_norm=k, lambda_min=_null(lm), residual=res,
                                   range_defect=rd, passes=ok, recon_residual=_null(rc))
                       for eps, a, k, lm, res, rd, ok, rc in self.records.tolist()],
        }


def _check_thm(spec: BlockSpec, ap: AnnulusParams, grid: PencilGrid) -> ThmReport:
    """Douglas extraction plus Halmos reconstruction at each grid point.

    Per eps, one sweep of the unit block E (``blocks``) gives
    Gamma(alpha E) = [[G11, G12], [0, G22]] at every alpha, and P^{1/2} K Q^{1/2}
    = R is solved with P = Re G11, Q = Re G22 and R = X G12 / 2.  The kernels
    take the whole alpha grid as one stack: one ``sqrt_psd`` call on the
    interleaved diagonals [P(alpha_0), Q(alpha_0), P(alpha_1), ...], one
    ``factor_through`` call and one ``halmos_unitary`` call on the passing
    points, each bit for bit what the points give one at a time; they fill the
    rung's THM_RECORD rows, and its K stack is dropped.  Once every diagonal
    root exists, the assembled block, which carries X inside the sweep instead
    of multiplying it in, is certified, and its records give ``lambda_min``.
    """
    n = spec.t1.shape[0]
    alphas = grid.alphas()
    mp = MatrixPencil(unit_block(spec), ap)
    rungs = []
    for eps in grid.eps_values:
        sweep = mp.gamma_for_alphas(eps, grid.alpha_count)
        try:
            roots = sqrt_psd(re_part(np.stack([sweep[:, :n, :n], sweep[:, n:, n:]], axis=1)))
        except DomainError as exc:
            j, side = exc.index
            name = ("T1", "T2")[side]
            raise DomainError(
                f"{name} is not an annulus contraction, which the block theorems assume: "
                f"Re Gamma(alpha {name}) at eps = {eps}, alpha = {alphas[j]:.6g}: {exc}"
            ) from exc
        sp, sq = roots[:, 0], roots[:, 1]
        r = spec.x @ sweep[:, :n, n:] / 2.0
        fr = factor_through(sp, sq, r)
        ok = fr.passing()
        recon = np.full(alphas.size, np.nan)
        if ok.any():
            u = halmos_unitary(fr.k[ok])
            recon[ok] = _norm2(compress_through(u, sp[ok], sq[ok]) - r[ok]) / (1.0 + _norm2(r[ok]))
        rungs.append(_rung_records(THM_RECORD, eps, alphas, fr.k_norm, np.nan, fr.residual,
                                   fr.range_defect, ok, recon))
    records = np.concatenate(rungs)
    cert = certify_ar(assemble(spec), ap, grid)
    # the certificate drops only whole rungs and keeps grid order
    kept = np.repeat([eps in cert.records["eps"] for eps in grid.eps_values], alphas.size)
    records["lambda_min"][kept] = cert.records["lambda_min"]
    passing = records["passes"]
    recon = records["recon_residual"][passing]
    factored = bool(passing.all())
    agree = None if cert.verdict == VERDICT_INCONCLUSIVE else factored == cert.certified
    return ThmReport(records, cert, factored, agree,
                     float(records["k_norm"].max()), float(recon.max()) if recon.size else None)


def check_thm_block1(t, x, ap: AnnulusParams, grid: PencilGrid = DEFAULT_GRID) -> ThmReport:
    """Equivalence data for the same-diagonal block [[T, X], [0, T]].

    Point factorization: P^{1/2} K P^{1/2} = X Gamma'(alpha T)/2 with
    P = Re Gamma(alpha T), read off the sweep of the unit block [[T, I], [0, T]].
    """
    return _check_thm(BlockSpec("tx", t, x), ap, grid)


def check_thm_block2(t1, t2, x, ap: AnnulusParams, grid: PencilGrid = DEFAULT_GRID) -> ThmReport:
    """Equivalence data for the block [[T1, X(T1 - T2)], [0, T2]].

    Point factorization: Re Gamma(alpha T1)^{1/2} K Re Gamma(alpha T2)^{1/2}
    equals X (Gamma(alpha T1) - Gamma(alpha T2)) / 2, read off the sweep of the
    unit block [[T1, T1 - T2], [0, T2]].
    """
    return _check_thm(BlockSpec("hat", t1, x, t2), ap, grid)
