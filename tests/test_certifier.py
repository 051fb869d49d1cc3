import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulus_cert import certifier
from annulus_cert.certifier import (
    DEFAULT_GRID,
    PencilGrid,
    certify_ar,
    check_thm_block1,
    check_thm_block2,
    vn_sample,
)
from annulus_cert.blocks import BlockSpec, assemble, unit_block
from annulus_cert.errors import ContractViolationError, DomainError, SingularityError
from annulus_cert.factorization import compress_through, factor_through, halmos_unitary
from annulus_cert.generators import haar_unitary, random_normal_annulus
from annulus_cert.io import matrix_from_dict
from annulus_cert.misra import jordan_block, misra_threshold
from annulus_cert.numerics import PSD_TOL, _norm2, eigenvalues, operator_norm, re_part, sqrt_psd
from annulus_cert.pencil import (
    ROUNDING_BUDGET,
    AnnulusParams,
    MatrixPencil,
    gamma_scalar_batch,
    scalar_pencil_bound,
    eigenvalues_in_annulus,
    scalar_sum_terms,
)
from annulus_cert.rational import RationalFunction, eval_matrix, sup_on_annulus

from conftest import interior_commuting_triple

AP5 = AnnulusParams(0.5)
AP3 = AnnulusParams(0.3)


class TestSpectrumInAnnulus:
    def test_boundary_diag(self):
        assert eigenvalues_in_annulus(eigenvalues(np.diag([0.5, 1.0])), AP5)

    def test_inside_inner_circle(self):
        assert not eigenvalues_in_annulus(eigenvalues(np.diag([0.25, 1.0])), AP5)

    def test_triangular_ignores_nilpotent_part(self):
        w = 0.7 * np.exp(0.5j)
        assert eigenvalues_in_annulus(eigenvalues(np.array([[w, 10.0], [0.0, w]])), AP5)


class TestCertifyAr:
    def test_unitary_certified(self):
        u = haar_unitary(4, np.random.default_rng(0))
        cert = certify_ar(u, AP5)
        assert cert.verdict == "certified"
        assert cert.spectrum_ok
        assert cert.min_margin > 0.0
        assert len(cert.records) == len(DEFAULT_GRID.eps_values) * DEFAULT_GRID.alpha_count

    def test_scalar_multiple_certified(self):
        cert = certify_ar(0.5 * np.eye(2), AP5)
        assert cert.verdict == "certified"

    def test_spectrum_refutation_short_circuits(self):
        cert = certify_ar(np.diag([0.1]), AP5)
        assert cert.verdict == "refuted"
        assert not cert.spectrum_ok
        assert cert.records.dtype == certifier.RECORD and len(cert.records) == 0

    def test_misra_block_above_threshold_refuted(self):
        w = 0.7
        th = misra_threshold(w, 0.5)
        cert = certify_ar(jordan_block(w, 1.05 * th), AP5)
        assert cert.verdict == "refuted"
        assert cert.spectrum_ok
        assert cert.worst_point is not None

    def test_misra_block_below_threshold_certified(self):
        w = 0.7
        th = misra_threshold(w, 0.5)
        cert = certify_ar(jordan_block(w, 0.9 * th), AP5)
        assert cert.verdict == "certified"

    def test_monotone_flip_in_h(self):
        # margins decrease with |h|; the verdict flips exactly once
        w, r = 0.65, 0.5
        th = misra_threshold(w, r)
        hs = np.linspace(0.0, 2.0 * th, 25)
        verdicts = [certify_ar(jordan_block(w, h), AP5).certified for h in hs]
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        assert verdicts[0] and not verdicts[-1]
        assert flips == 1

    @pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-9])
    def test_rounding_never_refutes(self, eps):
        # a unit eigenvalue puts about 2 / eps into the buckets; the sweep's
        # rounding would exceed the slack where Gamma is small, so the rung
        # must end inconclusive, never refuted.  The scalar route's rounding
        # bound exceeds its budget here too, so the rung does not take it.
        cert = certify_ar(np.array([[1.0]]), AP5, PencilGrid((eps,), 64))
        assert cert.verdict != "refuted"
        assert cert.scalar_rungs == ()

    @pytest.mark.parametrize("t", [[[1.0]], [[1.0, 0.0], [0.0, 0.7]]])
    def test_unit_eigenvalue_certified_at_small_eps(self, t):
        # a unitary part is an annulus contraction; the closed-form sum
        # evaluates the rung however close the band edge comes
        cert = certify_ar(np.array(t), AP5, PencilGrid((0.01, 0.001), 64))
        assert cert.verdict == "certified"

    def test_worst_point_is_the_worst_record(self):
        cert = certify_ar(jordan_block(0.7, 1.05 * misra_threshold(0.7, 0.5)), AP5)
        rows = cert.records.tolist()
        slack = [lm + PSD_TOL * sc for _, _, lm, _, sc in rows]
        # the first record of least slack
        assert cert.worst_point.item() == rows[slack.index(min(slack))]
        worst = cert.worst_point
        assert cert.to_dict()["worst"] == {"eps": worst["eps"],
                                           "alpha": [worst["alpha"].real, worst["alpha"].imag]}

    def test_certificate_json_schema(self):
        cert = certify_ar(0.7 * np.eye(1), AP5, PencilGrid(eps_values=(0.5, 0.25), alpha_count=8))
        doc = cert.to_dict()
        assert set(doc) >= {"verdict", "spectrum_ok", "min_margin", "worst", "grid", "records"}
        assert doc["grid"] == {"eps_values": [0.5, 0.25], "alpha_count": 8}
        assert len(doc["records"]) == 16
        rec = doc["records"][0]
        assert set(rec) == {"eps", "alpha", "lambda_min", "trunc_n"}

    @pytest.mark.parametrize("eps", [Fraction(1, 10), np.float32(0.1)], ids=["fraction", "float32"])
    def test_certificate_json_with_non_float_eps(self, eps):
        for t in (0.7 * np.eye(1), jordan_block(0.7, 0.1)):
            doc = json.loads(json.dumps(certify_ar(t, AP5, PencilGrid((eps,), 8)).to_dict()))
            assert doc["grid"]["eps_values"] == [float(eps)]
            assert {rec["eps"] for rec in doc["records"]} == {float(eps)}


def _exact_scale_records(mp, eps, alphas):
    """``_eps_records`` with the exact 1 + ||Gamma|| at every point."""
    gam = mp.gamma_for_alphas(eps, alphas.size)
    lam_min = np.linalg.eigvalsh(re_part(gam))[:, 0]
    scales = 1.0 + _norm2(gam)
    return certifier._rung_records(certifier.RECORD, eps, alphas, lam_min, max(mp.gamma_indices()),
                                   scales)


def _matrix_route(t, ap, grid=DEFAULT_GRID):
    """certify_ar with the scalar route switched off: every rung sweeps T."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certifier, "_diagonal_form", lambda *args: None)
        return certify_ar(t, ap, grid)


def _assert_same_as_exact_scales(t, ap, grid=DEFAULT_GRID):
    """certify_ar with bracketed scales against the exact-scale certificate.

    Both run the matrix route, whose bracket this checks: normal inputs would
    otherwise take the scalar route and never reach ``_eps_records``.
    """
    cert = _matrix_route(t, ap, grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certifier, "_eps_records", _exact_scale_records)
        ref = _matrix_route(t, ap, grid)
    # verdict, min_margin, worst point and every record
    assert cert.to_dict() == ref.to_dict()
    # the bracket only ever raises a scale, and never at the worst point
    assert all(cert.records["scale"] >= ref.records["scale"])
    if len(ref.records):
        slack = cert.records["lambda_min"] + PSD_TOL * cert.records["scale"]
        ref_slack = ref.records["lambda_min"] + PSD_TOL * ref.records["scale"]
        assert min(slack) == min(ref_slack)
    return cert


_RADII = st.sampled_from([0.3, 0.5, 0.7])


class TestOnePencilPerCall:
    """``certify_ar`` builds one pencil per call: T's eigenvalues are taken
    once, and T^{-1} only when a rung runs the matrix sweep."""

    def test_matrix_route(self, pencil_calls):
        grid = PencilGrid((0.5, 0.1, 0.01), 8)
        cert = certify_ar(_chain(3, 0.1), AP5, grid)
        assert cert.certified and cert.scalar_rungs == ()
        assert pencil_calls == [("build", (3, 3)), "eigenvalues", ("sweep", (3, 3), 0.5),
                                "inverse", ("sweep", (3, 3), 0.1), ("sweep", (3, 3), 0.01)]

    def test_scalar_route_takes_no_inverse(self, pencil_calls):
        cert = certify_ar(random_normal_annulus(4, AP5, seed=3), AP5)
        assert len(cert.scalar_rungs) == len(DEFAULT_GRID.eps_values)
        assert pencil_calls == [("build", (4, 4)), "eigenvalues"]

    def test_spectrum_outside_sweeps_nothing(self, pencil_calls):
        assert certify_ar(np.diag([0.7, 0.2]), AP5).verdict == "refuted"
        assert pencil_calls == [("build", (2, 2)), "eigenvalues"]


class TestScaleBracket:
    """The refutation scale is exact only where it can decide; nothing observable moves."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(n=st.integers(1, 8), r=_RADII, seed=st.integers(0, 2**31 - 1))
    def test_normal_matches_exact_scales(self, n, r, seed):
        ap = AnnulusParams(r)
        _assert_same_as_exact_scales(random_normal_annulus(n, ap, seed), ap)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(n=st.integers(2, 6), r=_RADII, seed=st.integers(0, 2**31 - 1),
           h=st.sampled_from([0.01, 0.1, 0.3, 1.0]))
    def test_non_normal_matches_exact_scales(self, n, r, seed, h):
        # triangular, so the spectrum is the diagonal, inside the annulus
        ap = AnnulusParams(r)
        rng = np.random.default_rng(seed)
        d = (r + (1.0 - r) * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        off = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        _assert_same_as_exact_scales(np.diag(d) + h * off, ap)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(r=st.sampled_from([0.3, 0.5]), frac=st.floats(0.05, 0.95),
           angle=st.floats(0.0, 2.0 * np.pi), rel=st.floats(-1e-6, 1e-6))
    def test_jordan_at_threshold_matches_exact_scales(self, r, frac, angle, rel):
        w = (r + (1.0 - r) * frac) * np.exp(1j * angle)
        h = misra_threshold(abs(w), r) * (1.0 + rel)
        _assert_same_as_exact_scales(jordan_block(w, h), AnnulusParams(r))

    def test_tie_keeps_first_alpha(self):
        # a spectrum invariant under rotation by 2 pi / 64 gives Re Gamma the
        # same eigenvalues at every alpha, so rounding leaves exact ties
        t = np.diag(0.6 * np.exp(2j * np.pi * np.arange(64) / 64))
        cert = _assert_same_as_exact_scales(t, AP5)
        slack = cert.records["lambda_min"] + PSD_TOL * cert.records["scale"]
        ties = np.flatnonzero(slack == slack.min())
        assert ties.size >= 2
        worst = cert.records[ties[0]]
        assert cert.worst_point["eps"] == worst["eps"] and cert.worst_point["alpha"] == worst["alpha"]

    def test_exact_scale_decides_certification(self):
        # h puts lambda_min between -PSD_TOL * (1 + ||Gamma||) and
        # -PSD_TOL * (1 + ||Re Gamma||): only the exact scale certifies
        grid = PencilGrid((0.1,), 64)
        t = np.array([[0.99, 0.0868740215435], [0.0, 0.6j]])
        cert = _assert_same_as_exact_scales(t, AP5, grid)
        assert cert.verdict == "certified"
        j = int(np.argmin(cert.records["lambda_min"]))
        worst = cert.records[j]
        g = MatrixPencil(t, AP5).gamma_for_alphas(0.1, 64)[j]
        lam = np.linalg.eigvalsh(re_part(g))
        assert (-PSD_TOL * worst["scale"] < worst["lambda_min"]
                < -PSD_TOL * (1.0 + max(-lam[0], lam[-1])))
        assert worst["scale"] == 1.0 + float(_norm2(g))

    def test_exact_norms_only_on_candidates(self, monkeypatch):
        # at most 4 of the 64 points per rung reach the SVD, against all 64
        # when every point took the exact norm
        sizes = []

        def counting(a):
            sizes.append(np.asarray(a).shape[0])
            return _norm2(a)

        monkeypatch.setattr(certifier, "_norm2", counting)
        # a normal input, so the matrix route is forced to reach the bracket
        monkeypatch.setattr(certifier, "_diagonal_form", lambda *args: None)
        cert = certify_ar(random_normal_annulus(32, AP5, seed=11), AP5)
        assert cert.verdict == "certified"
        assert len(sizes) == len(DEFAULT_GRID.eps_values)
        assert max(sizes) <= 4


def _chain(n, h):
    """0.75 I + h S with S the forward shift: non-normal for h != 0."""
    return 0.75 * np.eye(n, dtype=complex) + h * np.eye(n, k=1, dtype=complex)


def _near_normal(n, r, seed, h):
    """random_normal_annulus plus an upper-triangular part of size h."""
    rng = np.random.default_rng(seed)
    off = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    return random_normal_annulus(n, AnnulusParams(r), seed) + h * off


class TestScalarRoute:
    """Near-normal T reads each rung off the scalar pencil at its eigenvalues."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(n=st.integers(1, 16), r=_RADII, seed=st.integers(0, 2**31 - 1),
           h=st.one_of(st.just(0.0), st.floats(-16.0, -12.0).map(lambda x: 10.0**x)))
    def test_matches_matrix_route_within_bound(self, n, r, seed, h):
        ap = AnnulusParams(r)
        t = _near_normal(n, r, seed, h)
        cert, ref = certify_ar(t, ap), _matrix_route(t, ap)
        assert cert.verdict == ref.verdict
        bounds = dict(cert.scalar_rungs)
        assert [b for b in bounds.values() if not 0.0 < b <= ROUNDING_BUDGET] == []
        assert list(bounds) == [e for e in DEFAULT_GRID.eps_values if e in bounds]
        # eps = 0.5 halves every modulus, far inside the budget for exactly normal T
        assert bounds or h > 0.0
        mp = MatrixPencil(t, ap)
        exact = {eps: _exact_scale_records(mp, eps, DEFAULT_GRID.alphas()) for eps in bounds}
        ex = {eps: iter(recs) for eps, recs in exact.items()}
        assert len(cert.records) == len(ref.records)
        for rec, mat in zip(cert.records, ref.records):
            eps = float(rec["eps"])
            assert (rec["eps"], rec["alpha"]) == (mat["eps"], mat["alpha"])
            if eps in bounds:
                assert abs(rec["lambda_min"] - mat["lambda_min"]) <= bounds[eps]
                assert rec["trunc_n"] == scalar_sum_terms(eps, r)
                # an upper bound of the exact scale, up to the SVD's own rounding
                assert rec["scale"] >= next(ex[eps])["scale"] * (1.0 - 1e-12)
            else:
                assert rec == mat

    @staticmethod
    def _non_normal():
        t1, t2, x = interior_commuting_triple(2, AP5, seed=7)
        w, th = 0.7, misra_threshold(0.7, 0.5)
        return [_chain(16, 0.1), _chain(16, 0.35), jordan_block(w, 0.9 * th),
                jordan_block(w, 1.05 * th), assemble(BlockSpec("tx", t1, 0.05 * x)),
                assemble(BlockSpec("hat", t1, 0.05 * x, t2))]

    @pytest.mark.parametrize("case", range(6))
    def test_non_normal_takes_matrix_route(self, monkeypatch, case):
        t = self._non_normal()[case]
        ref = json.dumps(_matrix_route(t, AP5).to_dict())

        def no_eig(*args):
            raise AssertionError("the Henrici pre-reject should have fired")

        # the pre-reject needs only the eigenvalues of the spectrum check
        monkeypatch.setattr(np.linalg, "eig", no_eig)
        cert = certify_ar(t, AP5)
        assert cert.scalar_rungs == ()
        assert json.dumps(cert.to_dict()) == ref

    def test_rung_past_budget_falls_back(self):
        # the unit eigenvalue fits the budget at eps = 0.01, not at 0.001
        t, grid = np.diag([1.0, 0.7]), PencilGrid((0.01, 0.001), 64)
        cert, ref = certify_ar(t, AP5, grid), _matrix_route(t, AP5, grid)
        assert [eps for eps, _ in cert.scalar_rungs] == [0.01]
        assert scalar_pencil_bound(np.array([1.0, 0.7]), 0.0, 0.001, AP5) > ROUNDING_BUDGET
        assert cert.verdict == ref.verdict == "certified"
        assert np.array_equal(cert.records[64:], ref.records[64:])
        assert cert.to_dict()["scalar_rungs"] == [{"eps": 0.01, "bound": cert.scalar_rungs[0][1]}]

    def test_scalar_truncated_and_matrix_rungs_in_grid_order(self):
        # eps = 0.01 fits the budget, 1e-9 puts the unit eigenvalue on the
        # band edge and 0.001 falls back to the sweep
        t, grid = np.diag([1.0, 0.7]), PencilGrid((0.01, 1e-9, 0.001), 64)
        cert = certify_ar(t, AP5, grid)
        assert cert.verdict == "inconclusive"
        assert cert.records["eps"].tolist() == [0.01] * 64 + [0.001] * 64
        assert np.array_equal(cert.records[64:],
                              _matrix_route(t, AP5, PencilGrid((0.001,), 64)).records)
        assert [eps for eps, _ in cert.scalar_rungs] == [0.01]
        assert len(cert.diagnostics) == 1 and cert.diagnostics[0].startswith("eps=1e-09:")

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(n=st.integers(1, 6), r=_RADII, seed=st.integers(0, 2**31 - 1),
           eps=st.sampled_from([0.5, 0.1, 0.02]), size=st.floats(-8.0, -3.0))
    def test_bound_covers_the_perturbation(self, n, r, seed, eps, size):
        # ||Gamma(alpha (D + F)) - diag Gamma(alpha w_i)|| against the bound, at
        # perturbations large enough that the matrix sweep's rounding is negligible
        ap = AnnulusParams(r)
        rng = np.random.default_rng(seed)
        lo, hi = r + 0.05 * (1.0 - r), 1.0 - 0.05 * (1.0 - r)
        w = (lo + (hi - lo) * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        e = 10.0**size
        f *= e / _norm2(f)
        bound = scalar_pencil_bound(w, e, eps, ap)
        if not np.isfinite(bound):
            return
        alphas = PencilGrid((eps,), 8).alphas()
        gam = MatrixPencil(np.diag(w) + f, ap).gamma_for_alphas(eps, 8)
        for a, g in zip(alphas, gam):
            diag = gamma_scalar_batch(a * w, eps, ap)
            assert _norm2(g - np.diag(diag)) <= bound


class TestRecordLayout:
    """A certificate's records are one RECORD array, one row per evaluated grid point."""

    @pytest.mark.parametrize("route", ["both", "matrix"])
    def test_rows_in_grid_order(self, route):
        # eps = 0.01 takes the scalar route unless it is switched off, 1e-9 puts
        # the unit eigenvalue on the band edge and 0.001 sweeps the matrix
        t, grid = np.diag([1.0, 0.7]), PencilGrid((0.01, 1e-9, 0.001), 16)
        cert = certify_ar(t, AP5, grid) if route == "both" else _matrix_route(t, AP5, grid)
        assert [eps for eps, _ in cert.scalar_rungs] == ([0.01] if route == "both" else [])
        assert cert.verdict == "inconclusive" and len(cert.diagnostics) == 1
        recs = cert.records
        assert isinstance(recs, np.ndarray) and recs.dtype == certifier.RECORD
        assert recs.dtype.names == ("eps", "alpha", "lambda_min", "trunc_n", "scale")
        assert recs.shape == (32,)
        assert recs["eps"].tolist() == [0.01] * 16 + [0.001] * 16
        for rung in (recs[:16], recs[16:]):
            assert np.array_equal(rung["alpha"], grid.alphas())
        doc = cert.to_dict()
        assert [(p["eps"], complex(*p["alpha"])) for p in doc["records"]] == list(
            zip(recs["eps"].tolist(), recs["alpha"].tolist()))
        assert all(set(p) == {"eps", "alpha", "lambda_min", "trunc_n"} for p in doc["records"])
        assert "scale" not in json.dumps(doc)


class TestIntegerSizes:
    """Sizes must be integers: bools and floats end in DomainError, numpy integers pass."""

    def test_fractional_alpha_count(self):
        with pytest.raises(DomainError, match="alpha_count must be an integer"):
            PencilGrid((0.5,), 8.5)

    def test_bool_alpha_count(self):
        with pytest.raises(DomainError, match="alpha_count must be an integer"):
            PencilGrid((0.5,), True)

    def test_string_eps_values(self):
        with pytest.raises(DomainError, match=r"eps must lie in \[0, 1\)"):
            PencilGrid(eps_values="0.5")

    def test_bool_count(self):
        with pytest.raises(DomainError, match="count must be an integer"):
            vn_sample(0.7 * np.eye(1), AP5, count=True)

    def test_fractional_count(self):
        with pytest.raises(DomainError, match="count must be an integer"):
            vn_sample(0.7 * np.eye(1), AP5, count=2.5)

    def test_fractional_m(self):
        with pytest.raises(DomainError, match="samples per circle must be an integer"):
            vn_sample(0.7 * np.eye(1), AP5, count=2, m=8.5)

    def test_non_sequence_eps_values(self):
        with pytest.raises(DomainError, match="eps_values must be a nonempty sequence, got 0.5"):
            PencilGrid(0.5)
        with pytest.raises(DomainError, match=r"eps_values must be a nonempty sequence, got \(\)"):
            PencilGrid(())

    @pytest.mark.parametrize("seed, message", [(2.5, "seed must be an integer"),
                                               (True, "seed must be an integer"),
                                               (-1, "seed must be at least 0")])
    def test_bad_seed(self, seed, message):
        with pytest.raises(DomainError, match=message):
            vn_sample(0.7 * np.eye(1), AP5, count=2, seed=seed)

    def test_numpy_integers_accepted(self):
        grid = PencilGrid((0.5,), np.int64(8))
        doc = json.loads(json.dumps(certify_ar(0.7 * np.eye(1), AP5, grid).to_dict()))
        assert doc["grid"]["alpha_count"] == 8 and len(doc["records"]) == 8
        rep = vn_sample(0.7 * np.eye(1), AP5, count=np.int64(3), seed=np.uint8(4), m=np.int32(64))
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["count"] == 3 and doc["seed"] == 4 and type(rep.seed) is int


class TestVnSample:
    def test_unitary_with_identity_function_ratio_one(self):
        u = haar_unitary(3, np.random.default_rng(5))
        f = RationalFunction([0.0, 1.0], [1.0])
        ratio = operator_norm(eval_matrix(f, u)) / sup_on_annulus(f, AP5)
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_certified_normals_stay_below_one(self):
        for seed in range(5):
            t = random_normal_annulus(4, AP5, seed=seed)
            report = vn_sample(t, AP5, count=40, seed=seed)
            assert report.worst_ratio <= 1.0 + 1e-6
            assert not report.violation

    def test_refuted_misra_found(self):
        w = 0.55
        t = jordan_block(w, 1.5 * misra_threshold(w, 0.5))
        report = vn_sample(t, AP5, count=100, seed=3)
        assert report.violation
        assert report.witness is not None
        # the witness itself certifies the violation
        f = report.witness
        assert operator_norm(eval_matrix(f, t)) / sup_on_annulus(f, AP5) > 1.0

    def test_precondition(self):
        with pytest.raises(DomainError):
            vn_sample(np.diag([0.1]), AP5)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_must_be_positive(self, count):
        with pytest.raises(DomainError):
            vn_sample(np.eye(2), AP5, count=count)

    def test_deterministic(self):
        t = random_normal_annulus(3, AP5, seed=9)
        a = vn_sample(t, AP5, count=20, seed=7)
        b = vn_sample(t, AP5, count=20, seed=7)
        assert a.worst_ratio == b.worst_ratio

    @staticmethod
    def _jordan_case():
        # 1.5x the kernel threshold at w = 0.55, r = 0.5, pinned so the frozen
        # report does not follow the last digits of misra_threshold
        return jordan_block(0.55, 0.15241627991450818), 30, 1

    @staticmethod
    def _normal_case():
        return random_normal_annulus(3, AP5, seed=9), 20, 7

    @classmethod
    def _long_jordan_case(cls):
        # 300 trials span two blocks of vn_sample; at this seed the witness
        # comes from the second block
        return cls._jordan_case()[0], 300, 8

    @pytest.mark.parametrize("case, worst, p, q", [
        ("_jordan_case", 1.1059037297787455,
         [-1.107373047165193 - 0.46674961687980204j, 0.19958453284708083 + 0.23550561173022522j],
         [-0.07632846288883155 + 0.06912340292700261j, 0.6496578313175201 - 0.3087528398625115j,
          -1.6378668535833747 + 0.36766136242220354j, 1 + 0j]),
        ("_normal_case", 0.951405843453877,
         [-0.23613673443952393 + 0.32383590302280674j, -0.09507827836081667 + 0.12687118133485692j,
          0.8015740750257806 + 0j],
         [0.36771900675012825 - 0.15941449593138662j, 0.6811514715576442 - 0.03929279894156054j,
          -0.6909210614663833 - 0.40638538922505807j]),
        ("_long_jordan_case", 1.1571337825591732,
         [-0.0979441453791408 - 0.49520990871457066j],
         [0j, 0j, 0j, -0.33876261139215275 + 0.022007980350502974j, 1 + 0j]),
    ])
    def test_frozen_reports(self, case, worst, p, q):
        # the first two frozen from the version that computed sup |f| twice per
        # recentered trial, the third from the last one that ran trials one at a time
        t, count, seed = getattr(self, case)()
        report = vn_sample(t, AP5, count=count, seed=seed)
        assert report.worst_ratio == worst
        assert report.witness.p.tolist() == p
        assert report.witness.q.tolist() == q

    @pytest.mark.parametrize("case", ["_jordan_case", "_normal_case", "_long_jordan_case"])
    def test_one_sup_per_evaluated_function(self, monkeypatch, case):
        t, count, seed = getattr(self, case)()
        sup_args, candidates = [], []

        def counting_sup(fs, *args, **kwargs):
            sup_args.extend(fs)
            return sup_on_annulus(fs, *args, **kwargs)

        def counting_recenter(*args, **kwargs):
            cand = recenter(*args, **kwargs)
            if cand is not None:
                candidates.append(cand)
            return cand

        recenter = certifier._recenter
        monkeypatch.setattr(certifier, "sup_on_annulus", counting_sup)
        monkeypatch.setattr(certifier, "_recenter", counting_recenter)
        vn_sample(t, AP5, count=count, seed=seed)
        assert candidates
        assert len(sup_args) == count + len(candidates)
        # sup_args keeps every function alive, so equal ids mean the same object
        assert len({id(f) for f in sup_args}) == len(sup_args)

    def test_chunked_report_at_n64(self, monkeypatch):
        # frozen from the last version that evaluated f(T) one function at a
        # time; at n = 64 the 40 trials' f(T) span several chunks
        t = random_normal_annulus(64, AP5, seed=4)
        sizes = []

        def counting_eval(fs, tm):
            sizes.append(1 if isinstance(fs, RationalFunction) else len(fs))
            return eval_matrix(fs, tm)

        monkeypatch.setattr(certifier, "eval_matrix", counting_eval)
        report = vn_sample(t, AP5, count=40, seed=1)
        assert report.worst_ratio == 0.999281726138431
        assert report.witness.p.tolist() == [
            -0.09197405092453559 - 0.3331087543946214j, -0.5771875058426363 + 0.7487592720022112j,
            0.6911459130973872 + 2.0777082317745767e-16j]
        assert report.witness.q.tolist() == [
            -0.2412282775268045 + 0.18812623250649912j, 1.0691869816207185 + 0.10422950809400028j,
            -0.23427616270546114 - 0.5651945899692935j]
        assert len(sizes) >= 3
        assert max(sizes) == max(1, certifier._VN_CHUNK // t.size)

    @pytest.mark.parametrize("order, error", [((0, 1), ContractViolationError),
                                              ((1, 0), SingularityError)])
    def test_first_failing_trial_raises_its_own_error(self, monkeypatch, order, error):
        # on T = diag(0.7, 0.6), f(T) of the first function overflows and q(T)
        # of the second is singular; the one earlier in trial order decides
        fs = [RationalFunction([1e308] * 3, [1.0]), RationalFunction([1.0], [-0.7, 1.0])]
        draws = iter([fs[i] for i in order])
        monkeypatch.setattr(certifier, "_blaschke_pair", lambda *args: None)
        monkeypatch.setattr(certifier, "_plain_rational", lambda rng, ap: next(draws))
        monkeypatch.setattr(certifier, "sup_on_annulus", lambda fs, ap, m: [1.0] * len(fs))
        with pytest.raises(error):
            vn_sample(np.diag([0.7, 0.6]), AP5, count=2)


class TestHalmosReconstruction:
    def test_recon_residual_is_the_factor_residual(self):
        # the Halmos unitary's top-left block is K itself, so compressing it
        # between the roots recomputes the factorization residual bit for bit
        t1, t2, x = interior_commuting_triple(3, AP5, seed=31)
        grid = PencilGrid((0.5, 0.1), 16)
        for rep in (check_thm_block1(t1, 0.05 * x, AP5, grid),
                    check_thm_block2(t1, t2, 0.05 * x, AP5, grid)):
            recs = rep.records
            ok = recs["passes"]
            assert np.array_equal(recs["recon_residual"][ok], recs["residual"][ok])
            assert np.isnan(recs["recon_residual"][~ok]).all()
            assert ok.any()


class TestMixedRung:
    def test_points_equal_one_point_at_a_time(self):
        # X = 0.9 passes every alpha at eps = 0.5 but only 2 of 8 at eps = 0.1
        t, x = np.array([[0.7]]), np.array([[0.9]])
        grid = PencilGrid((0.5, 0.1), 8)
        rep = check_thm_block1(t, x, AP5, grid)
        rungs = rep.records.reshape(2, 8)
        assert rungs["passes"].sum(axis=1).tolist() == [8, 2]
        assert not rep.factor_verdict and rep.certificate.verdict == "refuted" and rep.agree
        points = rep.to_dict()["points"]
        assert len(points) == 16
        e = MatrixPencil(unit_block(BlockSpec("tx", t, x)), AP5)
        rows = iter(points)
        for eps, rung in zip(grid.eps_values, rungs):
            sweep = e.gamma_for_alphas(eps, 8)
            looped = []
            for alpha, g in zip(grid.alphas(), sweep):
                sp, sq = sqrt_psd(re_part(g[:1, :1])), sqrt_psd(re_part(g[1:, 1:]))
                r = x @ g[:1, 1:] / 2.0
                ref = factor_through(sp, sq, r)
                looped.append(ref.passes())
                p = next(rows)
                assert (p["eps"], complex(*p["alpha"])) == (eps, alpha)
                assert (p["k_norm"], p["residual"], p["range_defect"], p["passes"]) == (
                    ref.k_norm, ref.residual, ref.range_defect, ref.passes())
                if ref.passes():
                    u = halmos_unitary(ref.k)
                    assert p["recon_residual"] == operator_norm(
                        compress_through(u, sp, sq) - r) / (1.0 + operator_norm(r))
                else:
                    assert p["recon_residual"] is None
            assert rung["passes"].tolist() == looped

    def test_rung_factor_document(self):
        # the eps = 0.1 rung passes 2 of 8 alphas; its stacked FactorResult
        # writes one matrix document and one metric per alpha
        t, x = np.array([[0.7]]), np.array([[0.9]])
        sweep = MatrixPencil(unit_block(BlockSpec("tx", t, x)), AP5).gamma_for_alphas(0.1, 8)
        sp, sq = sqrt_psd(re_part(sweep[:, :1, :1])), sqrt_psd(re_part(sweep[:, 1:, 1:]))
        fr = factor_through(sp, sq, x @ sweep[:, :1, 1:] / 2.0)
        assert fr.passing().sum() == 2
        rung = check_thm_block1(t, x, AP5, PencilGrid((0.5, 0.1), 8)).records[8:]
        assert np.array_equal(rung["k_norm"], fr.k_norm)
        doc = json.loads(json.dumps(fr.to_dict()))
        assert len(doc["k"]) == 8
        assert np.array([matrix_from_dict(m) for m in doc["k"]]).tobytes() == fr.k.tobytes()
        for key in ("k_norm", "residual", "range_defect"):
            assert doc[key] == getattr(fr, key).tolist()
        assert doc["verdict"] is False


class TestThmBlock1:
    def test_zero_x_trivially_agrees(self):
        t = random_normal_annulus(2, AP3, seed=1)
        rep = check_thm_block1(t, np.zeros((2, 2)), AP3)
        assert rep.factor_verdict
        assert rep.certificate.verdict == "certified"
        assert rep.agree
        assert rep.max_k_norm < 1e-8

    def test_misra_below_threshold(self):
        w, r = 0.7, 0.5
        th = misra_threshold(w, r)
        rep = check_thm_block1(np.array([[w]]), np.array([[0.5 * th]]), AP5)
        assert rep.factor_verdict and rep.certificate.certified and rep.agree
        assert rep.max_k_norm <= 1.0 + 1e-8
        assert rep.max_recon_residual <= 1e-8

    def test_misra_above_threshold(self):
        w, r = 0.7, 0.5
        th = misra_threshold(w, r)
        rep = check_thm_block1(np.array([[w]]), np.array([[1.1 * th]]), AP5)
        assert not rep.factor_verdict
        assert rep.certificate.verdict == "refuted"
        assert rep.agree

    def test_margins_join_by_grid_point(self):
        # X = 3e4 trips the sweep rounding guard on the rungs eps = 0.02 and
        # 0.01, so the certificate holds records for the other four rungs only
        rep = check_thm_block1(np.array([[0.7]]), np.array([[3e4]]), AP5)
        cert = rep.certificate
        assert [d.split(":")[0] for d in cert.diagnostics] == ["eps=0.02", "eps=0.01"]
        margins = {(eps, a): lm for eps, a, lm, _, _ in cert.records.tolist()}
        assert len(margins) == 256
        points = rep.to_dict()["points"]
        assert len(points) == 384
        for p in points:
            assert p["lambda_min"] == margins.get((p["eps"], complex(*p["alpha"])))
        nulls = [p["eps"] for p in points if p["lambda_min"] is None]
        assert len(nulls) == 128 and set(nulls) == {0.02, 0.01}

    def test_record_layout(self):
        # one THM_RECORD row per grid point in grid order, whatever n is; the
        # X = 3e4 case above has nan margins on its two skipped rungs only
        grid = PencilGrid((0.5, 0.1, 0.01), 8)
        t1, _, x = interior_commuting_triple(4, AP5, seed=3)
        reps = [check_thm_block1(np.array([[0.7]]), np.array([[0.1]]), AP5, grid),
                check_thm_block1(t1, 0.05 * x, AP5, grid)]
        for rep in reps:
            recs = rep.records
            assert recs.dtype == certifier.THM_RECORD and recs.shape == (24,)
            assert np.array_equal(recs["eps"], np.repeat(grid.eps_values, 8))
            assert np.array_equal(recs["alpha"], np.tile(grid.alphas(), 3))
            assert not np.isnan(recs["lambda_min"]).any()
        assert reps[0].records.nbytes == reps[1].records.nbytes
        recs = check_thm_block1(np.array([[0.7]]), np.array([[3e4]]), AP5).records
        assert len(recs) == len(DEFAULT_GRID.eps_values) * DEFAULT_GRID.alpha_count
        skipped = np.isnan(recs["lambda_min"])
        assert skipped.sum() == 128 and set(recs["eps"][skipped].tolist()) == {0.02, 0.01}

    def test_k_norm_within_slack_gets_its_unitary(self):
        # max ||K|| = 1 + 7e-9 passes the norm rule; I - K*K then dips below the
        # PSD floor of sqrt_psd, so the Halmos unitary must not go through it
        t, grid = np.array([[0.7]]), PencilGrid((0.5,), 8)
        unit = check_thm_block1(t, np.array([[1.0]]), AP5, grid).max_k_norm
        rep = check_thm_block1(t, np.array([[(1.0 + 7e-9) / unit]]), AP5, grid)
        assert 1.0 + 5e-9 < rep.max_k_norm <= 1.0 + PSD_TOL
        assert rep.factor_verdict and rep.certificate.certified and rep.agree
        assert rep.max_recon_residual <= 1e-8


def _triangular(n, r, h, rng):
    """Triangular T with moduli in the middle 70% of the band of A_r and
    off-diagonal mass up to h (1 - r): at h up to 0.3 both verdicts occur."""
    w = (r + (1.0 - r) * (0.15 + 0.7 * rng.random(n))) * np.exp(2j * np.pi * rng.random(n))
    f = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    return np.diag(w) + h * (1.0 - r) * f


def _unitary(t, r, m, rng):
    u = haar_unitary(t.shape[0], rng)
    return (u @ t) @ u.conj().T, np.arange(m)


def _rotation(t, r, m, rng):
    k = int(rng.integers(1, m))
    return np.exp(2j * np.pi * k / m) * t, (np.arange(m) + k) % m


# Maps (T, r, m, rng) -> (T', i) that keep the A_r-contraction property, with
# i the alpha index map: the margin of T' at alpha_j is T's at alpha_i[j].
INVARIANCE_MAPS = {
    "adjoint": lambda t, r, m, rng: (t.conj().T, -np.arange(m) % m),
    "inverse": lambda t, r, m, rng: (r * np.linalg.inv(t), -np.arange(m) % m),
    "unitary": _unitary,
    "rotation": _rotation,
}

INVARIANCE_GRIDS = pytest.mark.parametrize("grid", [DEFAULT_GRID, PencilGrid((0.0,), 64)],
                                           ids=["default", "limit"])


class TestInvariance:
    """Exact invariances of the A_r-contraction property, checked without an oracle.

    A_r is closed under conjugation, rotation and z -> r/z, so T is an
    A_r-contraction iff T*, e^{i theta} T, r T^{-1} or U T U* (U unitary) is,
    and T + S (direct sum) is one iff T and S are.  On the pencil: its
    coefficients are real, so Gamma(conj(alpha) T*) = Gamma(alpha T)*, whose
    Hermitian part is Re Gamma(alpha T); r T^{-1} swaps the two sides of the
    fold, so Gamma(alpha; r T^{-1}) = Gamma(conj(alpha); T); a rotation by
    alpha_k moves alpha_j to alpha_{j+k}; and Gamma of a direct sum is the
    direct sum of the Gammas.
    """

    @pytest.mark.parametrize("name", INVARIANCE_MAPS)
    @INVARIANCE_GRIDS
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(n=st.integers(2, 5), r=st.sampled_from([0.3, 0.5, 0.7]),
           seed=st.integers(0, 2**31 - 1), h=st.floats(0.0, 0.3), chain=st.booleans())
    def test_map_keeps_verdict_and_margins(self, name, grid, n, r, seed, h, chain):
        ap, rng, m = AnnulusParams(r), np.random.default_rng(seed), grid.alpha_count
        if chain:  # the Jordan chain w I + h (1 - r) S of length 3 to 5
            n = max(n, 3)
            t = _triangular(1, r, 0.0, rng)[0, 0] * np.eye(n) + h * (1.0 - r) * np.eye(n, k=1)
        else:
            t = _triangular(n, r, h, rng)
        t2, index = INVARIANCE_MAPS[name](t, r, m, rng)
        a, b = certify_ar(t, ap, grid), certify_ar(t2, ap, grid)
        assert np.array_equal(a.records["eps"], b.records["eps"])
        lam_a = a.records["lambda_min"].reshape(-1, m)[:, index]
        lam_b = b.records["lambda_min"].reshape(-1, m)
        scale = np.maximum(a.records["scale"].reshape(-1, m)[:, index],
                           b.records["scale"].reshape(-1, m))
        assert np.all(np.abs(lam_a - lam_b) <= 1e-12 * scale)
        slack = a.records["lambda_min"] + PSD_TOL * a.records["scale"]
        if np.abs(slack).min() > 1e-12 * a.records["scale"].max():
            assert a.verdict == b.verdict

    @pytest.mark.parametrize("kind", ["normal", "triangular"])
    @INVARIANCE_GRIDS
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(n=st.integers(1, 3), r=st.sampled_from([0.3, 0.5, 0.7]),
           seed=st.integers(0, 2**31 - 1), h=st.floats(0.05, 1.0))
    def test_direct_sum(self, kind, grid, n, r, seed, h):
        # T (a normal T takes the scalar route) plus a 2 x 2 Jordan block S,
        # whose sum leaves the scalar route; at h up to 1 each part is
        # refuted in some examples and certified in others
        ap, rng = AnnulusParams(r), np.random.default_rng(seed)
        t = _triangular(n, r, 0.0 if kind == "normal" else h, rng)
        if kind == "normal":
            u = haar_unitary(n, rng)
            t = (u @ t) @ u.conj().T
        s = _triangular(1, r, 0.0, rng)[0, 0] * np.eye(2) + h * (1.0 - r) * np.eye(2, k=1)
        ts = np.block([[t, np.zeros((n, 2))], [np.zeros((2, n)), s]])
        a, b, c = (certify_ar(x, ap, grid) for x in (t, s, ts))
        if kind == "normal":
            assert [eps for eps, _ in a.scalar_rungs] == list(grid.eps_values)
            assert c.scalar_rungs == ()
        assert np.array_equal(a.records["eps"], c.records["eps"])
        assert np.array_equal(b.records["eps"], c.records["eps"])
        lam = np.minimum(a.records["lambda_min"], b.records["lambda_min"])
        scale = np.maximum.reduce([x.records["scale"] for x in (a, b, c)])
        assert np.all(np.abs(c.records["lambda_min"] - lam) <= 1e-12 * scale)
        # outside the band where the slack PSD_TOL * scale of one part decides
        # differently from the sum's, the sum is refuted iff a part is
        low, top = lam.min(), scale.max()
        if not -PSD_TOL * top - 1e-11 * top <= low <= -PSD_TOL + 1e-11 * top:
            refuted = [x.verdict == certifier.VERDICT_REFUTED for x in (a, b, c)]
            assert refuted[2] == (refuted[0] or refuted[1])

    @INVARIANCE_GRIDS
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(n=st.integers(1, 3), r=st.sampled_from([0.3, 0.5]),
           seed=st.integers(0, 2**31 - 1), x_scale=st.floats(0.05, 1.0))
    def test_thm_under_unitary_similarity(self, grid, n, r, seed, x_scale):
        # (U T U*, U X U*) assembles to (U + U) B (U + U)* for the block B of (T, X).
        # k_norm = ||P^{-1/2} R P^{-1/2}|| with P = Re Gamma(alpha T) moves by
        # about k times the pencil's rounding over lambda_min(P), so it is
        # compared to 1e-12 times that condition number, read off T's
        # certificate (measured: at most 3.5e-14 of it, but 3.9e-10 relative)
        ap = AnnulusParams(r)
        t, _, x = interior_commuting_triple(n, ap, seed, x_scale=x_scale)
        u = haar_unitary(n, np.random.default_rng(seed + 1))
        a = check_thm_block1(t, x, ap, grid)
        b = check_thm_block1(u @ t @ u.conj().T, u @ x @ u.conj().T, ap, grid)
        p = certify_ar(t, ap, grid).records
        ra, rb = a.records, b.records
        tol = 1e-12 * ra["k_norm"] * p["scale"] / p["lambda_min"]
        assert np.all(np.abs(ra["k_norm"] - rb["k_norm"]) <= tol)
        scale = np.maximum(a.certificate.records["scale"], b.certificate.records["scale"])
        assert np.all(np.abs(ra["lambda_min"] - rb["lambda_min"]) <= 1e-12 * scale)
        clear = np.abs(ra["k_norm"] - (1.0 + PSD_TOL)) > tol
        assert np.array_equal(ra["passes"][clear], rb["passes"][clear])


class TestEquivalenceProperty:
    def test_fifty_mixed_tx_instances_agree(self):
        # mixed certified/refuted population; the factor verdict and the
        # assembled-block certificate must never part ways
        rng = np.random.default_rng(505)
        disagreements = 0
        for i in range(50):
            r = 0.3 if i % 2 == 0 else 0.5
            ap = AnnulusParams(r)
            aw = r + (0.3 + 0.5 * rng.random()) * (1.0 - r)
            w = aw * np.exp(2j * np.pi * rng.random())
            mult = 0.7 if i % 4 < 2 else 1.3
            h = mult * misra_threshold(w, r)
            rep = check_thm_block1(np.array([[w]]), np.array([[h]]), ap)
            if not rep.agree:
                disagreements += 1
        assert disagreements == 0


class TestThmBlock2:
    def test_equal_diagonals_certified(self):
        t1, _, x = interior_commuting_triple(2, AP5, seed=3, x_scale=0.5)
        rep = check_thm_block2(t1, t1, x, AP5)
        assert rep.factor_verdict and rep.certificate.certified and rep.agree

    def test_small_and_large_x_agree(self):
        t1, t2, x = interior_commuting_triple(2, AP5, seed=5)
        small = check_thm_block2(t1, t2, 1e-4 * x, AP5)
        assert small.agree and small.factor_verdict
        large = check_thm_block2(t1, t2, 10.0 * x, AP5)
        assert large.agree and not large.factor_verdict


# T = [[0.7, 0.5], [0, 0.7]] has norm 1.1: not an annulus contraction at r = 0.5
NOT_CONTRACTION = np.array([[0.7, 0.5], [0.0, 0.7]])


class TestUnitBlockSweep:
    @pytest.mark.parametrize("which", ["block1", "block2"])
    def test_one_pencil_per_matrix_two_sweeps_per_eps(self, pencil_calls, which):
        # the unit block's sweep on the factor side, the assembled block's in the
        # certificate: one pencil each, swept at every eps
        t1, t2, x = interior_commuting_triple(2, AP5, seed=7)
        grid = PencilGrid((0.5, 0.1, 0.01), 8)
        if which == "block1":
            rep = check_thm_block1(t1, 0.05 * x, AP5, grid)
        else:
            rep = check_thm_block2(t1, t2, 0.05 * x, AP5, grid)
        assert rep.agree
        assert [c for c in pencil_calls if c[0] == "build"] == [("build", (4, 4))] * 2
        sweeps = [("sweep", (4, 4), eps) for eps in grid.eps_values]
        assert [c for c in pencil_calls if c[0] == "sweep"] == sweeps * 2

    @pytest.mark.parametrize("which", ["block1", "block2"])
    def test_one_stacked_kernel_call_per_eps(self, monkeypatch, which):
        # the parent made one factor_through call per grid point
        calls = {"sqrt_psd": [], "factor_through": [], "halmos_unitary": []}
        for name, log in calls.items():
            def counting(arg, *rest, _fn=getattr(certifier, name), _log=log):
                _log.append(np.shape(arg))
                return _fn(arg, *rest)
            monkeypatch.setattr(certifier, name, counting)
        t1, t2, x = interior_commuting_triple(2, AP5, seed=7)
        grid = PencilGrid((0.5, 0.1, 0.01), 8)
        if which == "block1":
            rep = check_thm_block1(t1, 0.05 * x, AP5, grid)
        else:
            rep = check_thm_block2(t1, t2, 0.05 * x, AP5, grid)
        assert rep.agree
        rungs = len(grid.eps_values)
        assert calls["sqrt_psd"] == [(8, 2, 2, 2)] * rungs
        assert calls["factor_through"] == [(8, 2, 2)] * rungs
        # at most one Halmos call per eps, on that rung's passing points
        assert 0 < len(calls["halmos_unitary"]) <= rungs
        assert sum(shape[0] for shape in calls["halmos_unitary"]) == rep.records["passes"].sum()
        assert rep.records["eps"].tolist() == np.repeat(grid.eps_values, 8).tolist()

    def test_earliest_failing_point_named(self):
        # T2 is T1 rotated by e^{i pi/4}, so its first indefinite Re Gamma comes
        # one alpha earlier on the grid; the error names the block and the alpha
        # that a loop over the points (T1 before T2 at each alpha) meets first
        grid = PencilGrid((0.5, 0.01), 8)
        t1, t2 = NOT_CONTRACTION, np.exp(0.25j * np.pi) * NOT_CONTRACTION
        spec = BlockSpec("hat", t1, 0.01 * np.eye(2), t2)
        first = None
        for eps in grid.eps_values:
            sweep = MatrixPencil(unit_block(spec), AP5).gamma_for_alphas(eps, 8)
            for alpha, g in zip(grid.alphas(), sweep):
                for name, block in (("T1", g[:2, :2]), ("T2", g[2:, 2:])):
                    try:
                        sqrt_psd(re_part(block))
                    except DomainError as exc:
                        first = first or (name, eps, alpha, str(exc))
        name, eps, alpha, text = first
        assert name == "T2"
        with pytest.raises(DomainError) as caught:
            check_thm_block2(t1, t2, 0.01 * np.eye(2), AP5, grid)
        assert str(caught.value) == (
            f"T2 is not an annulus contraction, which the block theorems assume: "
            f"Re Gamma(alpha T2) at eps = {eps}, alpha = {alpha:.6g}: {text}")

    @pytest.mark.parametrize("which", ["T1", "T2"])
    def test_indefinite_diagonal_named(self, which):
        # the theorems assume annulus-contraction diagonals; the certificate
        # of the assembled block refutes, the factor side names the culprit
        good = 0.7 * np.eye(2)
        grid = PencilGrid((0.5, 0.01), 8)
        with pytest.raises(DomainError, match=f"{which} is not an annulus contraction"):
            if which == "T1":
                check_thm_block1(NOT_CONTRACTION, 0.01 * np.eye(2), AP5, grid)
            else:
                check_thm_block2(good, NOT_CONTRACTION, 0.01 * np.eye(2), AP5, grid)
        assert certify_ar(NOT_CONTRACTION, AP5, grid).verdict == "refuted"
