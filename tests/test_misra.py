from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from annulus_cert import misra
from annulus_cert.certifier import certify_ar
from annulus_cert.errors import DiagnosticError, DomainError, TruncationError
from annulus_cert.misra import (
    MISRA_GRID,
    jordan_block,
    kernel_diag,
    misra_threshold,
    sweep_rows,
    threshold_via_pencil,
)
from annulus_cert.pencil import SCALAR_TOL, AnnulusParams, scalar_terms


def kernel_nsum(absw, r):
    """Arclength-weight kernel diagonal in 40-digit arithmetic, the bilateral
    series summed to convergence by mp.nsum."""
    mp.dps = 40
    rho, r = mpf(absw) ** 2, mpf(r)
    return mp.nsum(lambda n: rho**n / (1 + r ** (2 * n + 1)), [-mp.inf, mp.inf])


@lru_cache(maxsize=None)
def bisect_threshold(w, r, search_tol=2e-5):
    """Certificate flip point by plain bisection over [0, 2], the oracle for
    threshold_via_pencil."""
    ap = AnnulusParams(r)

    def certified(h):
        cert = certify_ar(jordan_block(w, h), ap, MISRA_GRID)
        assert cert.verdict != "inconclusive"
        return cert.certified

    lo, hi = 0.0, 2.0
    assert certified(lo) and not certified(hi)
    while hi - lo > search_tol:
        mid = 0.5 * (lo + hi)
        if certified(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _FixedVerdict:
    """Stand-in certificate with a fixed verdict."""

    def __init__(self, verdict):
        self.certified = verdict == "certified"
        self.verdict = verdict
        self.diagnostics = ()


# Frozen from kernel_nsum(0.5, 0.25) above; the symmetric point |w| = sqrt(r).
KERNEL_HALF_QUARTER = 2.258850470247361


class TestKernelDiag:
    def test_center_term(self):
        # n = 0 contributes 1/(1+r); the rest is strictly positive
        for r in (0.25, 0.5, 0.8):
            assert kernel_diag(np.sqrt(r), r) > 1.0 / (1.0 + r)

    def test_frozen_oracle_value(self):
        assert kernel_diag(0.5, 0.25) == pytest.approx(KERNEL_HALF_QUARTER, rel=1e-12)
        assert float(kernel_nsum(0.5, 0.25)) == pytest.approx(KERNEL_HALF_QUARTER, rel=1e-12)

    def test_depends_only_on_modulus(self):
        w = 0.5 * np.exp(1.234j)
        assert kernel_diag(w, 0.25) == pytest.approx(kernel_diag(0.5, 0.25), rel=1e-14)

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.9, 0.99])
    def test_closed_form_matches_bilateral_nsum(self, r):
        # from 1e-9 (1-r) off the inner circle to 1e-9 (1-r) off the outer one
        gap = 1e-9 * (1.0 - r)
        for aw in (r + gap, r + 1e-4 * (1.0 - r), np.sqrt(r), 1.0 - 1e-4 * (1.0 - r), 1.0 - gap):
            ref = kernel_nsum(aw, r)
            assert abs(kernel_diag(aw, r) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("r, aw", [(0.3, 0.6), (0.5, 0.500001), (0.9, 0.99)])
    def test_a_priori_remainder_bound_holds(self, r, aw):
        # the closed form's terms t_k are positive and shrink by at least r,
        # so the sum over k >= K lies in (0, r^K t_0] and t_0 <= K(w) / (1-r):
        # the bound behind kernel_diag's term count
        mp.dps = 40
        rho, rr = mpf(aw), mpf(r)

        def t(k):
            return (rr**k / ((1 - rho * rr**k) * (1 + rho * rr**k))
                    + rr ** (k + 1) / ((rho - rr ** (k + 1)) * (rho + rr ** (k + 1))))

        total = kernel_nsum(aw, r)
        assert t(0) <= total / (1 - rr)
        for k in range(40):
            assert 0 < t(k + 1) <= rr * t(k)
        for big_k in (1, 2, 5, 20):
            partial = sum((-1) ** k * t(k) for k in range(big_k))
            assert 0 < (-1) ** big_k * (total - partial) <= rr**big_k * t(0)
        big_k = scalar_terms(r, SCALAR_TOL * (1.0 - r))
        assert r**big_k <= SCALAR_TOL * (1.0 - r) < r ** (big_k - 1)

    def test_lower_bound_half(self):
        for r, aw in [(0.3, 0.4), (0.5, 0.7), (0.8, 0.9)]:
            assert kernel_diag(aw, r) >= 0.5

    def test_divergence_towards_outer_boundary(self):
        assert kernel_diag(0.99, 0.5) > kernel_diag(0.9, 0.5)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            kernel_diag(0.5, 0.5)
        with pytest.raises(DomainError):
            kernel_diag(1.0, 0.5)


class TestMisraThreshold:
    def test_reciprocal_of_frozen_oracle(self):
        assert misra_threshold(0.5, 0.25) == pytest.approx(1.0 / KERNEL_HALF_QUARTER, rel=1e-10)

    def test_radially_symmetric(self):
        a = misra_threshold(0.6 * np.exp(0.7j), 0.3)
        b = misra_threshold(0.6, 0.3)
        assert a == pytest.approx(b, rel=1e-12)

    def test_positive_inside(self):
        for aw in np.linspace(0.55, 0.95, 9):
            assert misra_threshold(aw, 0.5) > 0.0

    def test_vanishes_towards_boundary(self):
        assert misra_threshold(0.99, 0.5) < misra_threshold(0.9, 0.5) < misra_threshold(0.75, 0.5)


class TestThresholdViaPencil:
    def test_agreement_mid_annulus(self):
        tk = misra_threshold(0.7, 0.5)
        tp = threshold_via_pencil(0.7, 0.5)
        assert abs(tp - tk) / tk <= 0.01

    def test_rotation_invariance(self):
        w = 0.6 * np.exp(1j * np.pi / 3)
        tk = misra_threshold(w, 0.3)
        tp = threshold_via_pencil(w, 0.3)
        assert abs(tp - tk) / tk <= 0.01
        tp_real = threshold_via_pencil(0.6, 0.3)
        assert abs(tp - tp_real) / tp_real <= 5e-3

    def test_zero_h_certified_precondition(self):
        # w outside the open annulus is rejected before any search
        with pytest.raises(DomainError):
            threshold_via_pencil(0.4, 0.5)

    def test_three_pencils_per_call(self, pencil_calls):
        # J1's for the bracket and one in each of the two bracket certificates,
        # each swept once, on the limit rung of MISRA_GRID
        threshold_via_pencil(0.7, 0.5)
        assert [c for c in pencil_calls if c[0] == "build"] == [("build", (2, 2))] * 3
        assert [c for c in pencil_calls if c[0] == "sweep"] == [("sweep", (2, 2), 0.0)] * 3
        assert pencil_calls.count("eig") == 3 and pencil_calls.count("inverse") == 3
        assert "eigvals" not in pencil_calls

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(r=st.sampled_from([0.3, 0.5]), frac=st.floats(0.0, 1.0), phase=st.floats(0.0, 1.0))
    def test_limit_rung_flips_at_the_kernel_threshold(self, r, frac, phase):
        # w over sweep_rows' band: MISRA_GRID certifies 0.999 x and refutes
        # 1.001 x the kernel threshold, which no eps > 0 rung can refute
        aw = r + (0.07 + 0.83 * frac) * (1.0 - r)
        w = aw * np.exp(2j * np.pi * phase)
        tk = misra_threshold(w, r)
        ap = AnnulusParams(r)
        assert certify_ar(jordan_block(w, 0.999 * tk), ap, MISRA_GRID).verdict == "certified"
        assert certify_ar(jordan_block(w, 1.001 * tk), ap, MISRA_GRID).verdict == "refuted"

    @pytest.mark.parametrize("w, r", [(0.7, 0.5), (0.9, 0.3), (0.4 + 0.2j, 0.3)])
    def test_matches_bisection_oracle(self, w, r):
        assert abs(threshold_via_pencil(w, r) - bisect_threshold(w, r)) <= 2e-5

    def test_two_certificates_per_threshold(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0][0, 1])
            return certify_ar(*args, **kwargs)

        monkeypatch.setattr(misra, "certify_ar", counting)
        threshold_via_pencil(0.7, 0.5)
        assert len(calls) == 2

    @pytest.mark.parametrize("shift", [-0.1, 0.1])
    def test_shifted_bracket_raises(self, monkeypatch, shift):
        # a bracket wholly below (shift < 0) or above (shift > 0) the flip point
        # is reported, not widened and searched
        oracle = bisect_threshold(0.7, 0.5)
        monkeypatch.setattr(misra, "_pencil_bracket",
                            lambda *args: (oracle + shift, oracle + shift + 2e-5))
        end = "upper bracket end .* certified" if shift < 0 else "lower bracket end .* refuted"
        with pytest.raises(DiagnosticError, match=end):
            threshold_via_pencil(0.7, 0.5)

    def test_truncation_in_scan_keeps_error_contract(self, monkeypatch):
        # an eps rung the pencil cannot sum makes the certificate inconclusive,
        # which the search reports instead of reading it as a verdict
        monkeypatch.setattr(misra, "certify_ar", lambda *args, **kwargs: _FixedVerdict("inconclusive"))
        with pytest.raises(DiagnosticError, match="inconclusive at h = "):
            threshold_via_pencil(0.7, 0.5)

    @pytest.mark.parametrize("verdict, message", [
        ("refuted", "lower bracket end h = .* refuted"),
        ("certified", "upper bracket end h = .* certified"),
    ], ids=["lower_end_refuted", "upper_end_certified"])
    def test_bracket_ends_keep_error_contract(self, monkeypatch, verdict, message):
        monkeypatch.setattr(misra, "certify_ar", lambda *args, **kwargs: _FixedVerdict(verdict))
        with pytest.raises(DiagnosticError, match=message):
            threshold_via_pencil(0.7, 0.5)

    @pytest.mark.parametrize("scan, message", [
        (TruncationError("planted"), "pencil scan failed: planted"),
        (DomainError("planted"), "pencil scan failed: planted"),
        (np.array([[-0.5, 1.0], [0.0, -0.5]]), "Re Gamma.* < 0"),
        (np.array([[1.5, 1.0], [0.0, 1.5]]), "flip point 3 lies outside"),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), "flip point 0 lies outside"),
    ], ids=["truncation", "domain", "negative_re_gamma", "flip_point_above_2", "flip_point_at_0"])
    def test_failed_scan_raises_instead_of_a_midpoint(self, monkeypatch, scan, message):
        # the midpoint of [0, 2] is 1.0; a scan that fails or leaves the search
        # range must not produce it, nor spend a certificate
        class PlantedPencil:
            def __init__(self, *args):
                pass

            def gamma_for_alphas(self, eps, m):
                if isinstance(scan, Exception):
                    raise scan
                return np.broadcast_to(scan.astype(complex), (m, 2, 2))

        certificates = []
        monkeypatch.setattr(misra, "MatrixPencil", PlantedPencil)
        monkeypatch.setattr(misra, "certify_ar", lambda *args, **kwargs: certificates.append(args))
        with pytest.raises(DiagnosticError, match=message):
            threshold_via_pencil(0.7, 0.5)
        assert certificates == []


class TestSweep:
    def test_rows_schema_and_gap(self):
        rows = sweep_rows(0.5, 3, seed=0)
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"w_re", "w_im", "r", "threshold_kernel", "threshold_pencil", "rel_gap"}
            assert row["rel_gap"] <= 0.01

    def test_deterministic(self):
        assert sweep_rows(0.3, 2, seed=5) == sweep_rows(0.3, 2, seed=5)

    @pytest.mark.parametrize("samples, seed, message", [
        (2.5, 0, "samples must be an integer"),
        (True, 0, "samples must be an integer"),
        (0, 0, "samples must be at least 1"),
        (1, 2.5, "seed must be an integer"),
        (1, True, "seed must be an integer"),
        (1, -1, "seed must be at least 0"),
    ])
    def test_bad_samples_or_seed(self, samples, seed, message):
        # rejected before the first threshold is computed
        with pytest.raises(DomainError, match=message):
            sweep_rows(0.5, samples, seed=seed)
