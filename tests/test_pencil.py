import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from annulus_cert.blocks import BlockSpec, assemble
from annulus_cert.errors import DomainError, TruncationError
from annulus_cert.generators import random_normal_annulus
from annulus_cert.numerics import operator_norm
from annulus_cert.pencil import (
    AnnulusParams,
    N_MAX,
    TAIL_TOL,
    MatrixPencil,
    PencilPoint,
    gamma_coeff,
    gamma_derivative_matrix,
    gamma_matrix,
    gamma_scalar_batch,
    re_part,
    scalar_terms,
)

from conftest import eig_match_max

AP5 = AnnulusParams(0.5)


def gamma_nsum(z, eps, r):
    """Literal-formula bilateral series in 40-digit arithmetic, summed to
    convergence by mp.nsum."""
    mp.dps = 40
    b = 1 - mpf(eps)
    r = mpf(r)
    z = mpc(z)
    return complex(mp.nsum(lambda k: 2 * b**k / (1 + b ** (2 * k) * r**k) * z**k, [-mp.inf, mp.inf]))


class TestCoefficients:
    def test_k0_is_one(self):
        for eps, r in [(0.5, 0.5), (0.1, 0.3), (0.9, 0.8)]:
            assert gamma_coeff(0, eps, r) == pytest.approx(1.0)

    def test_direct_substitution(self):
        assert gamma_coeff(1, 0.5, 0.5) == pytest.approx(2 * 0.5 / (1 + 0.25 * 0.5))

    def test_k_minus_10_extended_precision(self):
        mp.dps = 40
        k, eps, r = -10, 0.1, 0.5
        lit = float(2 * (1 - mpf(eps)) ** k / (1 + (1 - mpf(eps)) ** (2 * k) * mpf(r) ** k))
        assert gamma_coeff(k, eps, r) == pytest.approx(lit, rel=1e-12)

    @pytest.mark.parametrize("eps,r", [(0.5, 0.5), (0.1, 0.3), (0.02, 0.5)])
    def test_decay_bounds(self, eps, r):
        b = 1.0 - eps
        for k in range(0, 300):
            assert gamma_coeff(k, eps, r) <= 2.0 * b**k + 1e-300
        for k in range(-300, 0):
            assert gamma_coeff(k, eps, r) <= 2.0 * (b * r) ** (-k) + 1e-300

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            gamma_coeff(1, 0.0, 0.5)
        with pytest.raises(DomainError):
            gamma_coeff(1, 0.5, 1.5)


class TestGammaScalar:
    def test_wide_truncation_oracle_at_one(self):
        mine = gamma_scalar_batch(1.0, PencilPoint(0.5), AP5)[0]
        assert abs(mine - gamma_nsum(1.0, 0.5, 0.5)) < 1e-10

    def test_extended_precision_interior_point(self):
        z = -0.3
        mine = gamma_scalar_batch(z, PencilPoint(0.01), AnnulusParams(0.3))[0]
        assert abs(mine - gamma_nsum(z, 0.01, 0.3)) < 2e-10

    def test_scalar_positivity_small_grid(self):
        # scalar points of the closed annulus are normal contractions
        for r in (0.5,):
            ap = AnnulusParams(r)
            radii = np.linspace(r, 1.0, 20)
            angles = np.exp(2j * np.pi * np.arange(20) / 20)
            z = np.outer(radii, angles).ravel()
            for eps in (0.5, 0.25, 0.1):
                for alpha in (1.0, 1j, -1.0):
                    vals = gamma_scalar_batch(z, PencilPoint(eps, alpha), ap)
                    assert float(np.min(vals.real)) >= -1e-9

    def test_batch_matches_pointwise(self):
        z = np.array([0.55, 0.8 + 0.1j, -0.95j])
        pt = PencilPoint(0.1, np.exp(0.3j))
        batch = gamma_scalar_batch(z, pt, AP5)
        for zi, vi in zip(z, batch):
            assert abs(gamma_scalar_batch(zi, pt, AP5)[0] - vi) < 1e-10

    def test_reports_truncation_indices(self):
        n_pos, n_neg = MatrixPencil(np.array([[0.7]]), 0.25, AP5).gamma_indices()
        assert n_pos >= 8 and n_neg >= 8

    def test_outside_band_rejected(self):
        with pytest.raises(DomainError):
            gamma_scalar_batch(0.2, PencilPoint(0.5), AP5)

    def test_band_edge_matches_reference(self):
        # just inside the outer band edge, where a term-by-term sum needs
        # tens of thousands of terms
        ref = gamma_nsum(1.0, 0.001, 0.5)
        assert abs(gamma_scalar_batch(1.0, PencilPoint(0.001), AP5)[0] - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("z", [2.0, 0.25])
    def test_exact_band_edge_diverges(self, z):
        # at eps = 0.5 the band of r = 0.5 is [0.25, 2]; on its edge |x| or |y| is 1
        with pytest.raises(TruncationError, match="diverges"):
            gamma_scalar_batch(z, PencilPoint(0.5), AP5)

    @pytest.mark.parametrize("r", [0.3, 0.5])
    @pytest.mark.parametrize("eps", [0.5, 1e-3, 1e-6])
    def test_closed_form_matches_bilateral_nsum(self, r, eps):
        ap = AnnulusParams(r)
        angles = np.exp(2j * np.pi * np.arange(8) / 8)
        angles[0] = 1.0
        for rho in (r, 1.0):
            z = rho * angles
            for alpha in (1.0, 1j):  # alpha z stays exact in floating point
                vals = gamma_scalar_batch(z, PencilPoint(eps, alpha), ap)
                for zi, vi in zip(z, vals):
                    ref = gamma_nsum(alpha * zi, eps, r)
                    assert abs(vi - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_a_priori_remainder_bound_holds(self):
        # after K terms of the closed form the remainder is at most
        # 4 d^K / ((1-d)(1-d^K)); checked in 40 digits near both circles
        mp.dps = 40
        eps, r = mpf(0.01), mpf(0.5)
        b = 1 - eps
        d = b * b * r
        for z in (mpc(0.999, 0.01), mpc(0.0, 0.501), mpc(-0.7, 0.2)):
            x, y = b * z, b * r / z
            total = gamma_nsum(z, 0.01, 0.5)
            partial = 1
            for k in range(12):
                partial += 2 * (-1) ** k * (x * d**k / (1 - x * d**k) + y * d**k / (1 - y * d**k))
                assert abs(total - partial) <= 4 * d ** (k + 1) / ((1 - d) * (1 - d ** (k + 1)))
        n_terms = scalar_terms(0.25, 0.5e-16)
        assert 0.25**n_terms <= 0.5e-16 < 0.25 ** (n_terms - 1)


class TestGammaMatrix:
    def test_diagonal_matches_scalar(self):
        pt = PencilPoint(0.1, np.exp(0.7j))
        zs = np.array([0.6, 0.9 * np.exp(2j)])
        g = gamma_matrix(np.diag(zs), pt, AP5)
        for i, z in enumerate(zs):
            assert abs(g[i, i] - gamma_scalar_batch(z, pt, AP5)[0]) < 5e-9
        assert abs(g[0, 1]) == 0.0

    def test_scalar_multiple_of_identity(self):
        pt = PencilPoint(0.3)
        g = gamma_matrix(0.5 * np.eye(3), pt, AP5)
        assert operator_norm(g - gamma_scalar_batch(0.5, pt, AP5)[0] * np.eye(3)) < 1e-9

    def test_normal_spectral_mapping(self):
        t = random_normal_annulus(4, AP5, seed=5)
        pt = PencilPoint(0.1, np.exp(1.1j))
        g = gamma_matrix(t, pt, AP5)
        lam_t = np.linalg.eigvals(t)
        mapped = np.array([gamma_scalar_batch(z, pt, AP5)[0] for z in lam_t])
        assert eig_match_max(np.linalg.eigvals(g), mapped) < 1e-8

    def test_reports_indices(self):
        n_pos, n_neg = MatrixPencil(0.7 * np.eye(2), 0.25, AP5).gamma_indices()
        assert n_pos >= 8 and n_neg >= 8

    def test_singular_rejected(self):
        with pytest.raises(DomainError):
            gamma_matrix(np.diag([0.7, 0.0]), PencilPoint(0.5), AP5)

    def test_spectrum_outside_band_rejected(self):
        with pytest.raises(DomainError):
            gamma_matrix(np.diag([3.0]), PencilPoint(0.5), AP5)


class TestGammaDerivative:
    def test_identity_matches_scalar_derivative_sum(self):
        pt = PencilPoint(0.25, 1.0)
        d = gamma_derivative_matrix(np.eye(2), pt, AP5)
        # term-by-term scalar differentiation at z = 1
        total = sum(
            k * gamma_coeff(k, pt.eps, AP5.r) for k in range(-400, 401) if k != 0
        )
        assert operator_norm(d - total * np.eye(2)) < 1e-8

    def test_block_series_cross_check(self):
        t = random_normal_annulus(3, AP5, seed=9)
        pt = PencilPoint(0.1, np.exp(0.7j))
        block = assemble(BlockSpec("tx", t, np.eye(3)))
        g2n = gamma_matrix(block, pt, AP5)
        d = gamma_derivative_matrix(t, pt, AP5)
        assert operator_norm(g2n[:3, 3:] - d) < 1e-8

    def test_finite_difference(self):
        pt = PencilPoint(0.2, np.exp(0.4j))
        z0 = 0.75 + 0.05j
        d = gamma_derivative_matrix(np.array([[z0]]), pt, AP5)[0, 0]
        h = 1e-6
        fd = (gamma_scalar_batch(z0 + h, pt, AP5)[0]
              - gamma_scalar_batch(z0 - h, pt, AP5)[0]) / (2 * h)
        assert abs(d - fd) < 1e-7


class TestRePart:
    def test_hermitian_fixed(self):
        h = np.array([[1.0, 2j], [-2j, 3.0]])
        assert operator_norm(re_part(h) - h) < 1e-14

    def test_skew_killed(self):
        s = np.array([[1j, 2.0], [-2.0, -1j]])
        assert operator_norm(re_part(s)) < 1e-14

    def test_direct_arithmetic(self):
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert operator_norm(re_part(a) - np.array([[0.0, 1.0], [1.0, 0.0]])) < 1e-14


def reference_pencil(t, eps, r, alphas, weighted=False):
    """Per-alpha direct sums with the interleaved stop rule, as plain loops.

    Returns the values sum_j w_j alpha^j X^j + sum_m w_m conj(alpha)^m Y^m
    (w = a_j, or +j a_j and -m a_m when ``weighted``) and (n_pos, n_neg).
    """
    t = np.asarray(t, dtype=complex)
    n = t.shape[0]
    b = 1.0 - eps
    d = b * b * r
    steps = (b * t, b * r * np.linalg.inv(t))
    powers = ([np.eye(n, dtype=complex)], [np.eye(n, dtype=complex)])

    def coeff(j):
        return 2.0 / (1.0 + d ** float(j))

    acc = 0.0 if weighted else np.sqrt(n)
    runs, stops = [0, 0], [None, None]
    j = 1
    while None in stops:
        if j > N_MAX:
            raise TruncationError("reference did not decay")
        for side in (0, 1):
            if stops[side] is not None:
                continue
            powers[side].append(powers[side][-1] @ steps[side])
            term = coeff(j) * np.linalg.norm(powers[side][j])
            term = term * j if weighted else term
            small = term < TAIL_TOL * (1.0 + acc)
            acc += term
            runs[side] = runs[side] + 1 if small else 0
            if runs[side] >= 3:
                stops[side] = j
        j += 1
    n_pos, n_neg = stops
    values = []
    for alpha in alphas:
        total = np.zeros((n, n), dtype=complex)
        for j in range(1 if weighted else 0, n_pos + 1):
            w = coeff(j) * j if weighted else coeff(j)
            total += w * alpha**j * powers[0][j]
        for m in range(1, n_neg + 1):
            w = -coeff(m) * m if weighted else coeff(m)
            total += w * np.conj(alpha) ** m * powers[1][m]
        values.append(total)
    return np.array(values), (n_pos, n_neg)


def roots_of_unity(m):
    return np.exp(2j * np.pi * np.arange(m) / m)


def shift_chain(n, h):
    return 0.75 * np.eye(n) + h * np.eye(n, k=1)


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def assert_fold_matches(t, eps, m, r=0.5):
    """Gamma and the derivative pencil from the fold against the direct sums."""
    ap = AnnulusParams(r)
    alphas = roots_of_unity(m)
    mp_ = MatrixPencil(t, eps, ap)
    gam = mp_.gamma_for_alphas(m)
    ref, idx = reference_pencil(t, eps, r, alphas)
    assert mp_.gamma_indices() == idx
    assert rel_diff(gam, ref) <= 1e-12
    der = mp_.derivative_for_alphas(m)
    ref_core, idx_d = reference_pencil(t, eps, r, alphas, weighted=True)
    assert mp_.deriv_indices() == idx_d
    assert rel_diff(der, np.linalg.inv(t) @ ref_core) <= 1e-12
    return idx


class TestAlphaFold:
    def test_normal_matrix(self):
        assert_fold_matches(random_normal_annulus(4, AP5, seed=3), 0.1, 64)

    def test_nonnormal_chain(self):
        assert_fold_matches(shift_chain(6, 0.2), 0.05, 64)

    @pytest.mark.parametrize("m", [9, 13])
    def test_grid_size_not_a_power_of_two(self, m):
        assert_fold_matches(shift_chain(3, 0.1), 0.1, m)

    def test_more_alphas_than_terms(self):
        n_pos, n_neg = assert_fold_matches(random_normal_annulus(2, AP5, seed=8), 0.5, 200)
        assert max(n_pos, n_neg) < 200

    def test_single_alpha_off_the_grid(self):
        t = shift_chain(3, 0.15)
        alpha = np.exp(0.3j)
        g = gamma_matrix(t, PencilPoint(0.1, alpha), AP5)
        ref, _ = reference_pencil(t, 0.1, 0.5, [alpha])
        assert rel_diff(g, ref[0]) <= 1e-12
        d = gamma_derivative_matrix(t, PencilPoint(0.1, alpha), AP5)
        ref_core, _ = reference_pencil(t, 0.1, 0.5, [alpha], weighted=True)
        assert rel_diff(d, np.linalg.inv(t) @ ref_core[0]) <= 1e-12

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_sweep_matches_single_alpha(self, eps):
        # a single alpha is the M = 1 sweep of alpha T; the grid sweep must agree
        t = random_normal_annulus(4, AP5, seed=3)
        m = 16
        mp_ = MatrixPencil(t, eps, AP5)
        gam = mp_.gamma_for_alphas(m)
        der = mp_.derivative_for_alphas(m)
        for k, alpha in enumerate(roots_of_unity(m)):
            pt = PencilPoint(eps, alpha)
            assert rel_diff(gamma_matrix(t, pt, AP5), gam[k]) <= 1e-12
            assert rel_diff(gamma_derivative_matrix(t, pt, AP5), der[k]) <= 1e-12
            rotated = MatrixPencil(alpha * t, eps, AP5)
            assert rotated.gamma_indices() == mp_.gamma_indices()
            assert rotated.deriv_indices() == mp_.deriv_indices()

    def test_band_edge_sweep_needs_more_terms(self):
        # eigenvalue 1 sits just inside the outer band edge at eps = 0.001
        mp_ = MatrixPencil(np.diag([1.0, 0.7]), 0.001, AP5)
        with pytest.raises(TruncationError, match=f"after {N_MAX} terms"):
            mp_.gamma_for_alphas(64)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        m=st.integers(8, 100),
        eps=st.floats(0.1, 0.6),
        n=st.integers(1, 3),
        seed=st.integers(0, 2**31 - 1),
        h=st.floats(0.0, 0.3),
    )
    def test_fold_equals_direct_sum(self, m, eps, n, seed, h):
        # upper triangular: the spectrum is the diagonal, inside the annulus
        rng = np.random.default_rng(seed)
        mods = 0.5 + 0.5 * rng.random(n)
        t = np.diag(mods * np.exp(2j * np.pi * rng.random(n)))
        t = t + h * np.triu(rng.standard_normal((n, n)), 1)
        assert_fold_matches(t, eps, m)
