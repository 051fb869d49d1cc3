from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from annulus_cert.blocks import BlockSpec, assemble
from annulus_cert.certifier import certify_ar
from annulus_cert.errors import DomainError, TruncationError
from annulus_cert.generators import random_normal_annulus
from annulus_cert.misra import jordan_block
from annulus_cert.numerics import operator_norm, re_part
from annulus_cert.pencil import (
    AnnulusParams,
    MatrixPencil,
    PencilGrid,
    gamma_scalar_batch,
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


class TestGammaScalar:
    def test_wide_truncation_oracle_at_one(self):
        mine = gamma_scalar_batch(1.0, 0.5, AP5)[0]
        assert abs(mine - gamma_nsum(1.0, 0.5, 0.5)) < 1e-10

    def test_extended_precision_interior_point(self):
        z = -0.3
        mine = gamma_scalar_batch(z, 0.01, AnnulusParams(0.3))[0]
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
                    vals = gamma_scalar_batch(alpha * z, eps, ap)
                    assert float(np.min(vals.real)) >= -1e-9

    def test_batch_matches_pointwise(self):
        z = np.array([0.55, 0.8 + 0.1j, -0.95j])
        alpha = np.exp(0.3j)
        batch = gamma_scalar_batch(alpha * z, 0.1, AP5)
        for zi, vi in zip(z, batch):
            assert abs(gamma_scalar_batch(alpha * zi, 0.1, AP5)[0] - vi) < 1e-10

    def test_reports_truncation_indices(self):
        # the level count of the resolvent sum is fixed by d, m and the norms
        # of W and W^m, so it stays flat as eps shrinks towards the circles
        mp_ = MatrixPencil(np.array([[0.999]]), AP5)
        for eps in (0.5, 0.01, 1e-4, 1e-6):
            mp_.gamma_for_alphas(eps, 64)
            assert max(mp_.gamma_indices()) <= 2

    def test_outside_band_rejected(self):
        with pytest.raises(DomainError):
            gamma_scalar_batch(0.2, 0.5, AP5)

    @pytest.mark.parametrize("z", [[], [0.7, float("nan")], [0.7, complex(0.0, float("inf"))]])
    def test_empty_or_non_finite_points_rejected(self, z):
        with pytest.raises(DomainError, match="finite"):
            gamma_scalar_batch(z, 0.5, AP5)

    def test_band_edge_matches_reference(self):
        # just inside the outer band edge, where a term-by-term sum needs
        # tens of thousands of terms
        ref = gamma_nsum(1.0, 0.001, 0.5)
        assert abs(gamma_scalar_batch(1.0, 0.001, AP5)[0] - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("z", [2.0, 0.25])
    def test_exact_band_edge_diverges(self, z):
        # at eps = 0.5 the band of r = 0.5 is [0.25, 2]; on its edge |x| or |y| is 1
        with pytest.raises(TruncationError, match="diverges"):
            gamma_scalar_batch(z, 0.5, AP5)

    @pytest.mark.parametrize("r", [0.3, 0.5])
    @pytest.mark.parametrize("eps", [0.5, 1e-3, 1e-6])
    def test_closed_form_matches_bilateral_nsum(self, r, eps):
        ap = AnnulusParams(r)
        angles = np.exp(2j * np.pi * np.arange(8) / 8)
        angles[0] = 1.0
        for rho in (r, 1.0):
            z = rho * angles
            for alpha in (1.0, 1j):  # alpha z stays exact in floating point
                vals = gamma_scalar_batch(alpha * z, eps, ap)
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
        alpha = np.exp(0.7j)
        zs = np.array([0.6, 0.9 * np.exp(2j)])
        g = MatrixPencil(alpha * np.diag(zs), AP5).gamma_for_alphas(0.1, 1)[0]
        for i, z in enumerate(zs):
            assert abs(g[i, i] - gamma_scalar_batch(alpha * z, 0.1, AP5)[0]) < 5e-9
        assert abs(g[0, 1]) == 0.0

    def test_scalar_multiple_of_identity(self):
        g = MatrixPencil(0.5 * np.eye(3), AP5).gamma_for_alphas(0.3, 1)[0]
        assert operator_norm(g - gamma_scalar_batch(0.5, 0.3, AP5)[0] * np.eye(3)) < 1e-9

    def test_normal_spectral_mapping(self):
        t = random_normal_annulus(4, AP5, seed=5)
        alpha = np.exp(1.1j)
        g = MatrixPencil(alpha * t, AP5).gamma_for_alphas(0.1, 1)[0]
        lam_t = np.linalg.eigvals(t)
        mapped = np.array([gamma_scalar_batch(alpha * z, 0.1, AP5)[0] for z in lam_t])
        assert eig_match_max(np.linalg.eigvals(g), mapped) < 1e-8

    def test_reports_indices(self):
        # before any sweep there are no level counts to report
        fresh = MatrixPencil(0.7 * np.eye(2), AP5)
        assert fresh.gamma_indices() is None and fresh.deriv_indices() is None
        # a large nilpotent part needs more levels on both sides (d^L ||W|| <= 1)
        levels = []
        for t in (0.7 * np.eye(2), jordan_block(0.7, 50.0)):
            mp_ = MatrixPencil(t, AP5)
            mp_.gamma_for_alphas(0.25, 64)
            levels.append(mp_.gamma_indices())
        assert levels[0] == (1, 1)
        assert min(levels[1]) >= 3

    def test_singular_rejected(self):
        # the band check runs before T^{-1} is taken, so a zero eigenvalue is a
        # DomainError, not a SingularityError
        with pytest.raises(DomainError):
            MatrixPencil(np.diag([0.7, 0.0]), AP5).gamma_for_alphas(0.5, 1)

    def test_spectrum_outside_band_rejected(self):
        mp_ = MatrixPencil(np.diag([3.0]), AP5)
        for sweep in (mp_.gamma_for_alphas, mp_.derivative_for_alphas):
            with pytest.raises(DomainError):
                sweep(0.5, 1)


class TestOnePencilPerMatrix:
    """A pencil takes T's eigenvalues when built and T^{-1} at its first sweep
    that passes the band check; every later sweep, at any eps, reuses both."""

    def test_eigenvalues_and_inverse_taken_once(self, pencil_calls):
        t = jordan_block(0.7, 0.2)
        mp_ = MatrixPencil(t, AP5)
        sweeps = [mp_.gamma_for_alphas(eps, 8) for eps in (0.5, 0.1, 0.01)]
        assert pencil_calls == [("build", (2, 2)), "eigenvalues", ("sweep", (2, 2), 0.5),
                                "inverse", ("sweep", (2, 2), 0.1), ("sweep", (2, 2), 0.01)]
        for eps, gam in zip((0.5, 0.1, 0.01), sweeps):
            assert np.array_equal(gam, MatrixPencil(t, AP5).gamma_for_alphas(eps, 8))

    def test_no_inverse_before_a_band_check_passes(self, pencil_calls):
        # at eps = 0.5 the band of r = 0.5 is [0.25, 2]; 0.2 leaves it, so the
        # sweep is a DomainError and T^{-1} is not taken; eps = 0.7 admits it
        mp_ = MatrixPencil(np.array([[0.2]]), AP5)
        with pytest.raises(DomainError, match="leave the convergence band"):
            mp_.gamma_for_alphas(0.5, 8)
        assert "inverse" not in pencil_calls
        mp_.gamma_for_alphas(0.7, 8)
        mp_.gamma_for_alphas(0.8, 8)
        assert pencil_calls.count("inverse") == 1


BOTH_ROUTES = pytest.mark.parametrize("t", [np.diag([0.7, 0.6j]), np.array([[0.7, 0.1], [0.0, 0.6j]])],
                                      ids=["normal", "triangular"])


class TestEpsGate:
    # a grid checks eps when built, both pencil entry points when called to sum,
    # before any series is summed; a non-real eps or a bool is refused by the
    # same rule, before any arithmetic on it
    @pytest.mark.parametrize("eps", [1.0, -0.1, float("nan"), 1.5, "0.1", 0.1j, None, False])
    def test_eps_outside_unit_interval_rejected(self, eps):
        with pytest.raises(DomainError, match=r"eps must lie in \[0, 1\)"):
            gamma_scalar_batch(0.7, eps, AP5)
        with pytest.raises(DomainError, match=r"eps must lie in \[0, 1\)"):
            PencilGrid((eps,), 8)
        mp_ = MatrixPencil(np.array([[0.7]]), AP5)
        for sweep in (mp_.gamma_for_alphas, mp_.derivative_for_alphas):
            with pytest.raises(DomainError, match=r"eps must lie in \[0, 1\)"):
                sweep(eps, 1)

    @pytest.mark.parametrize("r", [0.0, 1.0, float("nan"), "0.5", 0.5j, None])
    def test_radius_outside_unit_interval_rejected(self, r):
        with pytest.raises(DomainError, match=r"inner radius must lie in \(0, 1\)"):
            AnnulusParams(r)

    def test_grid_keeps_python_floats(self):
        grid = PencilGrid((0, np.float32(0.1), Fraction(1, 4)), 8)
        assert [type(e) for e in grid.eps_values] == [float, float, float]
        assert grid.eps_values == (0.0, float(np.float32(0.1)), 0.25)

    # numpy keeps float32 through 1.0 - eps, so a float32 eps or r would run
    # part of the pencil in single precision; both run as their float64 value,
    # on the scalar route (normal T) and the matrix route
    @BOTH_ROUTES
    def test_float32_eps_runs_as_its_float64_value(self, t):
        eps = np.float32(0.1)
        z = 0.7 * np.exp(2j * np.pi * np.arange(16) / 16)
        assert np.array_equal(gamma_scalar_batch(z, eps, AP5), gamma_scalar_batch(z, float(eps), AP5))
        assert np.array_equal(MatrixPencil(t, AP5).gamma_for_alphas(eps, 16),
                              MatrixPencil(t, AP5).gamma_for_alphas(float(eps), 16))
        a, b = (certify_ar(t, AP5, PencilGrid((e, 0.5), 16)) for e in (eps, float(eps)))
        assert a.min_margin == b.min_margin and np.array_equal(a.records, b.records)
        assert a.to_dict() == b.to_dict()

    @BOTH_ROUTES
    def test_float32_radius_runs_as_its_float64_value(self, t):
        r = np.float32(0.45)
        ap, ref = AnnulusParams(r), AnnulusParams(float(r))
        a, b = certify_ar(t, ap), certify_ar(t, ref)
        assert a.min_margin == b.min_margin and np.array_equal(a.records, b.records)
        assert type(ap.r) is float and ap == ref


class TestLimitRung:
    """eps = 0: the band is the closed annulus, X = T and Y = r T^{-1}."""

    def test_diagonal_sweep_matches_scalar(self):
        w = np.array([0.9 * np.exp(0.4j), 0.55, -0.7j])
        gam = MatrixPencil(np.diag(w), AP5).gamma_for_alphas(0.0, 64)
        ref = [np.diag(gamma_scalar_batch(alpha * w, 0.0, AP5)) for alpha in roots_of_unity(64)]
        assert rel_diff(gam, np.array(ref)) <= 1e-12

    def test_jordan_sweep_matches_extended_precision(self):
        # Gamma_0(z) = sum_k 2 z^k / (1 + r^k), and f(J(w, 1)) = [[f(w), f'(w)], [0, f(w)]]
        w, m = 0.8 * np.exp(0.3j), 8
        gam = MatrixPencil(jordan_block(w, 1.0), AP5).gamma_for_alphas(0.0, m)
        ref = [gamma_jordan_nsum(w, 1.0, 0, 0.5, alpha)[0] for alpha in roots_of_unity(m)]
        assert rel_diff(gam, np.array(ref)) <= 1e-12

    @pytest.mark.parametrize("z", [1.0, 0.5])
    def test_spectrum_on_a_circle_diverges(self, z):
        with pytest.raises(TruncationError, match="diverges on the band edge"):
            gamma_scalar_batch(z, 0.0, AP5)
        with pytest.raises(TruncationError, match="diverges on the band edge"):
            MatrixPencil(np.array([[z]]), AP5).gamma_for_alphas(0.0, 8)


class TestGammaDerivative:
    def test_identity_matches_scalar_derivative_sum(self):
        d = MatrixPencil(np.eye(2), AP5).derivative_for_alphas(0.25, 1)[0]
        # term-by-term scalar differentiation at z = 1, c_k from its definition
        b, r = 1.0 - 0.25, AP5.r
        total = sum(
            k * 2.0 * b**k / (1.0 + b ** (2 * k) * r**k) for k in range(-400, 401) if k != 0
        )
        assert operator_norm(d - total * np.eye(2)) < 1e-8

    def test_block_series_cross_check(self):
        t = random_normal_annulus(3, AP5, seed=9)
        alpha = np.exp(0.7j)
        block = assemble(BlockSpec("tx", t, np.eye(3)))
        g2n = MatrixPencil(alpha * block, AP5).gamma_for_alphas(0.1, 1)[0]
        # z -> Gamma(alpha z) differentiated at T is alpha Gamma'(alpha T)
        d = alpha * MatrixPencil(alpha * t, AP5).derivative_for_alphas(0.1, 1)[0]
        assert operator_norm(g2n[:3, 3:] - d) < 1e-8

    def test_finite_difference(self):
        alpha = np.exp(0.4j)
        z0 = 0.75 + 0.05j
        d = alpha * MatrixPencil(np.array([[alpha * z0]]), AP5).derivative_for_alphas(0.2, 1)[0, 0, 0]
        h = 1e-6
        fd = (gamma_scalar_batch(alpha * (z0 + h), 0.2, AP5)[0]
              - gamma_scalar_batch(alpha * (z0 - h), 0.2, AP5)[0]) / (2 * h)
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
    """Per-alpha direct sums of both sides, each summed until its term norms
    fall below 1e-17.

    Returns the values sum_j w_j alpha^j X^j + sum_m w_m conj(alpha)^m Y^m
    (w = a_j, or +j a_j and -m a_m when ``weighted``).
    """
    t = np.asarray(t, dtype=complex)
    n = t.shape[0]
    b = 1.0 - eps
    d = b * b * r
    alphas = np.asarray(alphas, dtype=complex)
    total = np.zeros((alphas.size, n, n), dtype=complex)
    if not weighted:
        total += np.eye(n)
    for step, rot, sign in ((b * t, alphas, 1), (b * r * np.linalg.inv(t), alphas.conj(), -1)):
        power = np.eye(n, dtype=complex)
        j = 0
        while True:
            j += 1
            power = power @ step
            term = 2.0 / (1.0 + d ** float(j)) * (sign * j if weighted else 1) * power
            total += rot[:, None, None] ** j * term
            if np.linalg.norm(term) < 1e-17:
                break
    return total


def gamma_jordan_nsum(w, h, eps, r, alpha):
    """Gamma and the derivative pencil of alpha [[w, h], [0, w]] from the
    literal series in 40-digit arithmetic: f(J) = [[f(w), h f'(w)], [0, f(w)]]."""
    mp.dps = 40
    b, r, w, alpha = 1 - mpf(eps), mpf(r), mpc(w), mpc(alpha)

    def series(p):  # sum_k k^(p) c_k alpha^k w^(k-p), k^(p) the falling factorial
        return complex(mp.nsum(lambda k: mp.ff(k, p) * 2 * b**k / (1 + b ** (2 * k) * r**k)
                               * alpha**k * w ** (k - p), [-mp.inf, mp.inf]))

    g, g1, g2 = series(0), series(1), series(2)
    return np.array([[g, h * g1], [0, g]]), np.array([[g1, h * g2], [0, g1]])


def roots_of_unity(m):
    return np.exp(2j * np.pi * np.arange(m) / m)


def shift_chain(n, h):
    return 0.75 * np.eye(n) + h * np.eye(n, k=1)


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def embedded(t):
    """[[T, I], [0, T]], whose pencil carries the derivative pencil of T in its corner."""
    n = t.shape[0]
    return np.block([[t, np.eye(n)], [np.zeros((n, n)), t]])


def assert_fold_matches(t, eps, m, r=0.5):
    """Gamma and the derivative pencil of a sweep against the direct sums;
    returns the level counts."""
    ap = AnnulusParams(r)
    alphas = roots_of_unity(m)
    mp_ = MatrixPencil(t, ap)
    gam = mp_.gamma_for_alphas(eps, m)
    levels = mp_.gamma_indices()
    assert rel_diff(gam, reference_pencil(t, eps, r, alphas)) <= 1e-12
    der = mp_.derivative_for_alphas(eps, m)
    outer = MatrixPencil(embedded(t), ap)
    outer.gamma_for_alphas(eps, m)
    assert mp_.deriv_indices() == outer.gamma_indices()
    ref_core = reference_pencil(t, eps, r, alphas, weighted=True)
    assert rel_diff(der, np.linalg.inv(t) @ ref_core) <= 1e-12
    return levels


class TestAlphaFold:
    def test_normal_matrix(self):
        assert_fold_matches(random_normal_annulus(4, AP5, seed=3), 0.1, 64)

    def test_nonnormal_chain(self):
        assert_fold_matches(shift_chain(6, 0.2), 0.05, 64)

    @pytest.mark.parametrize("m", [9, 13])
    def test_grid_size_not_a_power_of_two(self, m):
        assert_fold_matches(shift_chain(3, 0.1), 0.1, m)

    def test_more_alphas_than_terms(self):
        # the level count does not grow with the grid: W^m only shrinks
        n_pos, n_neg = assert_fold_matches(random_normal_annulus(2, AP5, seed=8), 0.5, 200)
        assert max(n_pos, n_neg) == 1

    def test_chunked_buckets(self):
        # n = 40 puts 40 powers in a chunk, so m = 90 takes three chunks,
        # the last one partial
        t = random_normal_annulus(40, AP5, seed=2) + 0.05 * np.eye(40, k=1)
        assert_fold_matches(t, 0.1, 90)

    def test_single_alpha_off_the_grid(self):
        t = shift_chain(3, 0.15)
        alpha = np.exp(0.3j)
        rotated = MatrixPencil(alpha * t, AP5)
        g = rotated.gamma_for_alphas(0.1, 1)[0]
        assert rel_diff(g, reference_pencil(t, 0.1, 0.5, [alpha])[0]) <= 1e-12
        d = alpha * rotated.derivative_for_alphas(0.1, 1)[0]
        ref_core = reference_pencil(t, 0.1, 0.5, [alpha], weighted=True)
        assert rel_diff(d, np.linalg.inv(t) @ ref_core[0]) <= 1e-12

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_sweep_matches_single_alpha(self, eps):
        # a single alpha is the M = 1 sweep of alpha T; the grid sweep must agree
        t = random_normal_annulus(4, AP5, seed=3)
        m = 16
        mp_ = MatrixPencil(t, AP5)
        gam = mp_.gamma_for_alphas(eps, m)
        der = mp_.derivative_for_alphas(eps, m)
        single = MatrixPencil(t, AP5)
        single.gamma_for_alphas(eps, 1)
        single.derivative_for_alphas(eps, 1)
        levels, deriv_levels = single.gamma_indices(), single.deriv_indices()
        for k, alpha in enumerate(roots_of_unity(m)):
            rotated = MatrixPencil(alpha * t, AP5)
            assert rel_diff(rotated.gamma_for_alphas(eps, 1)[0], gam[k]) <= 1e-12
            assert rel_diff(alpha * rotated.derivative_for_alphas(eps, 1)[0], der[k]) <= 1e-12
            # the level rule reads only norms, which a rotation keeps
            assert rotated.gamma_indices() == levels
            assert rotated.deriv_indices() == deriv_levels

    def test_band_edge_sweep_matches_reference(self):
        # eigenvalue 1 sits just inside the outer band edge at eps = 0.001,
        # where a term-by-term sum needs tens of thousands of terms
        t = np.diag([1.0, 0.7])
        ref = [np.diag(gamma_scalar_batch(alpha * np.diag(t), 0.001, AP5))
               for alpha in roots_of_unity(64)]
        assert rel_diff(MatrixPencil(t, AP5).gamma_for_alphas(0.001, 64), np.array(ref)) <= 1e-12

    @pytest.mark.parametrize("w", [0.999, 0.5005 * np.exp(0.3j)])
    def test_jordan_block_matches_extended_precision(self, w):
        # near the outer and the inner circle, where transient growth of the
        # nilpotent part meets slowly decaying powers
        t = jordan_block(w, 0.05)
        m = 8
        mp_ = MatrixPencil(t, AP5)
        gam = mp_.gamma_for_alphas(0.01, m)
        der = mp_.derivative_for_alphas(0.01, m)
        ref_g, ref_d = zip(*(gamma_jordan_nsum(w, 0.05, 0.01, 0.5, alpha)
                             for alpha in roots_of_unity(m)))
        assert rel_diff(gam, np.array(ref_g)) <= 1e-13
        assert rel_diff(der, np.array(ref_d)) <= 1e-10

    @pytest.mark.parametrize("w", [0.999, 0.5005])
    def test_derivative_sweep_rounding_guard(self, w):
        # the corner of the embedded sweep carries Gamma's rounding guard: at
        # eps = 1e-3 Gamma of a Jordan block near a circle passes it, while the
        # sweep of [[T, I], [0, T]], whose buckets hold the derivative, does not
        mp_ = MatrixPencil(jordan_block(w, 0.05), AP5)
        mp_.gamma_for_alphas(1e-3, 8)
        with pytest.raises(TruncationError, match="sweep rounding up to "):
            mp_.derivative_for_alphas(1e-3, 8)

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
