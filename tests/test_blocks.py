import numpy as np
import pytest

from annulus_cert.blocks import BlockSpec, assemble, fcalc, unit_block
from annulus_cert.errors import ContractViolationError, DomainError
from annulus_cert.generators import haar_unitary, random_normal_annulus
from annulus_cert.numerics import eigenvalues, inverse, operator_norm
from annulus_cert.pencil import AnnulusParams, MatrixPencil
from annulus_cert.rational import RationalFunction, eval_matrix

from conftest import eig_match_max, interior_commuting_triple, random_poles_off_rational

AP5 = AnnulusParams(0.5)


def poly_in(t, rng, deg=2):
    coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    out = np.zeros_like(t)
    for c in coeffs[::-1]:
        out = out @ t + c * np.eye(t.shape[0])
    return out


class TestAssemble:
    def test_tx_zero_x_block_diagonal(self):
        t = random_normal_annulus(3, AP5, seed=1)
        block = assemble(BlockSpec("tx", t, np.zeros((3, 3))))
        assert operator_norm(block[:3, 3:]) == 0.0
        assert operator_norm(block[:3, :3] - t) == 0.0
        assert operator_norm(block[3:, 3:] - t) == 0.0

    def test_hat_equal_diagonals(self):
        t = random_normal_annulus(3, AP5, seed=2)
        x = poly_in(t, np.random.default_rng(3))
        block = assemble(BlockSpec("hat", t, x, t))
        assert operator_norm(block[:3, 3:]) < 1e-12

    def test_general_matches_hat_definitionally(self):
        t1, t2, x = interior_commuting_triple(3, AP5, seed=4)
        y = x @ (t1 - t2)
        hat = assemble(BlockSpec("hat", t1, x, t2))
        gen = assemble(BlockSpec("general", t1, y, t2))
        assert operator_norm(hat - gen) < 1e-12

    def test_commutation_enforced(self):
        t = np.array([[0.6, 0.1], [0.0, 0.6]])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ContractViolationError):
            assemble(BlockSpec("tx", t, x))

    def test_tx_second_diagonal_must_equal_first(self):
        t = random_normal_annulus(2, AP5, seed=7)
        assert assemble(BlockSpec("tx", t, np.eye(2), t.copy())).shape == (4, 4)
        with pytest.raises(ContractViolationError, match="T2 must equal T1"):
            BlockSpec("tx", t, np.eye(2), 0.9 * t)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            BlockSpec("tx", np.eye(2), np.eye(3))

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            BlockSpec("diag", np.eye(2), np.eye(2))

    def test_spectrum_union_invariant(self):
        for seed in range(10):
            t1, t2, x = interior_commuting_triple(3, AP5, seed=seed)
            block = assemble(BlockSpec("hat", t1, x, t2))
            union = np.concatenate([eigenvalues(t1), eigenvalues(t2)])
            assert eig_match_max(eigenvalues(block), union) < 1e-8


class TestFcalcTx:
    def test_identity_function_reproduces_block(self):
        t = random_normal_annulus(3, AP5, seed=5)
        x = poly_in(t, np.random.default_rng(6))
        f = RationalFunction([0.0, 1.0], [1.0])
        spec = BlockSpec("tx", t, x)
        assert operator_norm(fcalc(spec, f, AP5) - assemble(spec)) < 1e-12

    def test_square_top_right_is_2xt(self):
        t = random_normal_annulus(2, AP5, seed=8)
        x = poly_in(t, np.random.default_rng(9))
        f = RationalFunction([0.0, 0.0, 1.0], [1.0])
        out = fcalc(BlockSpec("tx", t, x), f, AP5)
        assert operator_norm(out[:2, 2:] - 2.0 * x @ t) < 1e-10

    def test_against_direct_block_evaluation(self, rng):
        for seed in range(20):
            t = random_normal_annulus(3, AP5, seed=100 + seed)
            x = poly_in(t, rng)
            f = random_poles_off_rational(rng, AP5)
            spec = BlockSpec("tx", t, x)
            direct = eval_matrix(f, assemble(spec))
            reduced = fcalc(spec, f, AP5)
            scale = 1.0 + operator_norm(direct)
            assert operator_norm(reduced - direct) <= 1e-8 * scale

    def test_pole_on_annulus_rejected(self):
        t = random_normal_annulus(2, AP5, seed=3)
        f = RationalFunction([1.0], [-0.7, 1.0])
        with pytest.raises(DomainError):
            fcalc(BlockSpec("tx", t, np.eye(2)), f, AP5)


class TestFcalcHat:
    def test_identity_function_reproduces_block(self):
        t1, t2, x = interior_commuting_triple(3, AP5, seed=11)
        f = RationalFunction([0.0, 1.0], [1.0])
        spec = BlockSpec("hat", t1, x, t2)
        assert operator_norm(fcalc(spec, f, AP5) - assemble(spec)) < 1e-10

    def test_equal_diagonals_block_diagonal(self):
        t1, _, x = interior_commuting_triple(3, AP5, seed=12)
        f = RationalFunction([1.0], [0.0, 1.0])
        out = fcalc(BlockSpec("hat", t1, x, t1), f, AP5)
        assert operator_norm(out[:3, 3:]) < 1e-10

    def test_reciprocal_against_direct(self, rng):
        for seed in range(10):
            t1, t2, x = interior_commuting_triple(3, AP5, seed=200 + seed)
            f = RationalFunction([1.0], [0.0, 1.0])
            spec = BlockSpec("hat", t1, x, t2)
            direct = eval_matrix(f, assemble(spec))
            reduced = fcalc(spec, f, AP5)
            scale = 1.0 + operator_norm(direct)
            assert operator_norm(reduced - direct) <= 1e-8 * scale


class TestFcalcContract:
    @pytest.mark.parametrize("t2", [None, 0.6 * np.eye(3)], ids=["tx", "hat"])
    def test_mismatched_sizes_contract_violation(self, t2):
        z = RationalFunction([0.0, 1.0], [1.0])
        kind = "tx" if t2 is None else "hat"
        with pytest.raises(ContractViolationError, match="share one dimension"):
            fcalc(BlockSpec(kind, 0.7 * np.eye(3), np.eye(2), t2), z, AP5)

    def test_general_has_no_reduction(self):
        t1, t2, x = interior_commuting_triple(3, AP5, seed=14)
        with pytest.raises(DomainError, match="general"):
            fcalc(BlockSpec("general", t1, x @ (t1 - t2), t2), RationalFunction([0.0, 1.0], [1.0]), AP5)

    def test_spectrum_off_annulus_rejected(self):
        with pytest.raises(DomainError, match="spectrum"):
            fcalc(BlockSpec("tx", 0.3 * np.eye(2), np.eye(2)), RationalFunction([1.0], [1.0]), AP5)


class TestGeneralReduction:
    def test_invertible_difference_matches_hat(self):
        # for invertible T1 - T2 the general block with corner Y is the hat
        # block with X = Y (T1 - T2)^{-1}
        t1, t2, x = interior_commuting_triple(3, AP5, seed=13)
        y = x @ (t1 - t2)
        general = assemble(BlockSpec("general", t1, y, t2))
        hat = assemble(BlockSpec("hat", t1, y @ inverse(t1 - t2), t2))
        assert operator_norm(general - hat) <= 1e-10 * operator_norm(general)


def non_commuting_pair():
    """Non-normal T1, T2 with spectra inside the annulus r = 0.5 that do not commute."""
    t1 = np.array([[0.7, 0.3, 0.0], [0.0, 0.6j, 0.2], [0.0, 0.0, -0.8]])
    u = haar_unitary(3, np.random.default_rng(21))
    t2 = u @ np.array([[0.55, 0.4, 0.1], [0.0, -0.9j, 0.3], [0.0, 0.0, 0.75 + 0.3j]]) @ u.conj().T
    assert operator_norm(t1 @ t2 - t2 @ t1) > 0.1
    return t1, t2


class TestUnitBlock:
    """f([[T1, T1 - T2], [0, T2]]) has corner f(T1) - f(T2) with no commutation of T1 and T2."""

    def test_kinds(self):
        t = random_normal_annulus(2, AP5, seed=15)
        e = unit_block(BlockSpec("tx", t, np.eye(2)))
        assert np.array_equal(e, np.block([[t, np.eye(2)], [np.zeros((2, 2)), t]]))
        t1, t2 = non_commuting_pair()
        e = unit_block(BlockSpec("hat", t1, np.eye(3), t2))
        assert np.array_equal(e, np.block([[t1, t1 - t2], [np.zeros((3, 3)), t2]]))
        with pytest.raises(DomainError, match="general"):
            unit_block(BlockSpec("general", t1, np.eye(3), t2))

    @pytest.mark.parametrize("eps", [0.5, 0.05])
    def test_sweep_corner_is_difference_of_pencils(self, eps):
        t1, t2 = non_commuting_pair()
        m = 16
        e = unit_block(BlockSpec("hat", t1, np.eye(3), t2))
        sweep = MatrixPencil(e, AP5).gamma_for_alphas(eps, m)
        g1 = MatrixPencil(t1, AP5).gamma_for_alphas(eps, m)
        g2 = MatrixPencil(t2, AP5).gamma_for_alphas(eps, m)
        tol = 1e-12 * np.abs(sweep).max()
        assert np.abs(sweep[:, :3, 3:] - (g1 - g2)).max() <= tol
        assert np.abs(sweep[:, :3, :3] - g1).max() <= tol
        assert np.abs(sweep[:, 3:, 3:] - g2).max() <= tol
        assert np.abs(sweep[:, 3:, :3]).max() <= tol

    def test_fcalc_hat_corner_without_commutation(self, rng):
        t1, t2 = non_commuting_pair()
        x = 0.3 * np.eye(3)
        spec = BlockSpec("hat", t1, x, t2)
        fs = [RationalFunction([1.0], [0.0, 1.0]), *(random_poles_off_rational(rng, AP5) for _ in range(5))]
        for f in fs:
            f1, f2 = eval_matrix(f, t1), eval_matrix(f, t2)
            out = fcalc(spec, f, AP5)
            scale = 1.0 + max(operator_norm(f1), operator_norm(f2))
            assert operator_norm(out[:3, 3:] - x @ (f1 - f2)) <= 1e-10 * scale
            assert operator_norm(out[:3, :3] - f1) <= 1e-10 * scale
            assert operator_norm(out[3:, 3:] - f2) <= 1e-10 * scale
