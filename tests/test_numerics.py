import numpy as np
import pytest

from annulus_cert.certifier import PencilGrid, vn_sample
from annulus_cert.errors import ContractViolationError, DomainError, SingularityError
from annulus_cert.misra import sweep_rows
from annulus_cert.numerics import (
    EQ_TOL,
    MAX_DIM,
    RANK_TOL,
    as_matrix,
    eigenvalues,
    hermitian_check,
    hermitian_min_eig,
    inverse,
    operator_norm,
    psd_pinv,
    sqrt_psd,
)
from annulus_cert.generators import (
    ginibre,
    haar_unitary,
    random_contraction,
    random_normal_annulus,
    random_psd,
)
from annulus_cert.pencil import MAX_ALPHAS, AnnulusParams, MatrixPencil
from annulus_cert.rational import MAX_SAMPLES, RationalFunction, sup_on_annulus

from conftest import eig_match_max


def faddeev_leverrier(a):
    """Characteristic polynomial coefficients (ascending) by trace recursion."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    m = np.zeros_like(a)
    c = 1.0 + 0j
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -(a @ m).trace() / k
        coeffs[n - k] = c
    return coeffs


class TestEigenvalues:
    def test_diagonal(self):
        lam = eigenvalues(np.diag([0.5, 1.0]))
        assert eig_match_max(lam, [0.5, 1.0]) < 1e-14

    def test_triangular(self):
        w = 0.7 + 0.1j
        lam = eigenvalues(np.array([[w, 3.0], [0.0, w]]))
        assert eig_match_max(lam, [w, w]) < 1e-8

    def test_ginibre_against_companion_roots(self):
        a = ginibre(8, np.random.default_rng(7))
        coeffs = faddeev_leverrier(a)
        n = 8
        comp = np.zeros((n, n), dtype=complex)
        comp[1:, :-1] = np.eye(n - 1)
        comp[:, -1] = -coeffs[:-1]
        assert eig_match_max(eigenvalues(a), eigenvalues(comp)) < 1e-8

    def test_rejects_non_square(self):
        with pytest.raises(ContractViolationError):
            eigenvalues(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ContractViolationError):
            as_matrix(np.array([[np.nan, 0], [0, 1]]))


class TestHermitianMinEig:
    def test_identity(self):
        assert hermitian_min_eig(np.eye(3)) == pytest.approx(1.0)

    def test_diag(self):
        assert hermitian_min_eig(np.diag([-2.0, 3.0])) == pytest.approx(-2.0)

    def test_matches_full_solve(self):
        rng = np.random.default_rng(3)
        g = ginibre(6, rng)
        h = g + g.conj().T
        assert hermitian_min_eig(h) == pytest.approx(float(np.linalg.eigvalsh(h).min()), abs=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            hermitian_min_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSqrtPsd:
    def test_identity(self):
        assert operator_norm(sqrt_psd(np.eye(2)) - np.eye(2)) < 1e-14

    def test_diag(self):
        s = sqrt_psd(np.diag([4.0, 9.0]))
        assert operator_norm(s - np.diag([2.0, 3.0])) < 1e-12

    def test_round_trip_seeded(self):
        g = ginibre(5, np.random.default_rng(11))
        h = g.conj().T @ g
        s = sqrt_psd(h)
        assert operator_norm(s @ s - h) <= 1e-9 * (1.0 + operator_norm(h))

    def test_round_trip_many(self):
        for seed in range(200):
            h = random_psd(4, seed=seed)
            s = sqrt_psd(h)
            assert operator_norm(s @ s - h) <= EQ_TOL * (1.0 + operator_norm(h))

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            sqrt_psd(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("order", ["indefinite_first", "non_hermitian_first"])
    def test_stack_raises_what_its_first_failing_matrix_raises(self, order):
        indefinite, skew = np.diag([1.0, -0.5]), np.array([[1.0, 1.0], [0.0, 1.0]])
        stack = np.array([np.eye(2), indefinite, skew] if order == "indefinite_first"
                         else [np.eye(2), skew, indefinite])
        expect = DomainError if order == "indefinite_first" else ContractViolationError
        with pytest.raises(expect) as exc:
            sqrt_psd(stack)
        if expect is DomainError:
            assert exc.value.index == (1,)


class TestHermitianCheck:
    def test_exactly_hermitian_stack_skips_the_defect_bound(self, monkeypatch):
        import annulus_cert.numerics as num

        h = np.array([random_psd(3, seed=s) for s in range(4)])
        monkeypatch.setattr(num, "_norm2", lambda a: pytest.fail("defect SVD on Hermitian input"))
        assert np.array_equal(hermitian_check(h), 0.5 * (h + np.swapaxes(h.conj(), -1, -2)))

    def test_non_hermitian_text(self):
        with pytest.raises(ContractViolationError, match=r"not Hermitian within tolerance \(defect 1.000e\+00\)"):
            hermitian_check(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestNormInversePowers:
    def test_operator_norm_diag(self):
        assert operator_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0)

    def test_submultiplicative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = ginibre(4, rng)
            b = ginibre(4, rng)
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + EQ_TOL

    def test_inverse_residual(self):
        a = ginibre(6, np.random.default_rng(5)) + 2 * np.eye(6)
        assert operator_norm(a @ inverse(a) - np.eye(6)) <= 1e-8

    def test_inverse_rejects_singular(self):
        with pytest.raises(SingularityError):
            inverse(np.diag([1.0, 0.0]))


class TestPinvApply:
    def test_null_direction_killed(self):
        s = np.diag([1.0, 0.0])
        b = np.array([[1.0], [1.0]])
        pinv, _ = psd_pinv(s)
        out = pinv(b)
        assert out[0, 0] == pytest.approx(1.0)
        assert abs(out[1, 0]) == 0.0

    def test_projector(self):
        s = np.diag([1.0, 0.0])
        _, p = psd_pinv(s)
        assert operator_norm(p - np.diag([1.0, 0.0])) < 1e-14

    def test_stacked_projector_is_the_kept_eigenvectors_product(self):
        # ranks differ across the stack; each projector is V_r V_r* over the
        # kept eigenvectors alone, bit for bit, not a product padded with zeros
        rng = np.random.default_rng(17)
        for n in range(1, 5):
            stack = []
            for drop in range(n + 1):
                u = np.linalg.qr(ginibre(n, rng))[0]
                lam = rng.random(n) + 0.1
                lam[:drop] = 0.0
                stack.append((u * lam) @ u.conj().T)
            stack = np.array(stack)
            stack = 0.5 * (stack + np.swapaxes(stack.conj(), -1, -2))
            _, proj = psd_pinv(stack)
            for s, p in zip(stack, proj):
                lam, v = np.linalg.eigh(s)
                vr = v[:, lam > RANK_TOL * max(np.max(np.abs(lam)), 1e-300)]
                assert p.tobytes() == (vr @ vr.conj().T).tobytes()


class TestBlockSpectrum:
    def test_triangular_block_union(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = ginibre(4, rng)
            c = ginibre(4, rng)
            b = ginibre(4, rng)
            block = np.block([[a, b], [np.zeros((4, 4)), c]])
            union = np.concatenate([eigenvalues(a), eigenvalues(c)])
            assert eig_match_max(eigenvalues(block), union) < 1e-8


AP5 = AnnulusParams(0.5)
T1 = 0.7 * np.eye(1)

# Every integer argument of the library: a call taking the value, and its range
# [lo, hi], or [lo, oo) when hi is None.
INTEGER_ARGUMENTS = {
    "PencilGrid.alpha_count": (lambda v: PencilGrid((0.5,), v), 8, MAX_ALPHAS),
    "vn_sample.count": (lambda v: vn_sample(T1, AP5, count=v, m=8), 1, None),
    "vn_sample.seed": (lambda v: vn_sample(T1, AP5, count=1, seed=v, m=8), 0, None),
    "sweep_rows.samples": (lambda v: sweep_rows(0.5, v), 1, None),
    "sweep_rows.seed": (lambda v: sweep_rows(0.5, 1, seed=v), 0, None),
    "sup_on_annulus.m": (lambda v: sup_on_annulus(RationalFunction([0.0, 1.0], [1.0]), AP5, v),
                         8, MAX_SAMPLES),
    "random_normal_annulus.n": (lambda v: random_normal_annulus(v, AP5), 1, MAX_DIM),
    "random_normal_annulus.seed": (lambda v: random_normal_annulus(1, AP5, seed=v), 0, None),
    "random_contraction.n": (lambda v: random_contraction(v), 1, MAX_DIM),
    "random_contraction.seed": (lambda v: random_contraction(1, seed=v), 0, None),
    "random_psd.n": (lambda v: random_psd(v), 1, MAX_DIM),
    "random_psd.seed": (lambda v: random_psd(1, seed=v), 0, None),
    "ginibre.n": (lambda v: ginibre(v, np.random.default_rng(0)), 1, MAX_DIM),
    "haar_unitary.n": (lambda v: haar_unitary(v, np.random.default_rng(0)), 1, MAX_DIM),
    "MatrixPencil.gamma_for_alphas.m": (lambda v: MatrixPencil(T1, AP5).gamma_for_alphas(0.1, v),
                                        1, MAX_ALPHAS),
}


class TestIntegerArguments:
    """One rule for every integer argument (``numerics._check_integer``): a bool
    or a float is no integer, a value out of range is refused, each with
    DomainError, and a numpy integer counts as an integer."""

    @pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
    def test_one_range_rule(self, name):
        call, lo, hi = INTEGER_ARGUMENTS[name]
        for value in (True, float(lo)):
            with pytest.raises(DomainError, match="must be an integer, got"):
                call(value)
        if hi is None:
            with pytest.raises(DomainError, match=f"must be at least {lo}, got {lo - 1}$"):
                call(lo - 1)
        else:
            for value in (lo - 1, hi + 1):
                with pytest.raises(DomainError, match=rf"must lie in \[{lo}, {hi}\], got {value}$"):
                    call(value)
        call(np.int64(lo))
        call(np.uint8(lo))
