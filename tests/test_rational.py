import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulus_cert import certifier, rational
from annulus_cert.blocks import BlockSpec, fcalc
from annulus_cert.certifier import _VN_CHUNK, _blaschke_pair, _plain_rational
from annulus_cert.errors import DomainError, SingularityError
from annulus_cert.generators import haar_unitary, random_normal_annulus
from annulus_cert.numerics import operator_norm
from annulus_cert.pencil import AnnulusParams
from annulus_cert.rational import (
    RationalFunction,
    eval_matrix,
    poles_off_annulus,
    polymul,
    sup_on_annulus,
)

from conftest import eig_match_max, random_poles_off_rational

AP5 = AnnulusParams(0.5)


class TestPolesOffAnnulus:
    def test_pole_at_origin_ok(self):
        f = RationalFunction([1.0], [0.0, 1.0])  # 1/z
        assert poles_off_annulus(f, AP5)

    def test_pole_inside_annulus(self):
        f = RationalFunction([1.0], [-0.7, 1.0])  # 1/(z - 0.7)
        assert not poles_off_annulus(f, AP5)

    def test_pole_outside(self):
        f = RationalFunction([1.0], [-2.0, 1.0])
        assert poles_off_annulus(f, AP5)

    def test_poles_found_once_at_construction(self, monkeypatch):
        calls = []
        roots = rational.poly_roots
        monkeypatch.setattr(rational, "poly_roots", lambda c: calls.append(c) or roots(c))
        f = RationalFunction([1.0], polymul([-0.2, 1.0], [-3.0, 1.0]))
        assert len(calls) == 1

        def again(c):
            raise AssertionError("denominator roots computed a second time")

        monkeypatch.setattr(rational, "poly_roots", again)
        assert poles_off_annulus(f, AP5)
        assert certifier._poles_off_fat(f, AP5)

    def test_degenerate_denominator(self):
        with pytest.raises(DomainError):
            RationalFunction([1.0], [0.0])

    @pytest.mark.parametrize("p, q", [([1.0, np.nan], [1.0]),
                                      ([1.0, np.nan], [1.0, 0.0, np.inf])])
    def test_non_finite_coefficients_rejected(self, p, q):
        # a trailing nan must not be trimmed away, nor an inf leave poles of modulus 0
        with pytest.raises(DomainError, match="finite"):
            RationalFunction(p, q)


class TestEvalMatrix:
    def test_identity_function(self):
        t = np.array([[0.6, 0.1], [0.0, 0.8]])
        f = RationalFunction([0.0, 1.0], [1.0])
        assert operator_norm(eval_matrix(f, t) - t) < 1e-14

    def test_reciprocal(self):
        f = RationalFunction([1.0], [0.0, 1.0])
        assert operator_norm(eval_matrix(f, np.diag([2.0])) - np.diag([0.5])) < 1e-14

    def test_spectral_mapping_normal(self, rng):
        t = random_normal_annulus(4, AP5, seed=21)
        lam = np.linalg.eigvals(t)
        for _ in range(10):
            f = random_poles_off_rational(rng, AP5)
            ft = eval_matrix(f, t)
            assert eig_match_max(np.linalg.eigvals(ft), f(lam)) < 1e-8

    def test_factors_commute(self, rng):
        from annulus_cert.rational import polyval_matrix
        from annulus_cert.numerics import inverse

        t = random_normal_annulus(3, AP5, seed=2)
        f = random_poles_off_rational(rng, AP5)
        qinv = inverse(polyval_matrix(f.q, t))
        pt = polyval_matrix(f.p, t)
        assert operator_norm(pt @ qinv - qinv @ pt) < 1e-8 * (1 + operator_norm(pt @ qinv))

    def test_singular_q_rejected(self):
        f = RationalFunction([1.0], [-0.6, 1.0])  # pole right on an eigenvalue
        with pytest.raises(SingularityError):
            eval_matrix(f, np.diag([0.6]))

    def test_scaling_consistency(self, rng):
        # evaluating f(alpha z) at T equals evaluating f at alpha T
        alpha = np.exp(0.9j)
        t = random_normal_annulus(3, AP5, seed=6)
        for _ in range(5):
            f = random_poles_off_rational(rng, AP5)
            scaled = RationalFunction(
                f.p * alpha ** np.arange(f.p.size), f.q * alpha ** np.arange(f.q.size)
            )
            lhs = eval_matrix(scaled, t)
            rhs = eval_matrix(f, alpha * t)
            assert operator_norm(lhs - rhs) < 1e-10 * (1 + operator_norm(rhs))

    @staticmethod
    def _one_function_loop(f, t):
        # the per-function evaluation: plain Horner on the trimmed vectors, then gesv
        eye = np.eye(t.shape[0], dtype=complex)

        def horner(c):
            acc = np.zeros_like(t)
            for a in c[::-1]:
                acc = acc @ t + a * eye
            return acc

        return horner(f.p) @ np.linalg.solve(horner(f.q), eye)

    def _assert_stack_is_one_at_a_time(self, fs, t):
        stack = eval_matrix(fs, t)
        assert stack.shape == (len(fs), *t.shape)
        for f, ft in zip(fs, stack):
            assert np.array_equal(ft, eval_matrix(f, t))
            assert np.array_equal(ft, self._one_function_loop(f, t))

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_stack_equals_one_at_a_time(self, rng, n):
        # numerators and denominators of every degree 0...8, zero-padded to 8
        t = random_normal_annulus(n, AP5, seed=n).astype(complex)
        fs = [random_poles_off_rational(rng, AP5, num_deg=d, den_deg=e)
              for d in range(9) for e in (d, 8 - d)]
        self._assert_stack_is_one_at_a_time(fs, t)

    def test_stack_spanning_three_chunks_at_n64(self, rng):
        t = random_normal_annulus(64, AP5, seed=3).astype(complex)
        fs = [random_poles_off_rational(rng, AP5, num_deg=k % 9, den_deg=(5 * k) % 9)
              for k in range(3 * (_VN_CHUNK // t.size) + 1)]
        self._assert_stack_is_one_at_a_time(fs, t)

    def test_singular_member_raises_its_own_error(self):
        t = np.diag([0.7, 0.6])
        # q(T) = diag(0, -0.1) for the third function, diag(0.2, 0) for the fifth
        fs = [RationalFunction([1.0], [2.0, 1.0]), RationalFunction([0.0, 1.0], [1.0]),
              RationalFunction([1.0], [-0.7, 1.0]), RationalFunction([1.0, 1.0], [3.0]),
              RationalFunction([1.0], [-1.2, 2.0])]
        for f in fs[:2]:
            eval_matrix(f, t)
        with pytest.raises(SingularityError) as alone:
            eval_matrix(fs[2], t)
        with pytest.raises(SingularityError) as stacked:
            eval_matrix(fs, t)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value).startswith("q(T) is singular:")


# 1 x 1 and 3 x 3 spectra inside the closed annulus r = 0.5
DERIV_SPECTRA = [[0.6], [0.7 + 0.5j], [-0.95j], [0.6, -0.8j, 0.55 + 0.55j]]


def tx_derivative(f, lam, x=0.25):
    """f'(T) read off fcalc as the tx corner over X = x I, for the normal
    T = U diag(lam) U*; returns it with the map d -> U diag(d) U*."""
    n = len(lam)
    u = haar_unitary(n, np.random.default_rng(0))
    normal = lambda d: (u * np.asarray(d)) @ u.conj().T
    out = fcalc(BlockSpec("tx", normal(lam), x * np.eye(n)), f, AP5)
    return out[:n, n:] / x, normal


class TestDerivative:
    """The tx corner of fcalc divided by X is f'(T)."""

    def test_square(self):
        f = RationalFunction([0.0, 0.0, 1.0], [1.0])
        for lam in DERIV_SPECTRA:
            df, normal = tx_derivative(f, lam)
            assert np.allclose(df, normal(2.0 * np.asarray(lam)), atol=1e-12)

    def test_reciprocal(self):
        f = RationalFunction([1.0], [0.0, 1.0])
        for lam in DERIV_SPECTRA:
            df, normal = tx_derivative(f, lam)
            assert np.allclose(df, normal(-1.0 / np.asarray(lam) ** 2), atol=1e-12)

    def test_finite_difference(self, rng):
        step = 1e-5
        for _ in range(5):
            f = random_poles_off_rational(rng, AP5)
            for n in (1, 3):
                lam = (0.6 + 0.35 * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
                df, normal = tx_derivative(f, lam)
                fd = normal((f(lam + step) - f(lam - step)) / (2 * step))
                assert operator_norm(df - fd) <= 1e-6 * max(1.0, operator_norm(df))


class TestSupOnAnnulus:
    def test_identity_function(self):
        f = RationalFunction([0.0, 1.0], [1.0])
        assert sup_on_annulus(f, AP5) == pytest.approx(1.0, abs=1e-12)

    def test_inner_circle_attained(self):
        f = RationalFunction([0.5], [0.0, 1.0])  # r/z
        assert sup_on_annulus(f, AP5) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_distance_oracle(self):
        f = RationalFunction([1.0], [-2.0, 1.0])  # 1/(z-2), max at z = 1
        assert sup_on_annulus(f, AP5) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_and_stable_in_m(self, rng):
        for _ in range(5):
            f = random_poles_off_rational(rng, AP5, num_deg=6, den_deg=2)
            s512 = sup_on_annulus(f, AP5, m=512)
            s1024 = sup_on_annulus(f, AP5, m=1024)
            assert s1024 >= s512 - 1e-12
            assert abs(s1024 - s512) < 1e-6 * max(1.0, s512)

    def test_precondition(self):
        f = RationalFunction([1.0], [-0.7, 1.0])
        with pytest.raises(DomainError):
            sup_on_annulus(f, AP5)


def scalar_golden_max(fun, lo, hi, iters=60):
    """One bracket's golden-section search, one scalar ``fun`` call per probe."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
        else:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
    return max(fc, fd)


def reference_sup(f, ap, m):
    """Boundary sup with the three best samples of each circle refined one at a time."""
    best = 0.0
    step = 2.0 * np.pi / m
    theta = step * np.arange(m)
    for rho in (ap.r, 1.0):
        vals = np.abs(f(rho * np.exp(1j * theta)))
        best = max(best, float(np.max(vals)))
        mod = lambda t: float(np.abs(f(rho * np.exp(1j * t))))
        for idx in np.argsort(vals)[-3:]:
            t0 = theta[idx]
            best = max(best, scalar_golden_max(mod, t0 - step, t0 + step))
    return best


def vn_functions(ap, count, seed):
    """count test functions from vn_sample's generators, plain and Blaschke in turn."""
    rng = np.random.default_rng(seed)
    fs = []
    while len(fs) < count:
        if len(fs) % 2 == 0:
            fs.append(_plain_rational(rng, ap))
            continue
        lam = (ap.r + (1.0 - ap.r) * rng.random()) * np.exp(2j * np.pi * rng.random())
        f = _blaschke_pair(lam, ap, 2.0 * np.pi * rng.random())
        if f is not None:
            fs.append(f)
    return fs


def evaluations(sup, f, ap, m, monkeypatch):
    """sup(f, ap, m) and the points of every call of f on the way, one array per call."""
    calls = []
    call = RationalFunction.__call__

    def recording(self, z):
        calls.append(np.atleast_1d(np.asarray(z, dtype=complex)))
        return call(self, z)

    with monkeypatch.context() as patch:
        patch.setattr(RationalFunction, "__call__", recording)
        value = sup(f, ap, m)
    return value, calls


def batched_evaluations(fs, ap, m, monkeypatch):
    """sup_on_annulus(fs, ap, m) and, per call of the stack evaluator, the
    points it evaluated, one row per function."""
    calls = []
    modulus = rational._modulus

    def recording(p, q, z):
        values = modulus(p, q, z)
        calls.append(np.broadcast_to(np.asarray(z, dtype=complex), values.shape))
        return values

    with monkeypatch.context() as patch:
        patch.setattr(rational, "_modulus", recording)
        value = sup_on_annulus(fs, ap, m)
    return value, calls


def chunk_rows(m):
    return max(1, rational._CHUNK_POINTS // m)


class TestSupJointRefinement:
    """The six brackets refined together give exactly the one-at-a-time sup."""

    @pytest.mark.parametrize("m", [8, 64, 1024])
    @pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
    def test_equals_one_bracket_at_a_time(self, r, m):
        ap = AnnulusParams(r)
        for f in vn_functions(ap, 24, seed=int(100 * r) + m):
            assert sup_on_annulus(f, ap, m) == reference_sup(f, ap, m)

    @pytest.mark.parametrize("m", [8, 1024, 1 << 14])
    def test_batch_equals_one_function_at_a_time(self, m):
        # mixed degrees share one zero-padded stack; 37 functions leave a
        # partial chunk at m = 1024 and take one chunk each at m = 2^14
        fs = vn_functions(AP5, 37, seed=m)
        assert len({(f.p.size, f.q.size) for f in fs}) > 1
        assert len(fs) % chunk_rows(m) != 0 or chunk_rows(m) == 1
        assert sup_on_annulus(fs, AP5, m) == [reference_sup(f, AP5, m) for f in fs]

    @pytest.mark.parametrize("m", [8, 64, 1024])
    @pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
    def test_ties_follow_argsort(self, r, m, monkeypatch):
        # |f| ties at (nearly) every sample, so argsort's order picks the
        # brackets and the sup alone cannot tell; compare the probed points.
        ap = AnnulusParams(r)
        for f in (RationalFunction([0.0, 1.0], [1.0]), RationalFunction([0.3 - 0.4j], [1.0])):
            new, new_calls = batched_evaluations([f], ap, m, monkeypatch)
            ref, ref_calls = evaluations(reference_sup, f, ap, m, monkeypatch)
            assert new == [ref]
            assert np.array_equal(np.sort(np.concatenate([z.ravel() for z in new_calls])),
                                  np.sort(np.concatenate(ref_calls)))

    def test_f_evaluations_per_sup(self, monkeypatch):
        # 2 circles x one call per chunk + 2 initial probes + 60 iterations
        for n in (1, 37):
            fs = vn_functions(AP5, n, seed=3)
            _, calls = batched_evaluations(fs, AP5, 1024, monkeypatch)
            assert len(calls) <= 2 * -(-n // chunk_rows(1024)) + 2 + 60

    def test_memory_does_not_grow_with_the_batch(self):
        # one unchunked (512, 1024) complex sample alone would take 8 MB
        fs = vn_functions(AP5, 512, seed=11)
        tracemalloc.start()
        try:
            sup_on_annulus(fs, AP5, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSupProperties:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        r=st.floats(0.2, 0.8),
        seed=st.integers(0, 2**31 - 1),
        blaschke=st.booleans(),
        m_small=st.integers(0, 7),
    )
    def test_sup_against_dense_sample(self, r, seed, blaschke, m_small):
        ap = AnnulusParams(r)
        f = vn_functions(ap, 2, seed)[int(blaschke)]
        rng = np.random.default_rng(seed + 1)
        dense = 0.0
        for rho in (r, 1.0):
            z = rho * np.exp(2j * np.pi * rng.random(8192))
            dense = max(dense, float(np.max(np.abs(f(z)))))
        assert sup_on_annulus(f, ap) >= (1.0 - 1e-12) * dense
        with pytest.raises(DomainError):
            sup_on_annulus(f, ap, m_small)
        root = 0.5 * (1.0 + r) * np.exp(2j * np.pi * rng.random())
        with pytest.raises(DomainError):
            sup_on_annulus(RationalFunction(f.p, polymul(f.q, [-root, 1.0])), ap)


@pytest.mark.parametrize("m", [8.5, True, "64"])
def test_sup_samples_must_be_an_integer(m):
    f = RationalFunction([1.0, 2.0], [1.0])
    with pytest.raises(DomainError, match="samples per circle must be an integer"):
        sup_on_annulus(f, AnnulusParams(0.5), m)
    assert sup_on_annulus(f, AnnulusParams(0.5), np.int64(8)) > 0.0


class TestSerialization:
    def test_to_dict_document(self):
        # ascending [re, im] pairs, trailing zero coefficients trimmed
        f = RationalFunction([1.0 + 2j, 0.5, 0.0], [1.0, 0.0, -0.25j])
        assert f.to_dict() == {"p": [[1.0, 2.0], [0.5, 0.0]],
                               "q": [[1.0, 0.0], [0.0, 0.0], [0.0, -0.25]]}
