import numpy as np
import pytest

from annulus_cert.certifier import certify_ar
from annulus_cert.errors import DomainError
from annulus_cert.generators import (
    haar_unitary,
    random_contraction,
    random_normal_annulus,
    random_psd,
)
from annulus_cert.numerics import operator_norm
from annulus_cert.pencil import AnnulusParams

AP5 = AnnulusParams(0.5)


class TestDeterminism:
    def test_equal_seeds_equal_matrices(self):
        for maker in (
            lambda s: random_normal_annulus(4, AP5, seed=s),
            lambda s: random_contraction(4, seed=s),
            lambda s: random_psd(4, seed=s),
        ):
            a = maker(42)
            b = maker(42)
            assert np.array_equal(a, b)


class TestStructure:
    def test_scalar_case(self):
        t = random_normal_annulus(1, AP5, seed=0)
        assert 0.5 <= abs(t[0, 0]) <= 1.0

    def test_normal_annulus_eigenvalues_in_band(self):
        for seed in range(1000):
            t = random_normal_annulus(2, AP5, seed=seed)
            mods = np.abs(np.linalg.eigvals(t))
            assert np.all(mods >= 0.5 - 1e-10) and np.all(mods <= 1.0 + 1e-10)

    def test_normality(self):
        t = random_normal_annulus(5, AP5, seed=3)
        assert operator_norm(t @ t.conj().T - t.conj().T @ t) < 1e-12

    def test_contraction_norm_below_one(self):
        for seed in range(1000):
            assert operator_norm(random_contraction(3, seed=seed)) < 1.0

    def test_psd_floor(self):
        for seed in range(1000):
            h = random_psd(3, seed=seed)
            assert float(np.linalg.eigvalsh(h)[0]) >= -1e-12

    def test_haar_unitary(self):
        u = haar_unitary(4, np.random.default_rng(7))
        assert operator_norm(u.conj().T @ u - np.eye(4)) < 1e-12

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            random_contraction(65, seed=0)


class TestCertifiedPopulation:
    def test_normal_annulus_certifies(self):
        for seed in range(5):
            t = random_normal_annulus(3, AP5, seed=seed)
            assert certify_ar(t, AP5).certified
