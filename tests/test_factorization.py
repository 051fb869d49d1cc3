import numpy as np
import pytest

from annulus_cert.errors import ContractViolationError, DomainError
from annulus_cert.factorization import (
    block_psd_check,
    compress_through,
    defects,
    disk_block_check,
    douglas_factor,
    halmos_unitary,
)
from annulus_cert.generators import ginibre, random_contraction, random_psd
from annulus_cert.numerics import operator_norm, sqrt_psd


def scaled_middle_instance(n, seed, k_norm_target):
    """P, Q PSD and R = sqrt(P) K sqrt(Q) with ||K|| pinned to the target."""
    rng = np.random.default_rng(seed)
    p = random_psd(n, seed=seed)
    q = random_psd(n, seed=seed + 10_000)
    k0 = ginibre(n, rng)
    k0 = k_norm_target * k0 / operator_norm(k0)
    r = sqrt_psd(p) @ k0 @ sqrt_psd(q)
    return p, q, r, k0


class TestDouglasFactor:
    def test_identity_weights(self):
        r = 0.5 * np.eye(3)
        fr = douglas_factor(np.eye(3), np.eye(3), r)
        assert operator_norm(fr.k - r) < 1e-12
        assert fr.residual < 1e-14
        assert fr.passes()

    def test_degenerate_zero(self):
        z = np.zeros((2, 2))
        fr = douglas_factor(z, z, z)
        assert operator_norm(fr.k) == 0.0
        assert fr.passes()

    def test_round_trip_seed_13(self):
        p, q, r, _ = scaled_middle_instance(5, 13, 0.9)
        fr = douglas_factor(p, q, r)
        assert fr.k_norm <= 1 + 1e-8
        assert fr.residual <= 1e-8
        assert block_psd_check(p, q, r)[1] >= -1e-8 * (1 + operator_norm(r))

    def test_rejects_indefinite_weights(self):
        with pytest.raises(DomainError):
            douglas_factor(np.diag([1.0, -1.0]), np.eye(2), np.zeros((2, 2)))

    def test_rank_deficient_in_range(self):
        rng = np.random.default_rng(31)
        g = (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))) / np.sqrt(2)
        p = g.conj().T @ g  # rank 3
        q = random_psd(5, seed=77)
        k0 = 0.7 * random_contraction(5, seed=78)
        r = sqrt_psd(p) @ k0 @ sqrt_psd(q)
        fr = douglas_factor(p, q, r)
        assert fr.passes()
        ok, _ = block_psd_check(p, q, r)
        assert ok


class TestBlockPsdCheck:
    def test_big_off_diagonal(self):
        ok, margin = block_psd_check(np.eye(2), np.eye(2), 2.0 * np.eye(2))
        assert not ok
        assert margin == pytest.approx(-1.0, abs=1e-12)

    def test_marginal_identity(self):
        ok, margin = block_psd_check(np.eye(2), np.eye(2), np.eye(2))
        assert ok
        assert margin == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("sizes", [(3, 2, 3), (2, 2, 3)])
    def test_mismatched_sizes_contract_violation(self, sizes):
        p, q, r = (np.eye(n) for n in sizes)
        with pytest.raises(ContractViolationError, match="share one dimension"):
            block_psd_check(p, q, r)
        with pytest.raises(ContractViolationError, match="share one dimension"):
            douglas_factor(p, q, r)

    def test_equivalence_with_douglas(self):
        mismatches = 0
        for seed in range(300):
            target = 0.75 if seed % 2 == 0 else 1.45
            p, q, r, _ = scaled_middle_instance(4, seed, target)
            fr = douglas_factor(p, q, r)
            ok, _ = block_psd_check(p, q, r)
            if fr.passes() != ok:
                mismatches += 1
        assert mismatches == 0


class TestDefects:
    def test_zero(self):
        pair = defects(np.zeros((2, 2)))
        assert operator_norm(pair.d - np.eye(2)) < 1e-14
        assert operator_norm(pair.dstar - np.eye(2)) < 1e-14

    def test_exact_identity_contraction(self):
        pair = defects(np.eye(3))
        assert operator_norm(pair.d) == 0.0

    def test_three_four_five(self):
        pair = defects(np.diag([0.6, 0.8]))
        assert operator_norm(pair.d - np.diag([0.8, 0.6])) < 1e-12

    def test_rejects_expansive(self):
        with pytest.raises(DomainError):
            defects(2.0 * np.eye(2))


class TestHalmosUnitary:
    def test_zero_gives_swap(self):
        u = halmos_unitary(np.zeros((2, 2)))
        expect = np.block([
            [np.zeros((2, 2)), np.eye(2)],
            [np.eye(2), np.zeros((2, 2))],
        ])
        assert operator_norm(u - expect) < 1e-14

    def test_diag_three_four_five(self):
        k = np.diag([0.6, 0.8])
        u = halmos_unitary(k)
        assert operator_norm(u.conj().T @ u - np.eye(4)) < 1e-12

    def test_unitarity_on_random_contractions(self):
        for seed in range(30):
            k = random_contraction(4, seed=seed)
            u = halmos_unitary(k)
            assert operator_norm(u.conj().T @ u - np.eye(8)) <= 1e-10

    def test_compression_identity(self):
        rng = np.random.default_rng(21)
        k = random_contraction(3, seed=21)
        u = halmos_unitary(k)
        for _ in range(5):
            s1 = ginibre(3, rng)
            s2 = ginibre(3, rng)
            direct = s1 @ k @ s2
            assert operator_norm(compress_through(u, s1, s2) - direct) <= 1e-10 * (1 + operator_norm(direct))


class TestDiskBlockCheck:
    def test_zero_diagonals(self):
        x = 0.8 * random_contraction(3, seed=5)
        res = disk_block_check(np.zeros((3, 3)), np.zeros((3, 3)), x)
        assert res.verdict
        assert operator_norm(res.c - x) < 1e-10

    def test_unitary_diagonal_rejects_nonzero_x(self):
        u = np.diag(np.exp(1j * np.array([0.3, 1.2, 2.0])))
        res = disk_block_check(u, u, 0.3 * np.eye(3))
        assert not res.verdict
        assert res.direct_norm > 1.0 + 1e-8

    def test_direct_verdict_uses_psd_slack(self):
        # direct norm 1 + 1e-4 lies outside the psd slack of 1e-8
        zero = np.zeros((2, 2))
        x = (1.0 + 1e-4) * np.eye(2)
        res = disk_block_check(zero, zero, x)
        assert 1.0 + 1e-8 < res.direct_norm
        assert not res.verdict and not res.direct_verdict

    def test_mismatched_sizes_contract_violation(self):
        with pytest.raises(ContractViolationError, match="share one dimension"):
            disk_block_check(0.5 * np.eye(3), 0.5 * np.eye(2), 0.1 * np.eye(3))

    def test_equivalence_with_direct_norm(self):
        rng = np.random.default_rng(99)
        checked = 0
        seed = 0
        while checked < 200:
            seed += 1
            t1 = (0.4 + 0.55 * rng.random()) * random_contraction(3, seed=seed)
            t2 = (0.4 + 0.55 * rng.random()) * random_contraction(3, seed=seed + 5000)
            x = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0)))) * ginibre(3, rng)
            res = disk_block_check(t1, t2, x)
            if abs(res.direct_norm - 1.0) < 1e-3:
                continue  # skip knife-edge instances; both sides share the slack there
            checked += 1
            assert res.verdict == res.direct_verdict, f"seed {seed}"
