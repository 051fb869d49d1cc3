import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulus_cert.errors import ContractViolationError, DomainError
from annulus_cert.factorization import (
    block_psd_check,
    compress_through,
    defects,
    disk_block_check,
    douglas_factor,
    factor_through,
    halmos_unitary,
)
from annulus_cert.generators import ginibre, haar_unitary, random_contraction, random_psd
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
        d, dstar = defects(np.zeros((2, 2)))
        assert operator_norm(d - np.eye(2)) < 1e-14
        assert operator_norm(dstar - np.eye(2)) < 1e-14

    def test_exact_identity_contraction(self):
        d, dstar = defects(np.eye(3))
        assert operator_norm(d) == 0.0 and operator_norm(dstar) == 0.0

    def test_three_four_five(self):
        d, dstar = defects(np.diag([0.6, 0.8]))
        assert operator_norm(d - np.diag([0.8, 0.6])) < 1e-12
        assert operator_norm(dstar - np.diag([0.8, 0.6])) < 1e-12

    def test_rejects_expansive(self):
        with pytest.raises(DomainError):
            defects(2.0 * np.eye(2))

    def test_norm_within_slack_is_a_contraction(self):
        # ||K|| = 1 + 6e-9 passes the norm rule; I - K*K dips to -1.2e-8, below
        # the PSD floor of sqrt_psd, so the defects clamp to zero instead
        k = (1.0 + 6e-9) * np.eye(2)
        d, dstar = defects(k)
        assert operator_norm(d) == 0.0 and operator_norm(dstar) == 0.0
        u = halmos_unitary(k)
        assert operator_norm(u.conj().T @ u - np.eye(4)) <= 1e-7

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           delta=st.floats(-1e-3, 0.9e-8) | st.floats(1.1e-8, 1e-3))
    def test_norm_rule_decides_near_isometries(self, n, seed, delta):
        # every K the pass rule accepts gets its Halmos unitary; the rest raise
        k = (1.0 + delta) * haar_unitary(n, np.random.default_rng(seed))
        if delta >= 1.1e-8:
            with pytest.raises(DomainError, match="not a contraction within slack"):
                defects(k)
            return
        u = halmos_unitary(k)
        assert operator_norm(u.conj().T @ u - np.eye(2 * n)) <= 1e-7


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
        assert operator_norm(res.factor.k - x) < 1e-10

    def test_diagonal_norm_within_slack(self):
        res = disk_block_check((1.0 + 6e-9) * np.eye(2), 0.5 * np.eye(2), np.zeros((2, 2)))
        assert res.verdict is True and res.direct_verdict is True
        assert res.factor.passes()

    def test_expansive_diagonal_has_no_factor(self):
        res = disk_block_check(2.0 * np.eye(2), 0.5 * np.eye(2), np.zeros((2, 2)))
        assert res.factor is None
        assert res.verdict is False and res.direct_verdict is False
        assert (res.t1_norm, res.t2_norm) == (2.0, 0.5)

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


def _psd_stack(n, zeros, rng):
    """One PSD matrix per entry of ``zeros``, with that many eigenvalues set to 0,
    so the ranks differ across the stack."""
    out = []
    for z in zeros:
        u = np.linalg.qr(ginibre(n, rng))[0]
        lam = rng.random(n) + 0.1
        lam[:z] = 0.0
        out.append((u * lam) @ u.conj().T)
    return np.array(out)


def _bits(a):
    return np.asarray(a).tobytes()


class TestStackedKernels:
    """A stack gives bit for bit what a loop over its 2-D slices gives."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(n=st.integers(1, 4), size=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_stack_equals_loop_of_slices(self, n, size, seed, data):
        rng = np.random.default_rng(seed)
        rank_drops = st.lists(st.integers(0, n), min_size=size, max_size=size)
        p = _psd_stack(n, data.draw(rank_drops), rng)
        q = _psd_stack(n, data.draw(rank_drops), rng)
        r = np.array([ginibre(n, rng) for _ in range(size)])

        sp, sq = sqrt_psd(p), sqrt_psd(q)
        assert _bits(sp) == _bits([sqrt_psd(m) for m in p])
        assert _bits(sq) == _bits([sqrt_psd(m) for m in q])

        stacked = factor_through(sp, sq, r)
        looped = [factor_through(a, b, c) for a, b, c in zip(sp, sq, r)]
        assert _bits(stacked.k) == _bits([f.k for f in looped])
        for field in ("k_norm", "residual", "range_defect"):
            assert _bits(getattr(stacked, field)) == _bits([getattr(f, field) for f in looped])
        assert stacked.passing().tolist() == [f.passes() for f in looped]
        assert stacked.passes() == all(f.passes() for f in looped)
        doc = stacked.to_dict()
        for key in ("k", "k_norm", "residual", "range_defect"):
            assert doc[key] == [f.to_dict()[key] for f in looped]
        assert doc["verdict"] is stacked.passes()

        # contractions with norm up to one, so both defects may lose rank
        k = np.array([m / max(1.0, operator_norm(m)) for m in r])
        assert _bits(halmos_unitary(k)) == _bits([halmos_unitary(m) for m in k])
        u = halmos_unitary(k)
        assert _bits(compress_through(u, sp, sq)) == _bits(
            [compress_through(a, b, c) for a, b, c in zip(u, sp, sq)])

    def test_two_d_input_keeps_float_metrics(self):
        p, q, r, _ = scaled_middle_instance(3, 5, 0.5)
        fr = douglas_factor(p, q, r)
        assert all(type(v) is float for v in (fr.k_norm, fr.residual, fr.range_defect))

    def test_stacked_passes_means_every_point(self):
        p, q, r, _ = scaled_middle_instance(3, 7, 0.5)
        sp, sq = sqrt_psd(np.array([p, p])), sqrt_psd(np.array([q, q]))
        assert factor_through(sp, sq, np.array([r, r])).passes()
        # the second point needs a K of norm 4
        assert not factor_through(sp, sq, np.array([r, 8.0 * r])).passes()

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_indefinite_slice_raises_its_own_text(self, where):
        stack = np.array([np.eye(2), np.diag([2.0, 1.0]), np.diag([1.0, 3.0]), np.eye(2)])
        bad = np.diag([1.0, -0.25 * (where + 1)])
        stack[where] = bad
        stack[-1] = np.diag([1.0, -9.0])  # a later failure is not the one reported
        with pytest.raises(DomainError) as alone:
            sqrt_psd(bad)
        with pytest.raises(DomainError) as stacked:
            sqrt_psd(stack)
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.index == (where,)

    def test_non_contraction_slice_named_by_its_norm(self):
        with pytest.raises(DomainError, match=r"norm 2\)"):
            defects(np.array([0.5 * np.eye(2), 2.0 * np.eye(2), 3.0 * np.eye(2)]))


class TestPairedRoots:
    """Each kernel takes its two roots from one stacked call, bit for bit the
    two calls written out: ``douglas_factor`` from ``sqrt_psd``, the disk check
    from ``defects``, and ``defects`` from the SVD of K, with no ``sqrt_psd``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import annulus_cert.factorization as fac

        seen = []

        def counted(h):
            seen.append(np.shape(h))
            return sqrt_psd(h)

        monkeypatch.setattr(fac, "sqrt_psd", counted)
        return seen

    @pytest.mark.parametrize("seed", range(5))
    def test_douglas_factor(self, calls, seed):
        p, q, r, _ = scaled_middle_instance(3, seed, 0.5 + 0.25 * seed)
        fr = douglas_factor(p, q, r)
        assert len(calls) == 1
        expect = factor_through(sqrt_psd(p), sqrt_psd(q), r)
        for field in ("k", "k_norm", "residual", "range_defect"):
            assert _bits(getattr(fr, field)) == _bits(getattr(expect, field))

    @pytest.mark.parametrize("seed", range(5))
    def test_defects(self, calls, seed):
        k = random_contraction(3, seed=seed)
        d, dstar = defects(k)
        assert calls == []
        stacked = defects(np.array([k, 0.5 * k]))
        half = defects(0.5 * k)
        assert _bits(stacked[0]) == _bits([d, half[0]])
        assert _bits(stacked[1]) == _bits([dstar, half[1]])
        eye = np.eye(3, dtype=complex)
        kh = k.conj().T
        assert operator_norm(d @ d - (eye - kh @ k)) <= 1e-14
        assert operator_norm(dstar @ dstar - (eye - k @ kh)) <= 1e-14
        assert np.array_equal(d, d.conj().T) and np.array_equal(dstar, dstar.conj().T)

    @pytest.mark.parametrize("seed", range(5))
    def test_disk_block_check(self, calls, monkeypatch, seed):
        import annulus_cert.factorization as fac

        t1 = 0.9 * random_contraction(3, seed=seed)
        t2 = 0.8 * random_contraction(3, seed=seed + 100)
        x = 0.3 * random_contraction(3, seed=seed + 200)
        seen = []

        def counted(k):
            seen.append(np.shape(k))
            return defects(k)

        monkeypatch.setattr(fac, "defects", counted)
        res = disk_block_check(t1, t2, x)
        assert seen == [(2, 3, 3)] and calls == []
        d, dstar = defects(np.array([t1, t2]))
        expect = factor_through(dstar[0], d[1], x)
        for field in ("k", "k_norm", "residual", "range_defect"):
            assert _bits(getattr(res.factor, field)) == _bits(getattr(expect, field))

    def test_douglas_factor_names_p_before_q(self):
        # P indefinite and Q not Hermitian: the check of P alone comes first
        with pytest.raises(DomainError, match="P and Q must be PSD"):
            douglas_factor(np.diag([1.0, -1.0]), np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
        with pytest.raises(ContractViolationError, match="not Hermitian"):
            douglas_factor(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
