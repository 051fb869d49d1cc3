import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from annulus_cert.blocks import BlockSpec, assemble
from annulus_cert.certifier import (
    DEFAULT_GRID,
    PencilGrid,
    certify_ar,
    check_thm_block1,
    check_thm_block2,
)
from annulus_cert.cli import main
from annulus_cert.io import load_matrix, matrix_from_dict, matrix_to_dict, save_matrix
from annulus_cert.errors import DomainError
from annulus_cert.factorization import douglas_factor
from annulus_cert.generators import random_normal_annulus
from annulus_cert.misra import jordan_block, misra_threshold
from annulus_cert.pencil import MAX_ALPHAS, AnnulusParams
from annulus_cert.rational import MAX_SAMPLES

AP5 = AnnulusParams(0.5)
DATA = Path(__file__).parent / "data"
THM_GRID = ["--r", "0.5", "--eps", "0.5,0.1", "--alphas", "8"]


@pytest.fixture
def files(tmp_path):
    paths = {}

    def put(name, matrix):
        path = tmp_path / f"{name}.json"
        save_matrix(matrix, path)
        paths[name] = str(path)
        return str(path)

    put("eye", np.eye(3))
    put("shrunk", np.diag([0.1 + 0j]))
    put("t", np.array([[0.7]]))
    put("t2", np.array([[0.6]]))
    # half the kernel threshold at w = 0.7, r = 0.5, pinned so the golden
    # files do not follow the last digits of misra_threshold
    put("x_small", np.array([[0.15428348717445867]]))
    # near the inner circle the sampler finds violating functions reliably
    put("bad", jordan_block(0.55, 1.5 * misra_threshold(0.55, 0.5)))
    paths["tmp"] = tmp_path
    return paths


@pytest.fixture(scope="module")
def one_by_one(tmp_path_factory):
    """A 1 x 1 T inside the annulus r = 0.5 and a small commuting X."""
    tmp = tmp_path_factory.mktemp("one_by_one")
    paths = {"t": str(tmp / "t.json"), "x": str(tmp / "x.json")}
    save_matrix(np.array([[0.7]]), paths["t"])
    save_matrix(np.array([[0.05]]), paths["x"])
    return paths


class TestMatrixFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        t = random_normal_annulus(4, AP5, seed=12)
        path = tmp_path / "m.json"
        save_matrix(t, path)
        first = path.read_text()
        again = load_matrix(path)
        save_matrix(again, path)
        assert path.read_text() == first
        assert np.array_equal(t, again)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            matrix_from_dict({"n": 2, "data": [[1.0, 0.0]] * 3})

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            matrix_from_dict({"n": 1, "data": [[float("inf"), 0.0]]})

    def test_string_forms_rejected(self):
        with pytest.raises(DomainError):
            matrix_from_dict({"n": 1, "data": [["1+2j", 0.0]]})

    def test_dict_round_trip(self):
        m = np.array([[0.5 + 0.25j]])
        assert np.array_equal(matrix_from_dict(matrix_to_dict(m)), m)


class TestCertifyCommand:
    def test_unitary_exit_zero(self, files, capsys):
        code = main(["certify", "--matrix", files["eye"], "--r", "0.5"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["verdict"] == "certified"
        assert doc["records"]

    @pytest.mark.parametrize("name, code, scalar", [("eye", 0, True), ("bad", 1, False)])
    def test_scalar_rungs_key(self, files, capsys, name, code, scalar):
        # a normal input decides every rung on the scalar route, a Jordan block none
        assert main(["certify", "--matrix", files[name], "--r", "0.5"]) == code
        rungs = json.loads(capsys.readouterr().out)["scalar_rungs"]
        assert [r["eps"] for r in rungs] == (list(DEFAULT_GRID.eps_values) if scalar else [])
        assert all(0.0 < r["bound"] <= 1e-9 for r in rungs)

    def test_spectrum_refuted_exit_one(self, files, capsys):
        code = main(["certify", "--matrix", files["shrunk"], "--r", "0.5"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["spectrum_ok"] is False

    def test_misra_refuted_with_worst_point(self, files, tmp_path):
        out = str(tmp_path / "cert.json")
        code = main(["certify", "--matrix", files["bad"], "--r", "0.5", "--out", out])
        assert code == 1
        doc = json.loads(open(out).read())
        assert doc["worst"] is not None

    def test_custom_grid_flags(self, files, capsys):
        code = main([
            "certify", "--matrix", files["eye"], "--r", "0.5",
            "--eps", "0.5,0.25", "--alphas", "8",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(doc["records"]) == 16

    def test_half_threshold_jordan_block_certified(self, tmp_path, capsys):
        # half the kernel threshold 0.3086, so an annulus contraction; a loose
        # truncation tail once refuted it with margin -2.4e-4
        path = str(tmp_path / "j.json")
        save_matrix(jordan_block(0.7, 0.1543), path)
        code = main(["certify", "--matrix", path, "--r", "0.5"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["verdict"] == "certified"
        assert doc["min_margin"] > 0.0

    @pytest.mark.parametrize("modulus", [1.000000005, 0.499999995])
    def test_band_edge_inconclusive(self, tmp_path, capsys, modulus):
        # inside the closed annulus up to PSD_TOL, but past the band edge of
        # eps = 1e-9: the series diverges there, so the rung is inconclusive
        path = str(tmp_path / "edge.json")
        save_matrix(np.array([[modulus]]), path)
        code = main(["certify", "--matrix", path, "--r", "0.5", "--eps", "1e-9"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["spectrum_ok"] is True
        assert "diverges on the band edge" in doc["diagnostics"][0]

    @pytest.mark.parametrize("matrix, code", [
        ([[0.999921, 1e-4], [0.0, -0.998972]], 1),
        ([[1.0]], 2),
        ([[0.7]], 0),
    ], ids=["interior_refuted", "circle_inconclusive", "inside_certified"])
    def test_limit_rung(self, tmp_path, capsys, matrix, code):
        # eps = 0 refutes an interior input that every eps > 0 rung certifies;
        # a spectrum on a circle diverges there, which is inconclusive, not refuted
        path = str(tmp_path / "m.json")
        save_matrix(np.array(matrix, dtype=complex), path)
        assert main(["certify", "--matrix", path, "--r", "0.5", "--eps", "0"]) == code
        doc = json.loads(capsys.readouterr().out)
        if code == 1:
            assert doc["min_margin"] == pytest.approx(-1.573e-5, rel=1e-3)
            assert main(["certify", "--matrix", path, "--r", "0.5"]) == 0
        elif code == 2:
            assert "diverges on the band edge" in doc["diagnostics"][0]

    def test_missing_file_usage_error(self, files):
        assert main(["certify", "--matrix", "nope.json", "--r", "0.5"]) == 64

    def test_bad_r_usage_error(self, files, capsys):
        assert main(["certify", "--matrix", files["eye"], "--r", "1.5"]) == 64

    def test_malformed_json_usage_error(self, files, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["certify", "--matrix", str(bad), "--r", "0.5"]) == 64


class TestBlockCommand:
    def test_tx_zero_block_diagonal(self, files, tmp_path):
        zero = str(tmp_path / "zero.json")
        save_matrix(np.zeros((1, 1)), zero)
        out = str(tmp_path / "blk.json")
        code = main(["block", "--kind", "tx", "--t1", files["t"], "--x", zero, "--out", out])
        assert code == 0
        block = load_matrix(out)
        assert block.shape == (2, 2)
        assert block[0, 1] == 0.0

    def test_written_block_reparses_bit_identically(self, files, tmp_path):
        out = tmp_path / "blk.json"
        main(["block", "--kind", "tx", "--t1", files["t"], "--x", files["x_small"], "--out", str(out)])
        text = out.read_text()
        save_matrix(load_matrix(out), out)
        assert out.read_text() == text

    def test_hat_equal_diagonals(self, files, tmp_path):
        out = str(tmp_path / "blk.json")
        code = main([
            "block", "--kind", "hat", "--t1", files["t"], "--t2", files["t"],
            "--x", files["x_small"], "--out", out,
        ])
        assert code == 0
        assert abs(load_matrix(out)[0, 1]) == 0.0

    def test_general_matches_hat(self, files, tmp_path):
        t1 = str(tmp_path / "t1.json"); save_matrix(np.diag([0.6, 0.8]), t1)
        t2 = str(tmp_path / "t2.json"); save_matrix(np.diag([0.7, 0.9]), t2)
        x = str(tmp_path / "x.json"); save_matrix(np.diag([0.2, 0.1]), x)
        y = str(tmp_path / "y.json")
        save_matrix(np.diag([0.2, 0.1]) @ (np.diag([0.6, 0.8]) - np.diag([0.7, 0.9])), y)
        hat_out = str(tmp_path / "hat.json")
        gen_out = str(tmp_path / "gen.json")
        assert main(["block", "--kind", "hat", "--t1", t1, "--t2", t2, "--x", x, "--out", hat_out]) == 0
        assert main(["block", "--kind", "general", "--t1", t1, "--t2", t2, "--x", y, "--out", gen_out]) == 0
        assert np.array_equal(load_matrix(hat_out), load_matrix(gen_out))

    def test_general_singular_difference_warns(self, files, tmp_path, capsys):
        out = str(tmp_path / "blk.json")
        code = main([
            "block", "--kind", "general", "--t1", files["t"], "--t2", files["t"],
            "--x", files["x_small"], "--out", out,
        ])
        assert code == 0
        assert "singular" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["hat", "general"])
    def test_two_diagonal_kinds_require_t2(self, files, kind):
        # without T2 the hat block would be [[T, 0], [0, T]]: a usage error, not a file
        out = files["tmp"] / "blk.json"
        proc = run_cli("block", "--kind", kind, "--t1", files["t"], "--x", files["x_small"],
                       "--out", str(out))
        assert proc.returncode == 64
        assert "T2" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_commutation_violation_exit_65(self, tmp_path):
        t = str(tmp_path / "t.json"); save_matrix(np.array([[0.6, 0.1], [0.0, 0.6]]), t)
        x = str(tmp_path / "x.json"); save_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), x)
        out = str(tmp_path / "o.json")
        assert main(["block", "--kind", "tx", "--t1", t, "--x", x, "--out", out]) == 65

    def test_tx_with_distinct_t2_exit_65(self, files, tmp_path):
        out = str(tmp_path / "o.json")
        argv = ["block", "--kind", "tx", "--t1", files["t"], "--x", files["x_small"], "--out", out]
        assert main([*argv, "--t2", files["t"]]) == 0
        assert main([*argv, "--t2", files["t2"]]) == 65


class TestOtherCommands:
    def test_factor_identity_weights(self, files, tmp_path, capsys):
        half = str(tmp_path / "half.json")
        save_matrix(0.5 * np.eye(3), half)
        eye = str(tmp_path / "eye3.json")
        save_matrix(np.eye(3), eye)
        code = main(["factor", "--p", eye, "--q", eye, "--rmat", half])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["verdict"] is True
        assert doc["k_norm"] == pytest.approx(0.5, abs=1e-12)

    def test_factor_document_of_one_matrix(self, files, capsys):
        # one matrix: float metrics and a single matrix document for K
        assert main(["factor", "--p", files["t"], "--q", files["t"], "--rmat", files["x_small"]]) == 0
        t, x = load_matrix(files["t"]), load_matrix(files["x_small"])
        fr = douglas_factor(t, t, x)
        expect = {"k": matrix_to_dict(fr.k), "k_norm": fr.k_norm, "residual": fr.residual,
                  "range_defect": fr.range_defect, "verdict": True}
        assert capsys.readouterr().out == json.dumps(expect, indent=2) + "\n"

    def test_factor_failure_exit_one(self, files, tmp_path, capsys):
        eye = str(tmp_path / "eye3.json"); save_matrix(np.eye(3), eye)
        big = str(tmp_path / "big.json"); save_matrix(2.0 * np.eye(3), big)
        assert main(["factor", "--p", eye, "--q", eye, "--rmat", big]) == 1

    def test_misra_prints_threshold(self, capsys):
        code = main(["misra", "--r", "0.25", "--w", "0.5,0"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert float(out) == pytest.approx(misra_threshold(0.5, 0.25), rel=1e-12)

    @pytest.mark.parametrize("w", ["0.99999,0", "0.500001,0"])
    def test_misra_near_the_circles(self, capsys, w):
        # a term-by-term kernel sum would need hundreds of thousands of terms here
        code = main(["misra", "--r", "0.5", "--w", w])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert float(out) > 0.0

    def test_misra_r_near_one_inconclusive(self, capsys):
        assert main(["misra", "--r", "0.99999999", "--w", "0.999999995,0"]) == 2
        assert "exceeding the cap" in capsys.readouterr().err

    def test_misra_bad_w_usage(self, capsys):
        assert main(["misra", "--r", "0.25", "--w", "0.1,0"]) == 64

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--r", "0.5", "--samples", "3", "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "w_re,w_im,r,threshold_kernel,threshold_pencil,rel_gap"
        assert len(lines) == 4
        for line in lines[1:]:
            assert float(line.split(",")[-1]) <= 0.01

    def test_sweep_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["sweep", "--r", "0.5", "--samples", "2", "--seed", "3", "--out", str(a)])
        main(["sweep", "--r", "0.5", "--samples", "2", "--seed", "3", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_vn_violation_exit_one(self, files, capsys):
        code = main(["vn", "--matrix", files["bad"], "--r", "0.5", "--count", "100", "--seed", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["violation"] is True
        assert doc["witness"] is not None

    def test_thm_block1_agreement(self, files, capsys):
        code = main([
            "thm", "--which", "block1", "--t1", files["t"], "--x", files["x_small"],
            "--r", "0.5",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["agree"] is True
        assert doc["factor_verdict"] is True
        assert doc["points"]
        point = doc["points"][0]
        assert {"eps", "alpha", "k_norm", "lambda_min", "residual"} <= set(point)
        assert point["lambda_min"] is not None

    def test_thm_block1_on_the_limit_rung(self, files, capsys):
        x = files["tmp"] / "x_tenth.json"
        save_matrix(np.array([[0.1]]), x)
        code = main(["thm", "--which", "block1", "--t1", files["t"], "--x", str(x),
                     "--r", "0.5", "--eps", "0"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["agree"] is True and {p["eps"] for p in doc["points"]} == {0.0}

    def test_thm_margins_where_the_certificate_has_records(self, files, capsys):
        # the certificate of the assembled block evaluates 4 of 6 rungs (see
        # TestThmBlock1.test_margins_join_by_grid_point); those keep their margins
        x = files["tmp"] / "x_big.json"
        save_matrix(np.array([[3e4]]), x)
        code = main(["thm", "--which", "block1", "--t1", files["t"], "--x", str(x), "--r", "0.5"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        cert = certify_ar(assemble(BlockSpec("tx", np.array([[0.7]]), np.array([[3e4]]))), AP5)
        margins = {(eps, a): lm for eps, a, lm, _, _ in cert.records.tolist()}
        lams = [p["lambda_min"] for p in doc["points"]]
        assert sum(v is not None for v in lams) == 256 and lams.count(None) == 128
        for p in doc["points"]:
            assert p["lambda_min"] == margins.get((p["eps"], complex(*p["alpha"])))

    def test_thm_k_norm_within_slack_exit_zero(self, files, capsys):
        # every point passes with max ||K|| = 1 + 7e-9, and so must the
        # Halmos reconstruction of each
        x = files["tmp"] / "x_edge.json"
        save_matrix(np.array([[0.959596891248954]]), x)
        code = main(["thm", "--which", "block1", "--t1", files["t"], "--x", str(x),
                     "--r", "0.5", "--eps", "0.5", "--alphas", "8"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["agree"] is True and doc["factor_verdict"] is True
        assert 1.0 < doc["max_k_norm"] <= 1.0 + 1e-8

    def test_thm_inconclusive_certificate_exits_2(self, files, capsys):
        # the sweep rounding guard trips on both rungs of the assembled block
        x = files["tmp"] / "x_big.json"
        save_matrix(np.array([[3e4]]), x)
        code = main(["thm", "--which", "block1", "--t1", files["t"], "--x", str(x),
                     "--r", "0.5", "--eps", "0.02,0.01", "--alphas", "64"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["certificate_verdict"] == "inconclusive" and doc["factor_verdict"] is False
        assert doc["agree"] is None

    def test_thm_block1_holds_t2_to_the_tx_contract(self, files, tmp_path, capsys):
        # as `block --kind tx`: T2 must equal T1, and an unreadable --t2 is a usage error
        argv = ["thm", "--which", "block1", "--t1", files["t"], "--x", files["x_small"], *THM_GRID]
        assert main([*argv, "--t2", str(tmp_path / "nope.json")]) == 64
        assert main([*argv, "--t2", files["t2"]]) == 65
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "contract violation: kind 'tx' has one diagonal block: T2 must equal T1")
        out = tmp_path / "thm.json"
        assert main([*argv, "--t2", files["t"], "--out", str(out)]) == 0
        assert out.read_text() == (DATA / "thm_block1.json").read_text()

    def test_thm_block2_requires_t2(self, files):
        assert main([
            "thm", "--which", "block2", "--t1", files["t"], "--x", files["x_small"],
            "--r", "0.5",
        ]) == 64

    def test_usage_no_command(self):
        assert main([]) == 64


class TestThmGolden:
    """The thm document, frozen from the hand-built serializer it replaced."""

    @pytest.mark.parametrize("which", ["block1", "block2"])
    def test_output_bytes_frozen(self, files, tmp_path, which):
        out = tmp_path / "thm.json"
        t2 = ["--t2", files["t2"]] if which == "block2" else []
        code = main(["thm", "--which", which, "--t1", files["t"], "--x", files["x_small"],
                     *t2, *THM_GRID, "--out", str(out)])
        assert code == 0
        assert out.read_text() == (DATA / f"thm_{which}.json").read_text()

    @pytest.mark.parametrize("which", ["block1", "block2"])
    def test_report_dict_is_the_document(self, files, which):
        t, x = load_matrix(files["t"]), load_matrix(files["x_small"])
        grid = PencilGrid((0.5, 0.1), 8)
        if which == "block1":
            rep = check_thm_block1(t, x, AP5, grid)
        else:
            rep = check_thm_block2(t, load_matrix(files["t2"]), x, AP5, grid)
        doc = json.loads((DATA / f"thm_{which}.json").read_text())
        assert rep.to_dict() == {k: v for k, v in doc.items() if k != "which"}


CERTIFY_INPUTS = {
    "normal8": lambda: random_normal_annulus(8, AP5, seed=1),  # certified, three scalar rungs
    "shift6": lambda: 0.75 * np.eye(6) + 0.2 * np.eye(6, k=1),  # certified on the matrix route
    "jordan": lambda: np.array([[0.7, 0.5], [0.0, 0.7]]),  # refuted by the pencil
    "inner": lambda: np.array([[0.4]]),  # refuted by the spectrum check
}


class TestCertifyGolden:
    """The certify document on both routes and both refutations, frozen."""

    @pytest.mark.parametrize("name, code", [("normal8", 0), ("shift6", 0), ("jordan", 1), ("inner", 1)])
    def test_output_bytes_frozen(self, tmp_path, capsys, name, code):
        path = tmp_path / "t.json"
        save_matrix(CERTIFY_INPUTS[name](), path)
        assert main(["certify", "--matrix", str(path), "--r", "0.5", "--eps", "0.5,0.1,0.01",
                     "--alphas", "16"]) == code
        assert capsys.readouterr().out == (DATA / f"certify_{name}.json").read_text()


def _cli_process(*argv):
    """Command line and environment that run the CLI of this checkout in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return [sys.executable, "-m", "annulus_cert.cli", *argv], env


def run_cli(*argv):
    """The CLI in a fresh interpreter, so an uncaught exception shows as a traceback."""
    cmd, env = _cli_process(*argv)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def _json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=3),
    _json_containers,
    max_leaves=10,
)
# short, odd or non-numeric [re, im] entries
_ODD_ENTRIES = st.lists(st.lists(st.floats() | st.integers(-3, 3) | _JSON_VALUES, max_size=3), max_size=9)
_WELL_FORMED = st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n),
    "data": st.lists(st.lists(st.floats(-1.0, 1.0) | st.floats(allow_nan=False, allow_infinity=False),
                              min_size=2, max_size=2),
                     min_size=n * n, max_size=n * n),
}))
MATRIX_DOCUMENTS = st.one_of(
    _JSON_VALUES,
    st.fixed_dictionaries({"n": st.integers(-1, 3) | _JSON_VALUES, "data": _ODD_ENTRIES | _JSON_VALUES},
                          optional={"extra": _JSON_VALUES}),
    _WELL_FORMED,
)


def _huge(cap):
    return st.sampled_from([cap + 1, 10**9, 10**18])


def _eps_lists(values, min_size):
    return st.lists(st.sampled_from(values), min_size=min_size, max_size=3).map(",".join)


# Per flag: values the CLI accepts (None leaves the flag out) and values it
# must reject with exit 64, including sizes past the allocation caps.
_VALID_FLAGS = {
    "--alphas": st.none() | st.integers(8, 64),
    "--eps": st.none() | _eps_lists(["0.5", "0.1", "1e-3", "0"], 1),
    "--m": st.none() | st.integers(8, 2048),
    "--r": st.sampled_from(["0.5", "0.3", "0.75", "1e-300"]),
    "--seed": st.none() | st.integers(0, 2**63),
}
_HOSTILE_FLAGS = {
    "--alphas": st.integers(-2, 7) | _huge(MAX_ALPHAS),
    "--eps": _eps_lists(["1", "-0.2", "nan", "inf", "x"], 0),
    "--m": st.integers(-2, 7) | _huge(MAX_SAMPLES),
    "--r": st.sampled_from(["0", "1", "-1", "nan", "inf", "x"]),
    "--seed": st.integers(-2**63, -1) | st.sampled_from(["x", "2.5"]),
}
_COMMAND_FLAGS = {
    "certify": ["--alphas", "--eps", "--r"],
    "thm": ["--alphas", "--eps", "--r"],
    "vn": ["--m", "--r", "--seed"],
}


def _chain(n, w, h):
    """w I plus h on the superdiagonal: a Jordan chain for n > 1."""
    return w * np.eye(n) + h * np.eye(n, k=1)


def _near_circles(n):
    """Jordan chains with spectrum within 1e-8 of the outer or the inner circle of r = 0.5."""
    modulus = st.floats(0.0, 1e-8).flatmap(lambda gap: st.sampled_from([1.0 - gap, 0.5 + gap]))
    return st.builds(lambda mod, angle, h: _chain(n, mod * np.exp(1j * angle), h),
                     modulus, st.sampled_from([0.0, 0.7, np.pi]), st.sampled_from([1e-3, 0.1, 1.0]))


def _on_circles(n):
    """Diagonal T with every eigenvalue on the outer or the inner circle of r = 0.5."""
    point = st.tuples(st.sampled_from([1.0, 0.5]), st.sampled_from([0.0, 0.7, np.pi]))
    return st.lists(point, min_size=n, max_size=n).map(
        lambda pts: np.diag([mod * np.exp(1j * angle) for mod, angle in pts]))


def _huge_entries(n):
    """Chains inside the annulus with superdiagonal entries up to 1e300."""
    return st.sampled_from([1e100, 1e200, 1e300]).map(lambda h: _chain(n, 0.7, h))


def _near_singular(n):
    """T whose smallest singular value is tiny against its largest: a strong
    chain inside the annulus, or an eigenvalue near 0."""
    chains = st.sampled_from([1e4, 1e8]).map(lambda h: _chain(n, 0.7, h))
    tiny = st.sampled_from([1e-12, 1e-300]).map(lambda s: np.diag([0.7] * (n - 1) + [s]))
    return chains | tiny if n > 1 else tiny


class TestHostileInputs:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(which=st.sampled_from(["block1", "block2"]), n=st.integers(1, 3), data=st.data())
    def test_hostile_thm_inputs_end_in_a_documented_exit_code(self, which, n, data):
        matrices = _near_circles(n) | _near_singular(n)
        t1 = data.draw(matrices, label="t1")
        x = data.draw(st.sampled_from([1.0, 0.01, 1e200]), label="x") * np.eye(n)
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, matrix in (("t1", t1), ("x", x)):
                paths[name] = str(Path(tmp) / f"{name}.json")
                save_matrix(matrix, paths[name])
            argv = ["thm", "--which", which, "--t1", paths["t1"], "--x", paths["x"],
                    "--r", "0.5", "--eps", "0.5,0.01", "--alphas", "8"]
            if which == "block2":
                paths["t2"] = str(Path(tmp) / "t2.json")
                save_matrix(data.draw(matrices, label="t2"), paths["t2"])
                argv += ["--t2", paths["t2"]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in {0, 1, 2, 64, 65}
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(cmd=st.sampled_from(["certify", "vn"]), n=st.integers(1, 3), data=st.data())
    def test_hostile_certify_and_vn_inputs_end_in_a_documented_exit_code(self, cmd, n, data):
        matrices = _near_circles(n) | _on_circles(n) | _near_singular(n) | _huge_entries(n)
        t = data.draw(matrices, label="t")
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "t.json")
            save_matrix(t, path)
            flags = {"certify": ["--eps", "0.5,0.01", "--alphas", "8"],
                     "vn": ["--count", "5", "--m", "64"]}[cmd]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([cmd, "--matrix", path, "--r", "0.5", *flags])
        assert code in {0, 1, 2, 64, 65}
        assert "Traceback" not in err.getvalue()

    def test_vn_intermediate_overflow_exits_65(self, tmp_path):
        # finite entries of 1e300 overflow inside f(T): the open case of
        # ROADMAP item 7, recorded here until it gets its own exit code
        path = tmp_path / "t.json"
        save_matrix(_chain(3, 0.7, 1e300), path)
        proc = run_cli("vn", "--matrix", str(path), "--r", "0.5", "--count", "5", "--m", "64")
        assert proc.returncode == 65
        assert "non-finite" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("matrix, code", [(np.diag([0.7, 0.6]), 0), (np.array([[0.7, 0.5], [0.0, 0.7]]), 1)])
    def test_closed_stdout_keeps_the_verdict_exit_code(self, tmp_path, matrix, code):
        # the reader goes away before anything is written, as `certify ... | head -c 10`
        # does once the certificate outgrows the pipe buffer
        path = tmp_path / "t.json"
        save_matrix(matrix, path)
        cmd, env = _cli_process("certify", "--matrix", str(path), "--r", "0.5")
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=env) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == code
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err

    def test_thm_diagonal_not_a_contraction_usage_error(self, tmp_path):
        # the block theorems assume annulus-contraction diagonals; certify refutes this T
        paths = {name: str(tmp_path / f"{name}.json") for name in ("t", "x")}
        save_matrix(np.array([[0.7, 0.5], [0.0, 0.7]]), paths["t"])
        save_matrix(0.01 * np.eye(2), paths["x"])
        proc = run_cli("thm", "--which", "block1", "--t1", paths["t"], "--x", paths["x"], *THM_GRID)
        assert proc.returncode == 64
        assert "T1 is not an annulus contraction" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert run_cli("certify", "--matrix", paths["t"], *THM_GRID).returncode == 1

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(doc=MATRIX_DOCUMENTS)
    def test_any_matrix_document_ends_in_a_documented_exit_code(self, doc):
        text = json.dumps(doc)
        try:
            matrix_from_dict(json.loads(text))
            allowed = {0, 1, 2, 65}
        except DomainError:
            allowed = {64}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.json"
            path.write_text(text)
            assert main(["certify", "--matrix", str(path), "--r", "0.5", "--eps", "0.5", "--alphas", "8"]) in allowed

    @pytest.mark.parametrize("doc", [
        '{"n": true, "data": [[0.7, 0.0]]}',
        '{"n": 1, "data": [[true, 0.0]]}',
    ], ids=["bool_n", "bool_entry"])
    def test_bool_in_matrix_usage_error(self, tmp_path, doc):
        bad = tmp_path / "bool.json"
        bad.write_text(doc)
        proc = run_cli("certify", "--matrix", str(bad), "--r", "0.5")
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case", ["non_utf8", "directory", "huge_integer", "long_integer",
                                      "deep_nesting"])
    def test_unreadable_matrix_file_usage_error(self, tmp_path, case):
        path = tmp_path / "m.json"
        if case == "directory":
            path.mkdir()
        elif case == "non_utf8":
            path.write_bytes(b'\xff\xfe{"n": 1, "data": [[0.7, 0.0]]}')
        elif case == "deep_nesting":
            path.write_text("[" * 100_000 + "]" * 100_000)
        else:
            digits = {"huge_integer": 400, "long_integer": 5000}[case]
            path.write_text('{"n": 1, "data": [[1' + "0" * digits + ', 0.0]]}')
        proc = run_cli("certify", "--matrix", str(path), "--r", "0.5")
        assert proc.returncode == 64
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_directory_as_out_usage_error(self, tmp_path, files):
        proc = run_cli("certify", "--matrix", files["eye"], "--r", "0.5", "--eps", "0.5",
                       "--alphas", "8", "--out", str(tmp_path))
        assert proc.returncode == 64
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case, code, text", [
        ("w_one_part", 64, "error: expected RE,IM, got '0.5'"),
        ("w_not_numbers", 64, "error: bad complex literal 'a,b'"),
        ("short_entry", 64, "error: entry 0 is not an [re, im] pair"),
        ("file_past_cap", 64, "error: dimension 129 exceeds cap 128"),
        ("file_past_cap_bad_entry", 64, "error: dimension 129 exceeds cap 128"),
        ("thm_operand_past_cap", 65, "contract violation: dimension 65 exceeds cap 64"),
        ("block_operand_past_cap", 65, "contract violation: dimension 65 exceeds cap 64"),
        ("sweep_no_samples", 64, "error: samples must be at least 1, got 0"),
    ])
    def test_rejection_is_one_line(self, tmp_path, capsys, case, code, text):
        # files hold up to 128 = 2 * MAX_DIM (a saved block); the operands of a block, 64
        path = str(tmp_path / "m.json")
        if case == "short_entry":
            Path(path).write_text('{"n": 1, "data": [[0.7]]}')
        elif case == "file_past_cap_bad_entry":
            Path(path).write_text(json.dumps({"n": 129, "data": [[0.7]] * 129**2}))
        else:
            save_matrix(0.7 * np.eye(129 if case == "file_past_cap" else 65), path)
        argv = {
            "w_one_part": ["misra", "--r", "0.5", "--w", "0.5"],
            "w_not_numbers": ["misra", "--r", "0.5", "--w", "a,b"],
            "short_entry": ["certify", "--matrix", path, "--r", "0.5"],
            "file_past_cap": ["certify", "--matrix", path, "--r", "0.5"],
            "file_past_cap_bad_entry": ["certify", "--matrix", path, "--r", "0.5"],
            "thm_operand_past_cap": ["thm", "--which", "block1", "--t1", path, "--x", path,
                                     *THM_GRID],
            "block_operand_past_cap": ["block", "--kind", "tx", "--t1", path, "--x", path,
                                       "--out", str(tmp_path / "o.json")],
            "sweep_no_samples": ["sweep", "--r", "0.5", "--samples", "0"],
        }[case]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(text)

    def test_empty_eps_list_usage_error(self, files):
        assert main(["certify", "--matrix", files["eye"], "--r", "0.5", "--eps", ""]) == 64

    @pytest.mark.parametrize("cmd", ["thm", "factor"])
    def test_mismatched_sizes_contract_violation(self, files, cmd):
        small = files["t"]  # 1 x 1
        argv = {"thm": ["thm", "--which", "block1", "--t1", small, "--x", files["eye"], *THM_GRID],
                "factor": ["factor", "--p", files["eye"], "--q", small, "--rmat", files["eye"]]}[cmd]
        proc = run_cli(*argv)
        assert proc.returncode == 65
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["certify", "--alphas", "0"],
        ["thm", "--which", "block1", "--alphas", "0"],
        ["vn", "--count", "-3"],
        ["vn", "--count", "0"],
        ["vn", "--seed", "-1"],
        ["sweep", "--seed", "-1"],
    ], ids="_".join)
    def test_zero_or_negative_flag_usage_error(self, files, argv):
        inputs = {"certify": ["--matrix", files["eye"]], "vn": ["--matrix", files["eye"]],
                  "thm": ["--t1", files["t"], "--x", files["x_small"]],
                  "sweep": ["--samples", "1"]}[argv[0]]
        assert main([*argv, *inputs, "--r", "0.5"]) == 64

    def test_thm_zero_diagonal_leaves_the_band_before_any_inverse(self, files, tmp_path):
        # T1 = 0 is singular, but the band check comes first: exit 64, not 2
        zero = str(tmp_path / "zero.json")
        save_matrix(np.zeros((1, 1)), zero)
        proc = run_cli("thm", "--which", "block1", "--t1", zero, "--x", files["x_small"], *THM_GRID)
        assert proc.returncode == 64
        assert "leave the convergence band" in proc.stderr
        assert "numerically singular" not in proc.stderr and "Traceback" not in proc.stderr

    def test_certify_ill_conditioned_inside_the_band_is_inconclusive(self, tmp_path):
        # the spectrum {0.7, 0.71} passes every band check, so T^{-1} is taken: exit 2
        path = str(tmp_path / "t.json")
        save_matrix(np.array([[0.7, 1e8], [0.0, 0.71]]), path)
        proc = run_cli("certify", "--matrix", path, "--r", "0.5")
        assert proc.returncode == 2
        assert proc.stderr.startswith("inconclusive: matrix numerically singular")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("cmd, flag", [
        pytest.param(cmd, flag, id=f"{cmd}-{flag[0]}")
        for cmd, flag in [("certify", ["--tail-tol", "1e-4"]), ("certify", ["--n-max", "8"]),
                          ("thm", ["--tail-tol", "1e-4"]), ("thm", ["--n-max", "8"]),
                          ("certify", ["--threads", "2"])]
    ])
    def test_removed_truncation_flags_usage_error(self, files, cmd, flag):
        # the truncation rule is fixed; a loose tail used to refute contractions.
        # certify runs its eps rungs serially, so it has no pool to size either.
        inputs = {"certify": ["--matrix", files["t"]],
                  "thm": ["--which", "block1", "--t1", files["t"], "--x", files["x_small"]]}[cmd]
        proc = run_cli(cmd, *inputs, *THM_GRID, *flag)
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr
        assert "unrecognized arguments" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["certify", "--alphas", str(MAX_ALPHAS + 1)],
        ["certify", "--alphas", str(10**15)],
        ["thm", "--which", "block1", "--alphas", str(MAX_ALPHAS + 1)],
        ["vn", "--m", str(MAX_SAMPLES + 1)],
        ["vn", "--m", str(10**15)],
    ], ids="_".join)
    def test_memory_sized_flags_capped(self, files, argv):
        # rejected when read, before the buckets or boundary samples are allocated
        inputs = {"certify": ["--matrix", files["t"]], "vn": ["--matrix", files["t"]],
                  "thm": ["--t1", files["t"], "--x", files["x_small"]]}[argv[0]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main([*argv, *inputs, "--r", "0.5"]) == 64
        assert "must lie in" in err.getvalue()

    def test_caps_admit_the_documented_sizes(self):
        assert PencilGrid(alpha_count=MAX_ALPHAS).alpha_count == MAX_ALPHAS
        assert MAX_ALPHAS >= 64 and MAX_SAMPLES >= 1024

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(cmd=st.sampled_from(sorted(_COMMAND_FLAGS)), data=st.data())
    def test_any_flag_values_end_in_a_documented_exit_code(self, one_by_one, cmd, data):
        # at most one hostile flag, so a run with one must exit 64
        flags = _COMMAND_FLAGS[cmd]
        hostile = data.draw(st.sampled_from([None, *flags]), label="hostile")
        argv = [cmd, *{"certify": ["--matrix", one_by_one["t"]],
                       "vn": ["--matrix", one_by_one["t"], "--count", "2"],
                       "thm": ["--which", "block1", "--t1", one_by_one["t"], "--x", one_by_one["x"]]}[cmd]]
        for flag in flags:
            value = data.draw((_HOSTILE_FLAGS if flag == hostile else _VALID_FLAGS)[flag], label=flag)
            if value is not None:
                argv.append(f"{flag}={value}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 64 if hostile else code in {0, 1, 2, 64, 65}
        assert "Traceback" not in err.getvalue()
