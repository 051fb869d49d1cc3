"""``scripts/bench_pairs.py`` with git, the exports and the runs stubbed out."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

# Per side and workload, the values of the three pairs; "wall_ref" is better
# lower and "ops" better higher, so head wins wall_ref in pairs 1 and 3 and
# ops in pair 1 only (counting ops as lower would give 2 wins).
VALUES = {
    ("base", "wa"): {"wall_ref": [10.0, 12.0, 11.0], "ops": [5.0, 5.0, 5.0]},
    ("head", "wa"): {"wall_ref": [9.0, 13.0, 8.0], "ops": [6.0, 4.0, 4.0]},
    ("base", "wb"): {"wall_ref": [2.0, 4.0, 3.0], "ops": [1.0, 3.0, 2.0]},
    ("head", "wb"): {"wall_ref": [2.0, 4.0, 3.0], "ops": [1.0, 3.0, 2.0]},
}


@pytest.fixture
def bench_pairs(tmp_path, monkeypatch):
    """The script as a module, run against a temporary BENCHMARK.json; returns
    (module, list of (side, workload, seed, seconds) per run, in run order)."""
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 0.5,
        "workloads": [{"name": "wa"}, {"name": "wb"}],
        "end_to_end": [{"name": "wall_ref", "better": "lower"},
                       {"name": "ops", "better": "higher"}],
    }))
    calls = []

    def run_once(tree, workload, seed, seconds):
        side = tree.name
        k = sum(c[:2] == (side, workload) for c in calls)
        calls.append((side, workload, seed, seconds))
        metrics = {m: {"value": v[k]} for m, v in VALUES[side, workload].items()}
        prov = {"source_sha256": f"src-{side}", "nproc": 2, "cpu_count": 2,
                "machine": "x86_64", "python": "3.11", "numpy": "2", "blas": "stub"}
        return {"metrics": metrics, "failed": 0, "attempted": 7}, {"provenance": prov}

    monkeypatch.setattr(mod, "ROOT", tmp_path)
    monkeypatch.setattr(mod, "git", lambda *a, **kw: subprocess.CompletedProcess(a, 0, stdout=""))
    monkeypatch.setattr(mod, "export", lambda rev, dest: f"sha-{rev}")
    monkeypatch.setattr(mod, "run_once", run_once)
    return mod, calls


def test_three_pairs(bench_pairs, tmp_path):
    mod, calls = bench_pairs
    out = tmp_path / "out.json"
    assert mod.main(["--base", "abc", "--pairs", "3", "--seed", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())

    # the side that runs first alternates from pair to pair, for every workload
    first = [("base", "head"), ("head", "base"), ("base", "head")]
    assert [c[0] for c in calls] == [s for pair in first for _ in "ab" for s in pair]
    assert [c[1] for c in calls] == ["wa", "wa", "wb", "wb"] * 3
    assert {c[2:] for c in calls} == {(4, 0.5)}

    assert doc["sides"] == {"base": {"rev": "sha-abc", "source_sha256": "src-base"},
                            "head": {"rev": "sha-HEAD", "source_sha256": "src-head"}}
    assert doc["pairs"] == 3
    assert doc["command"] == "python3 bench/run.py --workload W --seed 4 --seconds 0.5 --trace 0"
    assert doc["machine"]["blas"] == "stub"

    wa = doc["workloads"]["wa"]
    assert wa["base"]["runs"] == VALUES["base", "wa"]
    assert wa["base"]["median"] == {"wall_ref": 11.0, "ops": 5.0}
    assert wa["head"]["median"] == {"wall_ref": 9.0, "ops": 4.0}
    # the exclusive quartiles of three values are the least and the greatest
    assert wa["base"]["quartiles"] == {"wall_ref": [10.0, 12.0], "ops": [5.0, 5.0]}
    assert wa["head"]["quartiles"] == {"wall_ref": [8.0, 13.0], "ops": [4.0, 6.0]}
    assert wa["head_over_base"] == {"wall_ref": 9.0 / 11.0, "ops": 4.0 / 5.0}
    assert wa["head_wins"] == {"wall_ref": 2, "ops": 1}
    assert wa["base"]["failed"] == [0, 0, 0] and wa["head"]["attempted"] == [7, 7, 7]
    # ties win nothing in either direction
    assert doc["workloads"]["wb"]["head_wins"] == {"wall_ref": 0, "ops": 0}


def test_workloads_flag_selects(bench_pairs, tmp_path):
    mod, calls = bench_pairs
    out = tmp_path / "out.json"
    assert mod.main(["--base", "abc", "--pairs", "1", "--workloads", "wb", "--out", str(out)]) == 0
    assert [c[:2] for c in calls] == [("base", "wb"), ("head", "wb")]
    assert list(json.loads(out.read_text())["workloads"]) == ["wb"]
