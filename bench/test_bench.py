"""Tests of the benchmark itself: layer coverage, output checking, metric lists.

Run with ``python -m pytest bench/test_bench.py``.  Every workload runs
traced at a tiny size, which takes a few seconds each.
"""

import json
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_tiny_run_covers_its_layers(name):
    report = run.run_workload(name, seed=5, seconds=0.01, trace=True, tiny=True)
    assert report["failed"] == 0, report["failures"]
    assert report["missing"] == []
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    assert set(metrics) == set(tracing.LAYER_METRICS)
    mapped = [m for m, (_, _, moves) in tracing.LAYER_METRICS.items()
              if any(w == name for w, _ in moves)]
    assert mapped
    assert [m for m in mapped if not metrics[m] > 0.0] == []


def test_planted_wrong_result_counts_as_failed():
    ops = workloads.threshold_small(seed=5, batch=0, tiny=True)
    true_threshold = ops[0].call()
    ops.append(workloads.Op(ops[0].kind, lambda: 1.05 * true_threshold, ops[0].check))
    result = run.Pass()
    run.run_batch(ops, result)
    assert [o.ok for o in result.outcomes] == [True, False]


def test_raising_call_counts_as_failed():
    def boom():
        raise ValueError("planted")

    op = workloads.certify_large(seed=5, batch=0, tiny=True)[0]
    result = run.Pass()
    run.run_batch([workloads.Op(op.kind, boom, op.check)], result)
    assert not result.outcomes[0].ok


def test_call_times_are_given_in_units_of_the_bracketing_reference():
    ops = workloads.threshold_small(seed=5, batch=0, tiny=True) * 2
    result = run.Pass()
    run.run_batch(ops, result)
    assert len(result.ref_walls) == len(result.op_walls) == 2
    assert all(r > 0.0 for r in result.ref_walls)
    assert result.op_refs == [w / r for w, r in zip(result.op_walls, result.ref_walls)]
    assert result.batch_estimate(result.op_refs) == pytest.approx(sum(result.op_refs))


def test_witness_check_rejects_a_wrong_ratio():
    op = workloads.vn_oracle(seed=5, batch=0, tiny=True)[-1]
    rep = op.call()
    assert rep.violation
    assert op.check(rep).ok
    forged = type(rep)(rep.worst_ratio * 1.01, rep.witness, True, rep.count, rep.seed)
    assert not op.check(forged).ok


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in tracing.LAYER_METRICS.items()]
    assert BENCHMARK["paths"] == [Path(run.__file__).resolve().parent.name]
