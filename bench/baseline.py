"""Run the benchmark over several seeds and summarise the spread of every metric.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each workload this runs ``bench/run.py`` once per seed untraced and once
traced (first seed only), one process at a time, and records for every
end-to-end metric the median, the quartiles and the spread (the distance
between the quartiles as a share of the median) next to the metric's bound.
The layer-to-end-to-end mapping and the provenance of the runs are stored
with the numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2].removeprefix("report ")), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sys.path.insert(0, str(HERE))
    import tracing

    doc = {"run_seconds": spec["run_seconds"], "seeds": seeds(args.seeds), "workloads": {},
           "layer_to_end_to_end": {k: [{"workload": w, "metric": m} for w, m in moves]
                                   for k, (_, _, moves) in tracing.LAYER_METRICS.items()}}
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        extra: list[dict] = []
        ok = True
        for seed in doc["seeds"]:
            report, result = bench(name, seed, spec["run_seconds"], 0)
            ok = ok and result["correct"]
            extra.append(report["extra"])
            doc.setdefault("provenance", report["provenance"])
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        entry = {"correct": ok, "end_to_end": {}, "extra": extra}
        for key, vals in values.items():
            entry["end_to_end"][key] = dict(spread(vals), bound=bounds[key])
            s = entry["end_to_end"][key]
            print(f"{name:16s} {key:12s} median {s['median']:.4g}  spread {s['spread']:.3f}"
                  f"  bound {s['bound']}", flush=True)
        _, traced = bench(name, doc["seeds"][0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        doc["workloads"][name] = entry
    doc["provenance"].pop("seed", None)
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
