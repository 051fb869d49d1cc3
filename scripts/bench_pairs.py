"""Alternating A/B runs of ``bench/run.py``: a base commit against this checkout.

    python3 scripts/bench_pairs.py --base HEAD~1 --pairs 10 --out BENCH_18.json

Exports ``--base`` and this checkout's tracked files, uncommitted edits
included, with ``git archive`` into one temporary directory, so both sides
import from fresh trees on the same file system.  It then runs
``python3 bench/run.py --workload W --seed SEED --seconds S --trace 0`` once on
each side per pair and workload, where S is ``run_seconds`` of BENCHMARK.json
and the workloads default to its list.  The side that runs first alternates
from pair to pair, so slow drift of the host falls on both sides alike.  Each
run's last JSON line gives its end-to-end metrics and its report line the
machine and the hash of the source it ran.  The output file holds, per
workload, the per-pair values and the medians and quartiles of BENCHMARK.json's
end-to-end metrics on both sides, how many pairs the head side won by each
metric's ``better`` direction, and the machine (nproc, Python, numpy, BLAS and
its thread count) from the runs' provenance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kw)


def export(rev: str, dest: Path) -> str:
    """Extract the files of commit ``rev`` into ``dest``; returns the full commit id."""
    sha = git("rev-parse", "--verify", rev + "^{commit}", text=True).stdout.strip()
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", "--format=tar", sha).stdout,
                   check=True)
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(last JSON line, report line) of one ``bench/run.py`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {tree} on {workload}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(ln[len("report "):]) for ln in lines if ln.startswith("report "))
    return json.loads(lines[-1]), report


def side_summary(runs: list[dict], metrics: list[str]) -> dict:
    values = {m: [r["metrics"][m]["value"] for r in runs] for m in metrics}
    return {
        "median": {m: statistics.median(v) for m, v in values.items()},
        "quartiles": {m: statistics.quantiles(v, n=4)[::2] for m, v in values.items()
                      if len(v) >= 2},
        "runs": values,
        "failed": [r["failed"] for r in runs],
        "attempted": [r["attempted"] for r in runs],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = [w for w in args.workloads.split(",") if w]
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "head")}
        # ``git stash create`` commits the working tree's edits to tracked files without
        # touching the checkout; it prints nothing when there are none.
        head_rev = git("stash", "create", text=True).stdout.strip() or "HEAD"
        sides = {"base": {"rev": export(args.base, trees["base"])},
                 "head": {"rev": export(head_rev, trees["head"])}}
        runs = {w: {"base": [], "head": []} for w in workloads}
        machine = None
        for k in range(args.pairs):
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            for w in workloads:
                for side in order:
                    result, report = run_once(trees[side], w, args.seed, seconds)
                    runs[w][side].append(result)
                    prov = report["provenance"]
                    sides[side]["source_sha256"] = prov["source_sha256"]
                    machine = machine or {
                        "nproc": prov["nproc"], "cpu_count": prov["cpu_count"],
                        "machine": prov["machine"], "python": prov["python"],
                        "numpy": prov["numpy"], "blas": prov["blas"],
                    }
                    print(f"pair {k + 1}/{args.pairs} {w} {side}: "
                          f"wall_ref {result['metrics']['wall_ref']['value']:.3f} "
                          f"failed {result['failed']}", file=sys.stderr, flush=True)

    doc = {
        "sides": sides,
        "command": f"python3 bench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": args.pairs,
        "machine": machine,
        "workloads": {},
    }
    for w in workloads:
        base = side_summary(runs[w]["base"], list(better))
        head = side_summary(runs[w]["head"], list(better))
        doc["workloads"][w] = {
            "base": base,
            "head": head,
            "head_over_base": {m: head["median"][m] / base["median"][m] for m in better},
            "head_wins": {m: sum(h < b if better[m] == "lower" else h > b
                                 for h, b in zip(head["runs"][m], base["runs"][m]))
                          for m in better},
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
