"""annulus-cert benchmark: one closed-loop process per workload.

    python3 bench/run.py --workload certify_large --seed 1 --seconds 25 --trace 0

Runs batches of the workload's public library calls back to back for about
``--seconds`` seconds, checks every output outside the timed region, and
prints a report line followed, as the last line, by one JSON object with the
keys correct, attempted, failed and metrics.  With ``--trace 0`` the metrics
are the end-to-end ones (BENCHMARK.json "end_to_end"); with ``--trace 1`` the
run spends half its time untraced and half traced, then runs one batch with
tracemalloc on inside certify_ar, and reports the per-layer metrics
("per_layer").  Every call is bracketed by two timings of a fixed reference
computation (``reference.py``); the end-to-end times are given in units of
it, which cancels most of the host's drift in speed, and the plain seconds
are in the report line.  The library is
imported from ``src/`` of the checkout that holds this file, and the full
report and the spans are written under ``.bench_out/`` there.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# workloads, and with it numpy and annulus_cert, is imported inside setup(),
# so that the import is part of the timed set-up
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread: a second one makes no call here faster, but while another
# process holds a core it spins and waits, and an n = 64 certify_ar call then
# takes five to fourteen times as long.  main() sets it before numpy is
# imported; the set-up probes inherit it.
BLAS_THREADS = "1"

# Set-up is timed in this many fresh processes besides the measuring one.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120

E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "op_p50_ref": "ref", "peak_rss_mb": "MB"}


class SourceMissing(RuntimeError):
    pass


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the import path, or fail."""
    if not (SRC / "annulus_cert" / "__init__.py").is_file():
        raise SourceMissing(f"no annulus_cert package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Setup:
    seconds: float
    workload: object
    seed: int
    tiny: bool
    first_batch: list
    warm_outcome: object


def setup(name: str, seed: int, tiny: bool) -> Setup:
    """Import, instance generation and one warm-up call, timed together."""
    t0 = time.perf_counter()
    import reference
    import workloads

    if name not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name]
    first = wl.batch(seed, 0, tiny)
    warm = wl.warmup(seed, tiny)
    out, err = _call(warm)
    reference.work()
    seconds = time.perf_counter() - t0
    import annulus_cert

    if Path(annulus_cert.__file__).resolve().parent != SRC / "annulus_cert":
        raise SourceMissing(f"annulus_cert imported from {annulus_cert.__file__}")
    return Setup(seconds, wl, seed, tiny, first, _check(warm, out, err))


def _call(op):
    try:
        return op.call(), None
    except Exception as exc:  # a raising call is a failed op, not a crashed run
        return None, exc


def _check(op, out, err):
    import workloads

    if err is not None:
        return workloads.Outcome(False, f"{op.kind} raised {type(err).__name__}: {err}")
    try:
        return op.check(out)
    except Exception as exc:  # a malformed output is a failed op
        return workloads.Outcome(False, f"{op.kind} output unreadable: {exc!r}")


@dataclass
class Pass:
    batch_walls: list = field(default_factory=list)
    op_walls: list = field(default_factory=list)
    ref_walls: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)

    @property
    def op_refs(self) -> list:
        """Each call's time in units of the reference timed around it."""
        return [w / r for w, r in zip(self.op_walls, self.ref_walls)]

    def batch_estimate(self, values: list | None = None) -> float:
        """Sum over the positions of a batch of the median time of the call there.

        Batches share their composition, so this is the typical batch time; it
        tolerates a stall that ruins one batch, which the median of a handful
        of whole-batch times does not.  ``values`` are per-call times in the
        order of ``op_walls``, the seconds by default.
        """
        values = self.op_walls if values is None else values
        size = len(values) // len(self.batch_walls)
        return sum(statistics.median(values[i::size]) for i in range(size))


def run_batch(ops, result: Pass, tracer=None) -> None:
    """Call every op in turn, between timings of the reference, then check the outputs."""
    import reference

    calls = []
    refs = [reference.timed()]
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        ts = time.perf_counter()
        out, err = _call(op)
        calls.append((out, err, time.perf_counter() - ts))
        refs.append(reference.timed())
    result.batch_walls.append(sum(wall for _, _, wall in calls))
    for i, (op, (out, err, wall)) in enumerate(zip(ops, calls)):
        result.op_walls.append(wall)
        result.ref_walls.append(0.5 * (refs[i] + refs[i + 1]))
        result.outcomes.append(_check(op, out, err))


def measure(st: Setup, seconds: float, tracer=None) -> Pass:
    """Whole batches, while the next one is expected to end within ``seconds``."""
    import reference

    reference.work()  # its first timing after a pause reads high
    result = Pass()
    deadline = time.perf_counter() + seconds
    batch, index = st.first_batch, 0
    while True:
        run_batch(batch, result, tracer)
        index += 1
        if time.perf_counter() + result.batch_estimate() > deadline:
            return result
        batch = st.workload.batch(st.seed, index, st.tiny)


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def blas_info() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            info["threads"] = os.environ[var]
            return info
    return info


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "annulus_cert").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy as np
    import annulus_cert

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "package": annulus_cert.__version__,
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


def _tail(values: list, unit: str) -> dict | None:
    """Highest percentile with at least ten samples above it, if that is the median or above."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    k = n - 10
    return {"percentile": 100.0 * k / n, "value": ordered[k - 1], "unit": unit, "samples": n}


def quality(outcomes: list) -> dict:
    failed = sum(not o.ok for o in outcomes)
    gaps = [o.rel_gap for o in outcomes if o.rel_gap is not None]
    witnesses = [o.witness for o in outcomes if o.witness is not None]
    out = {"error_ratio": {"value": failed / len(outcomes), "unit": "ratio"}}
    if gaps:
        out["threshold_rel_gap_max"] = {"value": max(gaps), "unit": "ratio"}
    if witnesses:
        out["vn_witness_rate"] = {"value": sum(witnesses) / len(witnesses), "unit": "ratio",
                                  "instances": len(witnesses)}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full report."""
    st = setup(name, seed, tiny)
    outcomes = [st.warm_outcome]
    report = {"workload": name, "seconds": seconds, "trace": int(trace), "tiny": tiny,
              "provenance": provenance(seed)}
    if not trace:
        res = measure(st, seconds)
        setups = [st.seconds] + [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
        outcomes += res.outcomes
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_ref": res.batch_estimate(res.op_refs),
            "op_p50_ref": statistics.median(res.op_refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
        report["extra"] = quality(outcomes)
        report["extra"].update({
            "wall_s": {"value": res.batch_estimate(), "unit": "s"},
            "op_p50_s": {"value": statistics.median(res.op_walls), "unit": "s"},
            "ref_s": {"value": statistics.median(res.ref_walls), "unit": "s"},
        })
        for key, values, unit in (("op_tail_ref", res.op_refs, "ref"),
                                  ("op_tail_s", res.op_walls, "s")):
            tail = _tail(values, unit)
            if tail:
                report["extra"][key] = tail
        report["samples"] = {"setup": setups, "batches": res.batch_walls, "ops": res.op_walls,
                             "refs": res.ref_walls}
    else:
        import tracing

        plain = measure(st, seconds / 2.0)
        with tracing.Tracer() as tracer:
            traced = measure(st, seconds / 2.0, tracer)
        mem = Pass()
        with tracing.PeakAlloc() as peak:
            run_batch(st.first_batch, mem)
        outcomes += plain.outcomes + traced.outcomes + mem.outcomes
        overhead = traced.batch_estimate(traced.op_refs) / plain.batch_estimate(plain.op_refs)
        layers = tracing.layer_metrics(tracer, len(traced.batch_walls), peak, overhead)
        report["metrics"] = {k: {"value": v, "unit": tracing.LAYER_METRICS[k][0]}
                             for k, v in layers.items()}
        report["extra"] = quality(outcomes)
        report["missing"] = tracer.missing
        report["layers"] = tracer.summary()
        report["spans"] = tracer.spans
    report["attempted"] = len(outcomes)
    report["failed"] = sum(not o.ok for o in outcomes)
    report["failures"] = [o.detail for o in outcomes if not o.ok][:20]
    return report


def write_out(report: dict, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{seed}-trace{report['trace']}"
    spans = report.pop("spans", None)
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    try:
        use_checkout_source()
        if args.setup_probe:
            print(json.dumps({"setup_s": setup(args.workload, args.seed, False).seconds}))
            return 0
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SourceMissing, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    write_out(report, args.seed)
    print("report " + json.dumps({k: v for k, v in report.items() if k not in ("layers", "samples")}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
