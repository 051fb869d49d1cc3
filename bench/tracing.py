"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own code only: the tracer replaces a
library function by a wrapper on the exact name its caller looks up (a module
global such as ``annulus_cert.certifier.sup_on_annulus``, or a class
attribute such as ``MatrixPencil.gamma_for_alphas``) and puts the original
back afterwards.  Patching ``annulus_cert.rational.sup_on_annulus`` alone
would miss every call, because ``certifier`` imported its own binding.

Each span is kept in memory as [layer, start, end, parent, op] and written
out at the end.  A layer's self time is the duration of its spans minus the
part covered by their child spans.  Very hot scalar calls get count-only
wrappers.  A name that no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
import weakref
from collections import Counter, defaultdict

# (layer, module, attribute) for every call site that gets a span.
SPAN_SITES = (
    ("certifier.certify", "annulus_cert.certifier", "certify_ar"),
    ("certifier.certify", "annulus_cert.misra", "certify_ar"),
    ("certifier.thm", "annulus_cert.certifier", "check_thm_block1"),
    ("certifier.thm", "annulus_cert.certifier", "check_thm_block2"),
    ("certifier.vn", "annulus_cert.certifier", "vn_sample"),
    ("misra.threshold", "annulus_cert.misra", "threshold_via_pencil"),
    ("pencil.build", "annulus_cert.pencil", "MatrixPencil.__init__"),
    ("pencil.ladder", "annulus_cert.pencil", "MatrixPencil.gamma_indices"),
    ("pencil.ladder", "annulus_cert.pencil", "MatrixPencil.deriv_indices"),
    ("pencil.sweep", "annulus_cert.pencil", "MatrixPencil.gamma_for_alphas"),
    ("pencil.sweep", "annulus_cert.pencil", "MatrixPencil.derivative_for_alphas"),
    ("factorization.factor", "annulus_cert.certifier", "factor_through"),
    ("factorization.halmos", "annulus_cert.certifier", "halmos_unitary"),
    ("numerics.sqrt_psd", "annulus_cert.certifier", "sqrt_psd"),
    ("numerics.sqrt_psd", "annulus_cert.factorization", "sqrt_psd"),
    ("rational.sup", "annulus_cert.certifier", "sup_on_annulus"),
    ("rational.eval_matrix", "annulus_cert.certifier", "eval_matrix"),
    ("rational.poles_check", "annulus_cert.rational", "poles_off_annulus"),
    ("blocks.assemble", "annulus_cert.certifier", "assemble"),
)

# (counter, module, attribute) for hot calls that are counted, not timed.
COUNT_SITES = (
    ("rational.f_evals", "annulus_cert.rational", "RationalFunction.__call__"),
    ("numerics.operator_norm_calls", "annulus_cert.numerics", "operator_norm"),
    ("numerics.operator_norm_calls", "annulus_cert.certifier", "operator_norm"),
    ("numerics.operator_norm_calls", "annulus_cert.factorization", "operator_norm"),
    ("numerics.operator_norm_calls", "annulus_cert.blocks", "operator_norm"),
)

# Every call site of certify_ar, for the allocation peak.
CERTIFY_SITES = [site for site in SPAN_SITES if site[0] == "certifier.certify"]

# Per-layer metric -> (unit, better, [(workload, end-to-end metric it should move)]).
# Times are self times and, like counts, are per batch of the workload.
LAYER_METRICS = {
    "pencil.build_s": ("s/batch", "lower", [("threshold_small", "wall_ref")]),
    "pencil.build_calls": ("count/batch", "lower", [("threshold_small", "wall_ref")]),
    "pencil.ladder_s": ("s/batch", "lower", [("threshold_small", "wall_ref"),
                                             ("certify_large", "wall_ref")]),
    "pencil.sweep_s": ("s/batch", "lower", [("certify_large", "wall_ref"),
                                            ("certify_large", "op_p50_ref"),
                                            ("threshold_small", "wall_ref"),
                                            ("threshold_small", "op_p50_ref")]),
    "pencil.terms": ("count/batch", "lower", [("certify_large", "wall_ref"),
                                              ("threshold_small", "wall_ref")]),
    "pencil.alpha_points": ("count/batch", "lower", [("certify_large", "wall_ref"),
                                                     ("threshold_small", "wall_ref")]),
    "certifier.certify_self_s": ("s/batch", "lower", [("certify_large", "wall_ref")]),
    "certifier.certify_calls": ("count/batch", "lower", [("certify_large", "wall_ref")]),
    "certifier.peak_alloc_mb": ("MB", "lower", [("certify_large", "peak_rss_mb")]),
    "certifier.thm_self_s": ("s/batch", "lower", [("block_factor", "wall_ref")]),
    "certifier.vn_self_s": ("s/batch", "lower", [("vn_oracle", "wall_ref")]),
    "certifier.vn_sup_per_trial": ("calls/trial", "lower", [("vn_oracle", "wall_ref")]),
    "misra.certify_per_threshold": ("calls/call", "lower", [("threshold_small", "wall_ref"),
                                                            ("threshold_small", "op_p50_ref")]),
    "misra.threshold_self_s": ("s/batch", "lower", [("threshold_small", "wall_ref"),
                                                    ("threshold_small", "op_p50_ref")]),
    "factorization.factor_s": ("s/batch", "lower", [("block_factor", "wall_ref")]),
    "factorization.factor_calls": ("count/batch", "lower", [("block_factor", "wall_ref")]),
    "factorization.halmos_s": ("s/batch", "lower", [("block_factor", "wall_ref")]),
    "factorization.pass_ratio": ("ratio", "higher", [("block_factor", "wall_ref")]),
    "numerics.sqrt_psd_s": ("s/batch", "lower", [("block_factor", "wall_ref")]),
    "numerics.sqrt_psd_calls": ("count/batch", "lower", [("block_factor", "wall_ref")]),
    "numerics.operator_norm_calls": ("count/batch", "lower", [("block_factor", "wall_ref")]),
    "rational.sup_s": ("s/batch", "lower", [("vn_oracle", "wall_ref")]),
    "rational.sup_calls": ("count/batch", "lower", [("vn_oracle", "wall_ref")]),
    "rational.f_evals": ("count/batch", "lower", [("vn_oracle", "wall_ref")]),
    "rational.eval_matrix_s": ("s/batch", "lower", [("vn_oracle", "wall_ref")]),
    "rational.poles_check_s": ("s/batch", "lower", [("vn_oracle", "wall_ref")]),
    "blocks.assemble_s": ("s/batch", "lower", [("block_factor", "wall_ref")]),
    "trace.overhead_ratio": ("ratio", "lower", [(w, "wall_ref") for w in (
        "certify_large", "threshold_small", "block_factor", "vn_oracle")]),
}


def _resolve(module: str, attr: str):
    """(owner, name) for ``module`` plus a dotted attribute, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


class _Patcher:
    """Replaces attributes and restores them, innermost first."""

    def __init__(self):
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    def patch(self, module: str, attr: str, make) -> None:
        found = _resolve(module, attr)
        if found is None:
            self.missing.append(f"{module}.{attr}")
            return
        owner, name = found
        # a class attribute is saved unbound, as it sits in the class namespace
        own = isinstance(owner, type) and name in vars(owner)
        original = vars(owner)[name] if own else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Tracer(_Patcher):
    """Context manager recording spans and counts while installed."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._terms_seen = weakref.WeakKeyDictionary()

    def __enter__(self) -> "Tracer":
        for layer, module, attr in SPAN_SITES:
            hook = self._hooks.get(attr.rsplit(".", 1)[-1])
            self.patch(module, attr, lambda fn, layer=layer, hook=hook: self._span(layer, fn, hook))
        for counter, module, attr in COUNT_SITES:
            self.patch(module, attr, lambda fn, counter=counter: self._count(counter, fn))
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _span(self, layer: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return wrapper

    def _count(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Counts taken at a layer boundary, keyed by the wrapped attribute name.

    def _terms(self, fn, args, kwargs, result) -> None:
        # the index calls cache their result; count each pencil's terms once
        seen = self._terms_seen.setdefault(args[0], set())
        if fn.__name__ not in seen:
            seen.add(fn.__name__)
            self.counts["pencil.terms"] += int(result[0]) + int(result[1])

    def _alphas(self, fn, args, kwargs, result) -> None:
        self.counts["pencil.alpha_points"] += len(result)

    def _factor(self, fn, args, kwargs, result) -> None:
        tol = args[3] if len(args) > 3 else kwargs.get("tol")
        self.counts["factorization.passes"] += bool(
            result.passes() if tol is None else result.passes(tol))

    def _vn(self, fn, args, kwargs, result) -> None:
        self.counts["certifier.vn_trials"] += result.count

    _hooks = {
        "gamma_indices": _terms,
        "deriv_indices": _terms,
        "gamma_for_alphas": _alphas,
        "derivative_for_alphas": _alphas,
        "factor_through": _factor,
        "vn_sample": _vn,
    }

    def summary(self) -> dict:
        """Per layer: span count, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (layer, start, end, _, _), covered in zip(self.spans, child):
            agg = out[layer]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered
        return dict(out)

    def children_of(self, parent_layer: str, child_layer: str) -> int:
        """Number of ``child_layer`` spans whose direct parent is a ``parent_layer`` span."""
        return sum(1 for layer, _, _, parent, _ in self.spans
                   if layer == child_layer and parent >= 0
                   and self.spans[parent][0] == parent_layer)


class PeakAlloc(_Patcher):
    """Largest tracemalloc peak of the allocations made inside a certify_ar call.

    Tracing runs only inside those calls, so the rest of the batch keeps its speed.
    """

    def __init__(self):
        super().__init__()
        self.peak_bytes = 0

    def __enter__(self) -> "PeakAlloc":
        for _, module, attr in CERTIFY_SITES:
            self.patch(module, attr, self._wrap)
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.peak_bytes = max(self.peak_bytes, peak)

        return wrapper


def layer_metrics(tracer: Tracer, batches: int, peak: PeakAlloc,
                  overhead_ratio: float) -> dict[str, float]:
    """Every metric of LAYER_METRICS from one traced pass of ``batches`` batches."""
    s = tracer.summary()
    c = tracer.counts
    per = 1.0 / batches
    self_s = lambda layer: s.get(layer, {}).get("self_s", 0.0) * per
    calls = lambda layer: s.get(layer, {}).get("calls", 0)
    ratio = lambda num, den: num / den if den else 0.0
    return {
        "pencil.build_s": self_s("pencil.build"),
        "pencil.build_calls": calls("pencil.build") * per,
        "pencil.ladder_s": self_s("pencil.ladder"),
        "pencil.sweep_s": self_s("pencil.sweep"),
        "pencil.terms": c["pencil.terms"] * per,
        "pencil.alpha_points": c["pencil.alpha_points"] * per,
        "certifier.certify_self_s": self_s("certifier.certify"),
        "certifier.certify_calls": calls("certifier.certify") * per,
        "certifier.peak_alloc_mb": peak.peak_bytes / 2**20,
        "certifier.thm_self_s": self_s("certifier.thm"),
        "certifier.vn_self_s": self_s("certifier.vn"),
        "certifier.vn_sup_per_trial": ratio(calls("rational.sup"), c["certifier.vn_trials"]),
        "misra.certify_per_threshold": ratio(
            tracer.children_of("misra.threshold", "certifier.certify"), calls("misra.threshold")),
        "misra.threshold_self_s": self_s("misra.threshold"),
        "factorization.factor_s": self_s("factorization.factor"),
        "factorization.factor_calls": calls("factorization.factor") * per,
        "factorization.halmos_s": self_s("factorization.halmos"),
        "factorization.pass_ratio": ratio(c["factorization.passes"],
                                          calls("factorization.factor")),
        "numerics.sqrt_psd_s": self_s("numerics.sqrt_psd"),
        "numerics.sqrt_psd_calls": calls("numerics.sqrt_psd") * per,
        "numerics.operator_norm_calls": c["numerics.operator_norm_calls"] * per,
        "rational.sup_s": self_s("rational.sup"),
        "rational.sup_calls": calls("rational.sup") * per,
        "rational.f_evals": c["rational.f_evals"] * per,
        "rational.eval_matrix_s": self_s("rational.eval_matrix"),
        "rational.poles_check_s": self_s("rational.poles_check"),
        "blocks.assemble_s": self_s("blocks.assemble"),
        "trace.overhead_ratio": overhead_ratio,
    }
