"""Command-line surface.

Exit codes, used consistently by every subcommand:

    0   certified / verdicts agree / no violation found / plain success
    1   refuted / verdicts disagree / violation or factorization failure
    2   inconclusive (truncation, diagnostic failure, thm's inconclusive certificate)
    64  usage error: bad flags, unreadable or malformed matrix files,
        out-of-domain inputs
    65  contract violation: structurally valid inputs that break a precondition
        (commutation, dimension mismatch, hermiticity)

All matrices travel as JSON documents (see ``io``); certificates and reports
are JSON on stdout or ``--out``; sweeps are CSV.  Every random path takes an
explicit ``--seed`` (default 0) and is deterministic given the same flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .blocks import BlockSpec, assemble
from .certifier import (
    DEFAULT_GRID,
    VERDICT_CERTIFIED,
    VERDICT_INCONCLUSIVE,
    VERDICT_REFUTED,
    Certificate,
    _check_thm,
    certify_ar,
    vn_sample,
)
from .errors import (
    AnnulusCertError,
    ContractViolationError,
    DiagnosticError,
    DomainError,
    SingularityError,
    TruncationError,
)
from .factorization import douglas_factor
from .io import load_matrix, save_matrix
from .misra import misra_threshold, sweep_rows
from .numerics import inverse
from .pencil import AnnulusParams, PencilGrid

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_CONTRACT = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the CLI reserves that
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_eps_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise DomainError(f"bad eps list {text!r}: {exc}") from exc


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"expected RE,IM, got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise DomainError(f"bad complex literal {text!r}: {exc}") from exc


def _grid_from_args(args) -> PencilGrid:
    eps = _parse_eps_list(args.eps) if args.eps is not None else DEFAULT_GRID.eps_values
    alphas = args.alphas if args.alphas is not None else DEFAULT_GRID.alpha_count
    return PencilGrid(eps_values=tuple(eps), alpha_count=alphas)


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout.

    A reader that closes stdout early (``| head``) ends the output, not the
    command: stdout is pointed at os.devnull, so the shutdown flush stays
    quiet, and the command still returns its verdict's exit code.
    """
    if out:
        Path(out).write_text(text, encoding="utf-8")
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(doc: dict, out: str | None) -> None:
    _write(json.dumps(doc, indent=2) + "\n", out)


def _cert_exit(cert: Certificate) -> int:
    return {VERDICT_CERTIFIED: EXIT_OK, VERDICT_REFUTED: EXIT_REFUTED,
            VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE}[cert.verdict]


def _cmd_certify(args) -> int:
    t = load_matrix(args.matrix)
    grid = _grid_from_args(args)
    cert = certify_ar(t, AnnulusParams(args.r), grid)
    _emit(cert.to_dict(), args.out)
    return _cert_exit(cert)


def _cmd_block(args) -> int:
    t1 = load_matrix(args.t1)
    t2 = load_matrix(args.t2) if args.t2 else None
    x = load_matrix(args.x)
    spec = BlockSpec(args.kind, t1, x, t2)
    if args.kind == "general":
        try:
            inverse(spec.t1 - spec.t2)
        except SingularityError:
            print(
                "warning: T1 - T2 is numerically singular; the general block may "
                "not reduce to a commutant factorization",
                file=sys.stderr,
            )
    save_matrix(assemble(spec), args.out)
    return EXIT_OK


def _cmd_factor(args) -> int:
    p = load_matrix(args.p)
    q = load_matrix(args.q)
    r = load_matrix(args.rmat)
    result = douglas_factor(p, q, r)
    _emit(result.to_dict(), args.out)
    return EXIT_OK if result.passes() else EXIT_REFUTED


def _cmd_misra(args) -> int:
    th = misra_threshold(_parse_complex(args.w), args.r)
    _write(f"{th:.17g}\n", None)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    rows = sweep_rows(args.r, args.samples, seed=args.seed)
    lines = [",".join(rows[0])]  # the keys of sweep_rows are the CSV columns
    lines += [",".join(f"{v:.17g}" for v in row.values()) for row in rows]
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_vn(args) -> int:
    t = load_matrix(args.matrix)
    report = vn_sample(t, AnnulusParams(args.r), count=args.count, seed=args.seed, m=args.m)
    _emit(report.to_dict(), args.out)
    return EXIT_REFUTED if report.violation else EXIT_OK


def _cmd_thm(args) -> int:
    t1 = load_matrix(args.t1)
    x = load_matrix(args.x)
    t2 = load_matrix(args.t2) if args.t2 else None
    grid = _grid_from_args(args)
    ap = AnnulusParams(args.r)
    # block1 is the kind 'tx', so a --t2 must equal T1 there, as for ``block``
    spec = BlockSpec("tx" if args.which == "block1" else "hat", t1, x, t2)
    report = _check_thm(spec, ap, grid)
    _emit({"which": args.which, **report.to_dict()}, args.out)
    return {True: EXIT_OK, False: EXIT_REFUTED, None: EXIT_INCONCLUSIVE}[report.agree]


def build_parser() -> _Parser:
    parser = _Parser(prog="annulus-cert",
                     description="Certify annulus contractions and their 2x2 block completions.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_flags(p):
        p.add_argument("--eps", help="comma-separated eps ladder (default: certifier grid)")
        p.add_argument("--alphas", type=int, help="number of unimodular alpha samples")

    p = sub.add_parser("certify", help="decide annulus contractivity of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--r", type=float, required=True)
    add_grid_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("block", help="assemble a 2x2 block operator")
    p.add_argument("--kind", choices=["tx", "hat", "general"], required=True)
    p.add_argument("--t1", required=True)
    p.add_argument("--t2")
    p.add_argument("--x", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_block)

    p = sub.add_parser("factor", help="factor R through PSD square roots of P and Q")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--rmat", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("misra", help="kernel threshold for the scalar Jordan block")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--w", required=True, help="complex point as RE,IM")
    p.set_defaults(func=_cmd_misra)

    p = sub.add_parser("sweep", help="kernel-vs-pencil threshold sweep to CSV")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("vn", help="sample rational functions against the sup-norm bound")
    p.add_argument("--matrix", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=1024, help="boundary samples per circle")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_vn)

    p = sub.add_parser("thm", help="factorization-vs-certificate equivalence report")
    p.add_argument("--which", choices=["block1", "block2"], required=True)
    p.add_argument("--t1", required=True)
    p.add_argument("--t2")
    p.add_argument("--x", required=True)
    p.add_argument("--r", type=float, required=True)
    add_grid_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_thm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ContractViolationError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (TruncationError, DiagnosticError, SingularityError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except AnnulusCertError as exc:  # pragma: no cover - residual mapping
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
