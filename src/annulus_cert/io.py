"""Matrix file format of the CLI.

A matrix document is ``{"n": int, "data": [[re, im], ...]}`` with the n*n
entries row-major.  Complex numbers are [re, im] pairs everywhere; no string
forms are accepted, so round-trips are bit-exact; ``complex_pair`` writes them
for every report.  A file that is not such a document, for any reason, raises
DomainError: a usage error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import DomainError
from .numerics import MAX_DIM, as_matrix

# Largest dimension a matrix file may hold: saved block operators reach 2 * MAX_DIM.
MAX_FILE_DIM = 2 * MAX_DIM


def complex_pair(z) -> list:
    return [float(z.real), float(z.imag)]


def matrix_to_dict(a) -> dict:
    m = as_matrix(a)
    return {"n": m.shape[0], "data": [complex_pair(z) for z in m.reshape(-1)]}


def matrix_from_dict(doc: dict) -> np.ndarray:
    if not isinstance(doc, dict) or "n" not in doc or "data" not in doc:
        raise DomainError("matrix document must have 'n' and 'data' fields")
    n = doc["n"]
    data = doc["data"]
    if type(n) is not int or n < 1:  # JSON true parses to bool, an int subclass
        raise DomainError(f"'n' must be a positive integer, got {n!r}")
    if n > MAX_FILE_DIM:
        raise DomainError(f"dimension {n} exceeds cap {MAX_FILE_DIM}")
    if not isinstance(data, list) or len(data) != n * n:
        raise DomainError(
            f"'data' must hold exactly n*n = {n * n} entries, got {len(data) if isinstance(data, list) else type(data)}"
        )
    out = np.empty(n * n, dtype=complex)
    for i, pair in enumerate(data):
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise DomainError(f"entry {i} is not an [re, im] pair")
        re, im = pair
        # finite as a float, compared exactly, so huge JSON integers cannot overflow
        if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in (re, im)):
            raise DomainError(f"entry {i} has non-finite or non-numeric parts")
        out[i] = complex(re, im)
    return as_matrix(out.reshape(n, n))


def load_matrix(path) -> np.ndarray:
    try:
        # ValueError covers bad JSON, bad UTF-8 and integers beyond Python's digit
        # limit; RecursionError covers arrays nested too deep for the decoder
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"{path}: invalid JSON: {exc}") from exc
    return matrix_from_dict(doc)


def save_matrix(a, path) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(a)), encoding="utf-8")
