"""Serialization helpers shared by the records and the command line."""

from __future__ import annotations

import csv
import json
import math

import numpy as np


def to_jsonable(obj):
    """Recursively convert numpy values, complex numbers and containers to JSON types.

    Non-finite floats, also the parts of a complex number, become strings so
    the output stays strict JSON.  Any
    other type raises ``TypeError``: its ``str`` could carry a memory
    address and break byte-determinism.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):  # also catches np.float64, a float subclass
        return float(obj) if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, complex):  # also catches np.complex128
        return [to_jsonable(obj.real), to_jsonable(obj.imag)]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj) -> str:
    """Deterministic strict-JSON text: sorted keys, fixed layout, trailing newline."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


def eigenflow_rows(family, samples: int = 101):
    """Rows ``(t, lambda_1 ... lambda_n)`` of the eigenvalue flow."""
    ts = np.linspace(0.0, family.horizon, samples)
    eigs = np.linalg.eigvalsh(family.at_many(ts))
    return [[float(t)] + [float(x) for x in w] for t, w in zip(ts, eigs)]


def write_eigenflow_csv(family, path, samples: int = 101) -> None:
    header = ["t"] + [f"lambda_{j + 1}" for j in range(family.dim)]
    write_csv(path, header, eigenflow_rows(family, samples))


def write_unitarity_drift_csv(propagator, path) -> None:
    """Per-grid-point drift of ``U_k* U_k`` from the identity: the propagator's ``defects``."""
    rows = [[float(t), float(d)] for t, d in zip(propagator.grid, propagator.defects)]
    write_csv(path, ["t", "unitarity_defect"], rows)


def write_singular_values_csv(singular_values, path) -> None:
    rows = [[j, float(s)] for j, s in enumerate(np.asarray(singular_values))]
    write_csv(path, ["index", "sigma"], rows)
