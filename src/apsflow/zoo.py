"""Reusable families for suites and tests: shipped examples and random draws."""

from __future__ import annotations

import numpy as np

from .families import (
    OperatorFamily,
    Times,
    _column,
    _validated_family,
    constant_family,
    counterexample_family,
    diagonal_path_family,
    linear_family,
    swap_block_family,
)
from .matrixcore import HermitianMatrix

DRIFTS = (1.0, 2.0, 3.5)


def random_hermitian(n: int, rng: np.random.Generator, scale: float = 1.0) -> HermitianMatrix:
    """A random Hermitian matrix with spectral norm of order ``scale``."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / (4.0 * np.sqrt(n)) * scale
    return HermitianMatrix(h)


def random_trig_family(
    n: int,
    rng: np.random.Generator,
    *,
    drift: float = 1.0,
    label: str | None = None,
) -> OperatorFamily:
    """A smooth random family ``A0 + t B + sin(pi t) C`` on ``[0, 1]``.

    ``drift`` rescales the secular part ``B`` relative to the rest, which
    controls how many eigenvalues cross zero over the interval.
    """
    a0 = random_hermitian(n, rng).entries
    b = random_hermitian(n, rng, drift).entries
    c = random_hermitian(n, rng).entries
    omega = np.pi

    def eval_fn(t: Times) -> np.ndarray:
        tt = _column(t)
        return a0 + tt * b + np.sin(omega * tt) * c

    def deriv_fn(t: Times) -> np.ndarray:
        return b + omega * np.cos(omega * _column(t)) * c

    return _validated_family(n, 1.0, label or f"random-trig(n={n})", eval_fn, deriv_fn)


def random_zoo(
    count: int,
    seed: int,
    *,
    sizes: tuple[int, ...] = (2, 4, 8, 16),
    max_dim: int | None = None,
) -> list[OperatorFamily]:
    """Deterministic list of random trig families cycling through ``sizes``.

    Drift strengths cycle through ``DRIFTS`` so the zoo mixes families with
    zero, single, and multiple eigenvalue crossings while staying inside the
    stiffness budget.
    """
    if max_dim is not None:
        sizes = tuple(s for s in sizes if s <= max_dim) or (min(sizes),)
    streams = np.random.SeedSequence(seed).spawn(count)
    out = []
    for j, ss in enumerate(streams):
        n = sizes[j % len(sizes)]
        drift = DRIFTS[(j // len(sizes)) % len(DRIFTS)]
        rng = np.random.default_rng(ss)
        out.append(
            random_trig_family(n, rng, drift=drift, label=f"random-trig(n={n},draw={j})")
        )
    return out


def singular_endpoint_family(n: int, rng: np.random.Generator) -> OperatorFamily:
    """A smooth random family with deliberately singular endpoints.

    Shifts a random trig family by a time-linear multiple of the identity so
    one eigenvalue lands exactly at zero at ``t = 0`` and one at ``t = T``.
    """
    base = random_trig_family(n, rng)
    eig0 = np.linalg.eigvalsh(base.at(0.0).entries)
    eig1 = np.linalg.eigvalsh(base.at(base.horizon).entries)
    mu0 = float(eig0[rng.integers(n)])
    mu1 = float(eig1[rng.integers(n)])
    horizon = base.horizon
    ev = base.eval_fn
    dv = base.derivative_fn
    eye = np.eye(n)

    def eval_fn(t: Times) -> np.ndarray:
        w = _column(t) / horizon
        return ev(t) - ((1.0 - w) * mu0 + w * mu1) * eye

    def deriv_fn(t: Times) -> np.ndarray:
        return dv(t) - (mu1 - mu0) / horizon * eye

    return _validated_family(n, horizon, f"singular-endpoints(n={n})", eval_fn, deriv_fn)


def shipped_families() -> list[OperatorFamily]:
    """The named example families exercised by the theorem suites."""
    rng = np.random.default_rng(20240521)
    families = [
        constant_family(HermitianMatrix(np.diag([-1.0, 1.0])), 1.0, label="constant-split"),
        constant_family(
            HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])), 1.0, label="constant-coupled"
        ),
        linear_family(
            HermitianMatrix(np.diag([-0.5])),
            HermitianMatrix(np.diag([1.0])),
            1.0,
            label="scalar-upcrossing",
        ),
        linear_family(
            HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
            HermitianMatrix(np.eye(2)),
            1.0,
            label="coupled-drift",
        ),
        diagonal_path_family([-2.0, -1.0, 1.0], [1.0, 2.0, -3.0], 1.0, label="triple-path"),
        swap_block_family(-1.0, 1.0),
        counterexample_family([1.0]),
        counterexample_family([1.0, 2.0, 3.0]),
        random_trig_family(4, rng, label="random-trig(n=4,shipped)"),
        linear_family(
            HermitianMatrix(np.diag([0.0])),
            HermitianMatrix(np.diag([1.0])),
            1.0,
            label="scalar-singular-start",
        ),
        diagonal_path_family([-1.0, 1.0], [0.0, 2.0], 1.0, label="singular-end-path"),
    ]
    return families
