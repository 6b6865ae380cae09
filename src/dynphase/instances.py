"""Deterministic instance generation for experiments and the CLI.

Every generator draws from ``numpy.random.default_rng(seed)``, so a fixed
seed reproduces the instance byte for byte after serialization.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .experiments import _dense_draw
from .frames import DynamicalFrame, circulant, dft_matrix
from .retrieval import MeasurementConfig, min_length
from .serialization import Instance, jordan_spec_to_json, vector_to_json
from .spectral import JordanSpec, min_eigenvalue_gap

KINDS = ("random-diag", "jordan", "circulant", "harmonic", "rotation")

#: Smallest pairwise distance (absolute) between generated eigenvalues.
EIGENVALUE_GAP = 0.15


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _distinct_eigenvalues(rng: np.random.Generator, count: int) -> np.ndarray:
    """Complex spectrum in an annulus around the unit circle with a pairwise gap."""
    while True:
        radii = rng.uniform(0.7, 1.25, size=count)
        args = rng.uniform(0.0, 2.0 * math.pi, size=count)
        values = radii * np.exp(1j * args)
        if min_eigenvalue_gap(values) > EIGENVALUE_GAP:
            return values


def _dense_coordinates(rng: np.random.Generator, count: int) -> np.ndarray:
    moduli = rng.uniform(0.35, 1.2, size=count)
    args = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return moduli * np.exp(1j * args)


def random_signal_for(
    frame: DynamicalFrame, rng: np.random.Generator, *, real: bool = False
) -> np.ndarray:
    """A unit signal whose frame coefficients all stay away from zero.

    Returns the first of up to 256 draws whose smallest coefficient magnitude
    exceeds 1e-3 of the largest, and raises ``RuntimeError`` when none does.
    """
    x = _dense_draw(frame, np.eye(frame.dim, dtype=complex), 256, real, slice(None), rng)
    if x is None:
        raise RuntimeError("could not sample a signal with dense frame coefficients")
    return x


def _random_partition(rng: np.random.Generator, total: int) -> tuple[int, ...]:
    """Random Jordan block sizes of at most 3 that sum to ``total``."""
    parts: list[int] = []
    left = total
    while left > 0:
        part = int(rng.integers(1, min(3, left) + 1))
        parts.append(part)
        left -= part
    return tuple(parts)


def make_instance(
    kind: str,
    dim: int,
    length: int,
    seed: int = 0,
    theta: float = math.pi / 4.0,
    config: MeasurementConfig | None = None,
) -> Instance:
    """Generate a frame instance with a signal, deterministically from the seed.

    ``dim``, ``length`` and ``seed`` must be integers and ``seed`` not a
    bool (``TypeError`` otherwise): the instance keeps them as the Python
    ints its JSON holds.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")
    if isinstance(seed, bool):
        raise TypeError("seed must be an integer, not a bool")
    dim, length, seed = operator.index(dim), operator.index(length), operator.index(seed)
    if dim < 1 or length < dim:
        raise ValueError(f"need dim >= 1 and length >= dim, got dim={dim}, length={length}")
    config = config or MeasurementConfig()
    min_length(dim, config.jumps)  # ValueError unless jumps lies in 0..dim-2
    if config.real_mode and kind != "rotation":
        raise ValueError("real_mode generation is only supported for rotation instances")
    rng = np.random.default_rng(seed)

    if kind == "rotation":
        if dim != 2:
            raise ValueError("rotation instances are 2-dimensional")
        if math.isclose(math.sin(theta), 0.0, abs_tol=1e-12):
            raise ValueError("rotation angle must not be a multiple of pi")
        A = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
            dtype=complex,
        )
        phi = np.array([1.0, 0.0], dtype=complex)
        spec = {"A": vector_to_json(A), "phi": vector_to_json(phi), "L": length}
    elif kind == "harmonic":
        spec = {"harmonic": {"d": dim, "L": length}}
    elif kind == "circulant":
        F = dft_matrix(dim)
        while True:
            kernel = _dense_coordinates(rng, dim)
            if min_eigenvalue_gap(F @ kernel) > EIGENVALUE_GAP:
                break
        while True:
            phi = _dense_coordinates(rng, dim)
            p_hat = np.abs(F @ phi)
            if p_hat.min() > 0.05 * p_hat.max():
                break
        spec = {"circulant": vector_to_json(kernel), "phi": vector_to_json(phi), "L": length}
    elif kind == "jordan":
        mults = _random_partition(rng, dim)
        values = _distinct_eigenvalues(rng, len(mults))
        basis = _random_unitary(rng, dim)
        jspec = JordanSpec(values, mults, basis)
        coords = _dense_coordinates(rng, dim)
        phi = basis @ coords
        spec = {
            "jordan": jordan_spec_to_json(jspec),
            "phi": vector_to_json(phi),
            "L": length,
        }
    else:  # random-diag
        values = _distinct_eigenvalues(rng, dim)
        basis = _random_unitary(rng, dim)
        coords = _dense_coordinates(rng, dim)
        A = (basis * values) @ basis.conj().T
        phi = basis @ coords
        spec = {"A": vector_to_json(A), "phi": vector_to_json(phi), "L": length}

    instance = Instance(spec, config, None, seed)
    frame = instance.build_frame()
    signal = random_signal_for(frame, rng, real=config.real_mode)
    return Instance(spec, config, signal, seed)
