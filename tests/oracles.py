"""Independent oracles for the test suite.

Everything here deliberately avoids the code paths it checks: matrix
products by triple loops, determinants by cofactor expansion, singular
values through Gram eigenvalues, least squares through normal equations,
matrix powers by repeated multiplication, spark by subset SVD ranks, the
phase-free distance by brute-force grid search, chain components by
breadth-first search over an explicit edge list, full-spark certificates
by one determinant call per column subset, measurements by one scalar ``abs``
per aligned cell, and chain phases by one ``recover_product`` call per edge.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import deque

import numpy as np

from dynphase.exceptions import BudgetExceededError, DimensionMismatchError
from dynphase.polarization import PolarizationData, recover_product, recover_product_real
from dynphase.retrieval import MeasurementSet
from dynphase.validation import as_matrix, as_vector
from dynphase.vandermonde import DEFAULT_BUDGET, DEFAULT_SPARK_TOL, SparkCertificate


def matmul_triple_loop(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0 + 0.0j
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def det_cofactor(m) -> complex:
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if n == 1:
        return complex(m[0, 0])
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * det_cofactor(minor)
    return total


def gram_singular_values(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    gram = m @ m.conj().T
    eigs = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(eigs, 0.0, None))[::-1]


def lstsq_normal_equations(m, b) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.linalg.solve(m.conj().T @ m, m.conj().T @ b)


def matrix_power_naive(a, power: int) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    out = np.eye(a.shape[0], dtype=complex)
    for _ in range(power):
        out = matmul_triple_loop(out, a)
    return out


def orbit_naive(a, phi, length: int) -> np.ndarray:
    """Columns A^l phi computed through explicit matrix powers."""
    cols = [matrix_power_naive(a, l) @ np.asarray(phi, dtype=complex) for l in range(length)]
    return np.column_stack(cols)


def orbit_rank(a, phi, length: int, rtol: float = 1e-10) -> int:
    sv = np.linalg.svd(orbit_naive(a, phi, length), compute_uv=False)
    return int(np.sum(sv > rtol * sv[0])) if sv[0] > 0 else 0


def spark_by_enumeration(matrix, rtol: float = 1e-10):
    """(full_spark, first failing subset) via subset SVD ranks."""
    m = np.asarray(matrix, dtype=complex)
    d, L = m.shape
    for subset in itertools.combinations(range(L), d):
        sub = m[:, list(subset)]
        sv = np.linalg.svd(sub, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= rtol * sv[0]:
            return False, subset
    return True, None


def full_spark_serial(
    matrix,
    tol: float = DEFAULT_SPARK_TOL,
    budget: int = DEFAULT_BUDGET,
) -> SparkCertificate:
    """``vandermonde.full_spark`` as a Python loop with one ``det`` per subset."""
    m = as_matrix(matrix, "matrix")
    d, L = m.shape
    if d > L:
        raise DimensionMismatchError(f"matrix must be wide (rows <= cols), got {m.shape}")
    count = math.comb(L, d)
    if count > budget:
        raise BudgetExceededError(
            f"C({L},{d}) = {count} column subsets exceed the budget of {budget}"
        )
    col_norms = np.linalg.norm(m, axis=0)
    witness: tuple[int, ...] | None = None
    min_scaled = float("inf")
    for subset in itertools.combinations(range(L), d):
        idx = list(subset)
        scale = float(np.prod(col_norms[idx]))
        absdet = abs(np.linalg.det(m[:, idx]))
        scaled = absdet / scale if scale > 0.0 else 0.0
        min_scaled = min(min_scaled, scaled)
        if scaled <= tol and witness is None:
            witness = subset
    return SparkCertificate(witness is None, witness, min_scaled)


def polarization_forward(z1: complex, z2: complex, alpha1: float, alpha2: float):
    """The four magnitudes |z1|, |z2|, |z1 + e^{i a_k} z2|."""
    return (
        abs(z1),
        abs(z2),
        abs(z1 + cmath.exp(1j * alpha1) * z2),
        abs(z1 + cmath.exp(1j * alpha2) * z2),
    )


def grid_phase_distance(x, y, samples: int = 1_000_000) -> float:
    """min_theta ||x - e^{i theta} y|| by brute-force grid search."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    thetas = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    nx = np.linalg.norm(x) ** 2
    ny = np.linalg.norm(y) ** 2
    cross = np.sum(x * np.conj(y))
    values = nx + ny - 2.0 * np.real(np.exp(-1j * thetas) * cross)
    return math.sqrt(max(0.0, float(values.min())))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_distinct(rng: np.random.Generator, count: int, gap: float = 0.15) -> np.ndarray:
    while True:
        values = rng.uniform(0.7, 1.25, count) * np.exp(1j * rng.uniform(0, 2 * math.pi, count))
        if count == 1:
            return values
        diffs = np.abs(values[:, None] - values[None, :])
        if diffs[~np.eye(count, dtype=bool)].min() > gap:
            return values


def chain_components_bfs(nonzero, jumps: int) -> list[list[int]]:
    """Connected components of the graph joining True positions l, l+j, j = 1..jumps+1."""
    alive = [l for l, flag in enumerate(nonzero) if flag]
    adjacency: dict[int, list[int]] = {l: [] for l in alive}
    for l in alive:
        for j in range(1, jumps + 2):
            if l + j in adjacency:
                adjacency[l].append(l + j)
                adjacency[l + j].append(l)
    components, seen = [], set()
    for start in alive:
        if start in seen:
            continue
        queue, comp = deque([start]), []
        seen.add(start)
        while queue:
            node = queue.popleft()
            comp.append(node)
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        components.append(sorted(comp))
    return components


def measure_loop(x, frame, config) -> MeasurementSet:
    """``retrieval.measure`` as a loop filling an ``(l, j, k)`` dict cell by cell."""
    x = as_vector(x, "x")
    if x.size != frame.dim:
        raise DimensionMismatchError(f"x has dim {x.size}, frame dim is {frame.dim}")
    if config.jumps > max(0, frame.dim - 2):
        raise ValueError(
            f"jumps={config.jumps} exceeds the admissible maximum {max(0, frame.dim - 2)}"
        )
    coeffs = frame.coefficients(x)
    base = np.abs(coeffs)
    aligned: dict[tuple[int, int, int], float] = {}
    if config.real_mode:
        sign = config.real_sign
        for j in range(1, config.jumps + 2):
            for l in range(0, frame.length - j):
                aligned[(l, j, 1)] = float(abs(coeffs[l] + sign * coeffs[l + j]))
    else:
        shifts = {1: cmath.exp(-1j * config.angles.alpha1), 2: cmath.exp(-1j * config.angles.alpha2)}
        for j in range(1, config.jumps + 2):
            for l in range(0, frame.length - j):
                for k in (1, 2):
                    aligned[(l, j, k)] = float(abs(coeffs[l] + shifts[k] * coeffs[l + j]))
    return MeasurementSet(frame.length, config.jumps, config.angles, base, aligned)


def chain_phases_loop(ms, chain, real_sign) -> np.ndarray:
    """``retrieval._chain_phases`` as a loop with one scalar polarization per edge."""
    angles = ms.angles.negated()
    steps = np.ones(len(chain), dtype=complex)
    for i, (l, m) in enumerate(zip(chain, chain[1:]), start=1):
        shifted = ms.aligned[(l, m - l, 1)]
        if real_sign is None:
            data = PolarizationData(
                float(ms.base[l]), float(ms.base[m]), shifted, ms.aligned[(l, m - l, 2)]
            )
            steps[i] = cmath.exp(1j * cmath.phase(recover_product(data, angles)))
        else:
            product = recover_product_real(float(ms.base[l]), float(ms.base[m]), shifted, real_sign)
            steps[i] = 1.0 if product >= 0.0 else -1.0
    return np.cumprod(steps)
