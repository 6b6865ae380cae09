"""Independent oracles for the test suite.

Everything here deliberately avoids the code paths it checks: matrix
products by triple loops, determinants by cofactor expansion, singular
values through Gram eigenvalues, least squares through normal equations,
matrix powers by repeated multiplication, spark by subset SVD ranks, the
phase-free distance by brute-force grid search, and chain components by
breadth-first search over an explicit edge list.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import deque

import numpy as np


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
