"""Independent oracles for the test suite.

Everything here deliberately avoids the code paths it checks: matrix
products by triple loops, determinants by cofactor expansion (and exactly,
by ``exact_det``'s elimination over the rationals), matrix
powers by repeated multiplication, spark by subset SVD ranks, the
phase-free distance by brute-force grid search, chain components by
breadth-first search over an explicit edge list (with the zero-pattern
counts ``effective_chain_size``, ``pattern_flags`` and
``worst_case_pattern`` built on them), full-spark certificates
by one determinant call per column subset, measurements by one scalar ``abs``
per aligned cell, polarization products by the scalar 2x2 solve, and chain
phases by one scalar polarization per edge. The library computes
polarization only through its array kernels ``recover_phases`` and
``recover_signs``; ``recover_product_scalar`` and
``recover_product_real_scalar`` write the same formulas, floors and messages
out for a single pair.

The last section holds the paper's closed forms that no library verdict
reads, with the constants and exceptions that only they use: the classical
and confluent determinant products ``det_product_classical`` and
``det_product_second_kind``, first-kind Vandermonde matrices and their Schur
values (``first_kind``, ``schur_value``), the Hankel block ``hankel_of`` of
a generator's Jordan coordinates, the closed-form Jordan power
``jordan_power``, the checked eigendecomposition ``eigendecompose`` (which
raises ``DefectiveMatrixError`` and ``ConvergenceError``), and the K >= 3
roots-of-unity polarization product ``recover_product_roots_of_unity``.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from dynphase.exceptions import (
    BudgetExceededError,
    DimensionMismatchError,
    InconsistentDataError,
    ZeroMagnitudeError,
)
from dynphase.polarization import CLAMP_TOL, MAGNITUDE_RTOL, PolarizationAngles
from dynphase.retrieval import MeasurementSet
from dynphase.spectral import JordanSpec, binomial_powers, min_eigenvalue_gap
from dynphase.validation import as_matrix, as_multiplicities, as_square, as_vector
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


def exact_det(m) -> tuple[Fraction, Fraction]:
    """The determinant of a square complex matrix exactly, as (real, imag).

    Every float64 is a dyadic rational, so Gaussian elimination over Q(i)
    in ``fractions.Fraction`` gives the determinant of the stored entries
    with no rounding at all.
    """
    entries = np.asarray(m, dtype=complex).tolist()
    rows = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in entries]
    re, im = Fraction(1), Fraction(0)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c] != (0, 0)), None)
        if pivot is None:
            return Fraction(0), Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            re, im = -re, -im
        a, b = rows[c][c]
        re, im = re * a - im * b, re * b + im * a
        norm = a * a + b * b
        for r in range(c + 1, len(rows)):
            e, f = rows[r][c]  # row r -= (e + if) / (a + ib) * row c
            g, h = (e * a + f * b) / norm, (f * a - e * b) / norm
            rows[r] = [
                (x - g * u + h * v, y - g * v - h * u) for (x, y), (u, v) in zip(rows[r], rows[c])
            ]
    return re, im


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
        min_scaled = np.minimum(min_scaled, scaled)
        if not scaled > tol and witness is None:
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


def _zero_magnitudes(m1: float, m2: float) -> ZeroMagnitudeError:
    return ZeroMagnitudeError(f"base magnitudes ({m1:.3g}, {m2:.3g}) too close to zero")


def _cosine_outside(r: float) -> InconsistentDataError:
    return InconsistentDataError(f"shifted magnitude implies cos term {r:.6g} outside [-1, 1]")


_VANISHING = "extracted phase direction has vanishing length"


def _extract_cosine(mplus: float, m1: float, m2: float) -> float:
    r = (mplus**2 - m1**2 - m2**2) / (2.0 * m1 * m2)
    if abs(r) > 1.0 + CLAMP_TOL:
        raise _cosine_outside(r)
    return min(1.0, max(-1.0, r))


def recover_product_scalar(
    m1: float, m2: float, mplus1: float, mplus2: float, angles: PolarizationAngles
) -> complex:
    """``m1 * m2 * polarization.recover_phases`` on one pair, as a scalar 2x2 solve."""
    floor = MAGNITUDE_RTOL * max(m1, m2)
    if m1 <= floor or m2 <= floor:
        raise _zero_magnitudes(m1, m2)
    r1 = _extract_cosine(mplus1, m1, m2)
    r2 = _extract_cosine(mplus2, m1, m2)
    det = math.sin(angles.alpha1 - angles.alpha2)
    cos_d = (-r1 * math.sin(angles.alpha2) + r2 * math.sin(angles.alpha1)) / det
    sin_d = (r2 * math.cos(angles.alpha1) - r1 * math.cos(angles.alpha2)) / det
    norm = math.hypot(cos_d, sin_d)
    if norm < 1e-12:
        raise InconsistentDataError(_VANISHING)
    # project back onto the unit circle; roundoff pushes (cos, sin) slightly off it
    return m1 * m2 * complex(cos_d / norm, sin_d / norm)


def recover_product_real_scalar(m1: float, m2: float, mplus: float, sign: int) -> float:
    """The product whose sign ``polarization.recover_signs`` gives, for one pair."""
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    for name, v in (("m1", m1), ("m2", m2), ("mplus", mplus)):
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"{name} must be a finite nonnegative real, got {v}")
    floor = MAGNITUDE_RTOL * max(m1, m2)
    if m1 <= floor or m2 <= floor:
        raise _zero_magnitudes(m1, m2)
    return (mplus**2 - m1**2 - m2**2) / (2.0 * sign)


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


def effective_chain_size(nonzero, jumps: int) -> int:
    """Largest chain component plus the number of zero positions.

    This is the number of linear constraints recovery can assemble for the
    pattern; over a full-spark frame the pattern is recoverable exactly when
    the value reaches the space dimension.
    """
    zeros = sum(1 for flag in nonzero if not flag)
    components = chain_components_bfs(nonzero, jumps)
    largest = max((len(c) for c in components), default=0)
    return largest + zeros


def pattern_flags(length: int, zero_indices) -> list[bool]:
    flags = [True] * length
    for idx in zero_indices:
        flags[idx] = False
    return flags


def worst_case_pattern(dim: int, length: int, zeros: int, jumps: int = 0) -> tuple[int, ...]:
    """A zero placement that keeps every chain component as short as possible.

    Repeats (dim - zeros - jumps - 1) nonzeros followed by jumps + 1 zeros
    until the zero budget runs out, then fills with nonzeros.
    """
    if zeros >= dim:
        raise ValueError("zeros must stay below dim")
    run = max(dim - zeros - jumps - 1, 0)
    flags: list[bool] = []
    remaining = zeros
    while remaining > 0 and len(flags) < length:
        flags.extend([True] * min(run, length - len(flags)))
        block = min(jumps + 1, remaining, length - len(flags))
        flags.extend([False] * block)
        remaining -= block
    flags.extend([True] * (length - len(flags)))
    return tuple(i for i, f in enumerate(flags[:length]) if not f)


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
        sign = config.angles.real_sign
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
            product = recover_product_scalar(
                float(ms.base[l]), float(ms.base[m]), shifted, ms.aligned[(l, m - l, 2)], angles
            )
            steps[i] = cmath.exp(1j * cmath.phase(product))
        else:
            product = recover_product_real_scalar(
                float(ms.base[l]), float(ms.base[m]), shifted, real_sign
            )
            steps[i] = 1.0 if product >= 0.0 else -1.0
    return np.cumprod(steps)


# The paper's closed forms that no verdict of the library reads. Tests check
# the library's matrices against them and the paper's identities among them.

#: Relative margin below which entries count as coincident for Schur values.
COINCIDENCE_RTOL = 1e-12

#: Relative singular-value spread beyond which an eigenvector basis is treated
#: as numerically defective. Defective inputs measure near 1e8 (double
#: eigenvalue) up to 1e10+ (triple); clean separated spectra stay below 1e4.
DEFECTIVE_COND = 1e7

#: Relative residual ``|m V - V diag(values)| / |m|`` an eigendecomposition may leave.
EIG_RESIDUAL_RTOL = 1e-8


class DefectiveMatrixError(ValueError):
    """Eigendecomposition hit a numerically defective (non-diagonalizable) matrix."""


class ConvergenceError(RuntimeError):
    """An iterative numerical routine failed to converge."""


def _as_exponents(exponents) -> tuple[int, ...]:
    exps = tuple(int(e) for e in exponents)
    if len(exps) == 0:
        raise ValueError("exponent selection must be nonempty")
    if exps[0] < 0 or any(b <= a for a, b in zip(exps, exps[1:])):
        raise ValueError(f"exponents must be strictly increasing and nonnegative: {exps}")
    return exps


def det_product_classical(values) -> complex:
    """Closed-form classical Vandermonde determinant ``prod_{k>j} (v[k]-v[j])``.

    This factor order matches the pivoted-LU determinant of
    ``vandermonde.classical`` exactly (not only in magnitude), so the
    first-kind factorization holds without sign fixups.
    """
    v = as_vector(values, "values")
    return det_product_second_kind(v, (1,) * v.size)


def first_kind(values, exponents) -> np.ndarray:
    """Column selection of the classical matrix: entries ``values[k] ** exponents[l]``."""
    v = as_vector(values, "values")
    exps = _as_exponents(exponents)
    return v[:, None] ** np.array(exps)[None, :]


def schur_value(values, exponents) -> complex:
    """Schur polynomial value from the first-kind determinant factorization.

    Requires a square selection (as many exponents as entries) and pairwise
    distinct entries; coincident entries would blow up the division.
    """
    v = as_vector(values, "values")
    exps = _as_exponents(exponents)
    if len(exps) != v.size:
        raise DimensionMismatchError(
            f"need a square selection: {v.size} values but {len(exps)} exponents"
        )
    scale = max(1.0, float(np.max(np.abs(v))))
    gap = min_eigenvalue_gap(v)
    if gap <= COINCIDENCE_RTOL * scale:
        raise ValueError(f"entries coincide within tolerance (gap {gap:.3e})")
    det = complex(np.linalg.det(first_kind(v, exps)))
    return det / det_product_classical(v)


def det_product_second_kind(values, multiplicities) -> complex:
    """Closed-form confluent determinant ``prod_{k<j} (v[j]-v[k]) ** (m[k]*m[j])``.

    A product that is not finite in double precision raises OverflowError.
    """
    v = as_vector(values, "values")
    mults = as_multiplicities(multiplicities, v.size)
    pairs = itertools.combinations(range(v.size), 2)
    try:
        out = math.prod(
            (complex(v[j] - v[k]) ** (mults[k] * mults[j]) for k, j in pairs), start=1 + 0j
        )
        if cmath.isfinite(out):
            return out
    except OverflowError:  # Python's complex power refuses an infinite result
        pass
    raise OverflowError(
        "the determinant product prod_{k<j} (v[j]-v[k]) ** (m[k]*m[j]) "
        "is not finite in double precision"
    )


def hankel_of(block) -> np.ndarray:
    """Upper-left Hankel matrix of a coordinate block.

    ``H[k, n] = block[k + n]`` when ``k + n <= len(block) - 1``, else 0. It is
    invertible exactly when the block's last coordinate is nonzero, which is
    why ``spectral.loads_every_chain`` looks only at each block's last
    coordinate.
    """
    b = as_vector(block, "block")
    m = b.size
    H = np.zeros((m, m), dtype=complex)
    for k in range(m):
        for n in range(m - k):
            H[k, n] = b[k + n]
    return H


def jordan_power(spec: JordanSpec, power: int) -> np.ndarray:
    """``J**power`` by the closed-form entries binom(l, n-k) * lam^(l-n+k).

    Each block is the upper triangular Toeplitz matrix of
    :func:`binomial_powers` in Python's complex arithmetic; powers whose
    binomials or entries overflow a double are rejected.
    """
    if power < 0:
        raise ValueError("power must be a nonnegative integer")
    d = spec.dim
    out = np.zeros((d, d), dtype=complex)
    for lam, sl in zip(spec.eigenvalues, spec.block_slices()):
        steps = np.arange(sl.stop - sl.start)
        row = binomial_powers(complex(lam), steps.size, power)
        # entry (k, n) is row[n - k]; triu drops the wrapped indices n < k
        out[sl, sl] = np.triu(row[steps[None, :] - steps[:, None]])
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"entries of J**{power} overflow double precision")
    return out


def eigendecompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit-norm eigenvector columns of a diagonalizable matrix.

    Returns ``(values, vectors)`` with ``m @ vectors ~= vectors @ diag(values)``.
    Raises ``DefectiveMatrixError`` when the eigenvector basis is so badly
    conditioned that ``m`` is numerically non-diagonalizable; such operators
    must be described by an explicit :class:`JordanSpec` instead.
    """
    a = as_square(m, "m")
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    vectors = vectors / np.linalg.norm(vectors, axis=0)

    scale = np.linalg.norm(a)
    residual = np.linalg.norm(a @ vectors - vectors * values)
    if residual > EIG_RESIDUAL_RTOL * max(scale, 1e-300):
        raise ConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds {EIG_RESIDUAL_RTOL:.1e} * |m|"
        )
    spread = np.linalg.svd(vectors, compute_uv=False)
    if spread[-1] == 0.0 or spread[0] / spread[-1] > DEFECTIVE_COND:
        raise DefectiveMatrixError(
            "eigenvector basis condition "
            f"{np.inf if spread[-1] == 0 else spread[0] / spread[-1]:.3e} exceeds "
            f"{DEFECTIVE_COND:.1e}; matrix is numerically defective"
        )
    return values, vectors


def recover_product_roots_of_unity(magnitudes) -> complex:
    """The product ``conj(z1) * z2`` from K >= 3 root-of-unity shifted magnitudes.

    ``magnitudes[k]`` must be ``|z1 + w^(-k) z2|`` for ``w = exp(2j pi / K)``.
    The closed form ``(1/K) * sum_k w^k * magnitudes[k]**2`` needs no linear
    solve and is total: zeros in z1 or z2 simply propagate to the product.
    """
    mags = [float(v) for v in magnitudes]
    K = len(mags)
    if K < 3:
        raise ValueError(f"need at least 3 magnitudes, got {K}")
    for v in mags:
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"magnitudes must be finite nonnegative reals, got {v}")
    root = cmath.exp(2j * math.pi / K)
    return sum(root**k * mags[k] ** 2 for k in range(K)) / K
