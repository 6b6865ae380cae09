"""Vandermonde matrices and full-spark checks.

Two constructions are provided:

* ``classical``: entries ``values[k] ** l`` for column exponents ``0..L-1``.
* ``second_kind``: the confluent block form whose j-th block has entries
  ``binom(l, k) * values[j] ** (l - k)``; its square determinant is
  ``prod_{k<j} (values[j] - values[k]) ** (m[k] * m[j])``. It feeds a
  verdict: ``frames.full_spark_criterion`` enumerates it for every operator
  ``S J S^{-1}``, whose orbit is ``S * blockdiag(H_j) * second_kind(values,
  m, L)`` with ``c = S^{-1} phi`` and ``H_j`` the Hankel block of ``c_j``,
  the coordinates of Jordan block j: ``H[k, n] = c_j[k + n]`` for
  ``k + n < m_j``, else 0.

``full_spark`` certifies that every d-column minor of a wide matrix is
invertible, by exhaustive enumeration with scale-aware determinant
thresholds. Column subsets are taken in lexicographic chunks of bounded size
(``_CHUNK_BYTES``); the witness is still the lexicographically first failing
subset and ``min_abs_det`` the global minimum. A subset's first
``k = ceil(d/2)`` columns, its prefix, are shared by a contiguous block of
subsets: each prefix gets one Householder QR and projects the columns from
k on onto its orthogonal complement, and each subset one (d - k) x (d - k)
determinant of its remaining columns so projected, all by one kernel
(``_tail_dets``): in closed form up to 4 x 4, with the 2 x 2 minors of the
3 x 3 and 4 x 4 forms (d = 6..9) tabled once per prefix, and by LU beyond.
A subset's column indices are a column of a d x N table, so that its
column-norm product is taken one contiguous index row at a time.

An orbit ``M[:, l] = A^l phi`` is shift-invariant: ``M[:, T + s] = A^s M[:, T]``
for a column subset T, hence ``det M[:, T + s] = det(A)^s * det M[:, T]`` for
every operator, singular and non-diagonalizable ones included. Given
``shift_det=det(A)``, ``full_spark`` factors only the C(L-1, d-1) anchored
subsets (those containing column 0) and takes every subset with smallest
index s from its anchored shape times ``|det(A)|^s``.

The enumeration is split into a plan and the arithmetic. The plan holds the
index tables that depend on the shape alone (each chunk's subsets, prefixes,
prefix ids and offsets into its per-prefix tables, and an orbit's subsets in
shift order), built on the first call for a shape and kept read-only, the
least recently used dropped first once the plans kept exceed
``_PLAN_BYTES``. A call does only the work that depends on the matrix, in
the same order as when the plan is built anew, so a certificate has the same
bits either way. Only a process that certifies one shape more than once
gains; a one-shot ``dynphase verify`` builds its plan once.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .exceptions import BudgetExceededError, DimensionMismatchError
from .spectral import binomial_powers
from .validation import as_matrix, as_multiplicities, as_vector

#: A minor passes when ``|det|`` exceeds this times its column-norm product.
DEFAULT_SPARK_TOL = 1e-10
#: Column subsets ``full_spark`` enumerates before it gives up.
DEFAULT_BUDGET = 2_000_000
#: Beyond this ``max(d, 2) * |e|`` ``full_spark`` works in units of ``2^e`` (see there).
_UNSCALED_SPAN = 900

#: Bytes per ``full_spark`` chunk, sized as if each subset were a stacked d x d
#: complex minor; a chunk holds its subsets' index columns and offsets and its
#: prefixes' projections and minor tables, which take less. Measured when each
#: subset still gathered its whole projected tail, with the index tables kept
#: (``_PLAN_BYTES``): chunks of 256 KiB and 16 MiB each won 0 of 30 alternating
#: rounds against 1 MiB on the random-diag and jordan 8 x 16 and circulant 6 x 12 orbits
#: (summed medians 36.9 and 32.3 ms against 22.6 ms); on a random-diag
#: 10 x 20 orbit 16 MiB won 19 of 20 rounds (85 against 102 ms) and 256 KiB
#: 2 of 20 (124 ms). One BLAS thread, numpy 2.4.6, 2 shared cores.
_CHUNK_BYTES = 1 << 20
#: Bytes of enumeration plans (index tables that depend on the matrix shape
#: alone, see ``_cached``) kept between ``full_spark`` calls. The plans of a
#: plain 10 x 20 matrix take 20 MB, those of a 10 x 20 orbit 26 MB and those
#: of an 11 x 22 orbit 109 MB; an 8 x 16 orbit's take 1.6 MB.
_PLAN_BYTES = 32 << 20

_plans: OrderedDict[tuple, tuple] = OrderedDict()  # key -> (plan, bytes), oldest first
_plans_lock = threading.Lock()


@dataclass(frozen=True)
class SparkCertificate:
    """Outcome of a full-spark check.

    ``witness`` is the lexicographically first failing column subset and is
    present exactly when ``full_spark`` is False. ``min_abs_det`` is the
    smallest column-norm-scaled minor magnitude seen during enumeration (NaN
    when one of them overflowed to NaN), or None when a structural shortcut
    made enumeration unnecessary.
    """

    full_spark: bool
    witness: tuple[int, ...] | None
    min_abs_det: float | None

    def __post_init__(self):
        if self.full_spark and self.witness is not None:
            raise ValueError("a passing certificate cannot carry a witness")
        if not self.full_spark and self.witness is None:
            raise ValueError("a failing certificate must carry a witness")


def classical(values, length: int) -> np.ndarray:
    """d x L matrix with entries ``values[k] ** l`` (0**0 taken as 1)."""
    v = as_vector(values, "values")
    if length < 1:
        raise ValueError("length must be >= 1")
    return v[:, None] ** np.arange(length)[None, :]


def second_kind(values, multiplicities, length: int) -> np.ndarray:
    """Confluent Vandermonde: stacked blocks ``binom(l, k) * values[j] ** (l-k)``.

    Column l of block j is ``spectral.binomial_powers(values[j], m[j], l)``,
    so with all multiplicities one the result is ``classical(values,
    length)`` bit for bit, inf included. The columns are an orbit under
    ``blockdiag(J_j^T)``, of determinant ``prod(values ** multiplicities)``.
    """
    v = as_vector(values, "values")
    mults = as_multiplicities(multiplicities, v.size)
    if length < 1:
        raise ValueError("length must be >= 1")
    return np.vstack([
        np.column_stack([binomial_powers(lam, m, l) for l in range(length)])
        for lam, m in zip(v, mults)
    ])


def full_spark(
    matrix, *, budget: int = DEFAULT_BUDGET, shift_det: complex | None = None
) -> SparkCertificate:
    """Certify that every d-column minor of a d x L matrix is invertible.

    A minor passes when ``|det| > DEFAULT_SPARK_TOL * prod(column norms)``; the Hadamard
    bound makes that ratio scale-free, and a zero-norm column gives ratio 0.
    Subsets are visited in lexicographic order, in chunks bounded by
    ``_CHUNK_BYTES``, and enumeration continues past the first failure so
    that ``min_abs_det`` reflects the global minimum. The witness is the
    lexicographically first failing subset. Each factored minor is the
    product of a QR of its first ``ceil(d/2)`` columns, shared by every
    subset with that prefix, and the determinant of its trailing ``n = d -
    ceil(d/2)`` projected columns, in closed form for n <= 4 (d <= 9) and by
    LU beyond (``_tail_dets``). The closed form is off by at most about
    ``(n + 1) * eps * n^(n/2)`` times the Hadamard bound, about 1e-14 at n =
    4, far below ``DEFAULT_SPARK_TOL``. A subset's column-norm product is
    taken from left to right.

    ``shift_det=det(A)`` declares M an orbit, ``M[:, l + 1] = A @ M[:, l]``:
    only the C(L-1, d-1) subsets that contain column 0 are factored, and the
    others, of smallest index s, scaled from them by ``|shift_det|^s`` (see
    the module docstring), which differs from factoring them by rounding
    only. The budget still counts all C(L, d) subsets. A ``shift_det`` that
    is not finite (``det(A)`` overflowed) declares nothing: all are factored.

    A matrix whose largest entry magnitude has a ``frexp`` exponent e with
    ``max(d, 2) * |e| > _UNSCALED_SPAN`` is certified as ``2^-e`` times
    itself, exactly, lest norms or minors leave the normal range; a multiple
    of an orbit is an orbit of the same A. Other matrices keep every bit.
    Columns whose norms lie too far apart for one power of two can still
    leave it: a minor whose scaled magnitude then reads NaN or 0 fails.

    The index tables of the enumeration depend on ``(d, L)``, the chunk size
    and whether ``shift_det`` is used, not on the entries. They are built
    once per shape and kept, up to ``_PLAN_BYTES`` in all, so the next call
    on a matrix of the same shape skips them; its certificate is the same,
    bit for bit, as with the tables built anew.
    """
    m = as_matrix(matrix, "matrix")
    d, L = m.shape
    if d > L:
        raise DimensionMismatchError(f"matrix must be wide (rows <= cols), got {m.shape}")
    count = math.comb(L, d)
    if count > budget:
        raise BudgetExceededError(
            f"C({L},{d}) = {count} column subsets exceed the budget of {budget}"
        )
    e = math.frexp(np.abs(m).max())[1]
    if max(d, 2) * abs(e) > _UNSCALED_SPAN:
        m = np.ldexp(np.ascontiguousarray(m).view(float), -e).view(complex)
    col_norms = np.linalg.norm(m, axis=0)
    witness: tuple[int, ...] | None = None
    min_scaled = float("inf")
    shifted = shift_det is not None and np.isfinite(shift_det)
    batches = _shifted_minors(m, shift_det) if shifted else _prefix_minors(m, 0)
    for idx, absdet in batches:
        # one index row at a time, each subset's columns left to right
        scale = col_norms[idx[0]]
        for row in idx[1:]:
            scale *= col_norms[row]
        scaled = np.divide(absdet, scale, out=np.zeros_like(absdet), where=scale > 0.0)
        min_scaled = np.minimum(min_scaled, scaled.min())
        if witness is None:
            passing = scaled > DEFAULT_SPARK_TOL
            if not passing.all():  # argmin finds the first False
                witness = tuple(int(i) for i in idx[:, np.argmin(passing)])
    return SparkCertificate(witness is None, witness, min_scaled)


def _combinations(columns: range, width: int) -> np.ndarray:
    """The ``width``-subsets of ``columns`` as index rows, in lexicographic order."""
    count = math.comb(len(columns), width)
    flat = itertools.chain.from_iterable(itertools.combinations(columns, width))
    return np.fromiter(flat, dtype=np.intp, count=count * width).reshape(count, width)


def _cached(key: tuple, build):
    """The plan ``build()`` under ``key``, built on the first call and then kept.

    Plans hold index tables that depend on the shape alone, so every call on
    a matrix of that shape reuses them. Their arrays are made read-only. The
    plans kept take at most ``_PLAN_BYTES`` together: the least recently used
    go first, and a plan larger than that is built for its one call only.
    """
    with _plans_lock:
        if key in _plans:
            _plans.move_to_end(key)
            return _plans[key][0]
    plan = build()
    size = 0
    for part in plan:
        for a in part:
            a.flags.writeable = False
            size += a.nbytes
    if size <= _PLAN_BYTES:
        with _plans_lock:
            _plans[key] = plan, size
            while sum(kept for _, kept in _plans.values()) > _PLAN_BYTES:
                _plans.popitem(last=False)
    return plan


def _subsets(d: int, L: int, first: int, rows: int):
    """The d-subsets of columns ``first..L-1`` in chunks of at most ``rows``.

    Rows come in lexicographic order. With ``first=1`` column 0 is prepended
    to each subset, which gives the subsets that contain column 0, in their
    own lexicographic order. A subset is a head, its first ``k = ceil(d/2)``
    columns, followed by a tail of ``n = d - k``. The tails that fit after a
    head are the n-subsets of ``k..L-1`` whose first column lies past the
    head's last, a final block of their lexicographic list, so every subset
    is gathered from two small tables. Each chunk is ``(idx, heads, group,
    offsets, pairs)``: its subsets, one per column of the d x N table
    ``idx``, the distinct prefixes ``idx[:k].T`` in order, each subset's
    prefix position in ``heads`` (subsets share a prefix exactly when they
    share it), where its tail's entries lie in the per-prefix tables of
    ``_tail_dets`` (``_offsets``), and the pairs x < y of the L - k columns
    from k on, in lexicographic order, as two rows (one array for all
    chunks, empty unless n is 3 or 4).
    """
    k = (d + 1) // 2
    heads = _combinations(range(first, L - d + k), k - first)
    tails = _combinations(range(k, L), d - k)
    last = heads[:, -1] if k > first else np.zeros(1, dtype=np.intp)
    lead = tails[:, 0] if d > k else np.array([L])
    # rows ends[h] - (tails fitting after head h) .. ends[h] - 1 belong to head h
    ends = np.cumsum(len(tails) - np.searchsorted(lead, last, side="right"))
    pairs = np.array(np.triu_indices(L - k if d - k in (3, 4) else 0, 1))
    chunks = []
    for start in range(0, int(ends[-1]), rows):
        row = np.arange(start, min(start + rows, ends[-1]))
        head = np.searchsorted(ends, row, side="right")
        idx = np.zeros((d, row.size), dtype=np.intp)
        idx[first:k] = heads[head].T
        idx[k:] = tails[row - ends[head] + len(tails)].T
        starts = np.ones(row.size, dtype=bool)
        starts[1:] = head[1:] != head[:-1]
        group = np.cumsum(starts) - 1
        offsets = _offsets(group, idx[k:] - k, L - k)
        chunks.append((idx, idx[:k, starts].T.copy(), group, offsets, pairs))
    return tuple(chunks)


def _offsets(group: np.ndarray, tails: np.ndarray, width: int) -> np.ndarray:
    """Where each subset's tail entries lie in its chunk's per-prefix tables.

    ``tails`` holds the n tail columns of each subset, counted from column
    k, and ``width = L - k``. Row i of ``cols = group * width + tails`` is
    the position of tail column i among the ``width`` projected columns of
    each prefix. With ``C(width, 2)`` pairs of columns x < y per prefix, in
    lexicographic order, the pair of tail columns i < j lies at
    ``group * C(width, 2) + (position of (tails[i], tails[j]))``. The result
    stacks the rows ``_tail_dets`` reads: ``cols`` unless n = 4 (the entries
    of n <= 3, the blocks LU takes at n > 4), then for n = 3 and 4 the
    pairs i < j in lexicographic order.
    """
    n = len(tails)
    rows = list(group * width + tails) if n != 4 else []
    if n in (3, 4):
        base = group * math.comb(width, 2)
        for i, j in itertools.combinations(range(n), 2):
            x, y = tails[i], tails[j]
            rows.append(base + x * (2 * width - x - 1) // 2 + (y - x - 1))
    offsets = np.array(rows, dtype=np.intp).reshape(len(rows), group.size)
    # int32 halves the bytes a plan keeps; _tail_dets widens them once per call
    return offsets.astype(np.int32) if offsets.max(initial=0) < 2**31 else offsets


def _prefix_minors(m: np.ndarray, first: int):
    """``(subsets, |det|)`` chunks over the subsets of ``_subsets(d, L, first, ...)``.

    ``first=0`` gives every d-subset and ``first=1`` those that contain
    column 0; a chunk's subsets are the columns of a d x N table. A chunk
    holds as many subsets as ``_CHUNK_BYTES`` holds d x d minors of ``m``;
    the chunks' index tables are a plan kept per ``(d, L, first, rows per
    chunk)``. The first ``k = ceil(d/2)`` columns of a subset are its prefix
    P, and the subsets sharing P are contiguous. With the complete QR
    ``M[:, P] = Q R``, ``Q^H M[:, T]`` is block upper triangular for every
    subset T = P + S, so ``|det M[:, T]| = |det R11| * |det(Q2^H M[:, S])|``
    with Q2 the last d - k columns of Q. Each prefix in a chunk is factored
    once and projects the columns ``k..L-1`` of M, the only ones a tail
    reads; ``_tail_dets`` gives each subset's (d - k) x (d - k) determinant
    from them. Two equal columns of M need not project to equal bits: BLAS
    may round the two columns of a matrix product differently. A subset
    whose tail holds both copies then gets a minor near 0 rather than
    exactly 0, still far below ``DEFAULT_SPARK_TOL``.
    """
    d, L = m.shape
    k = (d + 1) // 2
    rows = max(1, _CHUNK_BYTES // (d * d * m.itemsize))
    plan = _cached(("subsets", d, L, first, rows), lambda: _subsets(d, L, first, rows))
    for idx, heads, group, offsets, pairs in plan:
        q, r = np.linalg.qr(m[:, heads].transpose(1, 0, 2), mode="complete")
        head = np.multiply.reduce(np.abs(np.diagonal(r, axis1=1, axis2=2)), axis=1)
        # proj[p, a, l - k] is entry a of column l of M projected by prefix p's Q2^H
        proj = q[:, :, k:].conj().transpose(0, 2, 1) @ m[:, k:]
        det = _tail_dets(proj, offsets, pairs)
        yield idx, head[group] * np.hypot(det.real, det.imag)


def _tail_dets(proj: np.ndarray, offsets: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Each subset's tail determinant; the only code that takes one.

    ``proj[p, a, x]`` is entry a of column k + x projected by prefix p, and
    ``offsets`` and ``pairs`` come from ``_subsets``. A subset's tail is the
    n x n block T whose row i is its tail column i projected. n = 0 gives 1;
    n = 1 and 2 read T from flat gathers ``p_a = proj[:, a].ravel()`` at the
    subset's offset rows ``c_i``, the entry ``p0[c0]`` or the closed form
    ``p0[c0] * p1[c1] - p0[c1] * p1[c0]``. n = 3 expands along component 0
    and n = 4 is the Laplace expansion over the six complementary pairs of
    2 x 2 minors of components (0, 1) and (2, 3); those minors are tabled
    once per prefix over its pairs x < y of projected columns (``pairs``),
    and each subset gathers its own. n > 4 takes LU of the gathered blocks.

    The closed forms take the operands of the per-subset formula in its
    order: the minor of rows i < j and components a, a + 1 is ``T[i, a]
    T[j, a + 1] - T[j, a] T[i, a + 1]``, whether a subset or its prefix's
    table computes it, so tabling moves no bit (``TestPinnedBits`` pins
    the certificates). They are off by at most about ``(n + 1) * eps``
    times the permanent of ``|T|``, at most ``n^(n/2)`` times the Hadamard
    bound, and their terms cancel pairwise on two equal rows, so a repeated
    row gives exactly 0. A column repeated in M repeats a row only if its
    two projected copies round alike, which ``_prefix_minors`` does not
    promise.
    """
    prefixes, n, width = proj.shape
    if n == 0:
        return np.ones(offsets.shape[1], dtype=proj.dtype)
    if n > 4:
        stack = proj.transpose(0, 2, 1).reshape(prefixes * width, n)
        return np.linalg.det(stack[offsets.T.astype(np.intp, order="C")])
    c = offsets.astype(np.intp)  # once, not per gather
    if n < 3:
        p0 = proj[:, 0].ravel()
        if n == 1:
            return p0[c[0]]
        p1 = proj[:, 1].ravel()
        return p0[c[0]] * p1[c[1]] - p0[c[1]] * p1[c[0]]
    x, y = pairs
    minors = {}
    for a in range(n % 2, n - 1, 2):
        u, v = proj[:, a], proj[:, a + 1]
        minors[a] = (u[:, x] * v[:, y] - u[:, y] * v[:, x]).ravel()[c[3:] if n == 3 else c]
    position = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}

    def minor(a, i, j):  # rows i < j of components a, a + 1
        return minors[a][position[i, j]]

    if n == 3:
        first = proj[:, 0].ravel()[c[:3]]
        return (first[0] * minor(1, 1, 2) - first[1] * minor(1, 0, 2)) + first[2] * minor(1, 0, 1)
    lo = {p: minor(0, *p) for p in position}
    hi = {p: minor(2, *p) for p in position}
    # grouped so that the terms of each group cancel exactly on equal rows
    return (
        (lo[0, 1] * hi[2, 3] + lo[2, 3] * hi[0, 1])
        + (lo[0, 3] * hi[1, 2] + lo[1, 2] * hi[0, 3])
    ) - (lo[0, 2] * hi[1, 3] + lo[1, 3] * hi[0, 2])


def _shifts(anchored: np.ndarray, L: int):
    """Every d-subset of an orbit by smallest index s, from the ``anchored``
    ones (those with column 0, the columns of a d x N table, in
    lexicographic order): the d x C(L, d) table of the anchored subsets
    whose last index stays below L - s shifted by s, for s = 0, 1, ..,
    their positions among the anchored subsets, and where each s starts."""
    fits = [np.flatnonzero(anchored[-1] < L - s) for s in range(L - len(anchored) + 1)]
    starts = np.cumsum([0] + [len(rows) for rows in fits])
    idx = np.empty((len(anchored), starts[-1]), dtype=np.intp)
    for s, rows in enumerate(fits):
        idx[:, starts[s] : starts[s + 1]] = anchored[:, rows] + s
    return idx, np.concatenate(fits), starts


def _shifted_minors(m: np.ndarray, shift_det: complex):
    """``(subsets, |det|)`` for every d-subset of an orbit, in lexicographic order.

    The subsets with smallest index s are the anchored subsets (those with
    column 0) shifted by s whose last index stays below L. Shifting keeps
    their lexicographic order, and every subset starting at s precedes
    those starting at s + 1, so one d x C(L, d) index table holds them all
    in order, a plan kept per ``(d, L)``. The magnitudes of every shift are
    scaled at once, in an array of 1/d of that table's bytes, and go out in
    blocks of the table's columns.
    """
    d, L = m.shape
    anchored, absdet = zip(*_prefix_minors(m, 1))
    step = abs(complex(shift_det))
    ((idx, fits, starts),) = _cached(
        ("shifts", d, L), lambda: (_shifts(np.concatenate(anchored, axis=1), L),)
    )
    scaled = np.concatenate(absdet)[fits]
    for s in range(1, len(starts) - 1):
        scaled[starts[s] : starts[s + 1]] *= step**s
    # blocks of as many subsets as a chunk holds index columns stay in cache
    block = max(1, _CHUNK_BYTES // idx[:, :1].nbytes)
    for start in range(0, scaled.size, block):
        yield idx[:, start : start + block], scaled[start : start + block]
