r"""Frozen plan operators as ``scipy.sparse`` matrices.

Every charge-independent linear map a compiled plan freezes — P2M
transfer rows, far-field evaluation rows, L2P rows and near-field
kernels — is stored as one block-sparse matrix over the plan's own
arrays and applied with one compiled sparse product:

* complex coefficients travel in the real column layout ``[Re C | Im
  C]``, so a complex contraction ``Re sum_c R_c C_c`` is the real dot
  product of ``[Re R, -Im R]`` with ``[Re C, Im C]``;
* row operators (far, L2P) are BSR matrices with ``(1, 2·nc)`` blocks —
  block row a (pair or target) evaluation, block column a coefficient
  row — and gradient rows use ``(3, 2·nc)`` blocks over the same
  operand;
* near kernels are one CSR matrix over (targets × sources), with the
  row ranges of its dense blocks beside it; gradient kernels are one
  ``(3, nnz)`` value array sharing its ``indices``/``indptr``.

A plan with a source map ``M`` folds it into its charge-side rows as
they are built (:func:`fold_map`: ``P2M · M``, ``K · M``), row by row,
so a folded row range equals those rows of the whole fold bitwise.

Near work units are contiguous row ranges of the near field, applied
by :func:`near_product` straight from CSR arrays: the plan's frozen
ones, or those :func:`assemble_near` re-assembles from the unit's
incidences.  Rows that share one source list are a dense block of
those arrays (``rows × sources`` values, row after row), and a block
is applied as one BLAS product — a GEMV for a vector, a GEMM reading
the block once for an ``(n, k)`` batch — while the other rows run
scipy's scalar CSR kernel.  :func:`assemble_near` finds the blocks as
it assembles, cut at the work-unit starts it is given: a BLAS product
rounds by its shape, so a unit must meet the same blocks whether it
runs alone or beside others.

The near kernel is symmetric, and a cluster plan's near leaf pairs come
in both orders, so its frozen potential field is assembled *mirrored*:
of each unordered pair of leaves {A, B} whose rows are all dense blocks
of the same call, the tile of the lower-numbered leaf is evaluated and
the other leaf's is copied as its transpose.  The copy is bitwise the
evaluation it replaces: ``(a − b)² == (b − a)²`` and the squares are
summed in the same order.  Every other entry — gradient fields, rows
outside large blocks, spilled, shed and quarantined units, target-major
and mapped plans — is evaluated.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# scipy's compiled CSR kernels: the matrix constructors copy any view
# covering less than half of its base array, so a row range handed to
# them as a new matrix would copy its slice of the data on every call
from scipy.sparse import _sparsetools

__all__ = [
    "index_dtype",
    "bsr",
    "csr",
    "csr_product",
    "near_product",
    "fold_map",
    "op_nbytes",
    "near_values",
    "assemble_near",
    "near_blocks",
    "row_ranges",
]

#: Near entries evaluated per pass while assembling or recomputing near
#: kernels — bounds the transient per-axis displacement arrays of the
#: per-entry kernel and the tiles of a broadcast block.
_NEAR_PASS = 1 << 14
#: Consecutive rows that see the same source sequence are one dense
#: block of the near CSR; a block of at least ``_BLOCK_ROWS`` rows and
#: ``_BLOCK_MIN`` entries broadcasts its rows against its sources instead
#: of gathering coordinates per entry, and is applied as one BLAS
#: product (smaller blocks would pay more in per-block calls than they
#: save).
_BLOCK_ROWS = 4
_BLOCK_MIN = 1 << 13


def index_dtype(*extents: int):
    """Smallest scipy index dtype (int32 or int64) covering ``extents``."""
    return np.int32 if max(extents, default=0) < 2**31 else np.int64


def bsr(data, indices, indptr, n_cols: int) -> sp.bsr_matrix:
    """BSR matrix over existing arrays (no copy): ``data`` is ``(blocks,
    R, C)``, ``indices`` the block column per block, ``indptr`` the block
    row pointers; ``n_cols`` counts block columns."""
    R, C = data.shape[1:]
    shape = ((indptr.size - 1) * R, n_cols * C)
    return sp.bsr_matrix((data, indices, indptr), shape=shape, copy=False)


def csr(data, indices, indptr, n_cols: int) -> sp.csr_matrix:
    """CSR matrix over existing arrays (no copy)."""
    return sp.csr_matrix(
        (data, indices, indptr), shape=(indptr.size - 1, n_cols), copy=False
    )


def op_nbytes(*ops) -> int:
    """Bytes of the data and index arrays of sparse matrices (``None``
    entries skipped; arrays shared between matrices counted once)."""
    seen, total = set(), 0
    for A in ops:
        if A is None:
            continue
        for a in (A.data, A.indices, A.indptr):
            key = (a.__array_interface__["data"][0], a.nbytes)
            if key not in seen:
                seen.add(key)
                total += a.nbytes
    return total


def csr_product(indptr, indices, data, n_cols: int, x: np.ndarray) -> np.ndarray:
    """``A @ x`` (``x`` of shape ``(n,)`` or ``(n, k)``) for the CSR
    arrays of ``A``, computed in ``data``'s dtype by scipy's compiled
    kernel reading the arrays in place.  ``indptr[r0 : r1 + 1]`` of a
    larger matrix gives its rows ``[r0, r1)`` — per row the same
    arithmetic as the whole product."""
    x = np.ascontiguousarray(x, dtype=data.dtype)
    m = indptr.size - 1
    y = np.zeros((m,) + x.shape[1:], dtype=data.dtype)
    if x.ndim == 1:
        _sparsetools.csr_matvec(m, n_cols, indptr, indices, data, x, y)
    else:
        _sparsetools.csr_matvecs(
            m, n_cols, x.shape[1], indptr, indices, data, x.ravel(), y.ravel()
        )
    return y


def near_product(indptr, indices, data, blocks, n_cols: int, x: np.ndarray) -> np.ndarray:
    """``A @ x`` for near-field CSR arrays, as :func:`csr_product`
    takes them, whose rows ``[b0, b1)`` of each ``blocks`` row (positions
    in ``indptr``, ascending and disjoint) all see one source list: each
    block is the dense ``(b1 - b0, sources)`` view of its values, applied
    as one BLAS product to ``x`` at its sources — a GEMV, or for an
    ``(n, k)`` ``x`` one GEMM over all ``k`` columns — and the rows
    between blocks run :func:`csr_product`.  Views are taken of ``data``
    as given, so a block costs no copy.
    A block's result depends on its shape alone: the same block gives
    the same values wherever its arrays start."""
    x = np.ascontiguousarray(x, dtype=data.dtype)
    if not len(blocks):  # mapped plans, small leaves: one CSR call, no copy
        return csr_product(indptr, indices, data, n_cols, x)
    m = indptr.size - 1
    y = np.empty((m,) + x.shape[1:], dtype=data.dtype)
    r = 0
    for b0, b1 in blocks.tolist():
        if b0 > r:
            y[r:b0] = csr_product(indptr[r : b0 + 1], indices, data, n_cols, x)
        lo, hi = int(indptr[b0]), int(indptr[b1])
        w = (hi - lo) // (b1 - b0)
        np.matmul(data[lo:hi].reshape(b1 - b0, w), x[indices[lo : lo + w]], out=y[b0:b1])
        r = b1
    if r < m:
        y[r:] = csr_product(indptr[r:], indices, data, n_cols, x)
    return y


def fold_map(indptr, indices, values, M):
    """Fold a sparse source map into sparse rows: ``A @ M``, row by row.

    ``A`` is the CSR rows ``(indptr, indices)`` (``indptr`` may start
    past 0, as a row range of a larger matrix does) with one or more
    value arrays ``values`` over its entries, each ``(nnz,)`` or
    ``(nnz, c)``; ``M`` is a CSR ``(sources × m)`` matrix without
    duplicate entries.  Returns ``(indptr, indices, folded)``: the rows
    of ``A @ M`` with columns ascending in each row, and ``folded`` the
    value arrays ``(pairs,)`` / ``(pairs, c)`` over that one pattern —
    every pair some entry reaches, exact zero sums included (but see
    the single-vector path below).

    Entry ``(r, j)`` sums ``w_ij · v`` over the entries ``(r, i, v)`` of
    row ``r`` in their stored order, starting from zero — the order of
    ``scipy``'s sparse product, so values are bitwise ``A.tocsr() @
    M``'s — and depends on row ``r`` alone: folding a row range gives
    those rows of the whole fold bitwise.

    Each entry's map row is gathered, and one counting sort by column
    (``csr_tocsc``) lines the entries reaching a column up row by row,
    so each (row, column) pair is one run; the runs are numbered in row
    order and one compiled product per value array scatters every
    entry's ``w · v`` onto its pair, streaming the values in entry
    order.  A single value vector takes scipy's own sparse product
    (``csr_matmat``) instead, several times faster; it drops exact zero
    sums, which contribute nothing to a product.
    """
    if len(values) == 1 and values[0].ndim == 1:
        return _fold_vector(indptr, indices, values[0], M)
    base = int(indptr[0])
    nnz = int(indptr[-1]) - base
    n_rows, m = indptr.size - 1, M.shape[1]
    # per entry, its map row: Q = M[cols] (scipy's row gather, called
    # directly — the fancy-index front end costs more than the gather)
    srcs = indices[base : base + nnz]
    c = M.indptr[srcs + 1] - M.indptr[srcs]
    E = int(c.sum())
    idt = index_dtype(E, m, nnz)
    qptr = np.zeros(nnz + 1, dtype=idt)
    np.cumsum(c, out=qptr[1:])
    qj = np.empty(E, dtype=M.indices.dtype)
    qw = np.empty(E, dtype=M.dtype)
    _sparsetools.csr_row_index(
        nnz, srcs.astype(M.indices.dtype, copy=False), M.indptr, M.indices, M.data, qj, qw
    )
    tptr = np.empty(m + 1, dtype=idt)
    te = np.empty(E, dtype=idt)
    tpos = np.empty(E, dtype=idt)
    _sparsetools.csr_tocsc(
        nnz, m, qptr, qj.astype(idt, copy=False), np.arange(E, dtype=idt),
        tptr, te, tpos,
    )
    rows = np.repeat(np.arange(n_rows, dtype=idt), np.diff(indptr))
    r = rows[te]
    new = np.empty(E, dtype=bool)
    new[:1] = True
    np.not_equal(r[1:], r[:-1], out=new[1:])
    new[tptr[:-1][tptr[1:] > tptr[:-1]]] = True
    start = np.flatnonzero(new)  # pairs, column-major
    prow = r[start]
    order = np.argsort(prow, kind="stable")  # row-major, columns ascending
    rank = np.empty(start.size, dtype=idt)
    rank[order] = np.arange(start.size, dtype=idt)
    slot = np.empty(E, dtype=idt)
    slot[tpos] = np.repeat(rank, np.diff(np.append(start, E)))
    fptr = np.zeros(n_rows + 1, dtype=idt)
    np.cumsum(np.bincount(prow, minlength=n_rows), out=fptr[1:])
    cols = (np.searchsorted(tptr, start, "right") - 1)[order].astype(idt)
    folded = []
    for v in values:
        x = np.ascontiguousarray(v[base : base + nnz], dtype=np.float64)
        y = np.zeros((start.size,) + x.shape[1:])
        if x.ndim == 1:
            _sparsetools.csc_matvec(start.size, nnz, qptr, slot, qw, x, y)
        else:
            _sparsetools.csc_matvecs(
                start.size, nnz, x.shape[1], qptr, slot, qw, x.ravel(), y.ravel()
            )
        folded.append(y)
    return fptr, cols, folded


def _fold_vector(indptr, indices, v, M):
    """:func:`fold_map` of one value vector by scipy's compiled sparse
    product, columns sorted in each row."""
    n_rows, m = indptr.size - 1, M.shape[1]
    mx = _sparsetools.csr_matmat_maxnnz(n_rows, m, indptr, indices, M.indptr, M.indices)
    idt = index_dtype(mx, m, indices.size)
    fptr = np.empty(n_rows + 1, dtype=idt)
    cols = np.empty(mx, dtype=idt)
    vals = np.empty(mx, dtype=np.float64)
    _sparsetools.csr_matmat(
        n_rows, m, indptr.astype(idt, copy=False), indices.astype(idt, copy=False),
        np.asarray(v, dtype=np.float64), M.indptr.astype(idt, copy=False),
        M.indices.astype(idt, copy=False), M.data, fptr, cols, vals,
    )
    nnz = int(fptr[-1])
    cols, vals = cols[:nnz].copy(), vals[:nnz].copy()
    _sparsetools.csr_sort_indices(n_rows, fptr, cols, vals)
    return fptr, cols, [vals]


def near_values(tgt_t, src_t, rows, cols, exclude_self, softening, out, gout=None):
    """Near-kernel entries ``1/sqrt(r²+ε²)`` of (target ``rows[i]``,
    source ``cols[i]``) into ``out``; with ``gout`` (``(3, entries)``)
    also the gradient kernel ``d/(r²+ε²)^{3/2}``.  Coincident pairs and,
    with ``exclude_self``, each target's own particle are exact zeros.

    Coordinates come transposed, ``(3, n)`` C-contiguous (``tgt_t[a]``
    is axis ``a`` of every target), so each gather is one 1-D take.
    """
    d = [tgt_t[a][rows] - src_t[a][cols] for a in range(3)]
    r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + softening * softening
    dead = r2 == 0.0
    if exclude_self:
        dead |= rows == cols
    with np.errstate(divide="ignore"):
        np.divide(1.0, np.sqrt(r2), out=out)
        out[dead] = 0.0
        if gout is not None:
            wg = 1.0 / (r2 * np.sqrt(r2))
            wg[dead] = 0.0
            for a in range(3):
                np.multiply(d[a], wg, out=gout[a])


def _block_values(
    tgt_t, src_t, R, S, exclude_self, softening, out, gout, separated=False
):
    """:func:`near_values` of every row ``R`` against every source
    ``S``, broadcast into the ``(rows, sources)`` block ``out`` (and
    ``gout``, ``(3, rows, sources)``) in tiles of about ``_NEAR_PASS``
    entries.  The arithmetic is ``near_values``'s, operation for
    operation, so entries are bitwise equal; dead entries get ``r² =
    ∞``, which makes both kernels exact zeros.  ``separated`` rows and
    sources are known to hold no self pair and no ``r² = 0`` pair, so
    neither is looked for."""
    m = S.size
    step = max(1, _NEAR_PASS // m)
    sxyz = [src_t[a][S] for a in range(3)]
    eps2 = softening * softening
    exclude_self = exclude_self and not separated
    ordered = exclude_self and bool(np.all(S[1:] > S[:-1]))
    for q0 in range(0, R.size, step):
        Rq = R[q0 : q0 + step]
        t = [tgt_t[a][Rq] for a in range(3)]
        d0 = np.subtract.outer(t[0], sxyz[0])
        r2 = d0 * d0
        d1 = np.subtract.outer(t[1], sxyz[1])
        if gout is None:
            d1 *= d1
            r2 += d1
            d2 = np.subtract.outer(t[2], sxyz[2], out=d1)
            d2 *= d2
            r2 += d2
        else:
            d2 = np.subtract.outer(t[2], sxyz[2])
            r2 += d1 * d1
            r2 += d2 * d2
        if eps2:
            r2 += eps2
        if exclude_self:
            if ordered:
                j = np.minimum(np.searchsorted(S, Rq), m - 1)
                i = np.flatnonzero(S[j] == Rq)
                r2[i, j[i]] = np.inf
            else:
                r2[np.equal.outer(Rq, S)] = np.inf
        if not separated and r2.min() == 0.0:
            r2[r2 == 0.0] = np.inf
        o = out[q0 : q0 + step]
        if gout is None:
            np.sqrt(r2, out=r2)
            np.divide(1.0, r2, out=o)
            continue
        wg = np.sqrt(r2)
        np.divide(1.0, wg, out=o)
        wg *= r2
        np.divide(1.0, wg, out=wg)
        for a, d in enumerate((d0, d1, d2)):
            np.multiply(d, wg, out=gout[a, q0 : q0 + step])


def assemble_near(
    tgt_t, src_t, rows, lists, src, off, exclude_self, softening, grad,
    span=None, cuts=None, mirror=None,
):
    """Near-field CSR over (targets × sources) from incidences: target
    ``rows[i]`` sees the sources of list ``lists[i]``, the non-empty
    slice ``src[off[k] : off[k + 1]]`` of the concatenated source lists.
    Coordinates come transposed, as :func:`near_values` reads them.

    Returns ``(indptr, indices, data, gdata, blocks, mirrored)`` over
    the target rows ``span = (r0, r1)`` (default every target), which
    must hold every incidence row; ``gdata`` is the ``(3, nnz)``
    gradient values sharing ``indices``/``indptr``, or ``None``.  A row
    lists its sources list by list, in order of each list's first
    source, and values are written straight into the final arrays.
    Consecutive rows with the same lists are one dense block of the CSR,
    and no block crosses a row of the ascending ``cuts`` (the starts of
    the caller's work units): a large block is broadcast
    (:func:`_block_values`), the rest go through :func:`near_values`,
    :data:`_NEAR_PASS` entries a pass.  ``blocks`` is the ``(blocks,
    2)`` row ranges ``[b0, b1)`` of the large blocks, counted from
    ``r0`` — what :func:`near_product` applies as BLAS products.  A
    unit's blocks depend on its own incidences alone.  Entries are
    functions of their (row, source) pair alone, and both kernels do
    the same arithmetic, so re-assembling all incidences of some rows
    reproduces those rows of the whole field bitwise.

    ``mirror = (seg, mate)`` declares the field symmetric, as a cluster
    plan's leaf pairs make it (targets are the sources, every row sees
    one list): each list is a run of segments ``src[seg[j] : seg[j +
    1]]`` (``seg`` holds every list boundary), one per partner leaf; the
    sources of segment ``j`` are, ascending, the rows of the list that
    holds its mate ``mate[j]`` — the same leaf pair in the other order,
    ``j`` itself for a leaf with itself; segments of two different
    leaves share no particle and no position.  Then, without ``grad``,
    of each pair of lists whose rows all lie in large blocks of this
    call, the lower numbered one evaluates the pair's tile and the other
    copies its transpose, bitwise the values it would evaluate;
    ``mirrored`` counts the copied entries (0 without ``mirror`` or
    with ``grad``).  An off-diagonal tile skips the self and coincidence
    checks: identical points share a leaf.  Gradient fields are not
    mirrored: copying three gradient arrays as negated strided
    transposes measured slower than the broadcasts they replace
    (DESIGN.md §18, "Mirrored assembly").
    """
    r0, r1 = (0, tgt_t.shape[1]) if span is None else span
    start = off[lists]
    order = np.lexsort((src[start], rows))
    rows, lists = rows[order], lists[order]
    start = off[lists]
    cnt = (off[lists + 1] - start).astype(np.int64)
    off_e = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(cnt, out=off_e[1:])
    nnz = int(off_e[-1])
    idt = index_dtype(nnz, src_t.shape[1])
    indptr = off_e[np.searchsorted(rows, np.arange(r0, r1 + 1))].astype(idt)
    indices = np.empty(nnz, dtype=idt)
    data = np.empty(nnz, dtype=np.float64)
    gdata = np.empty((3, nnz), dtype=np.float64) if grad else None

    def sources(i, j):
        """Source columns of incidences ``[i, j)``, entry by entry."""
        lo = off_e[i]
        c = cnt[i:j]
        return src[np.arange(off_e[j] - lo) + np.repeat(start[i:j] - off_e[i:j] + lo, c)]

    def per_entry(i, i_end):
        while i < i_end:
            j = int(np.searchsorted(off_e, off_e[i] + _NEAR_PASS, "right")) - 1
            j = min(i_end, max(i + 1, j))
            lo, hi = int(off_e[i]), int(off_e[j])
            cols = sources(i, j)
            indices[lo:hi] = cols
            near_values(
                tgt_t, src_t, np.repeat(rows[i:j], cnt[i:j]), cols, exclude_self,
                softening, data[lo:hi], None if gdata is None else gdata[:, lo:hi],
            )
            i = j

    i = 0
    found = _blocks(rows, lists, off_e, cuts)
    spans, copies = (
        ({}, []) if mirror is None or grad else _mirror_layout(lists, found, off, *mirror)
    )
    # without softening, r² of two distinct points is > 0 unless their
    # coordinates are small enough for a squared difference to underflow
    resolved = bool(spans) and (
        softening * softening > 0
        or not np.any((src_t != 0) & (np.abs(src_t) < 1e-140))
    )
    views = []
    for n, (b0, b1, nr) in enumerate(found.tolist()):
        per_entry(i, b0)
        c = (b1 - b0) // nr
        lo, hi = int(off_e[b0]), int(off_e[b1])
        S = sources(b0, b0 + c)
        shape = (nr, S.size)
        indices[lo:hi].reshape(shape)[:] = S
        out = data[lo:hi].reshape(shape)
        gout = None if gdata is None else gdata[:, lo:hi].reshape((3,) + shape)
        views.append(out)
        for c0, c1, off_diag in spans.get(n, [(0, S.size, False)]):
            _block_values(
                tgt_t, src_t, rows[b0:b1:c], S[c0:c1], exclude_self, softening,
                out[:, c0:c1], None if gout is None else gout[:, :, c0:c1],
                separated=off_diag and resolved,
            )
        i = b1
    per_entry(i, rows.size)
    mirrored = 0
    for x, cx, y, cy in copies:
        out, tile = views[x], views[y]
        h, w = out.shape[0], tile.shape[0]
        out[:, cx : cx + w] = tile[:, cy : cy + h].T
        mirrored += h * w
    return indptr, indices, data, gdata, _block_rows(rows, found, r0), mirrored


def _mirror_layout(lists, found, off, seg, mate):
    """Which columns of each large block of :func:`assemble_near` (its
    ``found``, over the sorted ``lists``) are evaluated and which are
    copied, for the ``mirror = (seg, mate)`` it describes.

    A list is mirrored when all its rows lie in these blocks: as many
    block rows as its own (diagonal) segment has sources.  Returns
    ``(spans, copies)``: per block of a mirrored list, its evaluated
    column ranges ``(c0, c1, off_diagonal)`` (other blocks are evaluated
    whole); and jobs ``(x, cx, y, cy)``: the columns ``[cx, cx + rows of
    y)`` of block ``x`` are the transpose of the columns ``[cy, cy +
    rows of x)`` of block ``y``, which is evaluated.  Blocks whose rows
    see several lists mirror nothing."""
    spans: dict[int, list] = {}
    if not len(found) or np.any(found[:, 1] - found[:, 0] != found[:, 2]):
        return spans, []
    seg_list = np.searchsorted(off, seg[:-1], "right") - 1
    diag = np.flatnonzero(mate == np.arange(mate.size))
    n_rows = np.full(off.size - 1, -1, dtype=np.int64)
    n_rows[seg_list[diag]] = np.diff(seg)[diag]
    k, nr = lists[found[:, 0]], found[:, 2]
    ok = (np.bincount(k, weights=nr, minlength=n_rows.size) == n_rows).tolist()
    # per mirrored list, its blocks (ascending rows) with the position
    # of their first row among the list's rows, and their row counts
    blocks_of: dict[int, list] = {}
    for n, (kk, r) in enumerate(zip(k.tolist(), nr.tolist())):
        if ok[kk]:
            own = blocks_of.setdefault(kk, [])
            own.append((n, own[-1][1] + own[-1][2] if own else 0, r))
    first = np.searchsorted(seg, off).tolist()
    seg_l, off_l = seg.tolist(), off.tolist()
    mate_l, part = mate.tolist(), seg_list[mate].tolist()
    copies: list[tuple] = []
    for kk, own in blocks_of.items():
        for n, x0, _ in own:
            mine = []
            for j in range(first[kk], first[kk + 1]):
                c0, c1, kb = seg_l[j] - off_l[kk], seg_l[j + 1] - off_l[kk], part[j]
                off_diag = j != mate_l[j]
                if kb < kk and ok[kb]:
                    cy = seg_l[mate_l[j]] - off_l[kb] + x0
                    copies.extend((n, c0 + y0, y, cy) for y, y0, _ in blocks_of[kb])
                elif off_diag and mine and mine[-1][2] and mine[-1][1] == c0:
                    mine[-1] = (mine[-1][0], c1, True)
                else:
                    mine.append((c0, c1, off_diag))
            spans[n] = mine
    return spans, copies


def near_blocks(rows, lists, off, cuts) -> np.ndarray:
    """The ``blocks`` :func:`assemble_near` returns for the same
    incidences — already sorted as it sorts them, by row and then by
    each list's first source — with rows counted from 0, found without
    assembling them."""
    off_e = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(off[lists + 1] - off[lists], out=off_e[1:])
    return _block_rows(rows, _blocks(rows, lists, off_e, cuts), 0)


def _block_rows(rows, found, r0: int) -> np.ndarray:
    """Row ranges ``[b0, b1)``, counted from ``r0``, of the incidence
    ranges ``found`` of :func:`_blocks`."""
    b = np.stack([rows[found[:, 0]], rows[found[:, 1] - 1] + 1], axis=1)
    return b.astype(np.int64) - r0


def _blocks(rows, lists, off_e, cuts=None) -> np.ndarray:
    """Large dense blocks of row-sorted incidences, as ``(first, end,
    rows)`` incidence ranges: maximal runs of consecutive target rows
    whose list sequences are equal and of which only the first may be
    one of the ascending ``cuts``, with at least ``_BLOCK_ROWS`` rows
    and ``_BLOCK_MIN`` entries."""
    if rows.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    f = np.flatnonzero(np.append(True, rows[1:] != rows[:-1]))
    c = np.diff(np.append(f, rows.size))
    same = np.zeros(f.size, dtype=bool)
    if f.size > 1:
        # row k repeats row k - 1 when its count and every list match
        eq = np.repeat(c[1:] == c[:-1], c[1:])
        prev = np.arange(f[1], rows.size) - np.repeat(c[:-1], c[1:])
        eq &= lists[f[1] :] == lists[np.where(eq, prev, 0)]
        same[1:] = np.logical_and.reduceat(eq, f[1:] - f[1])
        # a block's rows are consecutive targets inside one unit
        rf = rows[f]
        same[1:] &= rf[1:] == rf[:-1] + 1
        if cuts is not None and len(cuts):
            j = np.minimum(np.searchsorted(cuts, rf[1:]), len(cuts) - 1)
            same[1:] &= cuts[j] != rf[1:]
    first = np.flatnonzero(~same)
    nr = np.diff(np.append(first, f.size))
    b0 = f[first]
    b1 = np.append(b0[1:], rows.size)
    keep = (nr >= _BLOCK_ROWS) & (off_e[b1] - off_e[b0] >= _BLOCK_MIN)
    return np.stack([b0[keep], b1[keep], nr[keep]], axis=1)


def row_ranges(indptr: np.ndarray, starts: np.ndarray, budget: int) -> np.ndarray:
    """Work units of a CSR matrix as an ``(m, 2)`` array of ``[r0, r1)``
    row ranges: the ranges between consecutive ``starts``, each split
    further to hold at most ``budget`` entries (a single heavier row
    forms its own range); ranges without entries are dropped."""
    n_rows = indptr.size - 1
    cuts = np.union1d(np.clip(starts, 0, n_rows), [0, n_rows])
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        r = int(a)
        while r < b and indptr[b] > indptr[r]:
            r1 = int(np.searchsorted(indptr, indptr[r] + budget, "right")) - 1
            r1 = min(int(b), max(r1, r + 1))
            out.append((r, r1))
            r = r1
    return np.asarray(out, dtype=np.int64).reshape(-1, 2)
