r"""Frozen plan operators as ``scipy.sparse`` matrices.

Every charge-independent linear map a compiled plan freezes — P2M
transfer rows, far-field evaluation rows, L2P rows and near-field
kernels — is stored as one block-sparse matrix over the plan's own
arrays and applied with one compiled sparse product:

* complex coefficients travel in the real column layout ``[Re C | Im
  C]`` (:func:`real_layout`), so a complex contraction ``Re sum_c R_c
  C_c`` is the real dot product of ``[Re R, -Im R]`` with ``[Re C, Im
  C]``;
* row operators (far, L2P) are BSR matrices with ``(1, 2·nc)`` blocks —
  block row a (pair or target) evaluation, block column a coefficient
  row — and gradient rows use ``(3, 2·nc)`` blocks over the same
  operand;
* near kernels are one CSR matrix over (targets × sources); gradient
  kernels are three more value arrays sharing its ``indices``/``indptr``.

Near work units are contiguous row ranges of the near field, applied
by :func:`csr_product` straight from CSR arrays: the plan's frozen
ones, or those :func:`assemble_near` re-assembles from the unit's
incidences.  A matrix whose data has been cast to float32 (memory
shedding) is applied to a float32 operand (:func:`apply`), never by
upcasting its data per product.
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
    "apply",
    "csr_product",
    "op_nbytes",
    "real_layout",
    "complex_layout",
    "near_values",
    "assemble_near",
    "row_ranges",
]

#: Near entries evaluated per pass while assembling or recomputing near
#: kernels — bounds the transient ``(entries, 3)`` displacement array
#: and the tiles of a broadcast block.
_NEAR_PASS = 1 << 14
#: Consecutive rows that see the same source sequence are one dense
#: block of the near CSR; a block of at least ``_BLOCK_ROWS`` rows and
#: ``_BLOCK_MIN`` entries broadcasts its rows against its sources instead
#: of gathering coordinates per entry (smaller blocks would pay more in
#: per-block calls than they save).
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


def apply(A, x: np.ndarray) -> np.ndarray:
    """``A @ x`` with ``x`` cast to ``A``'s dtype: a float32 (shed)
    matrix is applied in float32 instead of having its data upcast."""
    return A @ x.astype(A.dtype, copy=False)


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


def real_layout(C: np.ndarray) -> np.ndarray:
    """Complex coefficients ``(rows, nc)`` / ``(rows, k, nc)`` as the real
    operand ``(rows, 2·nc)`` / ``(rows, 2·nc, k)`` ``[Re C | Im C]``."""
    if C.ndim == 2:
        return np.concatenate([C.real, C.imag], axis=1)
    nc = C.shape[2]
    X = np.empty((C.shape[0], 2 * nc, C.shape[1]), dtype=np.float64)
    X[:, :nc] = C.real.transpose(0, 2, 1)
    X[:, nc:] = C.imag.transpose(0, 2, 1)
    return X


def complex_layout(X: np.ndarray, nc: int) -> np.ndarray:
    """Inverse of :func:`real_layout` for the leading ``nc`` coefficients
    of a ``(rows, 2·ncP[, k])`` operand whose storage degree has
    ``ncP = X.shape[1] // 2`` coefficients."""
    ncP = X.shape[1] // 2
    re, im = X[:, :nc], X[:, ncP : ncP + nc]
    if X.ndim == 3:
        re, im = re.transpose(0, 2, 1), im.transpose(0, 2, 1)
    C = np.empty(re.shape, dtype=np.complex128)
    C.real, C.imag = re, im
    return C


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


def _block_values(tgt_t, src_t, R, S, exclude_self, softening, out, gout):
    """:func:`near_values` of every row ``R`` against every source
    ``S``, broadcast into the ``(rows, sources)`` block ``out`` (and
    ``gout``, ``(3, rows, sources)``) in tiles of about ``_NEAR_PASS``
    entries.  The arithmetic is ``near_values``'s, operation for
    operation, so entries are bitwise equal; dead entries get ``r² =
    ∞``, which makes both kernels exact zeros."""
    m = S.size
    step = max(1, _NEAR_PASS // m)
    sxyz = [src_t[a][S] for a in range(3)]
    eps2 = softening * softening
    ordered = bool(np.all(S[1:] > S[:-1]))
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
        if r2.min() == 0.0:
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
    tgt_t, src_t, rows, lists, src, off, exclude_self, softening, grad, span=None
):
    """Near-field CSR over (targets × sources) from incidences: target
    ``rows[i]`` sees the sources of list ``lists[i]``, the non-empty
    slice ``src[off[k] : off[k + 1]]`` of the concatenated source lists.
    Coordinates come transposed, as :func:`near_values` reads them.

    Returns ``(indptr, indices, data, gdata)`` over the target rows
    ``span = (r0, r1)`` (default every target), which must hold every
    incidence row; ``gdata`` is the ``(3, nnz)`` gradient values
    sharing ``indices``/``indptr``, or ``None``.  A row lists its
    sources list by list, in order of each list's first source, and
    values are written straight into the final arrays.  Consecutive
    rows with the same lists are one dense block of the CSR: a large
    block is broadcast (:func:`_block_values`), the rest go through
    :func:`near_values`, :data:`_NEAR_PASS` entries a pass.  Entries are
    functions of their (row, source) pair alone, and both kernels do
    the same arithmetic, so re-assembling all incidences of some rows
    reproduces those rows of the whole field bitwise.
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
    for b0, b1, nr in _blocks(rows, lists, off_e).tolist():
        per_entry(i, b0)
        c = (b1 - b0) // nr
        lo, hi = int(off_e[b0]), int(off_e[b1])
        S = sources(b0, b0 + c)
        shape = (nr, S.size)
        indices[lo:hi].reshape(shape)[:] = S
        _block_values(
            tgt_t, src_t, rows[b0:b1:c], S, exclude_self, softening,
            data[lo:hi].reshape(shape),
            None if gdata is None else gdata[:, lo:hi].reshape((3,) + shape),
        )
        i = b1
    per_entry(i, rows.size)
    return indptr, indices, data, gdata


def _blocks(rows, lists, off_e) -> np.ndarray:
    """Large dense blocks of row-sorted incidences, as ``(first, end,
    rows)`` incidence ranges: maximal runs of consecutive rows whose
    list sequences are equal, with at least ``_BLOCK_ROWS`` rows and
    ``_BLOCK_MIN`` entries."""
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
