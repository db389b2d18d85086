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
#: kernels — bounds the transient ``(entries, 3)`` displacement array.
_NEAR_PASS = 1 << 14


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
    sources list by list, in order of each list's first source; values
    are written straight into the final arrays, :data:`_NEAR_PASS`
    entries a pass.  Entries are functions of their (row, source) pair
    alone, so re-assembling all incidences of some rows reproduces
    those rows of the whole field bitwise.
    """
    r0, r1 = (0, tgt_t.shape[1]) if span is None else span
    start = off[lists]
    order = np.lexsort((src[start], rows))
    rows, start = rows[order], start[order]
    cnt = (off[lists[order] + 1] - start).astype(np.int64)
    off_e = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(cnt, out=off_e[1:])
    nnz = int(off_e[-1])
    idt = index_dtype(nnz, src_t.shape[1])
    indptr = off_e[np.searchsorted(rows, np.arange(r0, r1 + 1))].astype(idt)
    indices = np.empty(nnz, dtype=idt)
    data = np.empty(nnz, dtype=np.float64)
    gdata = np.empty((3, nnz), dtype=np.float64) if grad else None
    i = 0
    while i < rows.size:
        j = max(i + 1, int(np.searchsorted(off_e, off_e[i] + _NEAR_PASS, "right")) - 1)
        lo, hi = int(off_e[i]), int(off_e[j])
        c = cnt[i:j]
        pos = np.arange(hi - lo) + np.repeat(start[i:j] - (off_e[i:j] - lo), c)
        cols = src[pos]
        indices[lo:hi] = cols
        near_values(
            tgt_t, src_t, np.repeat(rows[i:j], c), cols, exclude_self, softening,
            data[lo:hi], None if gdata is None else gdata[:, lo:hi],
        )
        i = j
    return indptr, indices, data, gdata


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
