r"""Lattice translation operators of box-centred octrees.

With expansions about geometric box centres, every displacement
between two box centres is an exact integer multiple of the finest
level's half size.  The Laplace M2L operator depends on such a
displacement ``d = ρ û`` only through

* a dense operator of the unit direction, since distance factors out
  as diagonal scalings — ``T(ρ û) = ρ⁻¹ · D(ρ)⁻¹ · T(û) · D(ρ)⁻¹`` with
  ``D(ρ) = diag(ρⁿ)``;
* diagonal sign patterns for the axis reflections (:func:`octant_signs`).

So one dense real ``(2nc × 2nc)`` operator per canonical direction
``(|dx|, |dy|, |dz|) / gcd`` (:func:`lattice_keys`) serves every level,
distance and octant.  Cluster plans go one step further and split the
distance factor in two.  With ``h`` a box half size and ``ρ = κ_s h_s =
κ_t h_t``, the per-box powers ``h_s⁻ⁿ`` and ``h_t⁻ʲ⁻¹`` are powers of two
times a root constant, and ``κ_s``, ``κ_t`` depend only on the squared
offset in units of the pair's finer box and the level step
(:func:`level_keys`).  One operator ``diag(κ_s⁻ⁿ) T(û) diag(κ_t⁻ʲ⁻¹)``
per (direction, length, level step) key (:func:`key_operators`) then
leaves no per-pair scaling at all.  Direction operators recur across
plans of the same cloud and are memoised under a byte cap
(:func:`direction_operators`).  L2L is the same construction over the
eight octant diagonals of child shifts (:func:`l2l_operator`).

All operators act on rows in the *interleaved* real layout ``[Re c_0,
Im c_0, Re c_1, Im c_1, ...]`` of packed coefficients (row convention
``L = M @ T``), in which a degree-``p`` operator is the leading
``2·ncoef(p)`` block of a higher-degree one.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from .harmonics import (
    degree_of_index,
    irregular_solid,
    ncoef,
    power_table,
    regular_solid,
)
from .translations import _iphase_grid, _sq_grid

__all__ = [
    "m2l_operators",
    "direction_operators",
    "key_operators",
    "key_diagonals",
    "level_keys",
    "interleaved_degrees",
    "l2l_operator",
    "interleave_index",
    "octant_signs",
    "scales",
    "octants",
    "lattice_keys",
    "unpack_keys",
]

#: Degree-keyed caches hold every degree up to the M2L degree cap (42).
_CACHE_DEGREES = 43

#: Bits per axis of a packed lattice direction key; lattice offsets
#: stay below ``2^(MAX_DEPTH + 1)`` finest-level units.
_KEY_BITS = 21

#: Matrix entries per operator-building pass (bounds the complex
#: temporaries of :func:`m2l_operators` to ~32 MB each).
_BUILD_PASS = 1 << 21

#: Byte cap of the direction-operator memo of :func:`direction_operators`;
#: entries are evicted oldest first.  Default cluster plans of uniform
#: clouds fill 10 MB at n=3000 and 19 MB at n=20k (one entry per
#: direction and degree); one degree-40 operator alone takes 24 MB.
_MEMO_BYTES = 32 << 20

_memo: dict = {}  #: ``(packed direction key, degree) -> operator``
_memo_bytes = 0
_memo_lock = threading.Lock()


def _singular_grid(d_u: np.ndarray, p: int, dtype=np.complex128) -> np.ndarray:
    """Scaled singular grid ``(2p+1, 4p+1, len(d_u))`` of displacement
    rows ``d_u``, batch-last: entry ``[N, 2p + μ]`` is ``i^|μ| sq(N, μ)
    Y_N^μ(d) / |d|^{N+1}`` — the geometry factor of a degree-``p`` M2L."""
    ptot = 2 * p
    It = irregular_solid(d_u, ptot)  # Y_n^m / rho^{n+1}, (ncoef, B)
    nt, mt = degree_of_index(ptot)
    # i^|m| sq(n, m), identical at +-m
    scale_t = (_iphase_grid(ptot, +1) * _sq_grid(ptot))[nt, ptot + mt, None]
    shat = np.zeros((ptot + 1, 2 * ptot + 1, d_u.shape[0]), dtype=dtype)
    shat[nt, ptot + mt] = It * scale_t
    negt = mt > 0
    shat[nt[negt], ptot - mt[negt]] = np.conj(It[negt]) * scale_t[negt]
    return shat


@lru_cache(maxsize=_CACHE_DEGREES)
def _m2l_gather(p: int) -> tuple:
    """Where each degree-``p`` M2L matrix entry sits in the flattened
    scaled singular grid, and its constant factor.

    Entry (source ``(n, m)``, local ``(j, k)``) reads the grid at
    ``(j + n, m - k)`` for the source coefficient and at ``(j + n, -m -
    k)`` for its conjugate mirror (none at ``m = 0``), both times
    ``i^{-|m|} (-1)^n / sq(n, m) · i^{-|k|} / sq(j, k)``.  Returns
    ``(idx_plus, idx_minus, f, mirror)``: int32 grid indices and the
    factor, flat over the ``(nc, nc)`` matrix, and the source rows with
    a mirror (``m > 0``); read-only.  24 bytes an entry (21 MB at
    p=42): the factor is not stored a second time with the mirrorless
    rows zeroed.
    """
    ns, ms = degree_of_index(p)
    ptot, width = 2 * p, 4 * p + 1
    ph = _iphase_grid(p, -1)[ns, p + ms] / _sq_grid(p)[ns, p + ms]
    row = (ns[:, None] + ns[None, :]) * width + ptot
    out = (
        (row + ms[:, None] - ms[None, :]).ravel().astype(np.int32),
        (row - ms[:, None] - ms[None, :]).ravel().astype(np.int32),
        ((ph * (-1.0) ** ns)[:, None] * ph[None, :]).ravel(),
        ms > 0,
    )
    for a in out:
        a.setflags(write=False)
    return out


def m2l_operators(u: np.ndarray, p: int) -> np.ndarray:
    """Dense real M2L operators ``(U, 2nc, 2nc)`` of unit displacements
    ``u`` (``(U, 3)``, source centre minus target centre) at degree ``p``.

    Both sides use the interleaved real layout ``[Re c_0, Im c_0, Re
    c_1, Im c_1, ...]`` of packed coefficients: a multipole row ``x``
    translates to the local row ``x @ T``.  Entries are gathered from
    :func:`_singular_grid` (:func:`_m2l_gather`) — the M2L of
    :mod:`repro.multipole.translations` written as a matrix, with the
    conjugate ``-m`` half of the source folded into the real and
    imaginary columns.  Directions are processed in passes of at most
    :data:`_BUILD_PASS` matrix entries.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1, 3)
    nc = ncoef(p)
    ip, im, f, mirror = _m2l_gather(p)
    T = np.empty((u.shape[0], 2 * nc, 2 * nc))
    step = max(1, _BUILD_PASS // (nc * nc))
    for lo in range(0, u.shape[0], step):
        hi = min(lo + step, u.shape[0])
        S = np.ascontiguousarray(_singular_grid(u[lo:hi], p).reshape(-1, hi - lo).T)
        cp, cm = S[:, ip], S[:, im]
        cp *= f
        # source rows without a mirror (m = 0) take a complex zero factor
        cm3 = cm.reshape(-1, nc, nc)
        zero = cm3[:, ~mirror] * 0.0
        cm *= f
        cm3[:, ~mirror] = zero
        _real_operator(cp.reshape(-1, nc, nc), cm3, T[lo:hi])
    return T


def direction_operators(keys: np.ndarray, p: int) -> list:
    """Degree-``p`` M2L operators ``(2nc, 2nc)`` of packed canonical
    direction ``keys`` (:func:`lattice_keys`; repeats allowed), one
    read-only array per key.

    Direction operators recur in every plan compiled on the same cloud,
    so they are memoised per (key, degree) in a FIFO memo capped at
    :data:`_MEMO_BYTES` bytes; all misses are built in one
    :func:`m2l_operators` call.
    """
    global _memo_bytes
    ukeys, inv = np.unique(np.asarray(keys, dtype=np.int64), return_inverse=True)
    with _memo_lock:
        found = [_memo.get((k, p)) for k in ukeys.tolist()]
    miss = [i for i, T in enumerate(found) if T is None]
    if miss:
        built = m2l_operators(unpack_keys(ukeys[miss]), p)
        built.setflags(write=False)
        with _memo_lock:
            for i, T in zip(miss, built):
                found[i] = T
                if _memo.setdefault((int(ukeys[i]), p), T) is T:
                    _memo_bytes += T.nbytes
            while _memo_bytes > _MEMO_BYTES and _memo:
                _memo_bytes -= _memo.pop(next(iter(_memo))).nbytes
    return [found[i] for i in inv.tolist()]


def level_keys(r2: np.ndarray, ls: np.ndarray, lt: np.ndarray, lmax: int):
    """Level-normalised parts of the keys of box pairs at source and
    target levels ``ls``, ``lt`` whose centres are ``|d|² = r2`` apart in
    units of the level-``lmax`` half size: ``(r2 >> 2·(lmax − max(ls,
    lt)), ls − lt)`` — the squared offset in units of the pair's finer
    box (exact: box centres of level ``L`` sit on odd multiples of its
    half size) and the level step."""
    shift = 2 * (lmax - np.maximum(ls, lt)).astype(np.int64)
    return r2 >> shift, (ls - lt).astype(np.int64)


@lru_cache(maxsize=_CACHE_DEGREES)
def interleaved_degrees(p: int) -> np.ndarray:
    """Degree ``n`` of each coefficient of the interleaved degree-``p``
    layout, as int32 (the exponent dtype of ``np.ldexp``'s fast loop);
    cached per degree, read-only."""
    out = np.repeat(degree_of_index(p)[0], 2).astype(np.int32)
    out.setflags(write=False)
    return out


def key_diagonals(kappa: np.ndarray, p: int):
    """``(κ_s⁻ⁿ, κ_t⁻ʲ⁻¹)`` over the interleaved degree-``p`` layout,
    one row per key, for ``kappa`` rows ``(κ_s, κ_t)``."""
    ns2 = interleaved_degrees(p)
    kappa = np.asarray(kappa, dtype=np.float64).reshape(-1, 2)
    inv = power_table(1.0 / kappa, p)  # (K, 2, p + 1)
    return inv[:, 0, ns2], inv[:, 1, ns2] / kappa[:, 1:]


def key_operators(keys: np.ndarray, kappa: np.ndarray, p: int) -> np.ndarray:
    """Degree-``p`` M2L operators ``diag(κ_s⁻ⁿ) T(û) diag(κ_t⁻ʲ⁻¹)`` of
    lattice keys: packed directions ``keys`` (:func:`direction_operators`)
    with distance rows ``kappa = (κ_s, κ_t)``, as one ``(keys, 2nc,
    2nc)`` array."""
    left, right = key_diagonals(kappa, p)
    T = np.empty((left.shape[0],) + (left.shape[1],) * 2)
    for Tk, D, lk in zip(T, direction_operators(keys, p), left):
        np.multiply(D, lk[:, None], out=Tk)
    T *= right[:, None, :]
    return T


def _real_operator(cp: np.ndarray, cm: np.ndarray, out=None) -> np.ndarray:
    """Interleaved real operators ``(U, 2nc, 2nc)`` of the real-linear
    maps ``c -> sum cp c + cm conj(c)`` given as complex ``(U, nc, nc)``
    (source rows, local columns), written into ``out`` when given."""
    U, nc = cp.shape[0], cp.shape[-1]
    T = np.empty((U, 2 * nc, 2 * nc)) if out is None else out
    np.add(cp.real, cm.real, out=T[:, 0::2, 0::2])
    np.subtract(cm.imag, cp.imag, out=T[:, 1::2, 0::2])
    np.add(cp.imag, cm.imag, out=T[:, 0::2, 1::2])
    np.subtract(cp.real, cm.real, out=T[:, 1::2, 1::2])
    return T


def l2l_operator(p: int) -> np.ndarray:
    """Dense real L2L operator ``(2nc, 2nc)`` of the unit octant
    diagonal ``(1, 1, 1)/√3`` in the interleaved layout.

    Gathered like :func:`m2l_operators` from the scaled regular
    grid ``Ê[ν, μ] = i^{-|μ|} / sq(ν, μ) · r^ν Y_ν^μ`` of the shift:
    source ``(n, m)`` reaches local ``(j, k)`` through ``Ê[n - j, m -
    k]`` (and ``Ê[n - j, -m - k]`` for the conjugate mirror), times
    ``i^{|m|} sq(n, m) · i^{-|k|} / sq(j, k)``
    (:func:`~repro.multipole.translations.l2l`).
    """
    ns, ms = degree_of_index(p)
    width = 2 * p + 1
    sq, ph = _sq_grid(p)[ns, p + ms], _iphase_grid(p, -1)[ns, p + ms]
    E = regular_solid(np.full((1, 3), 1.0 / np.sqrt(3.0)), p)[:, 0]
    grid = np.zeros((p + 1) * width + 1, dtype=np.complex128)  # last: 0
    grid[ns * width + p + ms] = E * ph / sq
    grid[ns * width + p - ms] = np.conj(E) * ph / sq
    nu = ns[:, None] - ns[None, :]  # (source n, local j)
    zero = grid.size - 1

    def at(mu):
        return grid[np.where(np.abs(mu) <= nu, nu * width + p + mu, zero)]

    f = (np.conj(ph) * sq)[:, None] * (ph / sq)[None, :]
    cp = at(ms[:, None] - ms[None, :]) * f
    cm = np.where((ms > 0)[:, None], at(-ms[:, None] - ms[None, :]) * f, 0.0)
    return _real_operator(cp[None], cm[None])[0]


def interleave_index(nc: int, ncP: int) -> np.ndarray:
    """Columns of a ``[Re C | Im C]`` row of ``ncP`` coefficients that
    form the interleaved layout of its leading ``nc``."""
    idx = np.empty(2 * nc, dtype=np.int64)
    idx[0::2] = np.arange(nc)
    idx[1::2] = ncP + np.arange(nc)
    return idx


@lru_cache(maxsize=_CACHE_DEGREES)
def octant_signs(p: int) -> np.ndarray:
    """``(8, 2nc)`` sign patterns of the axis reflections on interleaved
    coefficients: row ``o`` mirrors ``x`` (bit 0), ``y`` (bit 1) and
    ``z`` (bit 2).  Cached per degree, read-only."""
    ns, ms = degree_of_index(p)
    re_im = np.tile([1.0, -1.0], ns.size)
    flips = (
        np.repeat((-1.0) ** ms, 2) * re_im,  # x -> -x: (-1)^m conj
        re_im,  # y -> -y: conj
        np.repeat((-1.0) ** (ns + ms), 2),  # z -> -z: (-1)^(n+m)
    )
    out = np.ones((8, 2 * ns.size))
    for o in range(8):
        for bit, s in enumerate(flips):
            if o >> bit & 1:
                out[o] *= s
    out.setflags(write=False)
    return out


def scales(p: int, rho: np.ndarray, octs: np.ndarray):
    """Per-row diagonal scalings ``(S_o · ρⁿ, S_o · ρ⁻ⁿ)`` over the
    interleaved degree-``p`` layout, ``S_o`` the octant sign pattern."""
    ns2 = interleaved_degrees(p)
    S = octant_signs(p)[octs]
    return S * power_table(rho, p)[:, ns2], S * power_table(1.0 / rho, p)[:, ns2]


def octants(d: np.ndarray) -> np.ndarray:
    """Octant code of each offset row: bit ``a`` set when axis ``a`` is
    negative (the reflections of :func:`octant_signs`)."""
    return (d < 0) @ np.array([1, 2, 4])


def lattice_keys(d: np.ndarray):
    """Exact keys of integer pair offsets ``d`` (``(B, 3)``): the packed
    canonical direction ``|d| / gcd``, the octant code and the squared
    length ``|d|²``."""
    a = np.abs(d)
    c = a // np.gcd.reduce(a, axis=1)[:, None]
    key = (c[:, 0] << 2 * _KEY_BITS) | (c[:, 1] << _KEY_BITS) | c[:, 2]
    return key, octants(d), np.einsum("ij,ij->i", a, a)


def unpack_keys(key: np.ndarray) -> np.ndarray:
    """Unit vectors of packed canonical directions."""
    mask = (1 << _KEY_BITS) - 1
    c = np.stack(
        [key >> 2 * _KEY_BITS, (key >> _KEY_BITS) & mask, key & mask], axis=1
    ).astype(np.float64)
    return c / np.sqrt(np.einsum("ij,ij->i", c, c))[:, None]


