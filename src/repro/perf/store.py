r"""Persistent content-addressed plan store with zero-copy mmap loads.

Compiling an evaluation plan (:mod:`repro.perf.plan` /
:mod:`repro.perf.cluster`) costs seconds at scale — spherical-harmonic
row materialization, dual-tree traversal, lattice-operator builds —
while *applying* one costs milliseconds.  Serving workloads (a BEM
solve restarted with a new right-hand side, a sweep driver re-launched
per configuration, CI re-running the same table) pay that compile on
every process start even though the geometry is byte-identical.

This module persists compiled plans to disk and restores them by
memory-mapping:

* **Versioned container** — one file per plan: a fixed magic/version
  prefix, a JSON header describing the object graph, then the raw
  bytes of every ``ndarray`` as 64-byte-aligned segments.  Bulk data is
  **never pickled**: the header stores dtype/shape/offset triples and
  the object tree as plain JSON, so the format is inspectable with a
  hex editor and stable across Python versions.
* **Content addressing** — the cache key is a SHA-256 digest over the
  inputs the compiler is a pure function of: particle positions and
  charges (Morton-sorted), the degree policy and its parameters, the
  MAC ``alpha``/softening/leaf size, ``tol``, the memory budget, plan
  mode/compute flags, and the library version.
  Any change — a perturbed point, a different tolerance, a library
  upgrade — changes the digest and misses the cache.
* **Zero-copy loads** — the file is mapped read-only once
  (``np.memmap``) and every array in the restored plan is a view into
  that mapping; nothing is copied until (and unless) a kernel reads
  it, so warm-start cost is metadata parsing plus page faults.  The
  plan's ``scipy.sparse`` operators are stored as their ``data`` /
  ``indices`` / ``indptr`` arrays and rewrapped around the mapped
  buffers on load; index arrays two matrices share are stored once.
  Dense lattice M2L operators (:mod:`repro.multipole.lattice`) are
  plain arrays like any other, so cluster and FMM plans restore them
  from the mapping too; no operator is rebuilt on load.
* **Corruption and staleness detection** — a truncated file, a
  garbled header, an unknown format version or a digest mismatch all
  raise :class:`PlanStoreError` with a machine-readable ``reason``;
  the cache front-end (:func:`cached_plan`) falls back to a fresh
  compile and counts the miss in ``plan_cache_misses{reason}``.

Enable via ``compile_plan(..., cache_dir=...)``, the
``REPRO_PLAN_CACHE`` environment variable, or the CLI's
``--plan-cache DIR`` flag.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from ..obs import emit
from ..obs.tracing import stopwatch

__all__ = [
    "ENV_PLAN_CACHE",
    "STORE_FORMAT_VERSION",
    "PlanStoreError",
    "content_digest",
    "plan_digest",
    "save_pytree",
    "load_pytree",
    "save_plan",
    "load_plan",
    "resolve_cache_dir",
    "cached_plan",
]

#: Environment variable naming the plan-cache directory (the CLI's
#: ``--plan-cache`` flag sets it; an empty value disables caching).
ENV_PLAN_CACHE = "REPRO_PLAN_CACHE"

#: On-disk container version; bumped on any incompatible layout change
#: (2: Cartesian ``(Gre, Gim)`` gradient rows replace the spherical
#: ``(A, B, D, st, ct, cp, sp)`` tuples; cluster groups carry their
#: compile-time displacement dedup.  3: frozen operators are
#: ``scipy.sparse`` BSR/CSR matrices — P2M, far and L2P rows, one near
#: CSR per plan.  4: cluster groups hold lattice M2L schedules — operator
#: runs, scale rows and a target sum matrix — over per-direction
#: operators; treecodes may carry no expansions.  5: FMM plans hold
#: lattice M2L operators and a near CSR instead of a rotation cache.
#: 6: treecodes carry no upward-pass state and digests no ``upward``.
#: 7: cluster M2L operators are per lattice key — direction, length and
#: level step — and groups lose their scale tables: pairs read folded
#: operand rows and sum into (octant, target) buckets).  8: near fields
#: are row-range units over incidences — a frozen CSR for the leading
#: units and the incidences of the rest — with no dense spilled blocks,
#: and the digest drops the row dtype.  9: cluster plans cut the octree
#: at a level a cost model chooses (their nodes, radii and leaves are a
#: cut view's), and the digest says whether the cut is chosen or pinned.
STORE_FORMAT_VERSION = 9

_MAGIC = b"REPROPLN"
_ALIGN = 64


class PlanStoreError(Exception):
    """A stored plan could not be used.

    ``reason`` is one of ``"absent"`` (no file), ``"truncated"`` (file
    shorter than its header promises), ``"corrupt"`` (bad magic or
    unparseable header), ``"version"`` (format or library version
    mismatch) or ``"stale"`` (content digest mismatch) — the label the
    cache miss is counted under.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"plan store miss ({reason})" + (f": {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# type registry: object graphs are encoded as JSON trees referencing the
# array segment table; registered classes round-trip via __new__ + attrs
# ---------------------------------------------------------------------------


def _registry() -> dict:
    # late imports: plan/cluster import this module's siblings
    from ..core.degree import (
        AdaptiveChargeDegree,
        FixedDegree,
        LevelDegree,
        ToleranceDegree,
        VariableDegree,
    )
    from ..core.treecode import InteractionLists, Treecode, TreecodeStats
    from ..tree.octree import Octree
    from .cluster import ClusterPlan, _FarGroup, _FarUnit, _L2PGroup
    from .plan import CompiledPlan, _FarChunk, _P2MGroup

    classes = [
        Treecode,
        TreecodeStats,
        InteractionLists,
        Octree,
        FixedDegree,
        AdaptiveChargeDegree,
        LevelDegree,
        ToleranceDegree,
        VariableDegree,
        CompiledPlan,
        ClusterPlan,
        _P2MGroup,
        _FarChunk,
        _FarGroup,
        _L2PGroup,
        _FarUnit,
    ]
    return {c.__name__: c for c in classes}


def _encode(obj, arrays: list, ids: dict, registry: dict):
    """Encode a Python object graph as a JSON-able tree.

    ``ndarray``s are appended to ``arrays`` (deduplicated by memory
    address and layout, so aliases — including the views a
    ``scipy.sparse`` matrix keeps of its index arrays — restore as one
    shared buffer) and referenced by index; ``scipy.sparse`` matrices
    store their format, shape and arrays; registered objects carry
    their class name plus encoded attributes; containers recurse.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if np.isfinite(obj):
            return obj
        return {"__f__": repr(obj)}
    if isinstance(obj, np.ndarray):
        key = (
            obj.__array_interface__["data"][0],
            obj.shape,
            obj.strides,
            obj.dtype.str,
        )
        idx = ids.get(key)
        if idx is None:
            idx = len(arrays)
            arrays.append(obj)
            ids[key] = idx
        return {"__a__": idx}
    if isinstance(obj, np.dtype):
        return {"__dt__": obj.str}
    if isinstance(obj, type) and issubclass(obj, np.generic):
        return {"__nt__": obj.__name__}
    if isinstance(obj, np.generic):
        return {"__np__": np.dtype(type(obj)).str, "v": obj.item()}
    if isinstance(obj, tuple):
        return {"__tu__": [_encode(v, arrays, ids, registry) for v in obj]}
    if isinstance(obj, list):
        return [_encode(v, arrays, ids, registry) for v in obj]
    if isinstance(obj, dict):
        return {
            "__d__": [
                [
                    _encode(k, arrays, ids, registry),
                    _encode(v, arrays, ids, registry),
                ]
                for k, v in obj.items()
            ]
        }
    if sp.issparse(obj):
        return {
            "__sp__": {
                "format": obj.format,
                "shape": list(obj.shape),
                "data": _encode(obj.data, arrays, ids, registry),
                "indices": _encode(obj.indices, arrays, ids, registry),
                "indptr": _encode(obj.indptr, arrays, ids, registry),
            }
        }
    cname = type(obj).__name__
    cls = registry.get(cname)
    if cls is None or type(obj) is not cls:
        raise TypeError(
            f"cannot serialize {type(obj)!r}: not a registered plan-store type"
        )
    return {
        "__o__": cname,
        "f": {
            k: _encode(v, arrays, ids, registry) for k, v in vars(obj).items()
        },
    }


def _decode(node, arrays: list, registry: dict):
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    if isinstance(node, list):
        return [_decode(v, arrays, registry) for v in node]
    if "__f__" in node:
        return float(node["__f__"])
    if "__a__" in node:
        return arrays[node["__a__"]]
    if "__dt__" in node:
        return np.dtype(node["__dt__"])
    if "__nt__" in node:
        return getattr(np, node["__nt__"])
    if "__np__" in node:
        return np.dtype(node["__np__"]).type(node["v"])
    if "__tu__" in node:
        return tuple(_decode(v, arrays, registry) for v in node["__tu__"])
    if "__d__" in node:
        return {
            _decode(k, arrays, registry): _decode(v, arrays, registry)
            for k, v in node["__d__"]
        }
    if "__sp__" in node:
        m = node["__sp__"]
        cls = {"bsr": sp.bsr_matrix, "csr": sp.csr_matrix}.get(m["format"])
        if cls is None:
            raise PlanStoreError("corrupt", f"unknown sparse format {m['format']!r}")
        parts = tuple(
            _decode(m[k], arrays, registry) for k in ("data", "indices", "indptr")
        )
        return cls(parts, shape=tuple(m["shape"]), copy=False)
    if "__o__" in node:
        cls = registry.get(node["__o__"])
        if cls is None:
            raise PlanStoreError("corrupt", f"unknown type {node['__o__']!r}")
        obj = cls.__new__(cls)
        for k, v in node["f"].items():
            # object.__setattr__: frozen dataclasses forbid plain setattr
            object.__setattr__(obj, k, _decode(v, arrays, registry))
        return obj
    raise PlanStoreError("corrupt", f"unknown node {sorted(node)!r}")


# ---------------------------------------------------------------------------
# container I/O
# ---------------------------------------------------------------------------


def _pad(n: int) -> int:
    return (-n) % _ALIGN


def save_pytree(obj, path, digest: str = "", kind: str = "plan") -> int:
    """Serialize an object graph to ``path``; returns bytes written.

    The write is atomic (temp file + rename), so a concurrent reader
    never observes a half-written plan.
    """
    registry = _registry()
    arrays: list[np.ndarray] = []
    root = _encode(obj, arrays, {}, registry)
    segs = []
    off = 0  # relative to the segment base; rebased after the header
    for a in arrays:
        c = np.ascontiguousarray(a)
        segs.append(c)
        off += _pad(off)
        off += c.nbytes
    # two-pass header: the array table needs absolute offsets, which
    # depend on the header's own length — iterate until stable
    meta = {
        "format": STORE_FORMAT_VERSION,
        "library": _library_version(),
        "digest": digest,
        "kind": kind,
        "root": root,
    }
    hdr_len = 0
    for _ in range(4):
        base = len(_MAGIC) + 4 + 8 + hdr_len
        base += _pad(base)
        table = []
        off = base
        for c in segs:
            off += _pad(off)
            table.append(
                {"o": off, "n": c.nbytes, "d": c.dtype.str, "s": list(c.shape)}
            )
            off += c.nbytes
        meta["arrays"] = table
        meta["total_bytes"] = off
        hdr = json.dumps(meta, separators=(",", ":")).encode("utf-8")
        if len(hdr) == hdr_len:
            break
        hdr_len = len(hdr)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(_MAGIC)
            f.write(np.uint32(STORE_FORMAT_VERSION).tobytes())
            f.write(np.uint64(len(hdr)).tobytes())
            f.write(hdr)
            pos = len(_MAGIC) + 4 + 8 + len(hdr)
            f.write(b"\x00" * _pad(pos))
            pos += _pad(pos)
            for c, t in zip(segs, table):
                f.write(b"\x00" * (t["o"] - pos))
                f.write(c.tobytes())
                pos = t["o"] + t["n"]
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return meta["total_bytes"]


def load_pytree(path, expected_digest: str | None = None):
    """Restore an object graph saved by :func:`save_pytree`.

    Every array in the result is a read-only zero-copy view into one
    ``np.memmap`` of the file.  Raises :class:`PlanStoreError` on any
    structural problem (see the class docstring for reasons).
    """
    path = Path(path)
    if not path.is_file():
        raise PlanStoreError("absent", str(path))
    try:
        mm = np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError) as e:
        raise PlanStoreError("corrupt", str(e)) from e
    prefix = len(_MAGIC) + 4 + 8
    if mm.size < prefix or bytes(mm[: len(_MAGIC)]) != _MAGIC:
        raise PlanStoreError("corrupt", "bad magic")
    fmt = int(np.frombuffer(mm, dtype=np.uint32, count=1, offset=len(_MAGIC))[0])
    if fmt != STORE_FORMAT_VERSION:
        raise PlanStoreError("version", f"format {fmt} != {STORE_FORMAT_VERSION}")
    hdr_len = int(
        np.frombuffer(mm, dtype=np.uint64, count=1, offset=len(_MAGIC) + 4)[0]
    )
    if mm.size < prefix + hdr_len:
        raise PlanStoreError("truncated", "header extends past end of file")
    try:
        meta = json.loads(bytes(mm[prefix : prefix + hdr_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise PlanStoreError("corrupt", f"header: {e}") from e
    if meta.get("library") != _library_version():
        raise PlanStoreError(
            "version",
            f"written by {meta.get('library')}, running {_library_version()}",
        )
    if expected_digest is not None and meta.get("digest") != expected_digest:
        raise PlanStoreError("stale", "content digest mismatch")
    if mm.size < meta.get("total_bytes", 0):
        raise PlanStoreError(
            "truncated", f"{mm.size} bytes on disk, header promises {meta['total_bytes']}"
        )
    arrays = []
    for t in meta["arrays"]:
        dt = np.dtype(t["d"])
        if t["o"] + t["n"] > mm.size:
            raise PlanStoreError("truncated", "segment extends past end of file")
        count = t["n"] // dt.itemsize
        a = np.frombuffer(mm, dtype=dt, count=count, offset=t["o"]).reshape(t["s"])
        arrays.append(a)
    return _decode(meta["root"], arrays, _registry())


def save_plan(plan, path, digest: str = "") -> int:
    """Persist a compiled plan (target-major or cluster) to ``path``."""
    return save_pytree(plan, path, digest=digest, kind="plan")


def load_plan(path, expected_digest: str | None = None):
    """Load a compiled plan saved by :func:`save_plan` (zero-copy)."""
    return load_pytree(path, expected_digest=expected_digest)


# ---------------------------------------------------------------------------
# content digests
# ---------------------------------------------------------------------------


def _library_version() -> str:
    from .. import __version__

    return __version__


def content_digest(meta: dict, arrays: list) -> str:
    """SHA-256 over a canonical encoding of scalar metadata + arrays."""
    h = hashlib.sha256()
    h.update(b"repro-plan-store|")
    h.update(_library_version().encode())
    h.update(b"|")
    h.update(str(STORE_FORMAT_VERSION).encode())
    h.update(json.dumps(meta, sort_keys=True, default=str).encode("utf-8"))
    for a in arrays:
        if a is None:
            h.update(b"<none>")
            continue
        c = np.ascontiguousarray(a)
        h.update(c.dtype.str.encode())
        h.update(str(c.shape).encode())
        h.update(c.tobytes())
    return h.hexdigest()


def plan_digest(
    tc,
    tgt,
    self_targets: bool,
    compute: str,
    accumulate_bounds: bool,
    memory_budget: int,
    mode: str,
    n_units,
    tol,
) -> str:
    """Cache key for one ``compile_plan`` invocation.

    Covers every input the compiler is a pure function of: the
    Morton-sorted points *and charges* (degree policies and
    variable-order selection anchor on the charges held at compile
    time), the policy class and parameters, geometric knobs, the full
    plan configuration, and the library version (via
    :func:`content_digest`).
    """
    tree = tc.tree
    policy = tc.degree_policy
    meta = {
        "policy": type(policy).__name__,
        "policy_fields": {k: v for k, v in sorted(vars(policy).items())},
        "alpha": tc.alpha,
        "softening": tc.softening,
        "leaf_size": int(tree.leaf_size),
        # a cluster plan on a Treecode(leaf_size=None) chooses its cut
        # level; an explicit leaf size pins the full tree
        "cut": (
            None if mode != "cluster" else
            "pinned" if tc.leaf_size is not None else "chosen"
        ),
        "expansion_center": tree.expansion_center,
        "mode": mode,
        "compute": compute,
        "accumulate_bounds": bool(accumulate_bounds),
        "memory_budget": int(memory_budget),
        "n_units": None if n_units is None else int(n_units),
        "tol": None if tol is None else float(tol),
        "self_targets": bool(self_targets),
    }
    arrays = [tree.points, tree.charges]
    if not self_targets:
        arrays.append(np.asarray(tgt, dtype=np.float64))
    return content_digest(meta, arrays)


# ---------------------------------------------------------------------------
# cache front-end
# ---------------------------------------------------------------------------


def resolve_cache_dir(cache_dir=None) -> Path | None:
    """Explicit ``cache_dir`` wins; ``None`` falls back to the
    ``REPRO_PLAN_CACHE`` environment variable; empty disables."""
    if cache_dir is not None:
        return Path(cache_dir) if str(cache_dir) else None
    env = os.environ.get(ENV_PLAN_CACHE, "")
    return Path(env) if env else None


def cached_plan(cache_dir, digest: str, compile_fn, kind: str = "plan"):
    """Load the plan stored under ``digest`` from ``cache_dir``, or
    compile and store it.

    Misses never fail the computation: any load or store problem falls
    back to ``compile_fn()`` (counted by reason in
    ``plan_cache_misses``; unwritable cache directories are ignored).
    """
    cache_dir = Path(cache_dir)
    path = cache_dir / f"{digest}.plan"
    try:
        with stopwatch("plan.cache_load", kind=kind) as sw:
            obj = load_pytree(path, expected_digest=digest)
        emit(
            "plan_cache.hit", kind=kind, digest=digest, path=str(path),
            load_s=float(sw.elapsed),
        )
        return obj
    except PlanStoreError as e:
        emit("plan_cache.miss", kind=kind, digest=digest, reason=e.reason)
    obj = compile_fn()
    try:
        nbytes = save_plan(obj, path, digest=digest)
        emit(
            "plan_cache.store", kind=kind, digest=digest, path=str(path),
            bytes=int(nbytes),
        )
    except (OSError, TypeError) as e:
        emit("plan_cache.store_failed", kind=kind, digest=digest, error=str(e))
    return obj
