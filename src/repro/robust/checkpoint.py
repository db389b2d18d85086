"""Atomic JSON checkpoints for long-running experiment drivers.

A geometry sweep (``python -m repro table3``) or an ablation can run for
a long time at full scale; an interruption — SIGINT, OOM kill, a fault
the retry layer could not absorb — should cost only the step in flight,
not the whole sweep.  The unit of durability is one completed *step*
(a table3 geometry block, one ablation row): after each step the driver
stores its JSON-serializable payload under a string key, and a resumed
run replays stored payloads instead of recomputing them, making the
resumed output byte-identical to what the interrupted run had already
produced.

Write protocol: serialize to a sibling temp file, ``fsync``, then
``os.replace`` — the checkpoint on disk is always a complete, valid
JSON document, never a torn write.  Each file carries a ``meta``
fingerprint (experiment parameters, seed, scale); loading a checkpoint
whose fingerprint disagrees with the current run raises
:class:`CheckpointMismatch` rather than silently mixing results from
different configurations.

Resumes and writes are ``checkpoint_resume`` / ``checkpoint_write``
events (counted in ``checkpoint_rows_resumed`` /
``checkpoint_rows_written``), and a resume opens a ``robust.resume`` span,
so ``python -m repro profile`` shows what a resumed run skipped.
"""

from __future__ import annotations

import json
import os
import tempfile

from ..obs import emit
from ..obs.tracing import span

__all__ = ["Checkpoint", "CheckpointMismatch", "cached_step"]

_FORMAT_VERSION = 1


class CheckpointMismatch(RuntimeError):
    """Existing checkpoint was written by an incompatible run."""


class Checkpoint:
    """Keyed store of completed-step payloads in one atomic JSON file.

    Parameters
    ----------
    path:
        Checkpoint file location; created on the first save.
    meta:
        Fingerprint of the run configuration.  If the file already
        exists its stored fingerprint must match exactly, else
        :class:`CheckpointMismatch` is raised (pass the same parameters
        to resume, or delete the file to start over).
    """

    def __init__(self, path: str, meta: dict | None = None):
        self.path = str(path)
        self.meta = dict(meta or {})
        self._rows: dict[str, object] = {}
        if os.path.exists(self.path):
            with open(self.path) as fh:
                doc = json.load(fh)
            if doc.get("version") != _FORMAT_VERSION:
                raise CheckpointMismatch(
                    f"{self.path}: unsupported checkpoint version "
                    f"{doc.get('version')!r}"
                )
            stored = doc.get("meta", {})
            if stored != self.meta:
                raise CheckpointMismatch(
                    f"{self.path}: checkpoint fingerprint {stored!r} does not "
                    f"match this run {self.meta!r}; delete the file to restart"
                )
            self._rows = dict(doc.get("rows", {}))

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def keys(self) -> list[str]:
        return list(self._rows)

    def get(self, key: str):
        """The stored payload for a completed step (KeyError if absent)."""
        return self._rows[key]

    def save(self, key: str, payload) -> None:
        """Record a completed step and atomically rewrite the file."""
        self._rows[key] = payload
        self._flush()
        emit("checkpoint_write", path=self.path, key=key, rows=len(self._rows))

    def _flush(self) -> None:
        doc = {"version": _FORMAT_VERSION, "meta": self.meta, "rows": self._rows}
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(self.path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def clear(self) -> None:
        """Forget all steps and delete the file."""
        self._rows.clear()
        if os.path.exists(self.path):
            os.unlink(self.path)


def cached_step(checkpoint: Checkpoint | None, key: str, fn):
    """Run one resumable step: replay ``key`` from the checkpoint if
    present, else compute ``fn()`` and persist it.  With no checkpoint
    this is just ``fn()``."""
    if checkpoint is not None and key in checkpoint:
        emit("checkpoint_resume", path=checkpoint.path, key=key)
        with span("robust.resume", key=key):
            return checkpoint.get(key)
    value = fn()
    if checkpoint is not None:
        checkpoint.save(key, value)
    return value
