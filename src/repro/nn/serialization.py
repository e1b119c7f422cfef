"""Model checkpoint serialization to ``.npz`` files.

A production library needs durable checkpoints; this stores a module's
:meth:`~repro.nn.module.Module.state_dict` (name → ndarray) plus optional
metadata in a single compressed numpy archive.

Checkpoints are arena-transparent: ``state_dict`` copies values out of any
:class:`~repro.nn.arena.ParameterArena` views, and ``load_state_dict``
writes restored values *through* packed parameters' views (never rebinding
them), so a save/load round-trip survives packing — the restored model keeps
its contiguous buffers and every optimizer flat path stays valid.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .module import Module

__all__ = ["atomic_write", "save_checkpoint", "load_checkpoint", "load_state"]

_META_KEY = "__checkpoint_meta__"


def atomic_write(path, write: Callable[[BinaryIO], None]) -> Path:
    """Create or replace ``path`` with the bytes ``write(fh)`` emits, crash-safely.

    ``write`` fills a same-directory temp file that is fsynced, then renamed
    over ``path``, so a crash never leaves a torn file under the final name;
    on any error the temp file is removed and the error re-raised.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def save_checkpoint(model: Module, path, metadata: dict | None = None) -> Path:
    """Write the model's parameters (and JSON-serializable metadata) to ``path``.

    Crash-safe through :func:`atomic_write`: a crash mid-write leaves any
    previous checkpoint intact and never a torn file under the final name.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    state = model.state_dict()
    if _META_KEY in state:
        raise ValueError(f"parameter name collides with reserved key {_META_KEY!r}")
    payload = dict(state)
    payload[_META_KEY] = np.frombuffer(
        json.dumps(metadata or {}).encode("utf-8"), dtype=np.uint8
    )
    return atomic_write(path, lambda fh: np.savez_compressed(fh, **payload))


def load_state(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint file; returns ``(state_dict, metadata)``."""
    with np.load(Path(path)) as archive:
        metadata = {}
        state = {}
        for key in archive.files:
            if key == _META_KEY:
                metadata = json.loads(archive[key].tobytes().decode("utf-8"))
            else:
                state[key] = archive[key]
    return state, metadata


def load_checkpoint(model: Module, path) -> dict:
    """Restore a model in place from ``path``; returns the stored metadata."""
    state, metadata = load_state(path)
    model.load_state_dict(state)
    return metadata
