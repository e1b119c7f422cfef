"""Write-once ``np.memmap`` shard cache with a validated binary header.

Each cached shard is one file keyed by ``(cache_key, seed, shard_index)``
so repeated epochs and repeated benchmark runs pay generation cost once.

File format (little-endian)::

    bytes 0..8    MAGIC  b"RSHARD01"  (version is part of the magic)
    bytes 8..16   header length H as uint64
    bytes 16..16+H  JSON header (utf-8):
        {"version": 1, "key": ..., "seed": ..., "shard": ...,
         "inputs": <structure spec>, "targets": <structure spec>,
         "arrays": [{"dtype": "<f8", "shape": [...],
                     "offset": ..., "nbytes": ...}, ...],
         "payload_bytes": ...}
    bytes 16+H..  raw array payload (C-order, concatenated)

Structure specs record how the flat array list reassembles into the
``(inputs, targets)`` pair: ``{"kind": "array", "index": i}``,
``{"kind": "tuple", "indices": [...]}`` or
``{"kind": "mapping", "names": [...], "indices": [...]}``.

Robustness contract (the satellite bugfix): a cache file is *never*
silently trusted.  ``load`` validates magic, version, key/seed/shard
match, header integrity, and that every array's ``offset + nbytes`` fits
the actual file size — any mismatch (torn write, truncation, stale
schema, hash collision) returns ``None`` and best-effort deletes the
file so the caller regenerates and rewrites it.  Writes are atomic
(:func:`repro.nn.serialization.atomic_write`): payload goes to a
same-directory temp file, is flushed + fsynced, then ``os.replace``d into
place — a writer killed mid-flush leaves only a temp file that no reader
ever opens.

Loaded arrays are read-only ``np.memmap`` views, so a "loaded" shard
costs address space, not resident memory, until its pages are touched —
and fancy-indexed batches copy out of it just like a normal ndarray.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from ..nn.serialization import atomic_write

__all__ = ["ShardCache", "MAGIC", "CACHE_VERSION"]

MAGIC = b"RSHARD01"
CACHE_VERSION = 1
_HEADER_LEN_FMT = "<Q"
_HEADER_LEN_SIZE = struct.calcsize(_HEADER_LEN_FMT)
#: Upper bound on the JSON header; anything larger is corrupt.
_MAX_HEADER_BYTES = 1 << 20


def _flatten(struct_value, arrays: list[np.ndarray]) -> dict:
    """Append the structure's arrays to ``arrays``; return its spec."""
    if isinstance(struct_value, tuple):
        indices = []
        for part in struct_value:
            indices.append(len(arrays))
            arrays.append(np.ascontiguousarray(part))
        return {"kind": "tuple", "indices": indices}
    if isinstance(struct_value, Mapping):
        names, indices = [], []
        for name in struct_value:
            names.append(str(name))
            indices.append(len(arrays))
            arrays.append(np.ascontiguousarray(struct_value[name]))
        return {"kind": "mapping", "names": names, "indices": indices}
    index = len(arrays)
    arrays.append(np.ascontiguousarray(struct_value))
    return {"kind": "array", "index": index}


def _reassemble(spec: dict, arrays: list[np.ndarray]):
    kind = spec["kind"]
    if kind == "tuple":
        return tuple(arrays[i] for i in spec["indices"])
    if kind == "mapping":
        return {name: arrays[i] for name, i in zip(spec["names"], spec["indices"])}
    if kind == "array":
        return arrays[spec["index"]]
    raise ValueError(f"unknown structure kind {kind!r}")


class ShardCache:
    """Filesystem cache of generated shards under one directory.

    Safe across threads and processes by construction: files are written once via
    atomic rename, and concurrent writers for the same key produce
    byte-identical content (shards are pure functions of
    ``(seed, shard)``), so whichever rename lands last changes nothing.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str, seed: int, index: int) -> Path:
        """Cache file path for one ``(cache_key, seed, shard)`` triple."""
        digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]
        return self.directory / f"{digest}_s{int(seed)}_{int(index):06d}.shard"

    # -- read ------------------------------------------------------------
    def load(self, key: str, seed: int, index: int):
        """Return ``(inputs, targets)`` memmap views, or ``None``.

        ``None`` means "not cached or not trustworthy" — the caller
        regenerates.  Invalid files are deleted so the rewrite path runs.
        """
        path = self.path_for(key, seed, index)
        try:
            return self._read(path, key, seed, index)
        except (OSError, ValueError, KeyError, json.JSONDecodeError, struct.error):
            self._discard(path)
            return None

    def _read(self, path: Path, key: str, seed: int, index: int):
        file_size = path.stat().st_size
        with path.open("rb") as fh:
            prefix = fh.read(len(MAGIC) + _HEADER_LEN_SIZE)
            if len(prefix) != len(MAGIC) + _HEADER_LEN_SIZE:
                raise ValueError("truncated prefix")
            if prefix[: len(MAGIC)] != MAGIC:
                raise ValueError("bad magic")
            (header_len,) = struct.unpack(_HEADER_LEN_FMT, prefix[len(MAGIC) :])
            if not 0 < header_len <= _MAX_HEADER_BYTES:
                raise ValueError("implausible header length")
            header_bytes = fh.read(header_len)
            if len(header_bytes) != header_len:
                raise ValueError("truncated header")
        header = json.loads(header_bytes.decode("utf-8"))
        if header["version"] != CACHE_VERSION:
            raise ValueError("version mismatch")
        if (
            header["key"] != key
            or int(header["seed"]) != int(seed)
            or int(header["shard"]) != int(index)
        ):
            raise ValueError("identity mismatch")
        payload_start = len(MAGIC) + _HEADER_LEN_SIZE + header_len
        if file_size != payload_start + int(header["payload_bytes"]):
            raise ValueError("payload size mismatch")
        arrays: list[np.ndarray] = []
        for entry in header["arrays"]:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(dim) for dim in entry["shape"])
            nbytes = int(entry["nbytes"])
            offset = payload_start + int(entry["offset"])
            expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            if nbytes != expected or offset + nbytes > file_size:
                raise ValueError("array descriptor out of bounds")
            arrays.append(
                np.memmap(path, mode="r", dtype=dtype, shape=shape, offset=offset)
            )
        return (
            _reassemble(header["inputs"], arrays),
            _reassemble(header["targets"], arrays),
        )

    # -- write -----------------------------------------------------------
    def store(self, key: str, seed: int, index: int, inputs, targets) -> Path:
        """Write the shard (write-once: an existing valid file is kept)."""
        path = self.path_for(key, seed, index)
        if path.exists():
            return path
        return atomic_write(
            path, lambda fh: self._write_to(fh, key, seed, index, inputs, targets)
        )

    @staticmethod
    def _write_to(fh, key: str, seed: int, index: int, inputs, targets) -> None:
        """Serialize one shard to an open binary file (no atomicity).

        Split out so the torn-write test can kill a process midway
        through this exact code path against a final-named file.
        """
        arrays: list[np.ndarray] = []
        inputs_spec = _flatten(inputs, arrays)
        targets_spec = _flatten(targets, arrays)
        entries, offset = [], 0
        for arr in arrays:
            entries.append(
                {
                    "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                    "offset": offset,
                    "nbytes": int(arr.nbytes),
                }
            )
            offset += int(arr.nbytes)
        header = json.dumps(
            {
                "version": CACHE_VERSION,
                "key": key,
                "seed": int(seed),
                "shard": int(index),
                "inputs": inputs_spec,
                "targets": targets_spec,
                "arrays": entries,
                "payload_bytes": offset,
            }
        ).encode("utf-8")
        fh.write(MAGIC)
        fh.write(struct.pack(_HEADER_LEN_FMT, len(header)))
        fh.write(header)
        for arr in arrays:
            fh.write(arr.tobytes())

    # -- maintenance -----------------------------------------------------
    def discard(self, key: str, seed: int, index: int) -> None:
        """Drop one cached shard so the next load regenerates it.

        For callers that detect a structurally valid but semantically
        wrong entry (e.g. a row count that no longer matches the source's
        shard layout because the cache key under-specified the
        distribution).
        """
        self._discard(self.path_for(key, seed, index))

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
