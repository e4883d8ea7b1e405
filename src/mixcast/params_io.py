"""Flat binary container for named float64 tensors.

Layout (everything little-endian):

    bytes 0..6   magic  b"MIXPACK"
    byte  7      format version (currently 1)
    uint32       number of entries
    entries      name length (uint16) + UTF-8 name
                 rank (uint8) + extents (uint32 each)
                 payload offset (uint64), relative to payload start
    payload      row-major float64 values, back to back

Entries are written in sorted name order, so serializing the same
parameters twice yields byte-identical files.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import FormatError, reading

MAGIC = b"MIXPACK"
VERSION = 1
_MAX_RANK = 3


def save_params(path, params: Mapping[str, np.ndarray]) -> None:
    """Write named tensors to ``path`` in container format."""
    names = sorted(params)
    index = bytearray()
    payload = bytearray()
    for name in names:
        # asarray, not ascontiguousarray: the latter promotes 0-d to rank 1,
        # and tobytes() emits C order regardless of layout.
        arr = np.asarray(params[name], dtype=np.float64)
        if arr.ndim > _MAX_RANK:
            raise FormatError(f"tensor {name!r} has rank {arr.ndim}, container caps at {_MAX_RANK}")
        raw = name.encode("utf-8")
        index += struct.pack("<H", len(raw)) + raw
        index += struct.pack("<B", arr.ndim)
        index += struct.pack(f"<{arr.ndim}I", *arr.shape)
        index += struct.pack("<Q", len(payload))
        payload += arr.tobytes()
    header = MAGIC + struct.pack("<B", VERSION) + struct.pack("<I", len(names))
    Path(path).write_bytes(bytes(header) + bytes(index) + bytes(payload))


def load_params(path) -> dict[str, np.ndarray]:
    """Read a container written by :func:`save_params`."""
    with reading(path, FormatError):
        blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 5 or blob[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a parameter container (bad magic)")
    pos = len(MAGIC)
    version = blob[pos]
    pos += 1
    if version != VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    (count,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    entries: list[tuple[str, tuple[int, ...], int]] = []
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            name = blob[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<B", blob, pos)
            pos += 1
            if rank > _MAX_RANK:
                raise FormatError(f"{path}: entry {name!r} has rank {rank} above {_MAX_RANK}")
            shape = struct.unpack_from(f"<{rank}I", blob, pos)
            pos += 4 * rank
            (offset,) = struct.unpack_from("<Q", blob, pos)
            pos += 8
            entries.append((name, shape, offset))
    except struct.error as exc:
        raise FormatError(f"{path}: truncated container index") from exc
    except UnicodeDecodeError:
        raise FormatError(f"{path}: entry name at byte {pos} is not valid UTF-8") from None
    # Payloads sit back to back in index order, as save_params writes them,
    # so no entry can overlap another or leave bytes unaccounted for.
    start = pos
    out: dict[str, np.ndarray] = {}
    for name, shape, offset in entries:
        if name in out:
            raise FormatError(f"{path}: duplicate entry {name!r}")
        if pos + offset != start:
            raise FormatError(f"{path}: payload for {name!r} is at offset {offset}, "
                              f"expected {start - pos}")
        stop = start + 8 * (int(np.prod(shape)) if shape else 1)
        if stop > len(blob):
            raise FormatError(f"{path}: payload for {name!r} is truncated")
        out[name] = np.frombuffer(blob[start:stop], dtype="<f8").reshape(shape).copy()
        start = stop
    if start != len(blob):
        raise FormatError(f"{path}: {len(blob) - start} trailing bytes after the last payload")
    return out
