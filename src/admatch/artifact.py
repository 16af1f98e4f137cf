"""One checked framing for the binary artifacts (vector index, ad parts, checkpoint).

A file is: magic (8 bytes) | format version (u32) | raw little-endian
arrays, the first holding the header ints | ids as u32 length + UTF-8
bytes | crc32 of everything before it (u32). ``Reader`` checks magic,
version and checksum, and the remaining length before every array or id
it takes, so a damaged or foreign file raises ``ArtifactError`` naming
the file.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path
from typing import Sequence

import numpy as np


class ArtifactError(ValueError):
    """A binary artifact is truncated, corrupted, or of another format."""


def write(
    path: str | Path,
    magic: bytes,
    version: int,
    arrays: Sequence[np.ndarray],
    ids: Sequence[str],
) -> None:
    # arrays go out through the buffer protocol, without a bytes copy
    chunks = [magic, struct.pack("<I", version)]
    chunks += [np.ascontiguousarray(a, a.dtype.newbyteorder("<")) for a in arrays]
    for raw in (ad_id.encode("utf-8") for ad_id in ids):
        chunks += [struct.pack("<I", len(raw)), raw]
    crc = 0
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
        fh.write(struct.pack("<I", crc))


class Reader:
    """Checked reads of a file framed by ``write``, in the order written; a
    file of another version fails naming ``remedy``, the way to remake it."""

    def __init__(
        self, path: str | Path, magic: bytes, version: int, kind: str, remedy: str
    ) -> None:
        self._path = path
        self._data = Path(path).read_bytes()
        self._pos, self._end = 8, len(self._data) - 4  # the crc32 trailer
        if self._data[:8] != magic:
            raise self.error(f"not an admatch {kind} file (magic {self._data[:8]!r})")
        (found,) = struct.unpack_from("<I", self._data, self._take(4))
        if found != version:
            raise self.error(f"{kind} format version {found}, not {version}: {remedy}")
        if zlib.crc32(self._data[: self._end]) != int.from_bytes(self._data[-4:], "little"):
            raise self.error("checksum mismatch: the file is corrupted")

    def error(self, message: str) -> ArtifactError:
        """The error naming the file, also for checks callers make on its contents."""
        return ArtifactError(f"{self._path}: {message}")

    def _take(self, n: int) -> int:
        """Claim the next ``n`` bytes; returns their offset."""
        if n > self._end - self._pos:
            raise self.error(f"truncated: {n} bytes needed at offset {self._pos}")
        self._pos += n
        return self._pos - n

    def array(self, dtype: str | type, shape: tuple[int, ...]) -> np.ndarray:
        dtype, count = np.dtype(dtype), math.prod(shape)
        start = self._take(dtype.itemsize * count)
        return np.frombuffer(self._data, dtype, count, start).reshape(shape).copy()

    def ids(self, count: int) -> list[str]:
        out = []
        for _ in range(count):
            (length,) = struct.unpack_from("<I", self._data, self._take(4))
            start = self._take(length)
            out.append(self._data[start : start + length].decode("utf-8"))
        return out
