"""Named float64 parameter sets and their binary serialisation.

Checkpoint block layout (all integers little-endian, arrays C-order float64
little-endian, arrays sorted by name so equal content gives equal bytes):

    magic   4 bytes  b"SLP1"
    version u64      monotonically increasing update counter
    count   u32      number of arrays
    then per array:
        name_len u16, name utf-8 bytes
        ndim     u8,  dims u64 * ndim
        data     float64 * prod(dims)
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"SLP1"


@dataclass
class ParamSet:
    """A dictionary of named float64 arrays plus a version counter.

    Every in-place update must go through bump_version() so that stale
    target copies and checkpoints can be told apart.
    """

    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    version: int = 0

    def __post_init__(self):
        self.arrays = {k: np.asarray(v, dtype=np.float64) for k, v in self.arrays.items()}

    def bump_version(self) -> None:
        self.version += 1

    def copy(self) -> "ParamSet":
        return ParamSet({k: v.copy() for k, v in self.arrays.items()}, self.version)

    def copy_from(self, other: "ParamSet") -> None:
        """Overwrite values in place (used for target-network syncs)."""
        if set(self.arrays) != set(other.arrays):
            raise KeyError("parameter names do not match")
        for k, v in other.arrays.items():
            np.copyto(self.arrays[k], v)
        self.bump_version()

    def write_block(self, fh) -> None:
        fh.write(MAGIC)
        fh.write(struct.pack("<QI", self.version, len(self.arrays)))
        for name in sorted(self.arrays):
            arr = np.ascontiguousarray(self.arrays[name], dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes(order="C"))

    @classmethod
    def read_block(cls, fh) -> "ParamSet":
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"bad parameter block magic {magic!r}")
        version, count = struct.unpack("<QI", _read_exact(fh, 12))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
            name = _read_exact(fh, name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1))
            shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim)) if ndim else ()
            n = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(_read_exact(fh, 8 * n), dtype="<f8").reshape(shape)
            arrays[name] = data.astype(np.float64).copy()
        return cls(arrays, version)


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError("truncated parameter block")
    return data
