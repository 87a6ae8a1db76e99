"""The rectangular bucket: the unit of on-disk storage (Section 2.8).

"Within a node an array partition is divided into variable size rectangular
buckets."  A bucket covers an axis-aligned box of cells; it stores a dense
state mask plus one value plane per attribute, each independently
compressed by a chosen codec.  Buckets serialise to a small self-describing
binary image (magic + pickled header + codec payloads) written to one file
each by the storage manager.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Optional, Sequence

import numpy as np

from ..core.array import Chunk
from ..core.cells import CellState
from ..core.errors import StorageError
from ..core.schema import ArraySchema
from .compression import Codec, best_codec, get_codec

__all__ = ["Bucket"]

Coords = tuple[int, ...]

_MAGIC = b"SBKT1\n"


class Bucket:
    """A compressed rectangular slab of one array's cells."""

    def __init__(
        self,
        schema: ArraySchema,
        origin: Coords,
        shape: tuple[int, ...],
        state: np.ndarray,
        data: dict[str, np.ndarray],
    ) -> None:
        self.schema = schema
        self.origin = tuple(int(c) for c in origin)
        self.shape = tuple(int(s) for s in shape)
        self.state = state
        self.data = data

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_cells(
        cls,
        schema: ArraySchema,
        cells: Sequence[tuple[Coords, Optional[tuple]]],
    ) -> "Bucket":
        """Build the tightest bucket containing *cells*.

        Each element is ``(coords, values_tuple_or_None)`` — ``None`` for a
        NULL cell.
        """
        if not cells:
            raise StorageError("cannot build a bucket from no cells")
        ndim = len(cells[0][0])
        lo = tuple(min(c[d] for c, _ in cells) for d in range(ndim))
        hi = tuple(max(c[d] for c, _ in cells) for d in range(ndim))
        shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        planes = Chunk(lo, shape, schema.attributes)
        state, data = planes.state, planes.data
        for coords, values in cells:
            off = tuple(c - l for c, l in zip(coords, lo))
            if values is None:
                state[off] = CellState.NULL
                continue
            state[off] = CellState.PRESENT
            for attr, v in zip(schema.attributes, values):
                data[attr.name][off] = v
        return cls(schema, lo, shape, state, data)

    # -- geometry / stats ---------------------------------------------------------

    @property
    def box(self) -> tuple[Coords, Coords]:
        hi = tuple(o + s - 1 for o, s in zip(self.origin, self.shape))
        return self.origin, hi

    @property
    def cell_count(self) -> int:
        return int(np.count_nonzero(self.state != CellState.EMPTY))

    @property
    def volume(self) -> int:
        return int(np.prod(self.shape))

    @property
    def occupancy(self) -> float:
        return self.cell_count / self.volume if self.volume else 0.0

    @property
    def nbytes(self) -> int:
        """Approximate decoded size in memory (cache accounting)."""
        return int(self.state.nbytes) + sum(
            int(plane.nbytes) for plane in self.data.values()
        )

    def slab(
        self, window: Optional[tuple[Coords, Coords]] = None
    ) -> Optional[tuple[Coords, np.ndarray, dict[str, np.ndarray]]]:
        """The bucket's state and value planes cut to *window* (inclusive),
        as ``(origin, state, data)`` views; ``None`` when they are disjoint.

        The read path pastes slabs into chunks with numpy, so a small
        window over a large bucket pays for the cells it returns, not the
        whole slab.
        """
        if window is None:
            return self.origin, self.state, self.data
        lo, hi = window
        start = tuple(max(0, l - o) for l, o in zip(lo, self.origin))
        stop = tuple(
            min(s - 1, h - o) for h, o, s in zip(hi, self.origin, self.shape)
        )
        if any(a > b for a, b in zip(start, stop)):
            return None
        sel = tuple(slice(a, b + 1) for a, b in zip(start, stop))
        origin = tuple(o + a for o, a in zip(self.origin, start))
        return origin, self.state[sel], {n: p[sel] for n, p in self.data.items()}

    def merge(self, other: "Bucket") -> "Bucket":
        """Combine two buckets of the same array into one covering both
        (the Vertica-style background-merge primitive); where both hold a
        cell, *other*'s wins."""
        if other.schema.attr_names != self.schema.attr_names:
            raise StorageError("cannot merge buckets of different schemas")
        lo = tuple(map(min, self.box[0], other.box[0]))
        hi = tuple(map(max, self.box[1], other.box[1]))
        shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        planes = Chunk(lo, shape, self.schema.attributes)
        state, data = planes.state, planes.data
        for part in (self, other):
            sel = tuple(
                slice(o - l, o - l + s)
                for o, l, s in zip(part.origin, lo, part.shape)
            )
            occupied = part.state != CellState.EMPTY
            state[sel][occupied] = part.state[occupied]
            for n, plane in part.data.items():
                data[n][sel][occupied] = plane[occupied]
        return Bucket(self.schema, lo, shape, state, data)

    # -- serialisation --------------------------------------------------------------

    def to_bytes(self, codec: "str | Codec" = "auto") -> bytes:
        """Serialise; ``codec='auto'`` picks per-attribute via best_codec."""
        planes: list[bytes] = []
        plane_meta: list[dict[str, Any]] = []

        def encode_plane(name: str, arr: np.ndarray) -> None:
            if codec == "auto":
                chosen = best_codec(arr)
            elif isinstance(codec, Codec):
                chosen = codec
            else:
                chosen = get_codec(codec)
            payload = chosen.encode(arr)
            planes.append(payload)
            plane_meta.append(
                {
                    "name": name,
                    "codec": chosen.name,
                    "dtype": "object" if arr.dtype == object else arr.dtype.str,
                    "nbytes": len(payload),
                }
            )

        encode_plane("__state__", self.state)
        for attr in self.schema.attributes:
            encode_plane(attr.name, self.data[attr.name])

        header = pickle.dumps(
            {
                "origin": self.origin,
                "shape": self.shape,
                "attrs": [a.name for a in self.schema.attributes],
                "planes": plane_meta,
            },
            protocol=4,
        )
        out = bytearray()
        out += _MAGIC
        out += struct.pack("<I", len(header))
        out += header
        for p in planes:
            out += p
        return bytes(out)

    @classmethod
    def from_bytes(cls, schema: ArraySchema, payload: bytes) -> "Bucket":
        if payload[: len(_MAGIC)] != _MAGIC:
            raise StorageError("not a bucket image (bad magic)")
        off = len(_MAGIC)
        (hlen,) = struct.unpack_from("<I", payload, off)
        off += 4
        header = pickle.loads(payload[off : off + hlen])
        off += hlen
        shape = tuple(header["shape"])
        state: Optional[np.ndarray] = None
        data: dict[str, np.ndarray] = {}
        for meta in header["planes"]:
            blob = payload[off : off + meta["nbytes"]]
            off += meta["nbytes"]
            codec = get_codec(meta["codec"])
            dtype = np.dtype(object) if meta["dtype"] == "object" else np.dtype(meta["dtype"])
            plane = codec.decode(blob, dtype, shape)
            if meta["name"] == "__state__":
                state = plane.astype(np.uint8)
            else:
                data[meta["name"]] = plane
        if state is None:
            raise StorageError("bucket image missing state plane")
        missing = set(schema.attr_names) - set(data)
        if missing:
            raise StorageError(f"bucket image missing attributes {sorted(missing)}")
        return cls(schema, tuple(header["origin"]), shape, state, data)

    def __repr__(self) -> str:
        return (
            f"<Bucket origin={self.origin} shape={self.shape} "
            f"{self.cell_count}/{self.volume} cells>"
        )
