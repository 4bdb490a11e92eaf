"""Host-speed reference: wall time of measured work, in reference seconds.

The benchmark runs on shared machines whose speed drifts by tens of
percent within seconds (frequency changes, neighbours on the same
cores); process CPU time drifts with it, so neither wall nor CPU time
alone repeats from run to run.  A fixed reference kernel -- pure Python
and NumPy, no program code -- is timed at every boundary between pieces
of measured work.  A piece's *reference seconds* are its wall seconds
times the kernel's nominal duration over the mean kernel time measured
just before and just after it.  The same work then reads the same on a
fast or a slow moment of the host, while a slower program still reads
slower: the kernel does not run program code, so no program change can
move it.

There are two kernels, matched to the kind of work they stand in for:
``frames`` (interpreter-bound code and small NumPy calls on 50-byte
buffers, like sealing and parsing wire frames) for the kv and serve
workloads, and ``pages`` (small-buffer calls plus memory-bound NumPy
passes over half a megabyte, like signing 4 KiB pages) for the volume
workload.  Kernel time is never inside a piece, so raw wall times stay
available next to the reference seconds.
"""

from __future__ import annotations

import struct
import time

import numpy as np

_TEXT = bytes(range(256)) * 16
_TABLE = np.arange(65536, dtype=np.uint16)[::-1].copy()
_WORDS = np.random.default_rng(0).integers(0, 65536, 131072).astype(np.uint16)
_BLOB = bytes(1 << 20)


def _interpreter() -> int:
    total = 0
    for index in range(6000):
        record = {"key": index, "value": _TEXT[index % 200:index % 200 + 48]}
        total ^= record["key"] ^ len(record["value"]) ^ record["value"][7]
    for shift in range(80):
        total ^= int(np.bitwise_xor.reduce(_WORDS[:4096] ^ shift))
    return total


def _frames() -> int:
    total = 0
    for index in range(300):
        body = b"".join((struct.pack("<BQII", 1, index, index, 48),
                         _BLOB[:48]))
        symbols = np.frombuffer(body + b"\0" * (len(body) % 2),
                                dtype=np.uint16)
        total ^= int(np.bitwise_xor.reduce(_TABLE[symbols]))
    return total


def _bulk() -> int:
    total = 0
    for shift in range(4):
        total ^= int(np.bitwise_xor.reduce(_TABLE[_WORDS ^ shift]))
        total ^= len(bytes(bytearray(_BLOB)))
    return total


#: kernel -> (parts, nominal seconds).  One reference second is the wall
#: time in which the host runs the kernel ``1 / nominal`` times.
KERNELS = {
    "frames": ((_interpreter, _frames), 0.0035),
    "pages": ((_frames, _bulk), 0.0065),
}


class Pieces:
    """Times consecutive pieces of work, sampling the host between each."""

    def __init__(self, kernel: str = "frames") -> None:
        self.parts, self.nominal = KERNELS[kernel]
        self.wall: list[float] = []       #: wall seconds per piece
        self.labels: list[str] = []       #: what each piece did
        self.kernel: list[float] = []     #: kernel seconds at each boundary
        self._start = 0.0

    def _sample(self) -> None:
        began = time.perf_counter()
        for part in self.parts:
            part()
        self.kernel.append(time.perf_counter() - began)

    def start(self) -> None:
        """Sample the host, then open the first piece."""
        self._sample()
        self._start = time.perf_counter()

    def cut(self, label: str = "") -> None:
        """Close the open piece, sample the host, open the next piece."""
        self.stop(label)
        self._start = time.perf_counter()

    def stop(self, label: str = "") -> None:
        """Close the open piece and sample the host."""
        self.wall.append(time.perf_counter() - self._start)
        self.labels.append(label)
        self._sample()

    def wall_of(self, label: str) -> float:
        """Raw wall seconds of the pieces labelled ``label``."""
        return sum(wall for wall, mine in zip(self.wall, self.labels)
                   if mine == label)

    @property
    def wall_s(self) -> float:
        """Raw wall seconds of all pieces."""
        return sum(self.wall)

    @property
    def reference_s(self) -> float:
        """All pieces in reference seconds."""
        return sum(wall * 2 * self.nominal / (before + after)
                   for wall, before, after
                   in zip(self.wall, self.kernel, self.kernel[1:]))
