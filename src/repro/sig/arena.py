"""The zero-copy page-buffer plane: pages as views into one arena.

Before this module, every hot signing path round-tripped page content
through owned ``bytes`` objects: journal entries were materialized,
``b"".join``-ed, re-materialized by ``bytes_to_symbols``, widened to an
``int64`` matrix, and copied once more into sealed frames -- several
full-buffer materializations per payload byte.  The arena replaces that
with one contiguous buffer in which pages live as ``(offset, length)``
*views*:

* :class:`PageArena` -- an append-only byte buffer (plain ``bytearray``
  or, with ``shared=True``, a :class:`multiprocessing.shared_memory.
  SharedMemory` block that worker processes can map by name).  Appending
  a page is the **single landing copy**; everything downstream --
  symbol reinterpretation, batch signing, delta folding, frame sealing
  -- operates on numpy views of the same memory.
* :class:`PageView` -- one page's ``(offset, length)`` coordinates plus
  zero-copy accessors (``memoryview``, narrow symbol arrays).
* :class:`CopyLedger` -- the copies-per-byte accounting shim.  Hot
  paths report every payload-byte materialization (joins, slices,
  matrix fills, dtype widenings) to the process-wide :data:`LEDGER`;
  ``python -m repro bench`` runs the sign->fold->seal pipeline under a
  fresh ledger and reports its copies per payload byte (the
  ``copies`` block).

Alignment: with a GF(2^16) scheme every page must start and end on a
2-byte symbol boundary; :meth:`PageArena.append` pads the arena cursor
up to ``align`` so views stay reinterpretable without copies.

This is the paper's Section 6.1 speed agenda carried past the kernels:
once the table gathers are vectorized, the signing hot path is
memory-bound, so the remaining win is moving each payload byte once.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..errors import SignatureError
from ..gf.field import GField


# ----------------------------------------------------------------------
# Copies-per-byte accounting
# ----------------------------------------------------------------------

class CopyLedger:
    """Counts payload-byte materializations on the signing hot paths.

    A *copy* is any operation that writes page content into freshly
    allocated memory: a ``bytes`` slice, a ``b"".join``, a packed-matrix
    fill, or a dtype widening (an ``int64`` widening of ``f=8`` symbols
    moves 8 bytes per payload byte and is charged as such).  Zero-copy
    views (``memoryview`` slices, ``np.frombuffer``, reshapes) cost
    nothing.  ``copies_per_byte(payload)`` normalizes the total against
    the payload actually processed -- the metric the bench sweeps and
    CI bounds.
    """

    __slots__ = ("bytes_copied", "events", "enabled")

    def __init__(self) -> None:
        self.bytes_copied = 0
        self.events = 0
        self.enabled = False

    def count(self, nbytes: int) -> None:
        """Charge one materialization of ``nbytes`` (no-op when disabled)."""
        if self.enabled and nbytes > 0:
            self.bytes_copied += int(nbytes)
            self.events += 1

    def reset(self) -> None:
        """Zero the accounting (the ``enabled`` flag is left alone)."""
        self.bytes_copied = 0
        self.events = 0

    def copies_per_byte(self, payload_bytes: int) -> float:
        """Bytes materialized per payload byte processed."""
        if payload_bytes <= 0:
            raise SignatureError("payload size must be positive")
        return self.bytes_copied / payload_bytes

    @contextmanager
    def counting(self):
        """Enable and zero the ledger for the duration of a block."""
        previous = self.enabled
        self.reset()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = previous


#: The process-wide ledger the instrumented hot paths report to.  It is
#: disabled by default -- ``count`` is then a single attribute check --
#: and enabled only inside ``LEDGER.counting()`` blocks (bench, tests).
LEDGER = CopyLedger()


def _disarm(shm) -> None:
    """Neutralize a ``SharedMemory`` whose mapping is pinned by views.

    ``close()`` raised BufferError: zero-copy views into the arena (a
    scan result's frame payloads) are still alive.  Those views keep
    the underlying ``mmap`` mapped -- the OS frees the memory when the
    last one dies -- so the wrapper's own handles are safe to drop.
    Without this, the wrapper's ``__del__`` would retry ``close()`` and
    spew ``Exception ignored ... BufferError`` at every collection.
    """
    import os

    try:
        shm._mmap = None
        if shm._fd >= 0:
            os.close(shm._fd)
            shm._fd = -1
    except Exception:   # pragma: no cover - stdlib internals moved
        pass


# ----------------------------------------------------------------------
# The arena
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class PageView:
    """One page addressed as ``(offset, length)`` into an arena."""

    arena: "PageArena"
    offset: int
    length: int

    def memoryview(self) -> memoryview:
        """Zero-copy byte view of the page."""
        return self.arena.buffer_view[self.offset:self.offset + self.length]

    def symbols(self, field: GField) -> np.ndarray:
        """Zero-copy narrow symbol view (uint8 / little-endian uint16)."""
        return self.arena.symbol_row(field, self.offset, self.length)

    def tobytes(self) -> bytes:
        """Materialize the page (ledger-charged; test/debug helper)."""
        LEDGER.count(self.length)
        return bytes(self.memoryview())


class PageArena:
    """An append-only contiguous page buffer, optionally in shared memory.

    Parameters
    ----------
    capacity:
        Buffer size in bytes.
    shared:
        When true the buffer is a named ``multiprocessing.shared_memory``
        block; worker processes attach with :meth:`attach` and sign
        row blocks without any serialization of the page content.
    align:
        Appends round the cursor up to this many bytes first (use the
        scheme's ``symbol_bytes`` so GF(2^16) views stay reinterpretable).
    """

    def __init__(self, capacity: int, shared: bool = False, align: int = 2):
        if capacity <= 0:
            raise SignatureError("arena capacity must be positive")
        if align not in (1, 2):
            raise SignatureError("arena alignment must be 1 or 2 bytes")
        # Shared capacity stays even so uint16 reinterpretation of the
        # full buffer is always possible.
        capacity += capacity % 2
        self.capacity = capacity
        self.align = align
        self.shared = shared
        self.used = 0
        self._shm = None
        self._owner = True
        self._closed = False
        if shared:
            from multiprocessing import shared_memory

            self._shm = shared_memory.SharedMemory(create=True, size=capacity)
            self._buffer = self._shm.buf
        else:
            self._buffer = memoryview(bytearray(capacity))
        self._symbols: dict[int, np.ndarray] = {}

    # -- construction helpers ------------------------------------------

    @classmethod
    def from_pages(cls, pages, shared: bool = False,
                   align: int = 2) -> tuple["PageArena", list[PageView]]:
        """Land a sequence of byte pages once; returns (arena, views)."""
        total = sum(len(page) for page in pages)
        aligned = sum(-(-len(page) // align) * align for page in pages)
        arena = cls(max(aligned, total, 1), shared=shared, align=align)
        return arena, [arena.append(page) for page in pages]

    @classmethod
    def attach(cls, name: str, used: int, align: int = 2) -> "PageArena":
        """Map an existing shared arena by name (worker-process side).

        The attached arena is read-only in spirit: workers build symbol
        views and sign; they never append.  :meth:`close` detaches
        without unlinking -- the creating process owns the lifetime.
        """
        from multiprocessing import shared_memory

        arena = cls.__new__(cls)
        arena._shm = shared_memory.SharedMemory(name=name)
        arena._buffer = arena._shm.buf
        arena.capacity = arena._shm.size
        arena.align = align
        arena.shared = True
        arena.used = used
        arena._owner = False
        arena._closed = False
        arena._symbols = {}
        return arena

    # -- geometry ------------------------------------------------------

    @property
    def name(self) -> str | None:
        """Shared-memory block name (None for a local arena)."""
        return self._shm.name if self._shm is not None else None

    @property
    def buffer_view(self) -> memoryview:
        """Zero-copy view of the whole backing buffer."""
        return self._buffer

    @property
    def remaining(self) -> int:
        """Bytes still appendable."""
        return self.capacity - self.used

    # -- writing (the single landing copy) -----------------------------

    def append(self, data) -> PageView:
        """Land one page; returns its ``(offset, length)`` view.

        This is the *only* copy a page pays on its way through the
        signing plane, and it is charged to the :data:`LEDGER` as such.
        """
        if self._closed:
            raise SignatureError("arena is closed")
        offset = -(-self.used // self.align) * self.align
        length = len(data)
        if offset + length > self.capacity:
            raise SignatureError(
                f"arena overflow: {length} bytes at {offset} exceeds "
                f"capacity {self.capacity}"
            )
        self._buffer[offset:offset + length] = bytes(data) \
            if not isinstance(data, (bytes, bytearray, memoryview)) else data
        LEDGER.count(length)
        self.used = offset + length
        return PageView(self, offset, length)

    def reserve(self, length: int) -> PageView:
        """Advance the cursor over ``length`` bytes without writing them.

        The caller fills the returned view in place -- the ``readinto``
        landing a segment file pays on its way into a shared scan arena.
        Because the arena never sees the bytes move, charging the
        :data:`LEDGER` for the fill is the caller's responsibility.
        """
        if self._closed:
            raise SignatureError("arena is closed")
        if length < 0:
            raise SignatureError("reservation must be non-negative")
        offset = -(-self.used // self.align) * self.align
        if offset + length > self.capacity:
            raise SignatureError(
                f"arena overflow: {length} bytes at {offset} exceeds "
                f"capacity {self.capacity}"
            )
        self.used = offset + length
        return PageView(self, offset, length)

    def write_at(self, offset: int, data) -> None:
        """Overwrite bytes in place (journal capture surfaces)."""
        if offset < 0 or offset + len(data) > self.capacity:
            raise SignatureError("arena write out of range")
        self._buffer[offset:offset + len(data)] = data
        LEDGER.count(len(data))

    # -- zero-copy reads ----------------------------------------------

    def _full_symbols(self, field: GField) -> np.ndarray:
        """The whole buffer reinterpreted as narrow symbols (cached)."""
        cached = self._symbols.get(field.f)
        if cached is None:
            if field.f == 8:
                cached = np.frombuffer(self._buffer, dtype=np.uint8)
            elif field.f == 16:
                cached = np.frombuffer(self._buffer, dtype="<u2")
            else:
                raise SignatureError(
                    f"arena views need f in (8, 16), not {field.f}"
                )
            self._symbols[field.f] = cached
        return cached

    def symbol_row(self, field: GField, offset: int, length: int) -> np.ndarray:
        """Zero-copy symbol view of ``length`` bytes at ``offset``."""
        symbol_bytes = field.f // 8
        if offset % symbol_bytes:
            raise SignatureError(
                f"view at byte {offset} is not aligned to the "
                f"{symbol_bytes}-byte symbol"
            )
        if offset + length > self.capacity:
            raise SignatureError("arena view out of range")
        lo = offset // symbol_bytes
        count = -(-length // symbol_bytes)
        if length % symbol_bytes:
            # An odd tail under f=16 cannot be viewed in place; callers
            # keep pages symbol-aligned (append() guarantees it).
            raise SignatureError(
                f"view of {length} bytes is not symbol-aligned"
            )
        return self._full_symbols(field)[lo:lo + count]

    def view(self, offset: int, length: int) -> PageView:
        """Address an arbitrary ``(offset, length)`` span as a page."""
        if offset < 0 or length < 0 or offset + length > self.capacity:
            raise SignatureError("arena view out of range")
        return PageView(self, offset, length)

    # -- lifetime ------------------------------------------------------

    def unlink(self) -> None:
        """Give up the shared block's *name*, keeping the mapping alive.

        Once every worker that will ever attach has attached, unlinking
        early makes cleanup crash-proof without invalidating views
        already handed out: the OS frees the memory only when the last
        mapping disappears, so :class:`PageView`\\ s into the arena stay
        valid until they are garbage collected, while the ``/dev/shm``
        name is gone even if the owner dies before :meth:`close`.
        A later ``close()`` then only drops this process's mapping.
        """
        if self._shm is not None and self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
            self._owner = False

    def close(self) -> None:
        """Detach the buffer; unlink the shared block if this side owns it.

        Safe to call twice.  The creating process unlinks; an attached
        (worker-side) arena only closes its mapping.
        """
        if self._closed:
            return
        self._closed = True
        self._symbols.clear()
        if self._shm is not None:
            # Our numpy views over shm.buf must be dropped before close();
            # a caller still holding a view gets BufferError from close(),
            # but the unlink below succeeds regardless -- the block never
            # leaks even on an unclean shutdown.
            self._buffer = memoryview(b"")
            try:
                self._shm.close()
            except BufferError:
                _disarm(self._shm)
            if self._owner:
                try:
                    self._shm.unlink()
                except FileNotFoundError:
                    pass
        else:
            self._buffer = memoryview(b"")

    def __enter__(self) -> "PageArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass
