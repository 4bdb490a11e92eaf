"""The batched signature engine: sign N pages in one vectorized pass.

Section 6.1 promises speedups "by using a technique adapted from Broder
[B93]": amortize table setup across many strings.  Every hot consumer of
signatures in this codebase -- signature maps, backup scans, tree
builds, replica sync, cluster wire seals -- signs *many pages at a
time*; signing them one by one pays per-call Python dispatch, registry
lookups, and β-power recomputation per page.

:class:`BatchSigner` erases that overhead through **one batch lane**:

* every multi-page entry point reduces its input to a flat run of
  narrow symbols plus one length per page (and one position per region
  for Proposition-3 deltas);
* :func:`row_spans` cuts the run into row blocks whose zero-padded
  matrices stay under :data:`BLOCK_SYMBOLS`, so the kernel's
  temporaries stay in cache;
* :func:`sign_spans` packs each block and signs it with
  :func:`repro.gf.vectorized.batch_signature_matrix`, whose ladders come
  from the shared :func:`~repro.gf.vectorized.ladder_stack` store;
* an optional ``workers=K`` mode spreads the blocks over a thread pool,
  or over a shared-memory process pool (:mod:`repro.sig.parallel`);
* a batch of exactly one body (every wire seal/unseal and single frame
  encode) skips the packer and takes the fused single-body kernel
  :func:`repro.gf.vectorized.signature_vector`.

Batch signatures are *exact*: byte-identical to ``scheme.sign(page)``
for every page, every field, plain and twisted schemes alike (property-
tested in ``tests/test_sig_engine.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import PageTooLongError, SignatureError
from ..gf.field import GField
from ..gf.vectorized import (
    batch_signature_matrix,
    delta_signature_matrix,
    fold_rows_by_group,
    narrow_symbol_view,
    pack_flat,
    signature_vector,
)
from ..obs import registry as _obs
from .arena import LEDGER, PageView
from .compound import SignatureMap
from .scheme import AlgebraicSignatureScheme
from .signature import Signature
from .tree import SignatureTree

#: Raw byte containers the zero-copy lanes reinterpret in place.
RAW_BYTES = (bytes, bytearray, memoryview)

#: Row-block budget of the batch lane: rows x padded width of one packed
#: matrix.  At 2^16 symbols each int64 temporary of the kernel is
#: 512 KiB, so the three a coordinate keeps live fit in one core's L2
#: cache; the 2^14..2^20 sweep that chose this size is recorded in
#: ``docs/PERFORMANCE.md``.
BLOCK_SYMBOLS = 1 << 16


def row_spans(lengths: np.ndarray, workers: int = 1) -> list[tuple[int, int]]:
    """Cut a batch into contiguous ``(lo, hi)`` row spans, greedily.

    Each span's packed matrix -- its row count times its widest row --
    stays within :data:`BLOCK_SYMBOLS`; a single row wider than the
    budget is a span of its own.  A batch cut into fewer spans than
    ``workers`` is split further, so every worker gets rows.
    """
    spans: list[tuple[int, int]] = []
    start, width = 0, 0
    for i, size in enumerate(lengths.tolist()):
        width = max(width, size)
        if i > start and width * (i - start + 1) > BLOCK_SYMBOLS:
            spans.append((start, i))
            start, width = i, size
    if lengths.size:
        spans.append((start, int(lengths.size)))
    if len(spans) < workers:
        split = []
        for lo, hi in spans:
            step = -(-(hi - lo) // workers)
            split.extend((at, min(at + step, hi)) for at in range(lo, hi, step))
        spans = split
    return spans


def sign_spans(field: GField, betas: tuple[int, ...], mapped: np.ndarray,
               lengths: np.ndarray, spans: list[tuple[int, int]],
               positions: np.ndarray | None = None) -> np.ndarray:
    """Component rows of the pages in ``spans``, one packed block each.

    ``mapped`` holds the (already scheme-mapped) symbols of every page
    of ``lengths`` back to back.  Each span is packed by one strided
    fill -- zero-copy when its rows are uniform -- and signed; with
    ``positions`` the rows are delta regions and come back shifted by
    ``beta_j^position`` (Proposition 3).
    """
    starts = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    blocks = []
    for lo, hi in spans:
        matrix = pack_flat(mapped[starts[lo]:starts[hi]], lengths[lo:hi])
        if matrix.base is None and matrix.size:
            LEDGER.count(matrix.nbytes)
        if positions is None:
            blocks.append(batch_signature_matrix(field, matrix, betas))
        else:
            blocks.append(delta_signature_matrix(field, matrix,
                                                 positions[lo:hi], betas))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


class BatchSigner:
    """Signs many pages per call through the one batch lane.

    Parameters
    ----------
    scheme:
        Any :class:`AlgebraicSignatureScheme`, twisted schemes included
        (their bijection is applied to the flat symbol run before
        packing, so the zero padding stays signature-neutral).
    workers:
        When given (and > 1), the lane's row blocks are spread over a
        thread pool (``backend="thread"``) or a shared-memory process
        pool (``backend="process"``).  ``backend="process"`` with no
        explicit count defaults to :func:`repro.sig.parallel.
        resolve_workers` (``REPRO_SIGN_WORKERS`` env override, else
        ``os.cpu_count()``).
    backend:
        ``"thread"`` (default) or ``"process"``.  The process backend
        lands the batch's symbols once in :mod:`multiprocessing.
        shared_memory` and shards row blocks across a fork-server pool,
        beating the GIL on multi-core boxes; it signs pages (``sign_many``,
        ``sign_map``, ``sign_concat_many``), while delta regions always
        run in-process.
    """

    def __init__(self, scheme: AlgebraicSignatureScheme,
                 workers: int | None = None,
                 backend: str = "thread"):
        if workers is not None and workers < 1:
            raise SignatureError("workers must be a positive count")
        if backend not in ("thread", "process"):
            raise SignatureError(
                f"backend must be 'thread' or 'process', not {backend!r}"
            )
        if backend == "process" and workers is None:
            from .parallel import resolve_workers
            workers = resolve_workers()
        self.scheme = scheme
        self.workers = workers
        self.backend = backend
        self._obs = _obs.HandleCache()
        self._obs_delta = _obs.HandleCache()
        self._obs_backend = _obs.HandleCache()

    # ------------------------------------------------------------------
    # Batch signing
    # ------------------------------------------------------------------

    def sign_many(self, pages, strict: bool = True) -> list[Signature]:
        """Signatures of every page, byte-identical to ``scheme.sign``.

        ``pages`` is any sequence of byte strings, :class:`~repro.sig.
        arena.PageView`\\ s, or symbol sequences; lengths may differ
        freely.  With ``strict`` every page must respect the
        Proposition-1 certainty bound.  Symbol-aligned byte pages are
        viewed in place (no ``bytes`` materialization, no ``int64``
        widening) and concatenated once.
        """
        if not isinstance(pages, (list, tuple)):
            pages = list(pages)
        if not pages:
            return []
        flat, lengths = self._concat(pages)
        return self._sign_flat(flat, lengths, strict)

    def sign_views(self, views) -> list[Signature]:
        """Sign arena :class:`~repro.sig.arena.PageView` pages zero-copy.

        Equivalent to ``sign_many`` (views are accepted there too); kept
        as an explicit entry point for arena-resident callers.
        """
        return self.sign_many(views)

    def sign_concat(self, parts, strict: bool = True) -> Signature:
        """Signature of the concatenation of ``parts``, joined lazily.

        Byte-identical to ``scheme.sign(b"".join(parts))`` but the parts
        land exactly once in a symbol-aligned scratch buffer (frame
        encoders sign ``[header, payload]`` without building the body
        twice).  A single symbol-aligned part is signed with no copy at
        all.  One body is one call of the single-body kernel
        (:func:`~repro.gf.vectorized.signature_vector`), with no packing.
        """
        return self._sign_body(parts, strict)

    def sign_concat_many(self, bodies, strict: bool = True) -> list[Signature]:
        """One signature per body, each body a sequence of byte parts.

        All bodies land in one scratch buffer (the single copy), each
        body starting on a symbol boundary; odd-length GF(2^16) bodies
        get the same trailing zero byte ``scheme.sign`` pads with.  A
        lone body takes the single-body kernel, skipping the scratch
        entirely when it is one symbol-aligned part.
        """
        field = self.scheme.field
        symbol_bytes = field.f // 8
        if not isinstance(bodies, (list, tuple)):
            bodies = list(bodies)
        if not bodies:
            return []
        if len(bodies) == 1:
            return [self._sign_body(bodies[0], strict)]
        sizes = [sum(len(part) for part in parts) for parts in bodies]
        lengths = np.fromiter(
            (-(-size // symbol_bytes) for size in sizes),
            dtype=np.int64, count=len(sizes),
        )
        scratch = bytearray(int(lengths.sum()) * symbol_bytes)
        position = 0
        for parts in bodies:
            for part in parts:
                scratch[position:position + len(part)] = part
                position += len(part)
            position = -(-position // symbol_bytes) * symbol_bytes
        LEDGER.count(sum(sizes))
        return self._sign_flat(narrow_symbol_view(scratch, field), lengths,
                               strict)

    def sign_symbol_rows(self, rows: list[np.ndarray]) -> list[Signature]:
        """Sign already coerced-and-mapped symbol arrays (one per page).

        The batch analogue of ``scheme.sign_mapped`` -- callers that
        pre-compute ``signable_symbols`` feed them straight in without
        re-applying a twisted scheme's bijection.
        """
        if not rows:
            return []
        lengths = np.fromiter((row.size for row in rows), dtype=np.int64,
                              count=len(rows))
        flat = rows[0] if len(rows) == 1 else np.concatenate(rows)
        components = self._components(flat, lengths)
        self._count(lengths)
        return self._signatures(components)

    def sign_map(self, data, page_symbols: int) -> SignatureMap:
        """The compound signature of ``data``, one batched pass.

        Equivalent to signing every :func:`~repro.sig.compound.
        slice_pages` slice, but the buffer is cut into pages by lengths
        alone -- no per-page Python iteration.  Raw symbol-aligned bytes
        are viewed in place; anything else is coerced once.
        """
        if page_symbols <= 0:
            raise SignatureError("page size must be positive")
        self._check_bound(page_symbols)
        flat = self._raw_run(data)
        total = int(flat.size)
        lengths = np.full(-(-total // page_symbols), page_symbols,
                          dtype=np.int64)
        if total % page_symbols:
            lengths[-1] = total % page_symbols
        return SignatureMap(self.scheme, page_symbols,
                            self._sign_flat(flat, lengths, strict=False),
                            total)

    def sign_tree(self, data, page_symbols: int, fanout: int = 16) -> SignatureTree:
        """Batch-build the leaf level, then fold parents algebraically."""
        return SignatureTree.from_map(self.sign_map(data, page_symbols), fanout)

    # ------------------------------------------------------------------
    # Incremental delta signing (Proposition 3, batched)
    # ------------------------------------------------------------------

    def delta_components(self, rows: list[np.ndarray],
                         positions) -> np.ndarray:
        """Shifted component rows ``beta_j^r * sig_j(delta)`` per region.

        ``rows`` are already coerced-and-mapped delta symbol arrays (for
        plain schemes ``before XOR after``; for twisted schemes the XOR
        of the phi-images, where linearity holds); ``positions`` are the
        symbol offsets ``r`` of each region within its page.  The rows
        run through the batch lane once, then one vectorized
        Proposition-3 shift moves each signature to its offset.
        """
        if len(rows) != len(positions):
            raise SignatureError("one position is required per delta region")
        if not rows:
            return np.zeros((0, self.scheme.n), dtype=np.int64)
        lengths = np.fromiter((row.size for row in rows), dtype=np.int64,
                              count=len(rows))
        flat = rows[0] if len(rows) == 1 else np.concatenate(rows)
        return self._delta_lane(flat, lengths, positions)

    def delta_signature_many(self, regions) -> list[Signature]:
        """Shifted delta signatures ``alpha^r * sig(delta)`` of many regions.

        ``regions`` yields ``(position, before, after)`` triples with
        equal-length region contents; the result is ready to XOR onto
        the old page signatures (Proposition 3).  Plain and twisted
        schemes both go through one batched pass: the delta is formed in
        whichever domain the scheme is linear in.
        """
        items = list(regions)
        if not items:
            return []
        positions, befores, afters = zip(*items)
        xor, lengths = self._delta_xor(befores, afters)
        return self._signatures(self._delta_lane(xor, lengths, positions))

    def apply_deltas(self, signature_map: SignatureMap,
                     deltas) -> dict[int, Signature]:
        """Fold journaled write regions into a signature map, in place.

        ``deltas`` yields ``(page, position, before, after)``: the page
        index in the map, the symbol offset of the region within that
        page, and the region's old and new content.  All regions are
        signed in one batched pass, XOR-folded per page, and applied to
        the map entries -- clean bytes are never touched.  Returns the
        net leaf delta per page whose signature actually changed (zero
        nets -- pseudo-writes -- are dropped), ready to feed
        :meth:`repro.sig.tree.SignatureTree.apply_leaf_deltas`.
        """
        scheme = self.scheme
        if signature_map.scheme.scheme_id != scheme.scheme_id:
            raise SignatureError("signature map does not belong to this scheme")
        items = list(deltas)
        if not items:
            return {}
        pages, positions, befores, afters = zip(*items)
        pages = np.asarray(pages, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        outside = (pages < 0) | (pages >= len(signature_map.signatures))
        if outside.any():
            raise SignatureError(
                f"page {pages[outside][0]} is outside the map")
        xor, lengths = self._delta_xor(befores, afters)
        page_symbols = signature_map.page_symbols
        limits = np.minimum(page_symbols, signature_map.total_symbols
                            - pages * page_symbols)
        overrun = (positions < 0) | (positions + lengths > limits)
        if overrun.any():
            i = int(np.argmax(overrun))
            raise SignatureError(
                f"region at symbol {positions[i]} of {lengths[i]} "
                f"symbols overruns page {pages[i]} ({limits[i]} symbols)"
            )
        written = lengths > 0
        if not written.any():
            return {}
        components = self._delta_lane(xor, lengths[written],
                                      positions[written])
        page_ids, groups = np.unique(pages[written], return_inverse=True)
        folded = fold_rows_by_group(components, groups, page_ids.size)
        scheme_id = scheme.scheme_id
        net: dict[int, Signature] = {}
        for page_id, row in zip(page_ids.tolist(), folded):
            if not row.any():
                continue
            delta = Signature(tuple(int(c) for c in row), scheme_id)
            signature_map.signatures[page_id] = \
                signature_map.signatures[page_id] ^ delta
            net[page_id] = delta
        return net

    # ------------------------------------------------------------------
    # The lane
    # ------------------------------------------------------------------

    def _check_bound(self, symbols: int) -> None:
        """The Proposition-1 certainty bound every strict entry enforces."""
        bound = self.scheme.max_page_symbols
        if symbols > bound:
            raise PageTooLongError(
                f"{symbols} symbols exceed the certainty bound {bound} "
                f"for GF(2^{self.scheme.field.f})"
            )

    def _raw_run(self, page) -> np.ndarray:
        """One page's raw symbols in a narrow dtype (uint8 / ``<u2``).

        Symbol-aligned byte containers and arena :class:`PageView`\\ s
        are reinterpreted in place; anything else -- symbol sequences,
        odd-length GF(2^16) bytes -- is coerced by ``scheme.to_symbols``
        (which range-checks it) and narrowed back, so a mixed batch never
        widens to ``int64`` and every run fits a shared arena.
        """
        field = self.scheme.field
        if isinstance(page, PageView):
            page = page.memoryview()
        run = narrow_symbol_view(page, field)
        if run is not None:
            return run
        return self.scheme.to_symbols(page).astype(
            np.uint8 if field.f <= 8 else "<u2")

    def _concat(self, pages) -> tuple[np.ndarray, np.ndarray]:
        """The flat raw symbol run of ``pages`` and each page's length.

        Each page goes through :meth:`_raw_run`.  One page aliases its
        input; more cost exactly one concatenation.
        """
        runs = [self._raw_run(page) for page in pages]
        lengths = np.fromiter((run.size for run in runs), dtype=np.int64,
                              count=len(runs))
        if len(runs) == 1:
            return runs[0], lengths
        flat = np.concatenate(runs)
        LEDGER.count(flat.nbytes)
        return flat, lengths

    def _sign_flat(self, flat: np.ndarray, lengths: np.ndarray,
                   strict: bool) -> list[Signature]:
        """Sign a flat raw run of pages: bound check, map, lane.

        The scheme's pre-mapping is applied to the *flat* run (padding
        enters only after mapping, so it stays signature-neutral for
        twisted schemes); the process backend, when selected, ships the
        raw run to the shared-memory pool and maps it there.
        """
        if not lengths.size:
            return []
        if strict:
            self._check_bound(int(lengths.max()))
        if self.backend == "process" and (self.workers or 0) > 1:
            from . import parallel
            components = parallel.sign_flat_spans(
                self.scheme, flat, lengths, workers=self.workers)
        else:
            mapped = self.scheme.map_symbols(flat)
            if mapped is not flat:
                LEDGER.count(mapped.nbytes)
            components = self._components(mapped, lengths)
        self._count(lengths)
        return self._signatures(components)

    def _components(self, mapped: np.ndarray, lengths: np.ndarray,
                    positions: np.ndarray | None = None) -> np.ndarray:
        """The in-process lane: row blocks, signed serially or on threads."""
        field, betas = self.scheme.field, self.scheme.base.betas
        spans = row_spans(lengths, self.workers or 1)
        if len(spans) == 1 or (self.workers or 0) <= 1:
            return sign_spans(field, betas, mapped, lengths, spans, positions)
        starts = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])

        def sign(span):
            # Each task sees only its own rows, so it scans O(block) lengths.
            lo, hi = span
            return sign_spans(
                field, betas, mapped[starts[lo]:starts[hi]], lengths[lo:hi],
                [(0, hi - lo)], None if positions is None else positions[lo:hi])

        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return np.concatenate(list(pool.map(sign, spans)))

    def _delta_xor(self, befores, afters) -> tuple[np.ndarray, np.ndarray]:
        """Mapped delta symbols of many regions and each region's length.

        Both sides are concatenated once by :meth:`_concat`, and the
        delta is formed in the domain the scheme is linear in -- raw
        symbols for plain schemes, phi-images for twisted ones.
        """
        scheme = self.scheme
        bflat, lengths = self._concat(befores)
        aflat, after_lengths = self._concat(afters)
        if not np.array_equal(lengths, after_lengths):
            raise SignatureError("delta regions must have equal length")
        if scheme.is_linear:
            xor = bflat ^ aflat
            LEDGER.count(xor.nbytes)
            return xor, lengths
        mapped_before = scheme.map_symbols(bflat)
        mapped_after = scheme.map_symbols(aflat)
        LEDGER.count(mapped_before.nbytes + mapped_after.nbytes)
        return np.bitwise_xor(mapped_before, mapped_after,
                              out=mapped_before), lengths

    def _delta_lane(self, xor: np.ndarray, lengths: np.ndarray,
                    positions) -> np.ndarray:
        """Shifted components of delta regions through the batch lane."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and int(positions.min()) < 0:
            raise SignatureError("region positions must be non-negative")
        if positions.size:
            self._check_bound(int((positions + lengths).max()))
        components = self._components(xor, lengths, positions)
        self._emit_deltas(int(lengths.size), int(lengths.sum()))
        return components

    def _sign_body(self, parts, strict: bool) -> Signature:
        """One body (a sequence of byte parts) through the single-body kernel.

        A lone symbol-aligned raw part is viewed in place; anything else
        lands once in a symbol-aligned scratch, so an odd-length
        GF(2^16) body gets ``scheme.sign``'s zero pad.  Twisted schemes
        map the symbols first.  Counters and copy accounting match the
        batch lane exactly.
        """
        scheme = self.scheme
        field = scheme.field
        symbol_bytes = field.f // 8
        flat = None
        if len(parts) == 1 and isinstance(parts[0], RAW_BYTES):
            flat = narrow_symbol_view(parts[0], field)
        if flat is not None:
            length = flat.size
        else:
            size = sum(len(part) for part in parts)
            length = -(-size // symbol_bytes)
        if strict:
            self._check_bound(length)
        if flat is None:
            scratch = bytearray(length * symbol_bytes)
            position = 0
            for part in parts:
                scratch[position:position + len(part)] = part
                position += len(part)
            LEDGER.count(size)
            flat = narrow_symbol_view(scratch, field)
        mapped = scheme.map_symbols(flat)
        if mapped is not flat:
            LEDGER.count(mapped.nbytes)
        components = signature_vector(field, mapped, scheme.base.betas)
        scheme._count_signed(length, "batch")
        self._emit(1)
        self._emit_backend()
        return Signature(components, scheme.scheme_id)

    def _signatures(self, components: np.ndarray) -> list[Signature]:
        scheme_id = self.scheme.scheme_id
        return [Signature(tuple(row), scheme_id)
                for row in components.tolist()]

    def _count(self, lengths: np.ndarray) -> None:
        """Signed-symbol counters and engine metrics of one lane call."""
        self.scheme._count_signed(int(lengths.sum()), "batch",
                                  calls=int(lengths.size))
        self._emit(int(lengths.size))
        self._emit_backend()

    def _emit(self, pages: int) -> None:
        batches, batch_pages = self._obs.get(lambda registry: (
            registry.counter("sig.engine.batches"),
            registry.counter("sig.engine.pages"),
        ))
        batches.inc()
        batch_pages.inc(pages)

    def _emit_backend(self) -> None:
        """Publish the signer's worker count under its backend label."""
        (gauge,) = self._obs_backend.get(lambda registry: (
            registry.gauge("sig.workers", backend=self.backend),
        ))
        gauge.set(self.workers or 1)

    def _emit_deltas(self, regions: int, symbols: int) -> None:
        batches, count, delta_bytes = self._obs_delta.get(lambda registry: (
            registry.counter("sig.delta_batches"),
            registry.counter("sig.delta_regions"),
            registry.counter("sig.delta_bytes"),
        ))
        batches.inc()
        count.inc(regions)
        delta_bytes.inc(symbols * self.scheme.scheme_id.symbol_bytes)


# ----------------------------------------------------------------------
# The shared per-scheme signer pool
# ----------------------------------------------------------------------

_SIGNER_LOCK = threading.Lock()
_SIGNERS: OrderedDict[object, BatchSigner] = OrderedDict()
_SIGNER_POOL_MAX = 16


def get_batch_signer(scheme: AlgebraicSignatureScheme) -> BatchSigner:
    """A shared single-thread :class:`BatchSigner` for ``scheme``.

    Signature maps, replicas, backup engines and wire codecs all route
    through here, so one signer (and its resolved metric handles) serves
    the whole process per scheme.
    """
    key = scheme.scheme_id
    with _SIGNER_LOCK:
        signer = _SIGNERS.get(key)
        if signer is not None and signer.scheme is scheme:
            _SIGNERS.move_to_end(key)
            return signer
        signer = BatchSigner(scheme)
        _SIGNERS[key] = signer
        _SIGNERS.move_to_end(key)
        while len(_SIGNERS) > _SIGNER_POOL_MAX:
            _SIGNERS.popitem(last=False)
    return signer
