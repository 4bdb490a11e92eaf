"""The batched signature engine: sign N pages in one vectorized pass.

Section 6.1 promises speedups "by using a technique adapted from Broder
[B93]": amortize table setup across many strings.  Every hot consumer of
signatures in this codebase -- signature maps, backup scans, tree
builds, replica sync, cluster wire seals -- signs *many pages at a
time*; signing them one by one pays per-call Python dispatch, registry
lookups, and β-power recomputation per page.

:class:`BatchSigner` erases that overhead:

* pages are packed into one zero-padded ``(N, L)`` symbol matrix;
* one log-gather covers the whole batch, then per base coordinate one
  cached β-power ladder and one doubled-antilog gather produce every
  page's component at once (:func:`repro.gf.vectorized.
  batch_signature_matrix`);
* β-power ladders come from the process-wide LRU exposed here as
  :class:`PowerLadderCache` and shared with the scalar, chunked and
  rolling paths -- no caller ever recomputes a ladder;
* an optional ``workers=K`` mode chunks large batches by page ranges
  onto a :class:`concurrent.futures.ThreadPoolExecutor` for multi-bucket
  scans;
* a batch of exactly one body (every wire seal/unseal and single frame
  encode) skips the packer and takes the fused single-body kernel
  :func:`repro.gf.vectorized.signature_vector` -- the batch size alone
  picks the kernel.

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
from ..gf import vectorized as _vec
from ..gf.vectorized import (
    batch_signature_matrix,
    delta_signature_matrix,
    fold_rows_by_group,
    ladder_exponents,
    narrow_symbol_view,
    pack_flat,
    pack_pages,
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

#: Soft bound on a single packed matrix (rows * padded width) so batch
#: temporaries stay cache- and RAM-friendly; larger batches are processed
#: in row blocks of this many symbols (~32 MB of int64 at the default).
DEFAULT_BLOCK_SYMBOLS = 1 << 22


class PowerLadderCache:
    """LRU cache of per-scheme β-power ladders keyed by (scheme_id, length).

    A scheme's ladder bundle is one position-exponent array per base
    coordinate (``(log β_j · i) mod 2^f−1``); the bundle for the longest
    page seen serves every shorter page as a sliced view.  The arrays
    themselves live in the process-wide store of
    :mod:`repro.gf.vectorized`, so scalar/chunked/rolling callers that
    go through :func:`~repro.gf.vectorized.ladder_exponents` share the
    exact same memory -- this class only amortizes bundle *composition*
    for batch callers.
    """

    def __init__(self, maxsize: int = 32):
        if maxsize <= 0:
            raise SignatureError("ladder cache size must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._bundles: OrderedDict[tuple, tuple[int, tuple[np.ndarray, ...]]] = \
            OrderedDict()

    def exponents(self, scheme: AlgebraicSignatureScheme,
                  length: int) -> tuple[np.ndarray, ...]:
        """Per-coordinate position-exponent ladders covering ``length``."""
        key = scheme.scheme_id
        with self._lock:
            entry = self._bundles.get(key)
            if entry is not None and entry[0] >= length:
                self._bundles.move_to_end(key)
                self.hits += 1
                capacity, bundle = entry
                if capacity == length:
                    return bundle
                return tuple(ladder[:length] for ladder in bundle)
            self.misses += 1
        bundle = tuple(
            ladder_exponents(scheme.field, beta, length)
            for beta in scheme.base.betas
        )
        with self._lock:
            self._bundles[key] = (length, bundle)
            self._bundles.move_to_end(key)
            while len(self._bundles) > self.maxsize:
                self._bundles.popitem(last=False)
        return bundle

    def clear(self) -> None:
        """Drop every bundle and reset the hit/miss accounting."""
        with self._lock:
            self._bundles.clear()
            self.hits = 0
            self.misses = 0


#: The process-wide ladder cache every default signer shares.
DEFAULT_LADDERS = PowerLadderCache()


class BatchSigner:
    """Signs many pages per call through the 2-D matrix kernel.

    Parameters
    ----------
    scheme:
        Any :class:`AlgebraicSignatureScheme`, twisted schemes included
        (their bijection is applied per page before packing, so the
        zero padding stays signature-neutral).
    workers:
        When given (and > 1), batches are chunked by page ranges onto a
        thread pool (``backend="thread"``) or a shared-memory process
        pool (``backend="process"``).  ``backend="process"`` with no
        explicit count defaults to :func:`repro.sig.parallel.
        resolve_workers` (``REPRO_SIGN_WORKERS`` env override, else
        ``os.cpu_count()``).
    ladders:
        Ladder cache to share; defaults to :data:`DEFAULT_LADDERS`.
    block_symbols:
        Bound on rows x padded-width per packed matrix (memory ceiling).
    backend:
        ``"thread"`` (default) or ``"process"``.  The process backend
        maps page content into :mod:`multiprocessing.shared_memory` and
        shards row blocks across a fork-server pool, beating the GIL on
        multi-core boxes; it engages on the zero-copy raw lanes
        (``sign_many`` over byte pages, ``sign_map``, ``sign_concat_
        many``) and falls back to in-process signing everywhere else.
    """

    def __init__(self, scheme: AlgebraicSignatureScheme,
                 workers: int | None = None,
                 ladders: PowerLadderCache | None = None,
                 block_symbols: int = DEFAULT_BLOCK_SYMBOLS,
                 backend: str = "thread"):
        if workers is not None and workers < 1:
            raise SignatureError("workers must be a positive count")
        if block_symbols <= 0:
            raise SignatureError("block size must be positive")
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
        self.ladders = ladders if ladders is not None else DEFAULT_LADDERS
        self.block_symbols = block_symbols
        self._obs = _obs.HandleCache()
        self._obs_delta = _obs.HandleCache()
        self._obs_backend = _obs.HandleCache()

    def _use_process(self, rows: int) -> bool:
        """True when this batch should go to the process pool."""
        return (self.backend == "process" and rows > 0
                and (self.workers or 0) > 1)

    # ------------------------------------------------------------------
    # Batch signing
    # ------------------------------------------------------------------

    def sign_many(self, pages, strict: bool = True) -> list[Signature]:
        """Signatures of every page, byte-identical to ``scheme.sign``.

        ``pages`` is any sequence of byte strings, :class:`~repro.sig.
        arena.PageView`\\ s, or symbol sequences; lengths may differ
        freely.  With ``strict`` every page must respect the
        Proposition-1 certainty bound.

        Raw byte pages take the zero-copy lane: narrow symbol views are
        concatenated once (no per-page ``bytes`` materialization, no
        ``int64`` widening) and packed by one strided fill.  Symbol
        sequences and odd-length GF(2^16) pages fall back to the
        classic per-page coercion.
        """
        scheme = self.scheme
        if not isinstance(pages, (list, tuple)):
            pages = list(pages)
        if not pages:
            return []
        packed = self._narrow_concat(pages)
        if packed is not None:
            flat, lengths = packed
            if strict:
                bound = scheme.max_page_symbols
                if lengths.size and int(lengths.max()) > bound:
                    raise PageTooLongError(
                        f"page of {int(lengths.max())} symbols exceeds the "
                        f"certainty bound {bound} for GF(2^{scheme.field.f})"
                    )
            return self._sign_flat(flat, lengths)
        rows = [scheme.signable_symbols(
            page.memoryview() if isinstance(page, PageView) else page
        ) for page in pages]
        if strict:
            bound = scheme.max_page_symbols
            for row in rows:
                if row.size > bound:
                    raise PageTooLongError(
                        f"page of {row.size} symbols exceeds the certainty "
                        f"bound {bound} for GF(2^{scheme.field.f})"
                    )
        return self.sign_symbol_rows(rows)

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
        scheme = self.scheme
        field = scheme.field
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
        if strict:
            bound = scheme.max_page_symbols
            if lengths.size and int(lengths.max()) > bound:
                raise PageTooLongError(
                    f"page of {int(lengths.max())} symbols exceeds the "
                    f"certainty bound {bound} for GF(2^{field.f})"
                )
        total = int(lengths.sum()) * symbol_bytes
        scratch = bytearray(total)
        position = 0
        for parts in bodies:
            for part in parts:
                scratch[position:position + len(part)] = part
                position += len(part)
            position = -(-position // symbol_bytes) * symbol_bytes
        LEDGER.count(sum(sizes))
        return self._sign_flat(narrow_symbol_view(scratch, field), lengths)

    def sign_symbol_rows(self, rows: list[np.ndarray]) -> list[Signature]:
        """Sign already coerced-and-mapped symbol arrays (one per page).

        The batch analogue of ``scheme.sign_mapped`` -- signature maps
        and scanners that pre-compute ``signable_symbols`` feed slices
        straight in without re-applying a twisted scheme's bijection.
        """
        if not rows:
            return []
        blocks = self._blocks(rows)
        if self.workers and self.workers > 1 and len(blocks) > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                per_block = list(pool.map(self._sign_block, blocks))
        else:
            per_block = [self._sign_block(block) for block in blocks]
        scheme = self.scheme
        scheme._count_signed(sum(row.size for row in rows), "batch",
                             calls=len(rows))
        scheme_id = scheme.scheme_id
        return [
            Signature(tuple(int(c) for c in components), scheme_id)
            for block in per_block for components in block
        ]

    def sign_map(self, data, page_symbols: int) -> SignatureMap:
        """The compound signature of ``data``, one batched pass.

        Equivalent to signing every :func:`~repro.sig.compound.
        slice_pages` slice, but the buffer is reshaped into the page
        matrix directly -- no per-page Python iteration at all.
        """
        if page_symbols <= 0:
            raise SignatureError("page size must be positive")
        if page_symbols > self.scheme.max_page_symbols:
            raise SignatureError(
                f"page of {page_symbols} symbols exceeds the certainty bound "
                f"{self.scheme.max_page_symbols} for GF(2^{self.scheme.field.f})"
            )
        if isinstance(data, RAW_BYTES) or isinstance(data, PageView):
            raw = data.memoryview() if isinstance(data, PageView) else data
            flat = narrow_symbol_view(raw, self.scheme.field)
            if flat is not None:
                # Zero-copy lane: the buffer is reinterpreted in place;
                # rows are views of it (uniform spans reshape, the tail
                # row alone pays a bounded fill).
                total = int(flat.size)
                count = -(-total // page_symbols) if total else 0
                lengths = np.full(count, page_symbols, dtype=np.int64)
                if count and total % page_symbols:
                    lengths[-1] = total % page_symbols
                signatures = self._sign_flat(flat, lengths)
                return SignatureMap(self.scheme, page_symbols, signatures,
                                    total)
        symbols = self.scheme.signable_symbols(data)
        total = symbols.size
        count = -(-total // page_symbols) if total else 0
        padded = count * page_symbols
        if padded != total:
            symbols = np.concatenate(
                [symbols, np.zeros(padded - total, dtype=symbols.dtype)]
            )
        matrix = symbols.reshape(count, page_symbols)
        signatures: list[Signature] = []
        scheme_id = self.scheme.scheme_id
        rows_per_block = max(1, self.block_symbols // max(page_symbols, 1))
        ranges = [(start, min(start + rows_per_block, count))
                  for start in range(0, count, rows_per_block)]
        if self.workers and self.workers > 1 and len(ranges) > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                per_range = list(pool.map(
                    lambda span: self._sign_matrix(matrix[span[0]:span[1]]),
                    ranges,
                ))
        else:
            per_range = [self._sign_matrix(matrix[lo:hi]) for lo, hi in ranges]
        for block in per_range:
            signatures.extend(
                Signature(tuple(int(c) for c in components), scheme_id)
                for components in block
            )
        self.scheme._count_signed(total, "batch", calls=count)
        return SignatureMap(self.scheme, page_symbols, signatures, total)

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
        symbol offsets ``r`` of each region within its page.  One packed
        2-D pass signs every region, then one vectorized Proposition-3
        shift moves each signature to its offset -- ladders come from the
        shared :class:`PowerLadderCache`.
        """
        if len(rows) != len(positions):
            raise SignatureError("one position is required per delta region")
        scheme = self.scheme
        if not rows:
            return np.zeros((0, scheme.n), dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and int(positions.min()) < 0:
            raise SignatureError("region positions must be non-negative")
        bound = scheme.max_page_symbols
        for row, position in zip(rows, positions):
            if int(position) + row.size > bound:
                raise PageTooLongError(
                    f"delta region at symbol {int(position)} of {row.size} "
                    f"symbols overruns the certainty bound {bound} "
                    f"for GF(2^{scheme.field.f})"
                )
        spans: list[tuple[int, int]] = []
        start, width = 0, 0
        for i, row in enumerate(rows):
            next_width = max(width, row.size)
            if i > start and next_width * (i - start + 1) > self.block_symbols:
                spans.append((start, i))
                start, width = i, row.size
            else:
                width = next_width
        spans.append((start, len(rows)))
        per_span = []
        for lo, hi in spans:
            matrix, _lengths = pack_pages(rows[lo:hi])
            ladders = self.ladders.exponents(scheme, matrix.shape[1])
            per_span.append(delta_signature_matrix(
                scheme.field, matrix, positions[lo:hi],
                scheme.base.betas, ladders,
            ))
        components = per_span[0] if len(per_span) == 1 else \
            np.concatenate(per_span)
        self._emit_deltas(len(rows), sum(row.size for row in rows))
        return components

    def _delta_matrix(self, matrix: np.ndarray, positions) -> np.ndarray:
        """:meth:`delta_components` for pre-packed uniform-width regions."""
        scheme = self.scheme
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size != matrix.shape[0]:
            raise SignatureError("one position is required per delta region")
        if positions.size and int(positions.min()) < 0:
            raise SignatureError("region positions must be non-negative")
        width = matrix.shape[1]
        bound = scheme.max_page_symbols
        if positions.size and int(positions.max()) + width > bound:
            raise PageTooLongError(
                f"delta region of {width} symbols overruns the certainty "
                f"bound {bound} for GF(2^{scheme.field.f})"
            )
        step = max(1, self.block_symbols // max(1, width))
        per_block = []
        for lo in range(0, matrix.shape[0], step):
            block = matrix[lo:lo + step]
            ladders = self.ladders.exponents(scheme, width)
            per_block.append(delta_signature_matrix(
                scheme.field, block, positions[lo:lo + block.shape[0]],
                scheme.base.betas, ladders,
            ))
        components = per_block[0] if len(per_block) == 1 else \
            np.concatenate(per_block)
        self._emit_deltas(matrix.shape[0], int(matrix.size))
        return components

    def _delta_flat_xor(self, befores, afters) -> np.ndarray | None:
        """Mapped delta symbols of many regions, one narrow pass per side.

        Replaces the historical ``signable_symbols(b"".join(...))`` on
        each side: narrow views of every region are concatenated once
        (no byte join, no ``int64`` widening for plain schemes) and the
        delta is formed in the domain the scheme is linear in -- raw
        symbols for plain schemes, phi-images for twisted ones.
        Returns ``None`` when any region resists in-place viewing.
        """
        scheme = self.scheme
        field = scheme.field
        bef = [narrow_symbol_view(region, field) for region in befores]
        aft = [narrow_symbol_view(region, field) for region in afters]
        if any(view is None for view in bef) or \
                any(view is None for view in aft):
            return None
        bflat = bef[0] if len(bef) == 1 else np.concatenate(bef)
        aflat = aft[0] if len(aft) == 1 else np.concatenate(aft)
        if len(bef) > 1:
            LEDGER.count(bflat.nbytes + aflat.nbytes)
        if scheme.is_linear:
            xor = bflat ^ aflat
            LEDGER.count(xor.nbytes)
        else:
            mapped_before = scheme.map_symbols(bflat)
            mapped_after = scheme.map_symbols(aflat)
            LEDGER.count(mapped_before.nbytes + mapped_after.nbytes)
            xor = np.bitwise_xor(mapped_before, mapped_after,
                                 out=mapped_before)
        return xor

    def delta_signature_many(self, regions) -> list[Signature]:
        """Shifted delta signatures ``alpha^r * sig(delta)`` of many regions.

        ``regions`` yields ``(position, before, after)`` triples with
        equal-length region contents; the result is ready to XOR onto
        the old page signatures (Proposition 3).  Plain and twisted
        schemes both go through one batched matrix pass: the delta is
        formed in whichever domain the scheme is linear in.  Raw
        symbol-aligned byte regions take the zero-copy narrow lane.
        """
        scheme = self.scheme
        items = regions if isinstance(regions, (list, tuple)) \
            else list(regions)
        symbol_bytes = scheme.scheme_id.symbol_bytes
        if items and all(
            isinstance(before, RAW_BYTES) and isinstance(after, RAW_BYTES)
            and len(before) == len(after)
            and len(before) % symbol_bytes == 0
            for _position, before, after in items
        ):
            positions = [int(position) for position, _b, _a in items]
            befores = [before for _p, before, _a in items]
            afters = [after for _p, _b, after in items]
            xor = self._delta_flat_xor(befores, afters)
            if xor is not None:
                sizes = [len(before) // symbol_bytes for before in befores]
                if len(set(sizes)) == 1 and sizes[0] > 0:
                    components = self._delta_matrix(
                        xor.reshape(len(sizes), sizes[0]), positions)
                else:
                    rows = np.split(xor, np.cumsum(sizes[:-1])) \
                        if len(sizes) > 1 else [xor]
                    components = self.delta_components(rows, positions)
                scheme_id = scheme.scheme_id
                return [
                    Signature(tuple(int(c) for c in row), scheme_id)
                    for row in components
                ]
        rows: list[np.ndarray] = []
        positions: list[int] = []
        for position, before, after in items:
            before_syms = scheme.signable_symbols(before)
            after_syms = scheme.signable_symbols(after)
            if before_syms.size != after_syms.size:
                raise SignatureError(
                    f"delta regions must have equal length, got "
                    f"{before_syms.size} vs {after_syms.size}"
                )
            rows.append(before_syms ^ after_syms)
            positions.append(int(position))
        components = self.delta_components(rows, positions)
        scheme_id = scheme.scheme_id
        return [
            Signature(tuple(int(c) for c in row), scheme_id)
            for row in components
        ]

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
        page_symbols = signature_map.page_symbols
        total = signature_map.total_symbols
        symbol_bytes = scheme.scheme_id.symbol_bytes
        items = list(deltas)
        page_limit = len(signature_map.signatures)
        positions: list[int] = []
        pages: list[int] = []
        # Fast path: symbol-aligned byte regions (every journal fold) are
        # concatenated and mapped in ONE signable_symbols pass per side --
        # two numpy conversions total instead of two per region.
        raw = (bytes, bytearray, memoryview)
        batched = True
        sizes: list[int] = []
        befores: list = []
        afters: list = []
        for page, position, before, after in items:
            if not (isinstance(before, raw) and isinstance(after, raw)
                    and len(before) == len(after)
                    and len(before) % symbol_bytes == 0):
                batched = False
                break
            if not 0 <= page < page_limit:
                raise SignatureError(f"page {page} is outside the map")
            size = len(before) // symbol_bytes
            limit = min(page_symbols, total - page * page_symbols)
            if position < 0 or position + size > limit:
                raise SignatureError(
                    f"region at symbol {position} of {size} "
                    f"symbols overruns page {page} ({limit} symbols)"
                )
            if not size:
                continue
            sizes.append(size)
            befores.append(before)
            afters.append(after)
            positions.append(int(position))
            pages.append(int(page))
        if batched:
            if not sizes:
                return {}
            # Narrow lane: regions are symbol-aligned byte containers,
            # so both sides concatenate as in-place views -- no byte
            # join, no widening (the historical b"".join re-concatenation
            # lived here).
            xor = self._delta_flat_xor(befores, afters)
            if xor is None:  # pragma: no cover - aligned regions always view
                xor = (scheme.signable_symbols(b"".join(befores))
                       ^ scheme.signable_symbols(b"".join(afters)))
            if len(set(sizes)) == 1:
                # Uniform regions: the concatenation IS the packed
                # matrix -- reshape and sign, no per-row splitting.
                components = self._delta_matrix(
                    xor.reshape(len(sizes), sizes[0]), positions)
            else:
                rows = np.split(xor, np.cumsum(sizes[:-1]))
                components = self.delta_components(rows, positions)
        else:
            rows = []
            positions, pages = [], []
            for page, position, before, after in items:
                if not 0 <= page < page_limit:
                    raise SignatureError(f"page {page} is outside the map")
                before_syms = scheme.signable_symbols(before)
                after_syms = scheme.signable_symbols(after)
                if before_syms.size != after_syms.size:
                    raise SignatureError(
                        f"delta regions must have equal length, got "
                        f"{before_syms.size} vs {after_syms.size}"
                    )
                limit = min(page_symbols, total - page * page_symbols)
                if position < 0 or position + before_syms.size > limit:
                    raise SignatureError(
                        f"region at symbol {position} of {before_syms.size} "
                        f"symbols overruns page {page} ({limit} symbols)"
                    )
                if not before_syms.size:
                    continue
                rows.append(before_syms ^ after_syms)
                positions.append(int(position))
                pages.append(int(page))
            if not rows:
                return {}
            components = self.delta_components(rows, positions)
        page_array = np.asarray(pages, dtype=np.int64)
        page_ids = np.unique(page_array)
        groups = np.searchsorted(page_ids, page_array)
        folded = fold_rows_by_group(components, groups, page_ids.size)
        scheme_id = scheme.scheme_id
        net: dict[int, Signature] = {}
        for page_id, row in zip(page_ids, folded):
            if not row.any():
                continue
            delta = Signature(tuple(int(c) for c in row), scheme_id)
            index = int(page_id)
            signature_map.signatures[index] = \
                signature_map.signatures[index] ^ delta
            net[index] = delta
        return net

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _narrow_concat(self, pages):
        """``(flat, lengths)`` narrow concatenation of raw pages, or None.

        The raw lane applies when every page is a byte container (or an
        arena :class:`PageView`) whose length is symbol-aligned; the
        result aliases single pages and costs exactly one narrow
        concatenation otherwise.  ``None`` routes the caller to the
        legacy per-page path.
        """
        field = self.scheme.field
        views: list[np.ndarray] = []
        lengths = np.empty(len(pages), dtype=np.int64)
        for i, page in enumerate(pages):
            if isinstance(page, PageView):
                page = page.memoryview()
            if not isinstance(page, RAW_BYTES):
                return None
            view = narrow_symbol_view(page, field)
            if view is None:
                return None
            views.append(view)
            lengths[i] = view.size
        flat = views[0] if len(views) == 1 else np.concatenate(views)
        if len(views) > 1:
            LEDGER.count(flat.nbytes)
        return flat, lengths

    def _flat_spans(self, lengths: np.ndarray) -> list[tuple[int, int]]:
        """Row spans over a flat batch whose packed matrices stay bounded."""
        spans: list[tuple[int, int]] = []
        start, width = 0, 0
        for i, size in enumerate(lengths.tolist()):
            next_width = max(width, size)
            if i > start and next_width * (i - start + 1) > self.block_symbols:
                spans.append((start, i))
                start, width = i, size
            else:
                width = next_width
        if lengths.size:
            spans.append((start, int(lengths.size)))
        if self.workers and self.workers > 1 and len(spans) < self.workers:
            split: list[tuple[int, int]] = []
            for lo, hi in spans:
                parts = min(self.workers, hi - lo)
                step = -(-(hi - lo) // parts) if parts else hi - lo
                split.extend(
                    (at, min(at + step, hi)) for at in range(lo, hi, step)
                )
            spans = split
        return spans

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
        if strict and length > scheme.max_page_symbols:
            raise PageTooLongError(
                f"page of {length} symbols exceeds the certainty bound "
                f"{scheme.max_page_symbols} for GF(2^{field.f})"
            )
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

    def _sign_flat(self, flat: np.ndarray,
                   lengths: np.ndarray) -> list[Signature]:
        """Sign a narrow flat concatenation of pages (the zero-copy lane).

        ``flat`` holds the raw symbols of every page back to back;
        ``lengths`` gives per-page symbol counts.  The scheme's
        pre-mapping is applied to the *flat* run (padding enters only
        after mapping, so it stays signature-neutral for twisted
        schemes), each bounded span is packed by one strided fill --
        zero-copy when the span is uniform -- and the process backend,
        when selected, ships spans to the shared-memory pool instead.
        """
        scheme = self.scheme
        if not lengths.size:
            return []
        if self._use_process(int(lengths.size)):
            from . import parallel
            components = parallel.sign_flat_spans(
                scheme, flat, lengths,
                workers=self.workers or 1,
                block_symbols=self.block_symbols,
            )
            self._emit(int(lengths.size))
        else:
            mapped = scheme.map_symbols(flat)
            if mapped is not flat:
                LEDGER.count(mapped.nbytes)
            starts = np.zeros(lengths.size + 1, dtype=np.int64)
            np.cumsum(lengths, out=starts[1:])
            spans = self._flat_spans(lengths)

            def sign_span(span: tuple[int, int]) -> np.ndarray:
                lo, hi = span
                matrix = pack_flat(mapped[starts[lo]:starts[hi]],
                                   lengths[lo:hi])
                if matrix.base is None and matrix.size:
                    LEDGER.count(matrix.nbytes)
                return self._sign_matrix(matrix)

            if self.backend == "thread" and self.workers \
                    and self.workers > 1 and len(spans) > 1:
                with ThreadPoolExecutor(max_workers=self.workers) as pool:
                    per_span = list(pool.map(sign_span, spans))
            else:
                per_span = [sign_span(span) for span in spans]
            components = per_span[0] if len(per_span) == 1 else \
                np.concatenate(per_span)
        scheme._count_signed(int(lengths.sum()), "batch",
                             calls=int(lengths.size))
        self._emit_backend()
        scheme_id = scheme.scheme_id
        return [
            Signature(tuple(int(c) for c in row), scheme_id)
            for row in components
        ]

    def _blocks(self, rows: list[np.ndarray]) -> list[list[np.ndarray]]:
        """Split rows into blocks whose packed matrices stay bounded."""
        blocks: list[list[np.ndarray]] = []
        current: list[np.ndarray] = []
        width = 0
        for row in rows:
            next_width = max(width, row.size)
            if current and next_width * (len(current) + 1) > self.block_symbols:
                blocks.append(current)
                current, next_width = [], row.size
            current.append(row)
            width = next_width
        if current:
            blocks.append(current)
        if self.workers and self.workers > 1 and len(blocks) < self.workers:
            blocks = [block for big in blocks
                      for block in _split(big, self.workers)]
        return blocks

    def _sign_block(self, rows: list[np.ndarray]) -> np.ndarray:
        matrix, _lengths = pack_pages(rows)
        return self._sign_matrix(matrix)

    def _sign_matrix(self, matrix: np.ndarray) -> np.ndarray:
        ladders = self.ladders.exponents(self.scheme, matrix.shape[1])
        components = batch_signature_matrix(
            self.scheme.field, matrix, self.scheme.base.betas, ladders
        )
        self._emit(matrix.shape[0])
        return components

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


def _split(rows: list, parts: int) -> list[list]:
    """Split a list into up to ``parts`` contiguous, non-empty chunks."""
    parts = min(parts, len(rows))
    if parts <= 1:
        return [rows] if rows else []
    step = -(-len(rows) // parts)
    return [rows[i:i + step] for i in range(0, len(rows), step)]


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


def ladder_cache_info() -> dict:
    """Hit/miss accounting for both ladder layers (engine + gf store)."""
    return {
        "bundle_hits": DEFAULT_LADDERS.hits,
        "bundle_misses": DEFAULT_LADDERS.misses,
        "ladder_hits": _vec.ladder_hits,
        "ladder_misses": _vec.ladder_misses,
    }
