"""The batched signature engine: exactness properties and caching.

The engine's whole contract is *exactness at batch speed*: every fast
path must be byte-identical to the reference ``scheme.sign``.  These
tests state that as hypothesis properties over random page lists --
mixed lengths (empty pages included), both production fields, plain and
twisted schemes -- plus deterministic checks of the block boundaries,
the certainty bound on every entry point, the worker mode, the signer
pool, and the tree bulk build.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import wire
from repro.errors import PageTooLongError, SignatureError
from repro.gf import GF
from repro.gf import vectorized as V
from repro.obs import MetricsRegistry, use_registry
from repro.sig import (
    LEDGER,
    BatchSigner,
    SignatureMap,
    SignatureTree,
    concat_all,
    get_batch_signer,
    make_scheme,
    slice_pages,
)
from repro.sig import engine
from repro.sig.twisted import log_interpretation_scheme

#: id -> scheme factory results, built once: the paper's production
#: GF(2^16) n=2, the equal-strength GF(2^8) n=4, the all-primitive
#: sig' variant, and a Proposition-6 twisted (log-interpretation)
#: scheme per field.
SCHEMES = {
    "gf16": make_scheme(f=16, n=2),
    "gf8": make_scheme(f=8, n=4),
    "gf16-primitive": make_scheme(f=16, n=2, variant="primitive"),
    "gf8-primitive": make_scheme(f=8, n=3, variant="primitive"),
    "gf16-twisted": log_interpretation_scheme(GF(16), n=2),
    "gf8-twisted": log_interpretation_scheme(GF(8), n=3),
}


def pages_strategy(scheme, max_pages=8, max_symbols=50):
    """Lists of random symbol pages (mixed lengths, empties included)."""
    symbol = st.integers(0, scheme.field.size - 1)
    return st.lists(st.lists(symbol, min_size=0, max_size=max_symbols),
                    min_size=0, max_size=max_pages)


# ----------------------------------------------------------------------
# The core property: sign_many == the reference, page for page
# ----------------------------------------------------------------------

class TestBatchExactness:

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_sign_many_equals_reference(self, name, data):
        scheme = SCHEMES[name]
        pages = data.draw(pages_strategy(scheme))
        signer = BatchSigner(scheme)
        assert signer.sign_many(pages) == [scheme.sign(p) for p in pages]

    @pytest.mark.parametrize("name", ["gf16", "gf8-twisted"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_workers_equal_single_thread(self, name, data):
        scheme = SCHEMES[name]
        pages = data.draw(pages_strategy(scheme, max_pages=12))
        # A batch of fewer blocks than workers is split per worker, so
        # the pool runs even on these small batches.
        pooled = BatchSigner(scheme, workers=3)
        assert pooled.sign_many(pages) == [scheme.sign(p) for p in pages]

    @settings(max_examples=20, deadline=None)
    @given(blob=st.binary(min_size=0, max_size=600),
           page_symbols=st.integers(1, 40))
    def test_sign_map_equals_per_slice_signing(self, blob, page_symbols):
        scheme = SCHEMES["gf16"]
        if len(blob) % 2:
            blob += b"\0"
        built = BatchSigner(scheme).sign_map(blob, page_symbols)
        reference = [scheme.sign_mapped(s.symbols)
                     for s in slice_pages(scheme, blob, page_symbols)]
        assert built.signatures == reference
        assert built == SignatureMap.compute(scheme, blob, page_symbols)

    def test_byte_pages_match_bytes_reference(self):
        scheme = SCHEMES["gf16"]
        rng = np.random.default_rng(5)
        pages = [rng.integers(0, 256, size=2 * n, dtype=np.uint8).tobytes()
                 for n in (0, 1, 7, 300, 4096)]
        signer = BatchSigner(scheme)
        assert signer.sign_many(pages) == [scheme.sign(p) for p in pages]

    def test_strict_enforces_certainty_bound(self):
        scheme = SCHEMES["gf8"]
        too_long = [0] * (scheme.max_page_symbols + 1)
        signer = BatchSigner(scheme)
        with pytest.raises(PageTooLongError):
            signer.sign_many([too_long])
        relaxed = signer.sign_many([too_long], strict=False)
        assert relaxed == [scheme.sign(too_long, strict=False)]

    def test_empty_batch(self):
        assert BatchSigner(SCHEMES["gf16"]).sign_many([]) == []


# ----------------------------------------------------------------------
# One body: the fused single-body kernel == the paper's scalar loop
# ----------------------------------------------------------------------

def zero_symbol_fill(scheme) -> int:
    """The byte whose symbols sign as zero (after a twisted scheme's map)."""
    return 0xFF if scheme.scheme_id.variant.startswith("twisted") else 0x00


class TestSingleBodyKernel:

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_single_body_equals_scalar(self, name, data):
        scheme = SCHEMES[name]
        symbol_bytes = scheme.scheme_id.symbol_bytes
        zero_run = st.integers(1, 10).map(
            lambda k: bytes([zero_symbol_fill(scheme)]) * (k * symbol_bytes))
        chunks = data.draw(st.lists(
            st.one_of(st.binary(min_size=1, max_size=12), zero_run),
            max_size=8))
        body = b"".join(chunks)                  # empty and odd lengths too
        cuts = sorted(data.draw(st.lists(st.integers(0, len(body)),
                                         max_size=4)))
        parts = [body[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(body)])]
        expected = scheme.sign_scalar(body)
        signer = BatchSigner(scheme)
        assert signer.sign_concat(parts) == expected
        assert signer.sign_concat([body]) == expected
        assert signer.sign_concat([memoryview(body)]) == expected
        assert signer.sign_concat_many([parts]) == [expected]
        assert scheme.sign(body) == expected
        assert scheme.sign_mapped(scheme.signable_symbols(body)) == expected

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_page_bound_under_strict(self, name):
        scheme = SCHEMES[name]
        symbol_bytes = scheme.scheme_id.symbol_bytes
        bound = scheme.max_page_symbols
        body = bytearray([zero_symbol_fill(scheme)]) * (bound * symbol_bytes)
        rng = np.random.default_rng(bound)
        for at in (*rng.integers(0, len(body), 40), 0, len(body) - 1):
            body[int(at)] = int(rng.integers(1, 255))
        body = bytes(body)
        expected = scheme.sign_scalar(body)
        signer = BatchSigner(scheme)
        assert signer.sign_concat([body]) == expected
        assert signer.sign_concat([body[:1001], body[1001:]]) == expected
        assert scheme.sign(body) == expected
        longer = body + bytes(symbol_bytes)
        with pytest.raises(PageTooLongError):
            signer.sign_concat([longer])
        with pytest.raises(PageTooLongError):
            signer.sign_concat([longer[:3], longer[3:]])
        with pytest.raises(PageTooLongError):
            scheme.sign(longer)
        assert signer.sign_concat([longer], strict=False) == \
            scheme.sign_scalar(longer, strict=False)

    def test_seal_unseal_counter_and_copy_parity(self):
        scheme = SCHEMES["gf16"]
        registry = MetricsRegistry()
        body = bytes(range(81))                  # odd: 41 padded symbols
        with use_registry(registry):
            sealed = wire.seal(scheme, body)
            assert wire.unseal(scheme, sealed) == body
        assert registry.snapshot()["sig.sign_calls"] == {
            "algo=batch,field=gf16,variant=standard": 2
        }
        assert registry.total("sig.bytes_signed") == 2 * 82
        assert registry.total("sig.engine.pages") == 2
        signer = BatchSigner(scheme)
        with LEDGER.counting() as ledger:
            signer.sign_concat([body[:80]])      # aligned raw: in place
        assert (ledger.bytes_copied, ledger.events) == (0, 0)
        with LEDGER.counting() as ledger:
            signer.sign_concat([b"hdr", body[:80], b"t"])
        assert (ledger.bytes_copied, ledger.events) == (84, 1)

    def test_mixed_length_seals_keep_the_stack_store_bounded(self):
        scheme = SCHEMES["gf16"]
        key = (scheme.field.f, scheme.field.generator, scheme.base.betas)
        wire.seal(scheme, bytes(4096))
        stack = V._STACKS[key]
        size = len(V._STACKS)
        rng = np.random.default_rng(12)
        for length in rng.integers(0, 4097, 10_000).tolist():
            wire.seal(scheme, bytes(length))
        assert len(V._STACKS) == size
        assert V._STACKS[key] is stack
        assert stack.shape[1] <= scheme.max_page_symbols


# ----------------------------------------------------------------------
# Tree bulk build == incremental build
# ----------------------------------------------------------------------

class TestTreeBulkBuild:

    @settings(max_examples=20, deadline=None)
    @given(blob=st.binary(min_size=2, max_size=800),
           page_symbols=st.integers(1, 32), fanout=st.integers(2, 5))
    def test_bulk_fold_equals_sequential_concat(self, blob, page_symbols,
                                                fanout):
        """Every internal node equals the concat_all fold of its group."""
        scheme = SCHEMES["gf16"]
        if len(blob) % 2:
            blob += b"\0"
        tree = BatchSigner(scheme).sign_tree(blob, page_symbols, fanout)
        for level in range(1, tree.height):
            children = tree.levels[level - 1]
            for index, node in enumerate(tree.levels[level]):
                group = children[index * fanout:(index + 1) * fanout]
                sig, total = concat_all(
                    scheme, [(c.signature, c.symbols) for c in group]
                )
                assert node.signature == sig
                assert node.symbols == total
        assert tree.root.signature == scheme.sign(blob, strict=False)

    def test_bulk_build_equals_incremental_updates(self):
        """Rebuilding after an edit == update_leaf on the old tree."""
        scheme = SCHEMES["gf16"]
        rng = np.random.default_rng(11)
        data = bytearray(rng.integers(0, 256, size=4096, dtype=np.uint8))
        signer = BatchSigner(scheme)
        tree = signer.sign_tree(bytes(data), page_symbols=64, fanout=4)
        data[1000] ^= 0x5A
        page = 1000 // 128   # 64 symbols = 128 bytes per page
        tree.update_leaf(page, scheme.sign(bytes(data[page * 128:(page + 1) * 128])))
        rebuilt = signer.sign_tree(bytes(data), page_symbols=64, fanout=4)
        for mine, theirs in zip(tree.levels, rebuilt.levels):
            assert mine == theirs

    def test_foreign_leaves_rejected(self):
        scheme = SCHEMES["gf16"]
        other = SCHEMES["gf8"]
        with pytest.raises(SignatureError):
            SignatureTree.from_leaves(scheme, [(other.sign(b"ab"), 1)])


# ----------------------------------------------------------------------
# Block boundaries, the certainty bound, the signer pool, metrics
# ----------------------------------------------------------------------

def scalar_delta_pages(scheme, rng, sizes, page_symbols):
    """Pages, a rewritten copy, and the ``(page, position, before, after)``
    regions between them (mixed and zero widths)."""
    symbol_bytes = scheme.scheme_id.symbol_bytes
    page_bytes = page_symbols * symbol_bytes
    image = rng.integers(0, 256, size=len(sizes) * page_bytes,
                        dtype=np.uint8).tobytes()
    mutated = bytearray(image)
    regions = []
    for page, size in enumerate(sizes):
        position = int(rng.integers(0, page_symbols - size + 1))
        start = page * page_bytes + position * symbol_bytes
        before = image[start:start + size * symbol_bytes]
        after = rng.integers(0, 256, size=len(before),
                             dtype=np.uint8).tobytes()
        mutated[start:start + len(after)] = after
        regions.append((page, position, before, after))
    return image, bytes(mutated), regions


#: Every strict entry point, signing one body of ``symbols`` symbols.
STRICT_ENTRY_POINTS = {
    "sign_many": lambda signer, body, symbols:
        signer.sign_many([body, b""])[0],
    "sign_map": lambda signer, body, symbols:
        signer.sign_map(body, symbols).signatures[0],
    "sign_concat": lambda signer, body, symbols:
        signer.sign_concat([body[:3], body[3:]]),
    "sign_concat_many": lambda signer, body, symbols:
        signer.sign_concat_many([[body], [b"ab"]])[0],
    "delta_signature_many": lambda signer, body, symbols:
        signer.delta_signature_many([(0, bytes(len(body)), body)])[0],
}


class TestEnginePlumbing:

    def test_signer_pool_shares_instances(self):
        scheme = make_scheme(f=16, n=2)
        assert get_batch_signer(scheme) is get_batch_signer(scheme)
        # A distinct scheme object (same id) gets a fresh signer bound
        # to *that* object, never a stale one.
        clone = make_scheme(f=16, n=2)
        assert get_batch_signer(clone).scheme is clone

    def test_invalid_workers_rejected(self):
        with pytest.raises(SignatureError):
            BatchSigner(make_scheme(), workers=0)

    def test_block_splitting_preserves_order(self, monkeypatch):
        """A tiny block budget cuts every lane into many row blocks, and
        every multi-page entry point still equals the scalar loop."""
        monkeypatch.setattr(engine, "BLOCK_SYMBOLS", 16)
        rng = np.random.default_rng(3)
        sizes = (30, 1, 0, 64, 17, 64, 2, 50, 0, 9)
        for scheme in SCHEMES.values():
            symbol_bytes = scheme.scheme_id.symbol_bytes
            pages = [rng.integers(0, 256, size=size * symbol_bytes,
                                  dtype=np.uint8).tobytes()
                     for size in sizes]
            expected = [scheme.sign_scalar(page) for page in pages]
            serial = BatchSigner(scheme)
            assert serial.sign_many(pages) == expected
            assert serial.sign_many(
                [scheme.to_symbols(page).tolist() for page in pages]
            ) == expected
            assert serial.sign_concat_many(
                [[page[:3], page[3:]] for page in pages]) == expected
            assert BatchSigner(scheme, workers=2).sign_many(pages) == \
                expected
            process = BatchSigner(scheme, workers=2, backend="process")
            assert process.sign_many(pages) == expected
            # Coerced runs (symbol sequences, odd-length GF(2^16) bytes,
            # and batches mixing them with raw pages) take the process
            # backend too.
            odd = [page + b"\x07" for page in pages]
            assert process.sign_many(odd) == \
                [scheme.sign_scalar(page) for page in odd]
            sequences = [scheme.to_symbols(page).tolist() for page in pages]
            assert process.sign_many(sequences) == expected
            assert process.sign_many(
                [seq if i % 2 else page
                 for i, (seq, page) in enumerate(zip(sequences, pages))]
            ) == expected
            image = b"".join(odd)
            assert process.sign_map(image, 24).signatures == \
                serial.sign_map(image, 24).signatures

            page_symbols = 24
            image, mutated, regions = scalar_delta_pages(
                scheme, rng, (5, 0, 24, 1, 12, 7, 3), page_symbols)
            page_bytes = page_symbols * symbol_bytes
            old = [scheme.sign_scalar(image[at:at + page_bytes])
                   for at in range(0, len(image), page_bytes)]
            new = [scheme.sign_scalar(mutated[at:at + page_bytes])
                   for at in range(0, len(mutated), page_bytes)]
            assert serial.sign_map(image, page_symbols).signatures == old
            for signer in (serial, BatchSigner(scheme, workers=2)):
                deltas = signer.delta_signature_many(
                    [(position, before, after)
                     for _page, position, before, after in regions])
                assert [sig ^ delta for sig, delta in zip(old, deltas)] \
                    == new
                page_map = signer.sign_map(image, page_symbols)
                signer.apply_deltas(page_map, regions)
                assert page_map.signatures == new

    @pytest.mark.parametrize("name", ["gf16", "gf8"])
    @pytest.mark.parametrize("entry", sorted(STRICT_ENTRY_POINTS))
    def test_certainty_bound_on_every_entry_point(self, entry, name):
        scheme = SCHEMES[name]
        symbol_bytes = scheme.scheme_id.symbol_bytes
        bound = scheme.max_page_symbols
        rng = np.random.default_rng(bound)
        body = rng.integers(0, 256, size=(bound + 1) * symbol_bytes,
                            dtype=np.uint8).tobytes()
        sign = STRICT_ENTRY_POINTS[entry]
        signer = BatchSigner(scheme)
        at_bound = body[:bound * symbol_bytes]
        assert sign(signer, at_bound, bound) == scheme.sign(at_bound)
        with pytest.raises(PageTooLongError):
            sign(signer, body, bound + 1)

    def test_engine_metrics_emitted(self):
        registry = MetricsRegistry()
        scheme = make_scheme(f=16, n=2)
        with use_registry(registry):
            BatchSigner(scheme).sign_many([b"ab", b"cd", b"ef"])
        assert registry.total("sig.engine.batches") == 1
        assert registry.total("sig.engine.pages") == 3
        snapshot = registry.snapshot()
        assert snapshot["sig.sign_calls"] == {
            "algo=batch,field=gf16,variant=standard": 3
        }
