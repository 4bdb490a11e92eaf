"""Corruption localization: group-testing compound signatures (PR 10).

The load-bearing properties of :mod:`repro.sig.locate`:

* **exactness** -- for random volumes, random ``<= d`` damage sets, and
  random design seeds, :func:`~repro.sig.decode` condemns exactly the
  damaged pages (plain AND twisted schemes, GF(2^8) and GF(2^16)):
  a damaged page fails every one of its test groups, and the d-cover-
  free family guarantees no clean page does;
* **safety** -- damage beyond the ``d`` budget, or locators whose page
  counts drifted apart, decode to an explicit ``OVERFLOW`` verdict
  (or, rarely, the exact set) -- never a silently wrong page list;
* **warm maintenance** -- the incrementally folded locator equals the
  from-scratch fold after arbitrary journaled writes, growth included;
* **wiring** -- ``PageStore.scrub`` condemns through the locator and
  falls back on overflow; the ``uncovered`` field surfaces condemned
  pages beyond the certified map (the growth-tail gap); tree and
  locator anti-entropy land comparable ``sync.*`` accounting.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SignatureError
from repro.gf import GF
from repro.obs import MetricsRegistry, use_registry
from repro.sig import (
    CLEAN,
    LOCATED,
    OVERFLOW,
    LocateDesign,
    LocatorMap,
    SignatureMap,
    log_interpretation_scheme,
    make_scheme,
)
from repro.sig import decode as locate_decode
from repro.sig.incremental import IncrementalSignatureMap
from repro.sig.locate import MAX_D, MAX_PAGE_CAPACITY
from repro.sim.network import SimNetwork
from repro.store import PageStore
from repro.sync import Replica, sync_by_locator, sync_by_tree

PAGE_SYMBOLS = 8

SCHEMES = {
    "plain-gf16": make_scheme(f=16, n=2),
    "plain-gf8": make_scheme(f=8, n=3),
    "twisted-gf16": log_interpretation_scheme(GF(16), n=2),
    "twisted-gf8": log_interpretation_scheme(GF(8), n=3),
}


def _page_bytes(scheme) -> int:
    return PAGE_SYMBOLS * scheme.scheme_id.symbol_bytes


def _image(scheme, pages: int, seed: int) -> bytes:
    rng = np.random.RandomState(seed & 0xFFFFFFFF)
    return rng.bytes(pages * _page_bytes(scheme))


def _rot(scheme, image: bytes, pages, seed: int) -> bytes:
    """One random single-byte XOR per page: a <= 1-symbol change, so
    every damaged page's signature differs with certainty (Prop. 1)."""
    rng = np.random.RandomState(seed & 0xFFFFFFFF)
    page_bytes = _page_bytes(scheme)
    rotted = bytearray(image)
    for page in pages:
        offset = page * page_bytes + int(rng.randint(page_bytes))
        rotted[offset] ^= int(rng.randint(1, 256))
    return bytes(rotted)


def _locator(scheme, design, image: bytes) -> LocatorMap:
    return LocatorMap.from_map(
        design, SignatureMap.compute(scheme, image, PAGE_SYMBOLS))


# ----------------------------------------------------------------------
# The design: deterministic, seed-parameterized, d-cover-free
# ----------------------------------------------------------------------

class TestLocateDesign:
    def test_deterministic_for_seed(self):
        a = LocateDesign.build(65536, 4, 42)
        b = LocateDesign.build(65536, 4, 42)
        assert a == b
        pages = np.arange(65536, dtype=np.int64)
        assert np.array_equal(a.memberships(pages), b.memberships(pages))

    def test_seed_permutes_memberships(self):
        a = LocateDesign.build(4096, 4, 1)
        b = LocateDesign.build(4096, 4, 2)
        pages = np.arange(4096, dtype=np.int64)
        assert not np.array_equal(a.memberships(pages), b.memberships(pages))

    def test_cover_free_parameters(self):
        """q >= d(k-1)+1 makes the Kautz--Singleton code d-cover-free."""
        for capacity in (256, 4096, 65536, 1 << 20):
            for d in (1, 2, 4):
                design = LocateDesign.build(capacity, d, 0)
                if design.kind == "ks":
                    assert design.q >= d * (design.k - 1) + 1
                    assert design.q ** design.k >= capacity
                    assert design.group_count == design.q ** 2

    def test_distinct_pages_share_few_groups(self):
        """Two degree-<k codewords agree on < k columns, so any two
        pages share at most k-1 groups -- the cover-free core."""
        design = LocateDesign.build(4096, 4, 7)
        pages = np.arange(4096, dtype=np.int64)
        groups = design.memberships(pages)
        rng = np.random.RandomState(7)
        for _ in range(200):
            a, b = rng.choice(4096, size=2, replace=False)
            shared = len(set(groups[a]) & set(groups[b]))
            assert shared <= design.k - 1

    def test_identity_fallback_for_tiny_volumes(self):
        design = LocateDesign.build(4, 4, 0)
        assert design.kind == "identity"
        assert design.group_count == 4

    def test_domain_bounds_rejected(self):
        for capacity, d in ((MAX_PAGE_CAPACITY + 1, 4), (1 << 62, 4),
                            (-1, 4), (64, 0), (64, MAX_D + 1)):
            with pytest.raises(SignatureError):
                LocateDesign.build(capacity, d, 0)

    @pytest.mark.parametrize("d", [1, 4, 29, MAX_D])
    def test_codewords_exact_at_the_largest_capacity(self, d):
        """int64 codewords equal Python-int arithmetic at the top of the
        exact domain (the 2^31-page design overflowed int64 silently)."""
        design = LocateDesign.build(MAX_PAGE_CAPACITY, d, 7)
        assert design.kind == "ks"
        pages = np.array([0, 1, 12345, MAX_PAGE_CAPACITY // 3,
                          MAX_PAGE_CAPACITY - 2, MAX_PAGE_CAPACITY - 1],
                         dtype=np.int64)
        expected = [(design.a * page + design.b) % design.modulus
                    for page in pages.tolist()]
        assert design._codewords(pages).tolist() == expected

    def test_sublinear_growth(self):
        """289 groups cover a million pages at d=4: O((d log N)^2)."""
        design = LocateDesign.build(1 << 20, 4, 0)
        assert design.group_count <= 512


# ----------------------------------------------------------------------
# Decode exactness (the hypothesis core)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("label", sorted(SCHEMES))
class TestDecodeExactness:
    @given(pages=st.integers(1, 96), damage_size=st.integers(0, 4),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_locates_exactly(self, label, pages, damage_size, seed):
        scheme = SCHEMES[label]
        design = LocateDesign.build(pages, 4, seed)
        image = _image(scheme, pages, seed)
        damage = sorted(
            np.random.RandomState(seed ^ 0xA5A5)
            .choice(pages, size=min(damage_size, pages),
                    replace=False).tolist())
        expected = _locator(scheme, design, image)
        actual = _locator(scheme, design,
                          _rot(scheme, image, damage, seed ^ 0x5A5A))
        verdict = locate_decode(expected, actual)
        if not damage:
            assert verdict.status == CLEAN
            assert verdict.pages == ()
        else:
            assert verdict.status == LOCATED
            assert list(verdict.pages) == damage

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_over_budget_never_lies(self, label, seed):
        """3d damaged pages: OVERFLOW or the exact set -- never wrong."""
        scheme = SCHEMES[label]
        pages = 96
        design = LocateDesign.build(pages, 2, seed)
        damage = sorted(np.random.RandomState(seed & 0xFFFFFFFF)
                        .choice(pages, size=6, replace=False).tolist())
        image = _image(scheme, pages, seed)
        expected = _locator(scheme, design, image)
        actual = _locator(scheme, design,
                          _rot(scheme, image, damage, ~seed))
        verdict = locate_decode(expected, actual)
        assert verdict.status == OVERFLOW \
            or list(verdict.pages) == damage


class TestDecodeSafety:
    def test_length_drift_overflows(self):
        """Locators over different page counts are not comparable page
        sets; decode reports OVERFLOW, not a guess."""
        scheme = SCHEMES["plain-gf16"]
        design = LocateDesign.build(64, 4, 0)
        a = _locator(scheme, design, _image(scheme, 48, 1))
        b = _locator(scheme, design, _image(scheme, 64, 1))
        verdict = locate_decode(a, b)
        assert verdict.status == OVERFLOW
        assert verdict.overflowed

    def test_design_mismatch_raises(self):
        scheme = SCHEMES["plain-gf16"]
        image = _image(scheme, 64, 1)
        a = _locator(scheme, LocateDesign.build(64, 4, 0), image)
        b = _locator(scheme, LocateDesign.build(64, 4, 1), image)
        with pytest.raises(SignatureError):
            locate_decode(a, b)

    def test_scheme_mismatch_raises(self):
        design = LocateDesign.build(64, 4, 0)
        a = _locator(SCHEMES["plain-gf16"], design,
                     _image(SCHEMES["plain-gf16"], 64, 1))
        b = _locator(SCHEMES["twisted-gf16"], design,
                     _image(SCHEMES["twisted-gf16"], 64, 1))
        with pytest.raises(SignatureError):
            locate_decode(a, b)


# ----------------------------------------------------------------------
# Warm incremental maintenance == from-scratch
# ----------------------------------------------------------------------

@pytest.mark.parametrize("label", sorted(SCHEMES))
class TestIncrementalLocator:
    @given(seed=st.integers(0, 2**31 - 1),
           ops=st.lists(st.tuples(st.integers(0, 127), st.integers(1, 6)),
                        min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_folded_equals_from_scratch(self, label, seed, ops):
        """After arbitrary journaled symbol-aligned writes (growth
        included), the warm locator equals a cold fold of the image."""
        scheme = SCHEMES[label]
        symbol_bytes = scheme.scheme_id.symbol_bytes
        page_bytes = _page_bytes(scheme)
        replica = Replica("w", scheme, _image(scheme, 16, seed), page_bytes)
        replica.locator_map(d=2, seed=7)   # cache the warm locator
        rng = np.random.RandomState(seed & 0xFFFFFFFF)
        for symbol_offset, symbols in ops:
            content = rng.bytes(symbols * symbol_bytes)
            replica.write_at(symbol_offset * symbol_bytes, content)
            warm = replica.locator_map(d=2, seed=7)
            cold = LocatorMap.from_map(
                warm.design,
                SignatureMap.compute(scheme, bytes(replica.data),
                                     PAGE_SYMBOLS))
            assert warm == cold

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_growth_past_capacity_rederives(self, label, seed):
        """Growing past the design's capacity yields a fresh (larger)
        design rather than an out-of-range locator."""
        scheme = SCHEMES[label]
        page_bytes = _page_bytes(scheme)
        replica = Replica("g", scheme, _image(scheme, 8, seed), page_bytes)
        small = replica.locator_map(d=2, seed=3)
        replica.write_page(63, b"\x01" * page_bytes)   # 8 -> 64 pages
        grown = replica.locator_map(d=2, seed=3)
        assert grown.page_count == 64
        assert grown.design.page_capacity >= 64
        assert grown == LocatorMap.from_map(
            grown.design,
            SignatureMap.compute(scheme, bytes(replica.data), PAGE_SYMBOLS))
        assert small.design.page_capacity <= grown.design.page_capacity


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

class TestWireFormat:
    def test_roundtrip(self):
        scheme = SCHEMES["plain-gf16"]
        design = LocateDesign.build(64, 4, 9)
        locator = _locator(scheme, design, _image(scheme, 48, 2))
        back = LocatorMap.from_bytes(locator.to_bytes(), scheme)
        assert back == locator
        assert back.design == design

    def test_crafted_capacity_fails_fast(self):
        """A 54-byte header naming 2^62 pages never reaches the q**k
        search: the exact-domain check rejects it with a typed error."""
        scheme = SCHEMES["plain-gf16"]
        header = bytearray(LocatorMap.from_map(
            LocateDesign.build(64, 4, 9),
            SignatureMap.compute(scheme, bytes(64 * 16), PAGE_SYMBOLS),
        ).to_bytes()[:54])
        header[4:12] = (1 << 62).to_bytes(8, "little")
        start = time.perf_counter()
        with pytest.raises(SignatureError):
            LocatorMap.from_bytes(bytes(header), scheme)
        assert time.perf_counter() - start < 1.0
        header[4:12] = (64).to_bytes(8, "little")
        header[12:16] = (1 << 31).to_bytes(4, "little")
        with pytest.raises(SignatureError):
            LocatorMap.from_bytes(bytes(header), scheme)

    def test_truncated_blob_raises(self):
        scheme = SCHEMES["plain-gf16"]
        locator = _locator(scheme, LocateDesign.build(64, 4, 9),
                           _image(scheme, 48, 2))
        blob = locator.to_bytes()
        with pytest.raises(SignatureError):
            LocatorMap.from_bytes(blob[:-3], scheme)
        with pytest.raises(SignatureError):
            LocatorMap.from_bytes(b"XX" + blob[2:], scheme)


# ----------------------------------------------------------------------
# SignatureMap.changed_pages: short-final-page pin
# ----------------------------------------------------------------------

class TestChangedPagesShortFinalPage:
    def test_rot_in_short_final_page_is_reported(self):
        """A volume whose final page is short: damage there must land
        on the final index, and equal maps must report nothing."""
        scheme = SCHEMES["plain-gf16"]
        page_bytes = _page_bytes(scheme)
        image = _image(scheme, 5, 3)[:5 * page_bytes - page_bytes // 2]
        a = SignatureMap.compute(scheme, image, PAGE_SYMBOLS)
        assert a.changed_pages(
            SignatureMap.compute(scheme, image, PAGE_SYMBOLS)) == []
        rotted = bytearray(image)
        rotted[-1] ^= 0x40
        b = SignatureMap.compute(scheme, bytes(rotted), PAGE_SYMBOLS)
        assert a.changed_pages(b) == [4]

    def test_tail_only_in_one_map_is_reported(self):
        scheme = SCHEMES["plain-gf16"]
        page_bytes = _page_bytes(scheme)
        image = _image(scheme, 4, 3)
        longer = image + b"\x07" * (page_bytes // 2)
        a = SignatureMap.compute(scheme, image, PAGE_SYMBOLS)
        b = SignatureMap.compute(scheme, longer, PAGE_SYMBOLS)
        assert a.changed_pages(b) == [4]
        assert b.changed_pages(a) == [4]


# ----------------------------------------------------------------------
# PageStore scrub wiring
# ----------------------------------------------------------------------

SCHEME16 = SCHEMES["plain-gf16"]
STORE_PAGE_BYTES = 64


def _store(tmp_path, pages: int = 32, **kwargs) -> PageStore:
    store = PageStore(SCHEME16, tmp_path / "s", **kwargs)
    for index in range(pages):
        store.write_page("v", index, bytes([index % 255 + 1])
                         * STORE_PAGE_BYTES, STORE_PAGE_BYTES)
    return store


class TestStoreScrubLocate:
    def test_locate_condemns_exactly(self, tmp_path):
        store = _store(tmp_path, locate_d=4)
        replica = store._require("v").replica
        store.signature_map("v")           # warm the certified state
        for page in (3, 17, 29):           # silent rot, unjournaled
            replica.data[page * STORE_PAGE_BYTES + 5] ^= 0x20
        with use_registry(MetricsRegistry()) as registry:
            report = store.scrub("v")
        assert report.method == "locate"
        assert not report.overflow
        assert report.condemned == (3, 17, 29)
        assert sorted(report.expected) == [3, 17, 29]
        assert report.uncovered == ()
        snapshot = registry.snapshot()
        assert snapshot["store.locate.scrubs"]["volume=v"] == 1
        assert snapshot["store.locate.located"][""] == 3

    def test_over_budget_falls_back_to_tree(self, tmp_path):
        store = _store(tmp_path, locate_d=2)
        replica = store._require("v").replica
        store.signature_map("v")
        damaged = list(range(0, 32, 2))    # 16 pages >> d=2
        for page in damaged:
            replica.data[page * STORE_PAGE_BYTES] ^= 0x01
        with use_registry(MetricsRegistry()) as registry:
            report = store.scrub("v")
        assert report.overflow
        assert report.method == "tree"
        assert list(report.condemned) == damaged
        assert registry.snapshot()["store.locate.overflows"][""] == 1

    def test_uncovered_pages_surface(self, tmp_path):
        """Regression for the growth-tail gap: condemned pages beyond
        the certified map must appear in ``uncovered`` (their expected
        signatures cannot be certified), not vanish from the report."""
        store = _store(tmp_path, pages=8)
        replica = store._require("v").replica
        full = replica.signature_map()
        # A stale checkpoint: the page list was truncated but the
        # recorded length still covers the whole image, so the fold
        # sees nothing to resize.  from_warm trusts the caller; the
        # mismatch must surface through scrub.
        stale = SignatureMap(SCHEME16, full.page_symbols,
                             list(full.signatures[:4]), full.total_symbols)
        replica._incremental = IncrementalSignatureMap(stale)
        replica._tree = None
        replica._tree_fanout = None
        replica._locator = None
        with use_registry(MetricsRegistry()) as registry:
            report = store.scrub("v")
        assert report.method == "map"
        assert report.condemned == (4, 5, 6, 7)
        assert report.uncovered == (4, 5, 6, 7)
        assert report.expected == {}       # nothing certified to offer
        assert registry.snapshot()["store.pages_uncovered"][""] == 4

    def test_clean_scrub_has_no_uncovered(self, tmp_path):
        store = _store(tmp_path, locate_d=4)
        report = store.scrub("v")
        assert report.condemned == ()
        assert report.uncovered == ()
        assert not report.overflow


# ----------------------------------------------------------------------
# Anti-entropy accounting and the locator protocol
# ----------------------------------------------------------------------

class TestSyncAccounting:
    def _pair(self, pages: int = 1024, divergent=(5, 230, 941)):
        image = _image(SCHEME16, pages, 11)
        page_bytes = _page_bytes(SCHEME16)
        source = Replica("src", SCHEME16, image, page_bytes)
        target = Replica("tgt", SCHEME16,
                         _rot(SCHEME16, image, divergent, 13), page_bytes)
        return image, source, target

    def test_tree_sync_emits_localization_counters(self):
        image, source, target = self._pair()
        with use_registry(MetricsRegistry()) as registry:
            sync_by_tree(source, target, SimNetwork())
        assert bytes(target.data) == image
        snapshot = registry.snapshot()
        assert snapshot["sync.pages_localized"]["protocol=tree"] == 3
        assert snapshot["sync.bytes_saved"]["protocol=tree"] > 0

    def test_locator_sync_converges_and_saves_bytes(self):
        image, source, target = self._pair()
        with use_registry(MetricsRegistry()) as registry:
            report = sync_by_locator(source, target, SimNetwork(),
                                     d=4, seed=0)
        assert bytes(target.data) == image
        snapshot = registry.snapshot()
        assert snapshot["sync.pages_localized"]["protocol=locator"] == 3
        assert snapshot["sync.locate.exchanges"][""] == 1
        assert "sync.locate.fallbacks" not in snapshot
        saved = snapshot["sync.bytes_saved"]["protocol=locator"]
        map_cost = 16 + 4 * 1024
        assert saved == map_cost - report.signature_bytes
        assert report.signature_bytes * 4 <= map_cost

    def test_locator_sync_overflow_falls_back(self):
        image, source, target = self._pair(
            divergent=tuple(range(0, 1024, 64)))   # 16 pages >> d=2
        with use_registry(MetricsRegistry()) as registry:
            sync_by_locator(source, target, SimNetwork(), d=2, seed=0)
        assert bytes(target.data) == image
        assert registry.snapshot()["sync.locate.fallbacks"][""] == 1
