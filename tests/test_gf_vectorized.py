"""Tests for the numpy bulk kernels against scalar reference arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GaloisFieldError
from repro.gf import GF
from repro.gf import vectorized as V


@pytest.fixture(scope="module")
def gf():
    return GF(8)


def reference_component(field, symbols, beta):
    """Scalar reference: sig_beta(P) = XOR p_i * beta^i."""
    acc = 0
    for i, symbol in enumerate(symbols):
        acc ^= field.mul(int(symbol), field.pow(beta, i))
    return acc


class TestByteReinterpretation:
    def test_gf8_identity(self, gf):
        data = bytes(range(256))
        symbols = V.bytes_to_symbols(data, gf)
        assert symbols.tolist() == list(range(256))
        assert V.symbols_to_bytes(symbols, gf) == data

    def test_gf16_little_endian(self):
        gf16 = GF(16)
        symbols = V.bytes_to_symbols(b"\x01\x02\x03\x04", gf16)
        assert symbols.tolist() == [0x0201, 0x0403]

    def test_gf16_odd_length_padded(self):
        gf16 = GF(16)
        symbols = V.bytes_to_symbols(b"\xff", gf16)
        assert symbols.tolist() == [0x00FF]

    def test_gf16_roundtrip_even(self):
        gf16 = GF(16)
        data = bytes(range(100))
        assert V.symbols_to_bytes(V.bytes_to_symbols(data, gf16), gf16) == data

    def test_unusual_width_rejected(self):
        with pytest.raises(GaloisFieldError):
            V.bytes_to_symbols(b"xx", GF(4))

    def test_as_symbol_array_range_check(self, gf):
        with pytest.raises(GaloisFieldError):
            V.as_symbol_array([256], gf)
        with pytest.raises(GaloisFieldError):
            V.as_symbol_array([-1], gf)

    def test_as_symbol_array_accepts_lists(self, gf):
        assert V.as_symbol_array([1, 2, 3], gf).tolist() == [1, 2, 3]


class TestPowerWeights:
    def test_matches_scalar_pow(self, gf):
        beta = 7
        weights = V.power_weights(gf, beta, 20)
        for i in range(20):
            assert weights[i] == gf.pow(beta, i)

    def test_start_offset(self, gf):
        weights = V.power_weights(gf, 3, 10, start=5)
        for i in range(10):
            assert weights[i] == gf.pow(3, 5 + i)

    def test_zero_base_rejected(self, gf):
        with pytest.raises(GaloisFieldError):
            V.power_weights(gf, 0, 4)


class TestComponentSignature:
    @given(st.lists(st.integers(0, 255), max_size=60), st.integers(1, 255))
    @settings(max_examples=100)
    def test_matches_reference(self, symbols, beta):
        gf = GF(8)
        arr = np.array(symbols, dtype=np.int64)
        assert V.component_signature(gf, arr, beta) == \
            reference_component(gf, arr, beta)

    def test_empty_page(self, gf):
        assert V.component_signature(gf, np.zeros(0, dtype=np.int64), 2) == 0

    def test_all_zero_page(self, gf):
        assert V.component_signature(gf, np.zeros(100, dtype=np.int64), 2) == 0

    def test_zero_base_rejected(self, gf):
        with pytest.raises(GaloisFieldError):
            V.component_signature(gf, np.array([1]), 0)

    def test_long_page_gf16(self):
        """Positions beyond the group order wrap correctly."""
        gf16 = GF(16)
        rng = np.random.default_rng(5)
        symbols = rng.integers(0, gf16.size, 200).astype(np.int64)
        assert V.component_signature(gf16, symbols, gf16.alpha) == \
            reference_component(gf16, symbols, gf16.alpha)


class TestSignatureVector:
    def test_matches_per_component(self, gf, rng):
        symbols = rng.integers(0, 256, 50).astype(np.int64)
        betas = (2, 4, 8)
        vector = V.signature_vector(gf, symbols, betas)
        for beta, component in zip(betas, vector):
            assert component == V.component_signature(gf, symbols, beta)
            assert component == reference_component(gf, symbols, beta)

    def test_empty(self, gf):
        assert V.signature_vector(gf, np.zeros(0, dtype=np.int64), (2, 3)) == (0, 0)

    @pytest.mark.parametrize("f", [8, 16])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_with_zero_runs(self, f, data):
        field = GF(f)
        nonzero = st.integers(1, field.size - 1)
        runs = data.draw(st.lists(
            st.one_of(st.lists(nonzero, min_size=1, max_size=6),
                      st.integers(1, 9).map(lambda k: [0] * k)),
            max_size=8))
        symbols = np.array([s for run in runs for s in run], dtype=np.int64)
        betas = (field.alpha, field.pow(field.alpha, 2), field.pow(field.alpha, 5))
        expected = tuple(reference_component(field, symbols, b) for b in betas)
        assert V.signature_vector(field, symbols, betas) == expected
        # Narrow (zero-copy view) dtypes index the same tables.
        narrow = symbols.astype(np.uint8 if f == 8 else np.uint16)
        assert V.signature_vector(field, narrow, betas) == expected

    def test_longer_than_page_bound_wraps_and_is_not_kept(self):
        gf4 = GF(4)
        symbols = np.arange(1, 41) % gf4.size          # 40 > order - 1 = 14
        betas = (gf4.alpha, gf4.pow(gf4.alpha, 2))
        expected = tuple(reference_component(gf4, symbols, b) for b in betas)
        assert V.signature_vector(gf4, symbols, betas) == expected
        kept = V._STACKS.get((gf4.f, gf4.generator, betas))
        assert kept is None or kept.shape[1] <= gf4.order - 1

    def test_zero_base_rejected(self, gf):
        with pytest.raises(GaloisFieldError):
            V.signature_vector(gf, np.array([1, 2]), (2, 0))


class TestLadderStack:
    def test_rows_are_the_per_beta_ladders(self):
        gf16 = GF(16)
        betas = (2, 4, 7)
        stack = V.ladder_stack(gf16, betas, 300)
        assert stack.shape == (3, 300)
        assert not stack.flags.writeable
        for row, beta in zip(stack, betas):
            assert np.array_equal(row, V.ladder_exponents(gf16, beta, 300))

    def test_capacity_grows_geometrically_to_the_page_bound(self):
        gf8 = GF(8)
        betas = (3, 5)
        key = (gf8.f, gf8.generator, betas)
        V.ladder_cache_clear()
        V.ladder_stack(gf8, betas, 10)
        first = V._STACKS[key]
        assert first.shape[1] == gf8.order - 1       # min capacity, capped
        for length in (1, 100, gf8.order - 1):
            V.ladder_stack(gf8, betas, length)
            assert V._STACKS[key] is first
        assert len(V._STACKS) == 1
        V.ladder_cache_clear()
        assert not V._STACKS


class TestTermsAndPrefix:
    def test_term_array(self, gf, rng):
        symbols = rng.integers(0, 256, 30).astype(np.int64)
        terms = V.term_array(gf, symbols, 2)
        for i, symbol in enumerate(symbols):
            assert terms[i] == gf.mul(int(symbol), gf.pow(2, i))

    def test_prefix_xor(self):
        terms = np.array([1, 2, 4], dtype=np.int64)
        assert V.prefix_xor(terms).tolist() == [0, 1, 3, 7]

    def test_prefix_xor_empty(self):
        assert V.prefix_xor(np.zeros(0, dtype=np.int64)).tolist() == [0]


class TestAllWindowSignatures:
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=40),
           st.integers(1, 10))
    @settings(max_examples=80)
    def test_every_window_matches_reference(self, symbols, window):
        gf = GF(8)
        arr = np.array(symbols, dtype=np.int64)
        out = V.all_window_signatures(gf, arr, gf.alpha, window)
        if window > arr.size:
            assert out.size == 0
            return
        assert out.size == arr.size - window + 1
        for k in range(out.size):
            assert out[k] == reference_component(gf, arr[k:k + window], gf.alpha)

    def test_bad_window_rejected(self, gf):
        with pytest.raises(GaloisFieldError):
            V.all_window_signatures(gf, np.array([1, 2]), 2, 0)


class TestScale:
    def test_scale_by_zero(self, gf, rng):
        values = rng.integers(0, 256, 10).astype(np.int64)
        assert not V.scale(gf, values, 0).any()

    def test_scale_by_one_copies(self, gf, rng):
        values = rng.integers(0, 256, 10).astype(np.int64)
        scaled = V.scale(gf, values, 1)
        assert np.array_equal(scaled, values)
        scaled[0] ^= 1
        assert not np.array_equal(scaled, values)  # it is a copy

    @given(st.lists(st.integers(0, 255), max_size=30), st.integers(1, 255))
    @settings(max_examples=60)
    def test_scale_matches_scalar(self, values, factor):
        gf = GF(8)
        arr = np.array(values, dtype=np.int64)
        scaled = V.scale(gf, arr, factor)
        for got, value in zip(scaled, values):
            assert got == gf.mul(value, factor)
