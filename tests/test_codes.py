"""Packing, unpacking and Hamming kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hamming_scalar
from streamhash import (
    PackedCode,
    hamming,
    hamming_rows,
    pack_code,
    pack_rows,
    sign,
    unpack_code,
    unpack_rows,
)


class TestSign:
    def test_zero_maps_to_plus_one(self):
        assert sign(np.array([0.0]))[0] == 1
        assert sign(np.array([-0.0]))[0] == 1

    def test_basic_values(self):
        np.testing.assert_array_equal(
            sign(np.array([-3.5, -1e-300, 0.0, 1e-300, 2.0])),
            np.array([-1, -1, 1, 1, 1], dtype=np.int8),
        )

    def test_dtype_is_int8(self):
        assert sign(np.array([1.0, -1.0])).dtype == np.int8


class TestPacking:
    def test_all_plus_one_sets_low_bits(self):
        code = pack_code(np.ones(8, dtype=np.int8))
        assert code.words.tolist() == [0xFF]

    def test_all_minus_one_is_zero(self):
        code = pack_code(-np.ones(70, dtype=np.int8))
        assert code.words.tolist() == [0, 0]

    def test_bit_i_lands_in_word_i_div_64(self):
        bits = -np.ones(72, dtype=np.int8)
        for pos in (0, 5, 64, 70):
            bits[pos] = 1
        code = pack_code(bits)
        assert code.words[0] == (1 << 0) + (1 << 5)
        assert code.words[1] == (1 << 0) + (1 << 6)

    def test_exhaustive_three_bit_roundtrip(self):
        for pattern in range(8):
            bits = np.array([1 if pattern >> i & 1 else -1 for i in range(3)], np.int8)
            packed = pack_code(bits)
            assert packed.words[0] == pattern
            np.testing.assert_array_equal(unpack_code(packed), bits)

    @pytest.mark.parametrize("nbits", [1, 7, 63, 64, 65, 128, 200])
    def test_roundtrip_random_matrix(self, nbits):
        rng = np.random.default_rng(nbits)
        bits = sign(rng.standard_normal((40, nbits)))
        np.testing.assert_array_equal(unpack_rows(pack_rows(bits), nbits), bits)

    def test_word_count(self):
        assert pack_code(np.ones(64, np.int8)).words.shape == (1,)
        assert pack_code(np.ones(65, np.int8)).words.shape == (2,)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pack_code(np.ones(5, np.int8), nbits=6)

    def test_non_sign_entries_rejected(self):
        with pytest.raises(ValueError):
            pack_code(np.array([1, 0, -1], np.int8))

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError):
            pack_code(np.ones((2, 3), np.int8))

    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, bits):
        arr = np.array(bits, dtype=np.int8)
        np.testing.assert_array_equal(unpack_code(pack_code(arr)), arr)


class TestHamming:
    def test_identical_is_zero(self):
        a = pack_code(np.ones(33, np.int8))
        assert hamming(a, a) == 0

    def test_single_flip(self):
        bits = np.ones(33, np.int8)
        flipped = bits.copy()
        flipped[20] = -1
        assert hamming(pack_code(bits), pack_code(flipped)) == 1

    def test_complement_is_nbits(self):
        rng = np.random.default_rng(7)
        bits = sign(rng.standard_normal(129))
        assert hamming(pack_code(bits), pack_code(-bits)) == 129

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for nbits in (5, 64, 100, 190):
            a = sign(rng.standard_normal(nbits))
            b = sign(rng.standard_normal(nbits))
            assert hamming(pack_code(a), pack_code(b)) == hamming_scalar(a, b)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, b, c = (sign(rng.standard_normal(77)) for _ in range(3))
            pa, pb, pc = pack_code(a), pack_code(b), pack_code(c)
            assert hamming(pa, pb) == hamming(pb, pa)
            assert hamming(pa, pc) <= hamming(pa, pb) + hamming(pb, pc)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming(pack_code(np.ones(4, np.int8)), pack_code(np.ones(5, np.int8)))

    def test_hamming_rows_matches_pairwise(self):
        rng = np.random.default_rng(17)
        db = sign(rng.standard_normal((30, 90)))
        q = sign(rng.standard_normal(90))
        words = pack_rows(db)
        dists = hamming_rows(pack_code(q).words, words)
        expected = [hamming_scalar(q, row) for row in db]
        np.testing.assert_array_equal(dists, expected)

    @pytest.mark.parametrize("n_words", [1, 3, 4, 5])
    @pytest.mark.parametrize("pad", [0, 5])
    def test_hamming_rows_is_narrow_and_exact(self, n_words, pad):
        # uint8 holds 192 bits at most, so 4 and 5 words need uint16; the
        # complement row reaches the largest distance the width allows.
        nbits = 64 * n_words - pad
        rng = np.random.default_rng(nbits)
        q = sign(rng.standard_normal(nbits))
        db = np.vstack([q, -q, sign(rng.standard_normal((40, nbits)))])
        dists = hamming_rows(pack_code(q).words, pack_rows(db))
        assert dists.dtype == np.min_scalar_type(64 * n_words)
        assert dists.dtype == (np.uint8 if n_words <= 3 else np.uint16)
        assert dists.tolist() == [hamming_scalar(q, row) for row in db]
        assert dists[1] == nbits

    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_distance_bounds_property(self, bits):
        a = np.array(bits, dtype=np.int8)
        rng = np.random.default_rng(len(bits))
        b = sign(rng.standard_normal(a.size))
        d = hamming(pack_code(a), pack_code(b))
        assert 0 <= d <= a.size


class TestPackedCode:
    def test_words_are_read_only(self):
        code = pack_code(np.ones(10, np.int8))
        with pytest.raises(ValueError):
            code.words[0] = 0

    def test_holds_nbits(self):
        assert PackedCode(words=np.zeros(1, "<u8"), nbits=3).nbits == 3
