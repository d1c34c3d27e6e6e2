"""Code index: inserts, refresh semantics, ranking, staleness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import project_scalar, rank_exhaustive
from streamhash import CodeIndex, StaleProjectionError, pack_rows, sign, unpack_rows
from streamhash import index as index_module
from streamhash.codes import pack_bools


def random_codes(rng, n, nbits):
    return sign(rng.standard_normal((n, nbits)))


class TestInsert:
    def test_ids_are_dense_insertion_order(self):
        index = CodeIndex(8)
        rng = np.random.default_rng(0)
        for expected in range(5):
            assert index.insert(random_codes(rng, 1, 8)[0]) == expected
        ids = index.insert_many(random_codes(rng, 4, 8))
        np.testing.assert_array_equal(ids, [5, 6, 7, 8])
        assert len(index) == 9

    def test_stored_codes_survive_growth(self):
        index = CodeIndex(12)
        rng = np.random.default_rng(1)
        codes = random_codes(rng, 3000, 12)
        index.insert_many(codes)
        np.testing.assert_array_equal(index.stored_code(0), codes[0])
        np.testing.assert_array_equal(index.stored_code(2999), codes[2999])

    def test_wrong_length_rejected(self):
        index = CodeIndex(8)
        with pytest.raises(ValueError):
            index.insert(np.ones(9, np.int8))

    def test_non_sign_entries_rejected(self):
        index = CodeIndex(4)
        with pytest.raises(ValueError):
            index.insert_many(np.zeros((2, 4), np.int8))

    def test_out_of_range_id_rejected(self):
        index = CodeIndex(4)
        index.insert(np.ones(4, np.int8))
        with pytest.raises(IndexError):
            index.stored_code(1)


class TestRefresh:
    def test_identity_projection_reproduces_codes(self):
        index = CodeIndex(8)
        rng = np.random.default_rng(2)
        codes = random_codes(rng, 20, 8)
        index.insert_many(codes)
        index.refresh_projected_codes(np.eye(8))
        ids, dists = index.query_symmetric(np.eye(8), codes[7], k=1)
        assert ids[0] == 7
        assert dists[0] == 0

    def test_negated_identity_complements(self):
        index = CodeIndex(4)
        code = np.array([1, -1, 1, 1], np.int8)
        index.insert(code)
        index.refresh_projected_codes(-np.eye(4))
        # sign(-h) flips every bit except where -h == 0 (impossible here).
        ids, dists = index.query_symmetric(-np.eye(4), code, k=1)
        # The query passes through the same flip, so distance stays 0.
        assert dists[0] == 0

    def test_matches_scalar_projection_oracle(self):
        index = CodeIndex(6)
        rng = np.random.default_rng(3)
        codes = random_codes(rng, 40, 6)
        index.insert_many(codes)
        P = rng.standard_normal((6, 6))
        index.refresh_projected_codes(P)
        from streamhash import unpack_rows

        cached = unpack_rows(index._projected, 6)
        for i in range(40):
            assert cached[i].tolist() == project_scalar(P, codes[i])

    def test_version_increments(self):
        index = CodeIndex(4)
        index.insert(np.ones(4, np.int8))
        assert index.projection_version == 0
        index.refresh_projected_codes(np.eye(4))
        assert index.projection_version == 1
        index.refresh_projected_codes(np.eye(4) * 2)
        assert index.projection_version == 2

    def test_inserts_after_refresh_are_unreachable_until_next(self):
        index = CodeIndex(4)
        rng = np.random.default_rng(4)
        index.insert_many(random_codes(rng, 3, 4))
        index.refresh_projected_codes(np.eye(4))
        index.insert(np.ones(4, np.int8))
        assert len(index) == 4
        assert index.n_projected == 3
        ids, _ = index.query_symmetric(np.eye(4), np.ones(4, np.int8), k=10)
        assert len(ids) == 3
        index.refresh_projected_codes(np.eye(4))
        ids, _ = index.query_symmetric(np.eye(4), np.ones(4, np.int8), k=10)
        assert len(ids) == 4

    def test_shape_mismatch_rejected(self):
        index = CodeIndex(4)
        with pytest.raises(ValueError):
            index.refresh_projected_codes(np.eye(5))

    def test_refresh_never_touches_features(self):
        # The index API cannot even accept features; refresh works from
        # codes alone after the source array is gone.
        index = CodeIndex(16)
        rng = np.random.default_rng(5)
        codes = random_codes(rng, 500, 16)
        index.insert_many(codes)
        del codes
        index.refresh_projected_codes(rng.standard_normal((16, 16)))
        assert index.n_projected == 500


    @pytest.mark.parametrize("nbits", [1, 7, 8, 63, 64, 65, 130])
    def test_cache_words_equal_the_sign_then_pack_path(self, nbits, monkeypatch):
        # Direct packing of (h @ P) >= 0 must give the words of
        # pack_rows(sign(h @ P)), pad bits included, across block edges.
        monkeypatch.setattr(index_module, "REFRESH_BLOCK_ROWS", 7)
        rng = np.random.default_rng(nbits)
        codes = random_codes(rng, 30, nbits)
        P = rng.standard_normal((nbits, nbits))
        P[:, 0] = 0.0  # zero scores: sign(0) = +1
        index = CodeIndex(nbits)
        index.insert_many(codes)
        index.refresh_projected_codes(P)
        expected = pack_rows(sign(unpack_rows(index._words[:30], nbits).astype(np.float64) @ P))
        assert index._projected.dtype == expected.dtype
        assert index._projected.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("nbits", [32, 64])
    @pytest.mark.parametrize("n", [8191, 8192, 8193, 20000, 3 * 8192 + 1])
    def test_blocked_refresh_equals_one_product(self, n, nbits, monkeypatch):
        # With the shipped block size, a refresh must give the words of one
        # product over the whole database, whatever block the edge rows fall
        # in, and no block may be narrower than the block size.
        assert index_module.REFRESH_BLOCK_ROWS == 8192
        rng = np.random.default_rng(n + nbits)
        index = CodeIndex(nbits)
        index.insert_many(random_codes(rng, n, nbits))
        P = rng.standard_normal((nbits, nbits))
        widths = []

        def recording_unpack(words, nbits):
            widths.append(words.shape[0])
            return unpack_rows(words, nbits)

        monkeypatch.setattr(index_module, "unpack_rows", recording_unpack)
        index.refresh_projected_codes(P)
        monkeypatch.undo()
        assert set(widths) == {min(n, 8192)} and len(widths) == -(-n // 8192)
        expected = pack_bools(unpack_rows(index._words[:n], nbits).astype(np.float64) @ P >= 0.0)
        assert index._projected.tobytes() == expected.tobytes()


class TestTruncate:
    def test_keeps_the_first_codes_and_reuses_the_ids(self):
        rng = np.random.default_rng(6)
        codes = random_codes(rng, 12, 10)
        index = CodeIndex(10)
        index.insert_many(codes)
        index.truncate(5)
        assert len(index) == 5
        np.testing.assert_array_equal(index.stored_code(4), codes[4])
        with pytest.raises(IndexError):
            index.stored_code(5)
        assert index.insert(codes[11]) == 5
        np.testing.assert_array_equal(index.stored_code(5), codes[11])

    def test_cache_within_the_kept_codes_survives(self):
        rng = np.random.default_rng(7)
        index = CodeIndex(6)
        index.insert_many(random_codes(rng, 4, 6))
        index.refresh_projected_codes(np.eye(6))
        index.insert_many(random_codes(rng, 3, 6))
        index.truncate(4)
        assert index.n_projected == 4
        assert index.projection_version == 1
        index.assert_fresh(np.eye(6))

    def test_cache_over_dropped_codes_is_dropped(self):
        rng = np.random.default_rng(8)
        index = CodeIndex(6)
        index.insert_many(random_codes(rng, 9, 6))
        index.refresh_projected_codes(np.eye(6))
        index.truncate(4)
        assert index.n_projected == 0
        with pytest.raises(StaleProjectionError):
            index.assert_fresh(np.eye(6))

    @pytest.mark.parametrize("n", [-1, 4])
    def test_out_of_range_rejected(self, n):
        index = CodeIndex(4)
        index.insert_many(np.ones((3, 4), np.int8))
        with pytest.raises(ValueError):
            index.truncate(n)


class TestStaleness:
    def test_query_before_any_refresh_fails(self):
        index = CodeIndex(4)
        index.insert(np.ones(4, np.int8))
        with pytest.raises(StaleProjectionError):
            index.query_symmetric(np.eye(4), np.ones(4, np.int8), k=1)
        with pytest.raises(StaleProjectionError):
            index.query_asymmetric(np.zeros((7, 4)), np.zeros(7), k=1)

    def test_query_with_changed_projection_fails(self):
        index = CodeIndex(4)
        index.insert(np.ones(4, np.int8))
        index.refresh_projected_codes(np.eye(4))
        with pytest.raises(StaleProjectionError):
            index.query_symmetric(2 * np.eye(4), np.ones(4, np.int8), k=1)

    def test_assert_fresh_accepts_current_projection(self):
        index = CodeIndex(4)
        index.insert(np.ones(4, np.int8))
        P = np.arange(16, dtype=np.float64).reshape(4, 4)
        index.refresh_projected_codes(P)
        index.assert_fresh(P)
        with pytest.raises(StaleProjectionError):
            index.assert_fresh(P + 1e-12)


class TestRanking:
    def build(self, seed=6, n=60, nbits=10):
        rng = np.random.default_rng(seed)
        index = CodeIndex(nbits)
        codes = random_codes(rng, n, nbits)
        index.insert_many(codes)
        P = rng.standard_normal((nbits, nbits))
        index.refresh_projected_codes(P)
        return index, codes, P, rng

    def test_matches_exhaustive_oracle(self):
        index, codes, P, rng = self.build()
        from streamhash import unpack_rows

        cached = unpack_rows(index._projected, 10)
        for _ in range(10):
            q = sign(rng.standard_normal(10))
            g_q = np.array(project_scalar(P, q), np.int8)
            want_ids, want_dists = rank_exhaustive(g_q, cached)
            got_ids, got_dists = index.query_symmetric(P, q, k=60)
            assert got_ids.tolist() == want_ids
            assert got_dists.tolist() == want_dists

    def test_ties_break_by_ascending_id(self):
        index = CodeIndex(4)
        code = np.array([1, 1, -1, 1], np.int8)
        for _ in range(5):
            index.insert(code)
        index.refresh_projected_codes(np.eye(4))
        ids, dists = index.query_symmetric(np.eye(4), code, k=5)
        assert ids.tolist() == [0, 1, 2, 3, 4]
        assert dists.tolist() == [0] * 5

    def test_k_larger_than_database_returns_all(self):
        index, codes, P, rng = self.build(n=7)
        ids, _ = index.query_symmetric(P, codes[0], k=50)
        assert len(ids) == 7

    def test_k_below_one_rejected(self):
        index, codes, P, rng = self.build(n=5)
        with pytest.raises(ValueError):
            index.query_symmetric(P, codes[0], k=0)

    def test_asymmetric_ranks_by_feature_projection(self):
        index, codes, P, rng = self.build(nbits=6, n=30)
        R = rng.standard_normal((9, 6))
        x = rng.standard_normal(9)
        from streamhash import unpack_rows

        cached = unpack_rows(index._projected, 6)
        g_q = np.array(project_scalar(R, x), np.int8)
        want_ids, want_dists = rank_exhaustive(g_q, cached)
        got_ids, got_dists = index.query_asymmetric(R, x, k=30)
        assert got_ids.tolist() == want_ids
        assert got_dists.tolist() == want_dists

    def test_asymmetric_shape_checks(self):
        index, codes, P, rng = self.build(nbits=6, n=5)
        with pytest.raises(ValueError):
            index.query_asymmetric(np.zeros((9, 5)), np.zeros(9), k=1)
        with pytest.raises(ValueError):
            index.query_asymmetric(np.zeros((9, 6)), np.zeros(8), k=1)

    def test_deterministic_between_calls(self):
        index, codes, P, rng = self.build()
        q = codes[3]
        a = index.query_symmetric(P, q, k=20)
        b = index.query_symmetric(P, q, k=20)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


@st.composite
def tied_ranking_cases(draw):
    """A small index whose stored codes come from a pool of 1-4 codes."""
    nbits = draw(st.sampled_from([1, 8, 63, 64, 65, 191, 192, 193, 255, 256, 257, 300]))
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, n + 3))
    pool = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return nbits, n, k, pool, seed


class TestRankingExactness:
    """query_* against the scalar oracle, with heavy ties and every k.

    Projections and query features are small integers, so every score is
    exact in float64 and the scalar projection agrees with the BLAS one.
    """

    def build(self, nbits, n, pool, seed):
        rng = np.random.default_rng(seed)
        codes = random_codes(rng, pool, nbits)[rng.integers(0, pool, size=n)]
        index = CodeIndex(nbits)
        index.insert_many(codes)
        P = rng.integers(-2, 3, size=(nbits, nbits)).astype(np.float64)
        index.refresh_projected_codes(P)
        return index, codes, P, rng, unpack_rows(index._projected, nbits)

    @staticmethod
    def check(got, want_ids, want_dists, k):
        ids, dists = got
        assert ids.dtype == np.int64 and dists.dtype == np.int64
        assert ids.tolist() == want_ids[:k]
        assert dists.tolist() == want_dists[:k]

    @given(tied_ranking_cases())
    @settings(max_examples=120, deadline=None)
    def test_symmetric_matches_exhaustive_oracle(self, case):
        nbits, n, k, pool, seed = case
        index, codes, P, rng, cached = self.build(nbits, n, pool, seed)
        q = codes[rng.integers(0, n)] if rng.random() < 0.5 else random_codes(rng, 1, nbits)[0]
        want_ids, want_dists = rank_exhaustive(np.array(project_scalar(P, q), np.int8), cached)
        self.check(index.query_symmetric(P, q, k), want_ids, want_dists, k)

    @given(tied_ranking_cases(), st.integers(1, 5))
    @settings(max_examples=120, deadline=None)
    def test_asymmetric_matches_exhaustive_oracle(self, case, dim):
        nbits, n, k, pool, seed = case
        index, codes, P, rng, cached = self.build(nbits, n, pool, seed)
        R = rng.integers(-2, 3, size=(dim, nbits)).astype(np.float64)
        x = rng.integers(-3, 4, size=dim).astype(np.float64)
        want_ids, want_dists = rank_exhaustive(np.array(project_scalar(R, x), np.int8), cached)
        self.check(index.query_asymmetric(R, x, k), want_ids, want_dists, k)
