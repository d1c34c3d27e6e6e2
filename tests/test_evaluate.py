"""Ground truth, average precision, mAP, the synthetic protocol."""

import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    average_precision_fraction,
    groundtruth_neighbors_sets,
    map_exhaustive,
    mean_relevant_fraction_sets,
    project_scalar,
    reference_average_precision,
    reference_label_matrix01,
)
from streamhash import (
    CodeIndex,
    average_precision,
    encode_batch,
    fit_pca_itq,
    gen_synthetic_multilabel,
    groundtruth_neighbors,
    init_projection_state,
    mean_average_precision,
    mean_relevant_fraction,
    run_c_sweep,
    run_checkpoint_curve,
    run_streaming_pipeline,
    sample_label_matrix,
    split_queries,
)
from streamhash.evaluate import _label_matrix01

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "toy_retrieval_50.json"


# One label set in the forms callers pass: a frozenset, a list that may
# repeat a class, or numpy integers.
def label_set(max_class):
    classes = st.lists(st.integers(0, max_class), max_size=4)
    return st.one_of(
        classes.map(frozenset),
        classes,
        classes.map(lambda cs: [np.int64(c) for c in cs]),
        classes.map(lambda cs: np.array(cs, dtype=np.int32)),
    )


class TestGroundTruth:
    def test_shared_label_is_relevant(self):
        rel = groundtruth_neighbors({1, 2}, [{2}, {3}, {0, 1}, set()])
        np.testing.assert_array_equal(rel, [True, False, True, False])

    def test_no_overlap_anywhere(self):
        rel = groundtruth_neighbors({5}, [{1}, {2, 3}])
        assert not rel.any()

    # Database classes stop at 7 and query classes at 11, so some query
    # classes belong to no database item; empty label sets are allowed.
    @given(
        st.lists(st.frozensets(st.integers(0, 7), max_size=3), max_size=30),
        st.lists(st.frozensets(st.integers(0, 11), max_size=3), max_size=6),
    )
    @example([], [frozenset({1})])
    @example([frozenset(), frozenset({2})], [frozenset(), frozenset({9}), frozenset({2, 9})])
    @settings(max_examples=150, deadline=None)
    def test_matches_set_oracle_exactly(self, db_labels, query_labels):
        for q in query_labels:
            got = groundtruth_neighbors(q, db_labels)
            want = groundtruth_neighbors_sets(q, db_labels)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        got = mean_relevant_fraction(query_labels, db_labels)
        assert got == mean_relevant_fraction_sets(query_labels, db_labels)


class TestAveragePrecision:
    def test_all_relevant_is_one(self):
        assert average_precision([0, 1, 2], [True, True, True]) == 1.0

    def test_none_relevant_is_zero(self):
        assert average_precision([0, 1, 2], [False, False, False]) == 0.0

    def test_rel_irrel_rel_is_five_sixths(self):
        # (1/1 + 2/3) / 2 exactly; the float path is checked to one ulp
        # and the rational oracle hits the fraction dead on.
        ranking = [0, 1, 2]
        relevance = [True, False, True]
        assert average_precision_fraction(ranking, relevance) == Fraction(5, 6)
        assert average_precision(ranking, relevance) == pytest.approx(5 / 6, abs=1e-15)

    def test_single_relevant_at_rank_r(self):
        for r in range(1, 6):
            relevance = [False] * 5
            relevance[r - 1] = True
            assert average_precision([0, 1, 2, 3, 4], relevance) == pytest.approx(1.0 / r)

    def test_matches_rational_oracle_on_random_rankings(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            ranking = rng.permutation(n)
            relevance = rng.random(n) < 0.3
            want = float(average_precision_fraction(ranking.tolist(), relevance.tolist()))
            assert average_precision(ranking, relevance) == pytest.approx(want, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            average_precision([0, 1], [True])

    def test_random_ranking_concentrates_at_relevant_fraction(self):
        rng = np.random.default_rng(1)
        n, frac = 2000, 0.35
        relevance = rng.random(n) < frac
        aps = [
            average_precision(rng.permutation(n), relevance) for _ in range(20)
        ]
        assert abs(np.mean(aps) - relevance.mean()) < 0.02


class TestEvaluatorExactness:
    """The evaluator's kernels against their previous bodies, compared with ==."""

    @given(
        st.lists(st.booleans(), min_size=1, max_size=300),
        st.integers(0, 2**32 - 1),
    )
    @example([False] * 7, 0)
    @example([True] * 7, 0)
    @example([False] * 299 + [True], 1)
    @settings(max_examples=200, deadline=None)
    def test_average_precision_equals_reference(self, relevance, seed):
        ranking = np.random.default_rng(seed).permutation(len(relevance))
        got = average_precision(ranking, relevance)
        want = reference_average_precision(ranking, relevance)
        assert type(got) is float
        assert got == want
        assert average_precision(ranking.tolist(), np.array(relevance)) == want

    # Database classes stop at 7 and query classes at 11, so some query
    # classes belong to no database item; empty label sets are allowed.
    @given(
        st.lists(label_set(7), max_size=30),
        st.lists(label_set(11), max_size=6),
    )
    @example([], [])
    @example([], [[3]])
    @example([frozenset(), []], [frozenset({9})])
    @example([[2, 2, 0], np.array([5, 5])], [[np.int64(10)]])
    @settings(max_examples=200, deadline=None)
    def test_label_matrix_equals_reference(self, db_labels, query_labels):
        got = _label_matrix01(db_labels, query_labels)
        want = reference_label_matrix01(db_labels, query_labels)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


class TestMeanAveragePrecision:
    def build_toy(self):
        with open(FIXTURE) as f:
            raw = json.load(f)
        db_f = np.array(raw["db_features"])
        q_f = np.array(raw["query_features"])
        db_l = [frozenset(s) for s in raw["db_labels"]]
        q_l = [frozenset(s) for s in raw["query_labels"]]
        nbits, seed = raw["nbits"], raw["seed"]
        hm = fit_pca_itq(db_f, nbits, seed=seed)
        state = init_projection_state(nbits, db_f.shape[1], seed=seed + 2)
        index = CodeIndex(nbits)
        index.insert_many(encode_batch(hm, db_f))
        index.refresh_projected_codes(state.P)
        return raw, db_f, db_l, q_f, q_l, hm, state, index

    def test_matches_exhaustive_oracle_on_fixture(self):
        raw, db_f, db_l, q_f, q_l, hm, state, index = self.build_toy()
        from streamhash import encode, unpack_rows

        cached = unpack_rows(index._projected, raw["nbits"])
        relevances = [
            [bool(set(ql) & set(dl)) for dl in raw["db_labels"]]
            for ql in raw["query_labels"]
        ]
        for mode in ("sym", "asym"):
            if mode == "sym":
                q_codes = [
                    project_scalar(state.P, encode(hm, q).astype(float)) for q in q_f
                ]
            else:
                q_codes = [project_scalar(state.R, q) for q in q_f]
            want = map_exhaustive(cached, q_codes, relevances)
            run = mean_average_precision(index, hm, state, q_f, q_l, db_l, mode)
            assert run.mean_ap == pytest.approx(want, abs=1e-12)

    def test_per_query_fields_consistent(self):
        raw, db_f, db_l, q_f, q_l, hm, state, index = self.build_toy()
        run = mean_average_precision(index, hm, state, q_f, q_l, db_l, "asym")
        assert run.query_ids.shape == (10,)
        assert run.ap_values.shape == (10,)
        assert run.evaluated.all()
        assert run.mean_ap == pytest.approx(float(run.ap_values.mean()))

    def test_single_query_perfect_retrieval(self):
        nbits = 4
        index = CodeIndex(nbits)
        hm = fit_pca_itq(np.random.default_rng(3).standard_normal((20, 6)), nbits, seed=3)
        db = np.random.default_rng(4).standard_normal((12, 6))
        index.insert_many(encode_batch(hm, db))
        state = init_projection_state(nbits, 6, seed=5)
        index.refresh_projected_codes(state.P)
        # Every database item shares the query's label: AP must be 1.
        run = mean_average_precision(
            index, hm, state, db[:1], [{0}], [{0}] * 12, "sym"
        )
        assert run.mean_ap == 1.0

    def test_unevaluated_queries_excluded(self):
        raw, db_f, db_l, q_f, q_l, hm, state, index = self.build_toy()
        # Give one query a label no database point has.
        q_l2 = list(q_l)
        q_l2[0] = frozenset({4}) if not any(4 in d for d in db_l) else q_l2[0]
        run = mean_average_precision(index, hm, state, q_f, q_l, db_l, "sym")
        assert int(run.evaluated.sum()) >= 9

    def test_stale_cache_rejected(self):
        raw, db_f, db_l, q_f, q_l, hm, state, index = self.build_toy()
        state.P = state.P + 1.0
        from streamhash import StaleProjectionError

        with pytest.raises(StaleProjectionError):
            mean_average_precision(index, hm, state, q_f, q_l, db_l, "sym")

    def test_bad_mode_rejected(self):
        raw, db_f, db_l, q_f, q_l, hm, state, index = self.build_toy()
        with pytest.raises(ValueError):
            mean_average_precision(index, hm, state, q_f, q_l, db_l, "best")

    def test_label_count_mismatch_rejected(self):
        raw, db_f, db_l, q_f, q_l, hm, state, index = self.build_toy()
        with pytest.raises(ValueError):
            mean_average_precision(index, hm, state, q_f, q_l, db_l[:-1], "sym")


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = gen_synthetic_multilabel(100, 8, 4, seed=7)
        b = gen_synthetic_multilabel(100, 8, 4, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.labels == b.labels

    def test_every_point_has_a_label(self):
        ds = gen_synthetic_multilabel(500, 6, 5, seed=8)
        assert all(len(s) >= 1 for s in ds.labels)
        assert all(0 <= c < 5 for s in ds.labels for c in s)

    def test_noiseless_points_are_centroid_means(self):
        ds = gen_synthetic_multilabel(600, 10, 6, seed=9, cluster_spread=0.0)
        by_set = {}
        for f, s in zip(ds.features, ds.labels):
            by_set.setdefault(s, []).append(f)
        # Same label set, same point.
        for rows in by_set.values():
            for row in rows[1:]:
                np.testing.assert_array_equal(row, rows[0])
        # A pair sits exactly between its two singletons.
        checked = 0
        for s, rows in by_set.items():
            if len(s) != 2:
                continue
            a, b = sorted(s)
            sa, sb = by_set.get(frozenset({a})), by_set.get(frozenset({b}))
            if sa and sb:
                np.testing.assert_allclose(rows[0], (sa[0] + sb[0]) / 2, rtol=0, atol=1e-15)
                checked += 1
        assert checked >= 3

    def test_tiny_label_mean_rejected_not_hung(self):
        with pytest.raises(ValueError):
            gen_synthetic_multilabel(5, 4, 3, seed=0, labels_per_point_mean=1e-12)

    def test_label_count_distribution_respects_mean(self):
        ds = gen_synthetic_multilabel(3000, 4, 10, seed=10, labels_per_point_mean=2.0)
        sizes = np.array([len(s) for s in ds.labels])
        # >=1-truncated Poisson(2): mean 2/(1-e^-2) ~ 2.313.
        assert abs(sizes.mean() - 2.0 / (1 - np.exp(-2.0))) < 0.1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic_multilabel(0, 4, 2, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic_multilabel(10, 4, 2, seed=0, labels_per_point_mean=0.0)
        with pytest.raises(ValueError):
            gen_synthetic_multilabel(10, 4, 2, seed=0, cluster_spread=-0.5)


class TestSplitQueries:
    def test_partition_is_exact(self):
        ds = gen_synthetic_multilabel(120, 6, 4, seed=11)
        db_f, db_l, q_f, q_l = split_queries(ds.features, ds.labels, 20, seed=11)
        assert db_f.shape == (100, 6)
        assert q_f.shape == (20, 6)
        assert len(db_l) == 100 and len(q_l) == 20
        merged = np.vstack([db_f, q_f])
        assert {tuple(r) for r in merged} == {tuple(r) for r in ds.features}

    def test_bad_query_count_rejected(self):
        ds = gen_synthetic_multilabel(50, 6, 4, seed=12)
        with pytest.raises(ValueError):
            split_queries(ds.features, ds.labels, 50, seed=12)


class TestPipelines:
    def test_streaming_pipeline_learns_something(self):
        ds = gen_synthetic_multilabel(1200, 16, 5, seed=13)
        db_f, db_l, q_f, q_l = split_queries(ds.features, ds.labels, 150, seed=13)
        pipe = run_streaming_pipeline(db_f, db_l, 5, 16, seed=13, init_size=150, chunk_size=300)
        assert len(pipe.index) == len(db_f) - 150
        assert pipe.index.n_projected == len(pipe.index)
        run = mean_average_precision(
            pipe.index, pipe.hash_model, pipe.state, q_f, q_l, pipe.db_labels, "asym"
        )
        base = mean_relevant_fraction(q_l, pipe.db_labels)
        assert run.mean_ap > base

    def test_checkpoint_curve_rows(self):
        ds = gen_synthetic_multilabel(900, 12, 4, seed=14)
        db_f, db_l, q_f, q_l = split_queries(ds.features, ds.labels, 100, seed=14)
        from streamhash import fit_pca_itq, sample_label_matrix

        hm = fit_pca_itq(db_f[:100], 8, seed=14)
        lm = sample_label_matrix(4, 8, seed=15)
        curve = run_checkpoint_curve(
            hm, lm, db_f, db_l, q_f, q_l,
            checkpoints=[200, 400, 10000],
            init_size=100, chunk_size=200, proj_seed=16,
        )
        points = [p for p, _ in curve]
        assert points == [200, 400, 700]
        assert all(0.0 <= r.mean_ap <= 1.0 for _, r in curve)

    def test_c_sweep_shape_and_determinism(self):
        ds = gen_synthetic_multilabel(700, 10, 4, seed=17)
        rows = run_c_sweep(ds, 8, [0.01, 0.1], seed=17, n_queries=80, init_size=80, chunk_size=200)
        rows2 = run_c_sweep(ds, 8, [0.01, 0.1], seed=17, n_queries=80, init_size=80, chunk_size=200)
        assert rows == rows2
        assert [c for c, _ in rows] == [0.01, 0.1]
        assert all(0.0 <= m <= 1.0 for _, m in rows)

    def test_c_sweep_rejects_nonpositive(self):
        ds = gen_synthetic_multilabel(400, 8, 3, seed=18)
        with pytest.raises(ValueError):
            run_c_sweep(ds, 8, [0.0], seed=18, n_queries=50, init_size=50)
