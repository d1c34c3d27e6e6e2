"""Passive-aggressive updates, the stream driver and the mistake bounds."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    reference_process_chunk,
    reference_process_stream_point,
    solve_soft_margin_step,
)
from streamhash import (
    BoundLedger,
    CodeIndex,
    EmptyLabelError,
    ZeroNormError,
    fit_pca_itq,
    hinge_loss_code,
    hinge_loss_feature,
    init_projection_state,
    mistake_bound,
    process_chunk,
    process_stream_point,
    sample_label_matrix,
    sign,
    update_code_projection,
    update_feature_projection,
)


def random_code(rng, nbits):
    return sign(rng.standard_normal(nbits))


class TestHingeLoss:
    def test_wide_margin_is_free(self):
        assert hinge_loss_code(1, np.array([2.0, 0.0]), np.array([1, 1], np.int8)) == 0.0

    def test_margin_exactly_one_is_free(self):
        assert hinge_loss_code(1, np.array([0.5, 0.5]), np.array([1, 1], np.int8)) == 0.0

    def test_wrong_side_costs_more_than_one(self):
        loss = hinge_loss_code(-1, np.array([0.25, 0.25]), np.array([1, 1], np.int8))
        assert loss == pytest.approx(1.5)

    def test_feature_side_matches_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w, x = rng.standard_normal(6), rng.standard_normal(6)
            g = int(rng.choice([-1, 1]))
            expected = max(0.0, 1.0 - g * float(w @ x))
            assert hinge_loss_feature(g, w, x) == pytest.approx(expected, abs=1e-15)


class TestCodeUpdate:
    def test_frozen_clipped_step(self):
        # Margin 0 from the origin, loss 1, loss/K = 0.5 clipped to 0.1.
        p, tau = update_code_projection(
            np.zeros(2), np.array([1, 1], np.int8), 1, 0.1
        )
        assert tau == pytest.approx(0.1)
        np.testing.assert_allclose(p, [0.1, 0.1])

    def test_frozen_step_matches_qp(self):
        p, _ = update_code_projection(np.zeros(2), np.array([1, 1], np.int8), 1, 0.1)
        qp = solve_soft_margin_step(np.zeros(2), np.array([1.0, 1.0]), 1, 0.1)
        np.testing.assert_allclose(p, qp, atol=1e-8)

    def test_passive_round_returns_same_object(self):
        w = np.array([1.0, 1.0])
        code = np.array([1, 1], np.int8)
        w_next, tau = update_code_projection(w, code, 1, 0.1)
        assert w_next is w
        assert tau == 0.0

    def test_step_size_clipped_to_aggressiveness(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            nbits = int(rng.integers(2, 40))
            w = rng.standard_normal(nbits)
            code = random_code(rng, nbits)
            g = int(rng.choice([-1, 1]))
            c = float(rng.uniform(0.001, 5))
            _, tau = update_code_projection(w, code, g, c)
            assert 0.0 <= tau <= c

    def test_unclipped_step_closes_margin_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            nbits = int(rng.integers(2, 40))
            w = rng.standard_normal(nbits) * 0.01
            code = random_code(rng, nbits)
            g = int(rng.choice([-1, 1]))
            loss = hinge_loss_code(g, w, code)
            if loss == 0.0:
                continue
            w_next, tau = update_code_projection(w, code, g, 100.0)
            assert tau < 100.0
            assert g * float(w_next @ code) == pytest.approx(1.0, abs=1e-12)

    def test_step_norm_is_tau_times_sqrt_nbits(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(16) * 0.01
        code = random_code(rng, 16)
        w_next, tau = update_code_projection(w, code, 1, 0.05)
        assert np.linalg.norm(w_next - w) == pytest.approx(tau * 4.0, rel=1e-12)

    def test_nonpositive_aggressiveness_rejected(self):
        with pytest.raises(ValueError):
            update_code_projection(np.zeros(2), np.array([1, 1], np.int8), 1, 0.0)


class TestFeatureUpdate:
    def test_frozen_step(self):
        # x = (2, 0), target -1: loss 1, ||x||^2 = 4, tau = 1/4.
        r, tau = update_feature_projection(np.zeros(2), np.array([2.0, 0.0]), -1, 10.0)
        assert tau == pytest.approx(0.25)
        np.testing.assert_allclose(r, [-0.5, 0.0])
        assert hinge_loss_feature(-1, r, np.array([2.0, 0.0])) == 0.0

    def test_matches_qp_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            dim = int(rng.integers(2, 30))
            w = rng.standard_normal(dim)
            x = rng.standard_normal(dim) * rng.uniform(0.3, 3)
            g = int(rng.choice([-1, 1]))
            c = float(rng.uniform(0.01, 5))
            w_next, _ = update_feature_projection(w, x, g, c)
            qp = solve_soft_margin_step(w, x, g, c)
            np.testing.assert_allclose(w_next, qp, atol=1e-7)

    def test_zero_norm_with_loss_rejected(self):
        with pytest.raises(ZeroNormError):
            update_feature_projection(np.ones(3), np.zeros(3), -1, 0.1)

    def test_step_norm_is_tau_times_feature_norm(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(12) * 2
        w_next, tau = update_feature_projection(np.zeros(12), x, 1, 0.3)
        assert np.linalg.norm(w_next) == pytest.approx(tau * np.linalg.norm(x), rel=1e-12)


def small_world(seed=0, nbits=8, dim=12, n_classes=4, n_points=150):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_points, dim))
    labels = [frozenset({int(rng.integers(n_classes))}) for _ in range(n_points)]
    model = fit_pca_itq(X[:40], nbits, seed=seed)
    lm = sample_label_matrix(n_classes, nbits, seed=seed + 1)
    return X, labels, model, lm


class TestProcessStream:
    def test_rounds_and_ledger_counts_advance(self):
        X, labels, model, lm = small_world()
        state = init_projection_state(8, 12, seed=2, record_stream=True)
        for i in range(40, 90):
            process_stream_point(state, lm, model, X[i], labels[i])
        assert state.rounds_seen == 50
        assert state.ledger.rounds == 50
        codes, targets = state.ledger.code_stream()
        assert codes.shape == (50, 8)
        assert targets.shape == (50, 8)
        feats, _ = state.ledger.feature_stream()
        assert feats.shape == (50, 12)

    def test_matches_per_bit_scalar_replay(self):
        # Column j must depend only on the sequence {(code_t, target_tj)}.
        # Tolerance covers dot-kernel roundoff only; cross-bit leakage
        # would show up at the step-size scale (~1e-2).
        X, labels, model, lm = small_world(seed=6)
        state = init_projection_state(8, 12, seed=7, record_stream=True)
        p0 = state.P.copy()
        r0 = state.R.copy()
        for i in range(40, 120):
            process_stream_point(state, lm, model, X[i], labels[i])
        codes, targets = state.ledger.code_stream()
        feats, _ = state.ledger.feature_stream()
        for j in range(8):
            p = p0[:, j].copy()
            r = r0[:, j].copy()
            for t in range(codes.shape[0]):
                p, _ = update_code_projection(p, codes[t], int(targets[t, j]), 0.1)
                r, _ = update_feature_projection(r, feats[t], int(targets[t, j]), 0.1)
            np.testing.assert_allclose(state.P[:, j], p, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.R[:, j], r, rtol=0, atol=1e-12)

    def test_identical_runs_are_bit_identical(self):
        X, labels, model, lm = small_world(seed=8)
        runs = []
        for _ in range(2):
            state = init_projection_state(8, 12, seed=9)
            for i in range(40, 110):
                process_stream_point(state, lm, model, X[i], labels[i])
            runs.append((state.P.tobytes(), state.R.tobytes()))
        assert runs[0] == runs[1]

    def test_mistakes_counted_per_bit_pre_update(self):
        X, labels, model, lm = small_world(seed=10)
        state = init_projection_state(8, 12, seed=11)
        x = X[50]
        code = None
        from streamhash import encode, ideal_code

        h = encode(model, x).astype(np.float64)
        target = ideal_code(lm, labels[50])
        expected_code = sign(h @ state.P) != target
        expected_feat = sign(np.asarray(x) @ state.R) != target
        process_stream_point(state, lm, model, x, labels[50], code=code)
        np.testing.assert_array_equal(state.ledger.code_mistakes, expected_code.astype(np.int64))
        np.testing.assert_array_equal(state.ledger.feature_mistakes, expected_feat.astype(np.int64))

    def test_r_max_tracks_largest_norm(self):
        X, labels, model, lm = small_world(seed=12)
        state = init_projection_state(8, 12, seed=13)
        for i in range(40, 80):
            process_stream_point(state, lm, model, X[i], labels[i])
        norms = np.linalg.norm(X[40:80], axis=1)
        assert state.ledger.r_max == pytest.approx(float(norms.max()), rel=1e-12)


def learner_bytes(state):
    """Everything the learner writes, as bytes, for exact comparison."""
    led = state.ledger
    out = [
        state.P.tobytes(),
        state.R.tobytes(),
        led.code_mistakes.tobytes(),
        led.feature_mistakes.tobytes(),
        np.float64(led.r_max).tobytes(),
        led.rounds,
        state.rounds_seen,
    ]
    if led.record_stream:
        for arr in (*led.code_stream(), led.feature_stream()[0]):
            out += [arr.dtype.str, arr.shape, arr.tobytes()]
    return out


def run_chunks(process, state, lm, model, X, labels, sizes):
    """Feed X in chunks of the cycled sizes; return where a ZeroNormError stopped it."""
    start = 0
    for size in itertools.cycle(sizes):
        if start >= X.shape[0]:
            return None
        try:
            process(state, lm, model, X[start : start + size], labels[start : start + size])
        except ZeroNormError:
            return start
        start += size


@st.composite
def labelled_streams(draw):
    nbits = draw(st.integers(1, 10))
    dim = nbits + draw(st.integers(0, 5))
    n_classes = draw(st.integers(1, 6))
    n = draw(st.integers(0, 40))
    # Unsorted label lists with repeats: the target cache must be order- and
    # duplicate-insensitive exactly like ideal_code.
    labels = draw(
        st.lists(
            st.lists(st.integers(0, n_classes - 1), min_size=1, max_size=5),
            min_size=n,
            max_size=n,
        )
    )
    sizes = draw(st.lists(st.integers(1, 15), min_size=1, max_size=4))
    zero_row = draw(st.none() | st.integers(0, max(n - 1, 0))) if n else None
    return dict(
        nbits=nbits,
        dim=dim,
        n_classes=n_classes,
        labels=labels,
        sizes=sizes,
        zero_row=zero_row,
        seed=draw(st.integers(0, 2**16)),
        aggressiveness=draw(st.sampled_from([0.001, 0.1, 1.0, 50.0])),
        record=draw(st.booleans()),
    )


class TestChunkFastPath:
    @settings(max_examples=120, deadline=None)
    @given(labelled_streams())
    def test_process_chunk_is_bit_identical_to_reference(self, case):
        rng = np.random.default_rng(case["seed"])
        nbits, dim, n = case["nbits"], case["dim"], len(case["labels"])
        model = fit_pca_itq(rng.standard_normal((nbits + 8, dim)), nbits, iters=5, seed=1)
        lm = sample_label_matrix(case["n_classes"], nbits, seed=2)
        X = rng.standard_normal((n, dim)) * rng.uniform(0.1, 3.0)
        if case["zero_row"] is not None:
            X[case["zero_row"]] = 0.0
        runs = []
        for process in (reference_process_chunk, process_chunk):
            state = init_projection_state(
                nbits, dim, case["aggressiveness"], seed=3, record_stream=case["record"]
            )
            stopped = run_chunks(process, state, lm, model, X, case["labels"], case["sizes"])
            runs.append((stopped, learner_bytes(state)))
        assert runs[0] == runs[1]
        # A zero-norm point always has positive loss, so it must stop both.
        assert (runs[0][0] is None) == (case["zero_row"] is None)

    def test_zero_norm_point_mid_chunk_stops_at_the_same_point(self):
        X, labels, model, lm = small_world(seed=14)
        X = X[40:80].copy()
        X[17] = 0.0
        states = []
        for process in (reference_process_chunk, process_chunk):
            state = init_projection_state(8, 12, seed=15, record_stream=True)
            with pytest.raises(ZeroNormError):
                process(state, lm, model, X, labels[40:80])
            states.append(state)
        assert states[1].rounds_seen == 17
        assert learner_bytes(states[0]) == learner_bytes(states[1])

    def test_per_point_entry_is_bit_identical_to_reference(self):
        X, labels, model, lm = small_world(seed=16)
        runs = []
        for process in (reference_process_stream_point, process_stream_point):
            state = init_projection_state(8, 12, seed=17, record_stream=True)
            for i in range(40, 120):
                process(state, lm, model, X[i], [*labels[i], *labels[i]])
            runs.append(learner_bytes(state))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("bad", [[], [4], [-1], [0, 9]])
    @pytest.mark.parametrize("at", [0, 13, 29])
    def test_bad_label_set_in_chunk_raises_the_reference_error(self, bad, at):
        X, labels, model, lm = small_world(seed=18)
        labels = [sorted(s) for s in labels[40:70]]
        labels[at] = bad
        errors = []
        for process in (reference_process_chunk, process_chunk):
            state = init_projection_state(8, 12, seed=19)
            with pytest.raises((EmptyLabelError, ValueError)) as info:
                process(state, lm, model, X[40:70], labels)
            errors.append(type(info.value))
        assert errors[0] is errors[1]
        assert errors[0] is (EmptyLabelError if not bad else ValueError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejects_the_chunk_before_any_change(self, bad):
        X, labels, model, lm = small_world(seed=24)
        X = X[40:70].copy()
        X[11, 3] = bad
        state = init_projection_state(8, 12, seed=25, record_stream=True)
        before = learner_bytes(state)
        index = CodeIndex(8)
        with pytest.raises(ValueError, match="finite"):
            process_chunk(state, lm, model, X, labels[40:70], index=index)
        with pytest.raises(ValueError, match="finite"):
            process_stream_point(state, lm, model, X[11], labels[51])
        assert learner_bytes(state) == before
        assert len(index) == 0

    def test_targets_derived_once_per_distinct_label_set(self, monkeypatch):
        from streamhash import online

        X, labels, model, lm = small_world(seed=22)
        labels = [[1, 0], [0, 1, 1], [2], [1, 0, 0], [2, 2], [3]] * 5
        calls = []
        real = online.ideal_code

        def counting(label_matrix, label_set):
            calls.append(tuple(label_set))
            return real(label_matrix, label_set)

        monkeypatch.setattr(online, "ideal_code", counting)
        state = init_projection_state(8, 12, seed=23)
        process_chunk(state, lm, model, X[40:70], labels)
        assert sorted(calls) == [(0, 1), (2,), (3,)]

    def test_bad_label_set_rejects_the_chunk_before_any_change(self):
        X, labels, model, lm = small_world(seed=20)
        labels = list(labels[40:70])
        labels[21] = set()
        state = init_projection_state(8, 12, seed=21)
        before = learner_bytes(state)
        index = CodeIndex(8)
        with pytest.raises(EmptyLabelError):
            process_chunk(state, lm, model, X[40:70], labels, index=index)
        assert learner_bytes(state) == before
        assert len(index) == 0


class TestInitState:
    def test_deterministic(self):
        a = init_projection_state(16, 24, seed=1)
        b = init_projection_state(16, 24, seed=1)
        np.testing.assert_array_equal(a.P, b.P)
        np.testing.assert_array_equal(a.R, b.R)

    def test_column_scales(self):
        state = init_projection_state(64, 256, seed=2)
        assert state.P.std() == pytest.approx(1 / 8, rel=0.1)
        assert state.R.std() == pytest.approx(1 / 16, rel=0.1)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            init_projection_state(0, 4)
        with pytest.raises(ValueError):
            init_projection_state(4, 4, aggressiveness=-1)


class TestMistakeBound:
    def build_ledger(self, seed=0, rounds=400, nbits=6, dim=10, aggressiveness=0.1):
        X, labels, model, lm = small_world(
            seed=seed, nbits=nbits, dim=dim, n_points=rounds + 40
        )
        state = init_projection_state(
            nbits, dim, aggressiveness=aggressiveness, seed=seed + 1, record_stream=True
        )
        for i in range(40, 40 + rounds):
            process_stream_point(state, lm, model, X[i], labels[i])
        return state

    def test_zero_competitor_closed_form(self):
        state = self.build_ledger()
        led = state.ledger
        t = led.rounds
        bound = mistake_bound(led, np.zeros(6), "code")
        expected = max(6.0, 1 / 0.1) * (2 * 0.1 * t)
        np.testing.assert_allclose(bound, np.full(6, expected), rtol=1e-12)
        bound_f = mistake_bound(led, np.zeros(10), "feature")
        expected_f = max(led.r_max**2, 1 / 0.1) * (2 * 0.1 * t)
        np.testing.assert_allclose(bound_f, np.full(10, expected_f)[:6], rtol=1e-12)

    def test_perfect_competitor_on_separable_stream(self):
        # Target bit equals code bit 0, so u = (2, 0, ...) has zero loss.
        nbits = 4
        led = BoundLedger(nbits=nbits, aggressiveness=0.5, record_stream=True)
        rng = np.random.default_rng(3)
        for _ in range(100):
            code = random_code(rng, nbits)
            target = np.full(nbits, code[0], dtype=np.int8)
            led.record_round(code, code.astype(np.float64), target, target, target)
        u = np.array([2.0, 0.0, 0.0, 0.0])
        bound = mistake_bound(led, u, "code")
        expected = max(nbits, 1 / 0.5) * float(u @ u)
        np.testing.assert_allclose(bound, np.full(nbits, expected), rtol=1e-12)

    def test_counters_within_bound_for_random_competitors(self):
        state = self.build_ledger(seed=20, rounds=600)
        led = state.ledger
        rng = np.random.default_rng(21)
        for _ in range(10):
            u_code = rng.standard_normal(6)
            assert np.all(led.code_mistakes <= mistake_bound(led, u_code, "code"))
            u_feat = rng.standard_normal(10)
            assert np.all(led.feature_mistakes <= mistake_bound(led, u_feat, "feature"))

    def test_empty_ledger_rejected(self):
        led = BoundLedger(nbits=4, aggressiveness=0.1, record_stream=True)
        with pytest.raises(ValueError):
            mistake_bound(led, np.zeros(4), "code")

    def test_unrecorded_stream_rejected(self):
        state = init_projection_state(4, 6, seed=0)
        state.ledger.rounds = 5
        with pytest.raises(ValueError):
            mistake_bound(state.ledger, np.zeros(4), "code")

    def test_bad_mode_rejected(self):
        state = self.build_ledger(rounds=10)
        with pytest.raises(ValueError):
            mistake_bound(state.ledger, np.zeros(6), "both")

    def test_bad_shape_rejected(self):
        state = self.build_ledger(rounds=10)
        with pytest.raises(ValueError):
            mistake_bound(state.ledger, np.zeros(5), "code")
