"""Round trips and corruption handling for the on-disk formats."""

import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamhash import (
    CodeIndex,
    ModelBundle,
    encode_batch,
    gen_synthetic_multilabel,
    init_projection_state,
    load_bundle,
    load_index,
    read_features,
    read_labels,
    run_streaming_pipeline,
    save_bundle,
    save_index,
    write_features,
    write_labels,
)
from streamhash.fileformats import (
    atomic_write_bytes,
    bundle_from_bytes,
    bundle_lock,
    bundle_to_bytes,
    index_from_bytes,
    index_to_bytes,
)


@pytest.fixture(scope="module")
def trained():
    ds = gen_synthetic_multilabel(400, 8, 4, seed=21)
    return run_streaming_pipeline(
        ds.features, ds.labels, 4, 8, seed=21, init_size=100, chunk_size=100
    )


class TestFeatureFiles:
    def test_roundtrip_is_float32_exact(self, tmp_path):
        path = str(tmp_path / "f.bin")
        x = np.random.default_rng(0).standard_normal((13, 5))
        write_features(path, x)
        got = read_features(path)
        np.testing.assert_array_equal(got, x.astype(np.float32))

    def test_empty_database_allowed(self, tmp_path):
        path = str(tmp_path / "f.bin")
        write_features(path, np.empty((0, 7)))
        assert read_features(path).shape == (0, 7)

    def test_not_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_features(str(tmp_path / "f.bin"), np.zeros(5))

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "f.bin")
        write_features(path, np.zeros((2, 2)))
        data = open(path, "rb").read()
        atomic_write_bytes(path, b"XXXX" + data[4:])
        with pytest.raises(ValueError, match="magic"):
            read_features(path)

    def test_bad_version(self, tmp_path):
        path = str(tmp_path / "f.bin")
        write_features(path, np.zeros((2, 2)))
        data = bytearray(open(path, "rb").read())
        data[4] = 99
        atomic_write_bytes(path, bytes(data))
        with pytest.raises(ValueError, match="version"):
            read_features(path)

    def test_truncated(self, tmp_path):
        path = str(tmp_path / "f.bin")
        write_features(path, np.ones((4, 4)))
        data = open(path, "rb").read()
        atomic_write_bytes(path, data[:-3])
        with pytest.raises(ValueError, match="truncated"):
            read_features(path)

    def test_trailing_bytes(self, tmp_path):
        path = str(tmp_path / "f.bin")
        write_features(path, np.ones((4, 4)))
        data = open(path, "rb").read()
        atomic_write_bytes(path, data + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            read_features(path)


class TestLabelFiles:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "l.txt")
        labels = [frozenset({2, 0}), frozenset({1}), frozenset({0, 1, 3})]
        write_labels(path, labels, 4)
        got, n_classes = read_labels(path)
        assert got == labels
        assert n_classes == 4

    def test_text_is_sorted_indices(self, tmp_path):
        path = str(tmp_path / "l.txt")
        write_labels(path, [{3, 1, 2}], 5)
        assert open(path).read() == "C=5\n1 2 3\n"

    def test_write_rejects_empty_set(self, tmp_path):
        with pytest.raises(ValueError, match="no labels"):
            write_labels(str(tmp_path / "l.txt"), [set()], 4)

    def test_write_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="outside"):
            write_labels(str(tmp_path / "l.txt"), [{4}], 4)

    @pytest.mark.parametrize(
        "text,pattern",
        [
            ("3\n0\n", "header"),
            ("C=x\n0\n", "class count"),
            ("C=0\n", "positive"),
            ("C=3\n\n", "empty label line"),
            ("C=3\n1 a\n", "non-integer"),
            ("C=3\n3\n", "outside"),
            ("C=3\n-1\n", "outside"),
        ],
    )
    def test_malformed_rejected(self, tmp_path, text, pattern):
        path = str(tmp_path / "l.txt")
        with open(path, "w") as f:
            f.write(text)
        with pytest.raises(ValueError, match=pattern):
            read_labels(path)


    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=60),
        st.lists(st.frozensets(st.integers(0, 5), min_size=1, max_size=3), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_repeated_lines_give_equal_sets(self, picks, pool):
        # Lines drawn from a small pool repeat; each reads back as its set.
        labels = [pool[i % len(pool)] for i in picks]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "l.txt")
            write_labels(path, labels, 6)
            got, n_classes = read_labels(path)
        assert got == labels and n_classes == 6
        for a, b, want_a, want_b in zip(got, got[1:], labels, labels[1:]):
            assert (a == b) == (want_a == want_b)

    @pytest.mark.parametrize(
        "text,where",
        [
            # A bad line seen twice fails at its first line.
            ("C=3\n0\n1 x\n2\n1 x\n", ":3: non-integer"),
            ("C=3\n0\n7\n0\n7\n", ":3: label outside"),
            # A bad line after repeats of good lines is still caught.
            ("C=3\n0 1\n0 1\n0 1\n0 3\n", ":5: label outside"),
            ("C=3\n2\n2\n2\n\n2\n", ":5: empty label line"),
        ],
    )
    def test_bad_line_reported_at_its_first_line(self, tmp_path, text, where):
        path = str(tmp_path / "l.txt")
        with open(path, "w") as f:
            f.write(text)
        with pytest.raises(ValueError, match=where):
            read_labels(path)


class TestBundleFiles:
    def test_roundtrip_fields(self, tmp_path, trained):
        path = str(tmp_path / "model.bundle")
        cfg = {"init_size": 100, "chunk_size": 100, "itq_iters": 50}
        bundle = ModelBundle(trained.hash_model, trained.label_matrix, trained.state, cfg)
        save_bundle(path, bundle)
        got = load_bundle(path)
        hm, lm, st = got.hash_model, got.label_matrix, got.state
        np.testing.assert_array_equal(hm.W, trained.hash_model.W)
        np.testing.assert_array_equal(hm.b, trained.hash_model.b)
        np.testing.assert_array_equal(hm.feature_mean, trained.hash_model.feature_mean)
        np.testing.assert_array_equal(hm.rotation, trained.hash_model.rotation)
        np.testing.assert_array_equal(hm.itq_errors, trained.hash_model.itq_errors)
        assert (hm.nbits, hm.dim, hm.seed) == (
            trained.hash_model.nbits,
            trained.hash_model.dim,
            trained.hash_model.seed,
        )
        np.testing.assert_array_equal(lm.L, trained.label_matrix.L)
        assert (lm.n_classes, lm.seed) == (
            trained.label_matrix.n_classes,
            trained.label_matrix.seed,
        )
        np.testing.assert_array_equal(st.P, trained.state.P)
        np.testing.assert_array_equal(st.R, trained.state.R)
        assert st.rounds_seen == trained.state.rounds_seen
        assert st.aggressiveness == trained.state.aggressiveness
        assert st.seed == trained.state.seed
        led, led0 = st.ledger, trained.state.ledger
        assert led.rounds == led0.rounds
        assert led.r_max == led0.r_max
        np.testing.assert_array_equal(led.code_mistakes, led0.code_mistakes)
        np.testing.assert_array_equal(led.feature_mistakes, led0.feature_mistakes)
        assert got.config["init_size"] == 100

    def test_save_load_save_is_byte_identical(self, tmp_path, trained):
        path = str(tmp_path / "model.bundle")
        bundle = ModelBundle(trained.hash_model, trained.label_matrix, trained.state, {})
        save_bundle(path, bundle)
        first = open(path, "rb").read()
        save_bundle(path, load_bundle(path))
        assert open(path, "rb").read() == first

    def test_bad_magic(self, tmp_path, trained):
        path = str(tmp_path / "model.bundle")
        bundle = ModelBundle(trained.hash_model, trained.label_matrix, trained.state, {})
        save_bundle(path, bundle)
        data = open(path, "rb").read()
        atomic_write_bytes(path, b"NOPE" + data[4:])
        with pytest.raises(ValueError, match="magic"):
            load_bundle(path)

    def test_truncated_and_trailing(self, tmp_path, trained):
        bundle = ModelBundle(trained.hash_model, trained.label_matrix, trained.state, {})
        data = bundle_to_bytes(bundle)
        with pytest.raises(ValueError, match="truncated"):
            bundle_from_bytes(data[:-1])
        with pytest.raises(ValueError, match="trailing"):
            bundle_from_bytes(data + b"\x00")


    @pytest.mark.parametrize(
        "name",
        ["W", "b", "feature_mean", "rotation", "L", "P", "R", "code_mistakes", "feature_mistakes"],
    )
    def test_array_shape_disagreeing_with_header_rejected(self, trained, name):
        hm, lm, st = trained.hash_model, trained.label_matrix, trained.state
        led = st.ledger
        if hasattr(hm, name):
            hm = dataclasses.replace(hm, **{name: getattr(hm, name)[:-1]})
        elif hasattr(lm, name):
            lm = dataclasses.replace(lm, **{name: getattr(lm, name)[:-1]})
        elif hasattr(led, name):
            led = dataclasses.replace(led, **{name: getattr(led, name)[:-1]})
            st = dataclasses.replace(st, ledger=led)
        else:
            st = dataclasses.replace(st, **{name: getattr(st, name)[:-1]})
        data = bundle_to_bytes(ModelBundle(hm, lm, st, {}))
        with pytest.raises(ValueError, match=f"{name} has shape"):
            bundle_from_bytes(data)

    def test_square_p_of_the_wrong_size_rejected(self, trained):
        st = dataclasses.replace(trained.state, P=np.eye(4))
        data = bundle_to_bytes(ModelBundle(trained.hash_model, trained.label_matrix, st, {}))
        with pytest.raises(ValueError, match="P has shape"):
            bundle_from_bytes(data)


class TestIndexFiles:
    def build_index(self, with_cache: bool):
        rng = np.random.default_rng(30)
        codes = np.where(rng.random((40, 16)) < 0.5, -1, 1).astype(np.int8)
        index = CodeIndex(16)
        index.insert_many(codes)
        P = rng.standard_normal((16, 16))
        if with_cache:
            index.refresh_projected_codes(P)
        return index, P

    def test_roundtrip_with_cache(self, tmp_path):
        index, P = self.build_index(True)
        path = str(tmp_path / "db.index")
        save_index(path, index)
        got = load_index(path)
        assert len(got) == 40
        assert got.nbits == 16
        assert got.n_projected == 40
        assert got.projection_version == index.projection_version
        # Freshness carries over: same P accepted, perturbed P rejected.
        got.assert_fresh(P)
        ids0, d0 = index.query_asymmetric(P[:, :], np.arange(16.0), k=7)
        ids1, d1 = got.query_asymmetric(P[:, :], np.arange(16.0), k=7)
        np.testing.assert_array_equal(ids0, ids1)
        np.testing.assert_array_equal(d0, d1)

    def test_roundtrip_without_cache(self, tmp_path):
        index, P = self.build_index(False)
        path = str(tmp_path / "db.index")
        save_index(path, index)
        got = load_index(path)
        assert len(got) == 40
        assert got.n_projected == 0
        from streamhash import StaleProjectionError

        with pytest.raises(StaleProjectionError):
            got.assert_fresh(P)

    def test_stored_codes_identical(self, tmp_path):
        index, _ = self.build_index(True)
        path = str(tmp_path / "db.index")
        save_index(path, index)
        got = load_index(path)
        for i in (0, 17, 39):
            np.testing.assert_array_equal(got.stored_code(i), index.stored_code(i))

    def test_inserts_still_work_after_load(self, tmp_path):
        index, P = self.build_index(True)
        path = str(tmp_path / "db.index")
        save_index(path, index)
        got = load_index(path)
        new_id = got.insert(np.ones(16, dtype=np.int8))
        assert new_id == 40
        assert len(got) == 41
        got.refresh_projected_codes(P)
        assert got.n_projected == 41

    def test_header_size_mismatch(self, tmp_path):
        index, _ = self.build_index(False)
        path = str(tmp_path / "db.index")
        save_index(path, index)
        data = bytearray(open(path, "rb").read())
        data[12] ^= 1
        atomic_write_bytes(path, bytes(data))
        with pytest.raises(ValueError, match="claims"):
            load_index(path)

    def test_words_too_narrow_for_header_bits_rejected(self):
        index, _ = self.build_index(False)
        index.nbits = 128
        with pytest.raises(ValueError, match="claims 40 codes of 2 words"):
            index_from_bytes(index_to_bytes(index))

    def test_projected_rows_beyond_size_rejected(self):
        index, _ = self.build_index(True)
        index._projected = np.vstack([index._projected, index._projected[:1]])
        with pytest.raises(ValueError, match="projected cache"):
            index_from_bytes(index_to_bytes(index))

    def test_projected_width_disagreeing_with_header_rejected(self):
        index, _ = self.build_index(True)
        index._projected = np.zeros((40, 2), dtype="<u8")
        with pytest.raises(ValueError, match="projected cache"):
            index_from_bytes(index_to_bytes(index))

    def test_projected_behind_size_accepted(self):
        index, P = self.build_index(True)
        index.insert(np.ones(16, dtype=np.int8))
        got = index_from_bytes(index_to_bytes(index))
        assert (len(got), got.n_projected) == (41, 40)
        got.assert_fresh(P)

    def test_bad_magic(self, tmp_path):
        index, _ = self.build_index(False)
        path = str(tmp_path / "db.index")
        save_index(path, index)
        data = open(path, "rb").read()
        atomic_write_bytes(path, b"JUNK" + data[4:])
        with pytest.raises(ValueError, match="magic"):
            load_index(path)


class TestAtomicWrite:
    def test_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "out.bin")
        for i in range(5):
            atomic_write_bytes(path, bytes([i]) * 100)
        assert sorted(os.listdir(tmp_path)) == ["out.bin"]
        assert open(path, "rb").read() == b"\x04" * 100

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        path = str(tmp_path / "out.bin")
        atomic_write_bytes(path, b"old")
        atomic_write_bytes(path, b"new content")
        assert open(path, "rb").read() == b"new content"


class TestBundleLock:
    def test_second_holder_rejected(self, tmp_path):
        path = str(tmp_path / "model.bundle")
        with bundle_lock(path):
            with pytest.raises(RuntimeError, match="another command"):
                with bundle_lock(path):
                    pass

    def test_reacquire_after_release(self, tmp_path):
        path = str(tmp_path / "model.bundle")
        with bundle_lock(path):
            pass
        with bundle_lock(path):
            pass
