"""End-to-end command-line flows, exit codes, and file-level determinism."""

import csv
import dataclasses

import numpy as np
import pytest

from streamhash import (
    CodeIndex,
    encode,
    load_bundle,
    load_index,
    read_features,
    read_labels,
    run_streaming_pipeline,
    save_bundle,
    save_index,
    sign,
)
from streamhash import cli
from streamhash.cli import main
from streamhash.fileformats import bundle_lock, index_to_bytes


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


@pytest.fixture()
def corpus(tmp_path):
    """A small generated dataset with a held-out query split."""
    paths = {
        "db_f": str(tmp_path / "db.feat"),
        "db_l": str(tmp_path / "db.labels"),
        "q_f": str(tmp_path / "q.feat"),
        "q_l": str(tmp_path / "q.labels"),
        "bundle": str(tmp_path / "model.bundle"),
        "index": str(tmp_path / "model.bundle.index"),
        "dir": tmp_path,
    }
    rc = main(
        [
            "gen-synth",
            "--out-features", paths["db_f"],
            "--out-labels", paths["db_l"],
            "--n", "680",
            "--dim", "16",
            "--classes", "4",
            "--seed", "5",
            "--n-queries", "80",
            "--query-features", paths["q_f"],
            "--query-labels", paths["q_l"],
        ]
    )
    assert rc == 0
    return paths


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def init_args(paths, **over):
    base = {
        "--features": paths["db_f"],
        "--labels": paths["db_l"],
        "--out": paths["bundle"],
        "--bits": "16",
        "--init-size": "120",
        "--chunk": "120",
        "--seed": "5",
    }
    base.update(over)
    return ["init"] + [t for kv in base.items() for t in kv]


def stream_args(paths, **over):
    base = {
        "--bundle": paths["bundle"],
        "--features": paths["db_f"],
        "--labels": paths["db_l"],
    }
    base.update(over)
    return ["stream"] + [t for kv in base.items() for t in kv]


class TestGenSynth:
    def test_outputs_are_readable_and_split(self, corpus):
        db = read_features(corpus["db_f"])
        q = read_features(corpus["q_f"])
        assert db.shape == (600, 16)
        assert q.shape == (80, 16)
        db_l, nc = read_labels(corpus["db_l"])
        q_l, nc2 = read_labels(corpus["q_l"])
        assert nc == nc2 == 4
        assert len(db_l) == 600 and len(q_l) == 80

    def test_query_split_needs_both_paths(self, tmp_path):
        rc = main(
            [
                "gen-synth",
                "--out-features", str(tmp_path / "f"),
                "--out-labels", str(tmp_path / "l"),
                "--n", "50",
                "--dim", "4",
                "--classes", "3",
                "--n-queries", "10",
            ]
        )
        assert rc == 2

    def test_same_seed_same_bytes(self, tmp_path):
        argsets = []
        for tag in ("a", "b"):
            args = [
                "gen-synth",
                "--out-features", str(tmp_path / f"f{tag}"),
                "--out-labels", str(tmp_path / f"l{tag}"),
                "--n", "40",
                "--dim", "4",
                "--classes", "3",
                "--seed", "9",
            ]
            assert main(args) == 0
            argsets.append(tag)
        assert (tmp_path / "fa").read_bytes() == (tmp_path / "fb").read_bytes()
        assert (tmp_path / "la").read_bytes() == (tmp_path / "lb").read_bytes()


class TestInit:
    def test_creates_fresh_bundle(self, corpus, capsys):
        assert main(init_args(corpus)) == 0
        out = capsys.readouterr().out
        assert "bits=16" in out and "init_size=120" in out
        bundle = load_bundle(corpus["bundle"])
        assert bundle.state.rounds_seen == 0
        assert bundle.hash_model.nbits == 16
        assert bundle.config["init_size"] == 120
        assert bundle.config["chunk_size"] == 120

    def test_init_size_beyond_data_is_exit_2(self, corpus):
        assert main(init_args(corpus, **{"--init-size": "601"})) == 2

    def test_missing_file_is_exit_2(self, corpus):
        assert main(init_args(corpus, **{"--features": corpus["db_f"] + ".nope"})) == 2


class TestStream:
    def test_happy_path_builds_searchable_index(self, corpus):
        metrics = str(corpus["dir"] / "metrics.csv")
        assert main(init_args(corpus)) == 0
        assert main(stream_args(corpus, **{"--metrics-out": metrics})) == 0
        bundle = load_bundle(corpus["bundle"])
        index = load_index(corpus["index"])
        assert bundle.state.rounds_seen == 480
        assert len(index) == 480
        assert index.n_projected == 480
        index.assert_fresh(bundle.state.P)
        header, rows = read_csv(metrics)
        assert header == [
            "chunk", "points_seen", "train_seconds", "refresh_seconds", "cumulative_seconds",
        ]
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4]
        assert [int(r[1]) for r in rows] == [120, 240, 360, 480]
        cumulative = [float(r[4]) for r in rows]
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))
        assert all(float(r[2]) >= 0 and float(r[3]) >= 0 for r in rows)

    def test_two_stage_resume_matches_one_shot(self, corpus, tmp_path):
        from streamhash import write_features, write_labels

        half_f = str(tmp_path / "half.feat")
        half_l = str(tmp_path / "half.labels")
        feats = read_features(corpus["db_f"])
        labels, nc = read_labels(corpus["db_l"])
        write_features(half_f, feats[:360])
        write_labels(half_l, labels[:360], nc)

        assert main(init_args(corpus)) == 0
        assert main(stream_args(corpus, **{"--features": half_f, "--labels": half_l})) == 0
        assert load_bundle(corpus["bundle"]).state.rounds_seen == 240
        assert main(stream_args(corpus)) == 0
        staged_bundle = open(corpus["bundle"], "rb").read()
        staged_index = open(corpus["index"], "rb").read()

        assert main(init_args(corpus)) == 0
        assert main(stream_args(corpus)) == 0
        assert open(corpus["bundle"], "rb").read() == staged_bundle
        assert open(corpus["index"], "rb").read() == staged_index

    def test_resume_with_wrong_index_is_exit_2(self, corpus, tmp_path):
        assert main(init_args(corpus)) == 0
        assert main(stream_args(corpus)) == 0
        # Pretend fewer points were indexed than the bundle has seen.
        from streamhash import CodeIndex, save_index

        save_index(corpus["index"], CodeIndex(16))
        assert main(stream_args(corpus)) == 2

    @pytest.mark.parametrize("refresh", ["per-chunk", "never"])
    def test_crash_between_index_and_bundle_save_resumes_exactly(
        self, corpus, monkeypatch, refresh
    ):
        assert main(init_args(corpus)) == 0
        assert main(stream_args(corpus, **{"--refresh": refresh})) == 0
        one_shot = (read_bytes(corpus["bundle"]), read_bytes(corpus["index"]))

        class Crash(Exception):
            pass

        real_save_bundle = cli.save_bundle
        saves = []

        def save_bundle_or_crash(path, bundle):
            saves.append(path)
            if len(saves) == 3:  # chunk 3: its index is on disk, its bundle is not
                raise Crash
            real_save_bundle(path, bundle)

        assert main(init_args(corpus)) == 0
        monkeypatch.setattr(cli, "save_bundle", save_bundle_or_crash)
        with pytest.raises(Crash):
            main(stream_args(corpus, **{"--refresh": refresh}))
        monkeypatch.undo()
        assert load_bundle(corpus["bundle"]).state.rounds_seen == 240
        assert len(load_index(corpus["index"])) == 360

        assert main(stream_args(corpus, **{"--refresh": refresh})) == 0
        assert (read_bytes(corpus["bundle"]), read_bytes(corpus["index"])) == one_shot

    def test_nothing_to_stream(self, corpus, capsys):
        assert main(init_args(corpus)) == 0
        assert main(stream_args(corpus)) == 0
        capsys.readouterr()
        assert main(stream_args(corpus)) == 0
        assert "nothing to stream" in capsys.readouterr().out

    def test_lock_contention_is_exit_3(self, corpus):
        assert main(init_args(corpus)) == 0
        with bundle_lock(corpus["bundle"]):
            assert main(stream_args(corpus)) == 3

    def test_bundle_array_disagreeing_with_header_is_exit_2(self, corpus):
        assert main(init_args(corpus)) == 0
        bundle = load_bundle(corpus["bundle"])
        bundle.state = dataclasses.replace(bundle.state, P=np.eye(4))
        save_bundle(corpus["bundle"], bundle)
        assert main(stream_args(corpus)) == 2

    def test_cli_stream_matches_library_pipeline(self, corpus):
        # Same float32-read data, seed and sizes through both entry points.
        assert main(init_args(corpus)) == 0
        assert main(stream_args(corpus)) == 0
        bundle = load_bundle(corpus["bundle"])
        index = load_index(corpus["index"])
        features = read_features(corpus["db_f"])
        labels, n_classes = read_labels(corpus["db_l"])
        pipe = run_streaming_pipeline(
            features, labels, n_classes, 16, seed=5, init_size=120, chunk_size=120
        )
        st, ref = bundle.state, pipe.state
        np.testing.assert_array_equal(st.P, ref.P)
        np.testing.assert_array_equal(st.R, ref.R)
        np.testing.assert_array_equal(st.ledger.code_mistakes, ref.ledger.code_mistakes)
        np.testing.assert_array_equal(st.ledger.feature_mistakes, ref.ledger.feature_mistakes)
        assert st.rounds_seen == ref.rounds_seen == 480
        np.testing.assert_array_equal(index._words, pipe.index._words[: len(pipe.index)])
        np.testing.assert_array_equal(index._projected, pipe.index._projected)
        assert index_to_bytes(pipe.index) == open(corpus["index"], "rb").read()

    def test_class_count_mismatch_is_exit_2(self, corpus, tmp_path):
        from streamhash import write_labels

        assert main(init_args(corpus)) == 0
        labels, _ = read_labels(corpus["db_l"])
        bad = str(tmp_path / "bad.labels")
        write_labels(bad, labels, 9)
        assert main(stream_args(corpus, **{"--labels": bad})) == 2


class TestQuery:
    def prepare(self, corpus):
        assert main(init_args(corpus)) == 0
        assert main(stream_args(corpus)) == 0

    def test_csv_shape(self, corpus):
        self.prepare(corpus)
        out = str(corpus["dir"] / "hits.csv")
        rc = main(
            [
                "query",
                "--bundle", corpus["bundle"],
                "--index", corpus["index"],
                "--features", corpus["q_f"],
                "--k", "5",
                "--out", out,
            ]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["query", "rank", "id", "distance"]
        assert len(rows) == 80 * 5
        first = rows[:5]
        assert [int(r[1]) for r in first] == [1, 2, 3, 4, 5]
        dists = [int(r[3]) for r in first]
        assert dists == sorted(dists)
        assert all(0 <= int(r[2]) < 480 for r in rows)

    def test_sym_asym_agree_under_rank_one_projection(self, corpus):
        # With R = q s^T / (q.q), sgn(R^T q) equals s = sgn(P^T h_q), so
        # both modes must produce the identical ranking for that query.
        self.prepare(corpus)
        bundle = load_bundle(corpus["bundle"])
        q = read_features(corpus["q_f"]).astype(np.float64)[0]
        from streamhash import sign, write_features

        h = encode(bundle.hash_model, q).astype(np.float64)
        s = sign(bundle.state.P.T @ h).astype(np.float64)
        bundle.state.R = np.outer(q, s) / float(q @ q)
        save_bundle(corpus["bundle"], bundle)
        one_q = str(corpus["dir"] / "one.feat")
        write_features(one_q, q[None, :])
        outs = {}
        for mode in ("sym", "asym"):
            out = str(corpus["dir"] / f"hits-{mode}.csv")
            rc = main(
                [
                    "query",
                    "--bundle", corpus["bundle"],
                    "--index", corpus["index"],
                    "--features", one_q,
                    "--k", "25",
                    "--mode", mode,
                    "--out", out,
                ]
            )
            assert rc == 0
            outs[mode] = open(out, "rb").read()
        assert outs["sym"] == outs["asym"]

    def test_stale_index_is_exit_3(self, corpus):
        assert main(init_args(corpus)) == 0
        assert main(stream_args(corpus, **{"--refresh": "never"})) == 0
        rc = main(
            [
                "query",
                "--bundle", corpus["bundle"],
                "--index", corpus["index"],
                "--features", corpus["q_f"],
                "--out", str(corpus["dir"] / "hits.csv"),
            ]
        )
        assert rc == 3


class TestEval:
    def prepare(self, corpus):
        assert main(init_args(corpus)) == 0
        assert main(stream_args(corpus)) == 0

    def eval_args(self, corpus, out, **over):
        base = {
            "--bundle": corpus["bundle"],
            "--index": corpus["index"],
            "--query-features": corpus["q_f"],
            "--query-labels": corpus["q_l"],
            "--db-labels": corpus["db_l"],
            "--out": out,
        }
        base.update(over)
        args = ["eval"]
        for k, v in base.items():
            if v is not None:
                args += [k, v]
        return args

    def test_single_row(self, corpus):
        self.prepare(corpus)
        out = str(corpus["dir"] / "eval.csv")
        assert main(self.eval_args(corpus, out)) == 0
        header, rows = read_csv(out)
        assert header == ["points_seen", "mode", "n_queries", "n_evaluated", "mean_ap"]
        assert len(rows) == 1
        assert rows[0][0] == "480" and rows[0][1] == "asym"
        assert int(rows[0][3]) <= int(rows[0][2]) == 80
        assert 0.0 <= float(rows[0][4]) <= 1.0

    def test_checkpoints_replay(self, corpus):
        self.prepare(corpus)
        out = str(corpus["dir"] / "curve.csv")
        rc = main(
            self.eval_args(
                corpus,
                out,
                **{
                    "--index": None,
                    "--db-features": corpus["db_f"],
                    "--checkpoints": "120,240,480",
                },
            )
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert [int(r[0]) for r in rows] == [120, 240, 480]
        assert all(0.0 <= float(r[4]) <= 1.0 for r in rows)

    def test_checkpoints_without_db_features_is_exit_2(self, corpus):
        self.prepare(corpus)
        out = str(corpus["dir"] / "curve.csv")
        rc = main(self.eval_args(corpus, out, **{"--checkpoints": "120"}))
        assert rc == 2

    def test_stale_index_is_exit_3(self, corpus):
        assert main(init_args(corpus)) == 0
        assert main(stream_args(corpus, **{"--refresh": "never"})) == 0
        out = str(corpus["dir"] / "eval.csv")
        assert main(self.eval_args(corpus, out)) == 3

    def test_checkpoint_final_matches_streamed_state(self, corpus):
        # Replaying the whole stream from the bundle seeds must land on
        # the same mAP the streamed bundle reports.
        self.prepare(corpus)
        direct = str(corpus["dir"] / "direct.csv")
        curve = str(corpus["dir"] / "curve.csv")
        assert main(self.eval_args(corpus, direct)) == 0
        assert main(
            self.eval_args(
                corpus,
                curve,
                **{"--index": None, "--db-features": corpus["db_f"], "--checkpoints": "480"},
            )
        ) == 0
        _, direct_rows = read_csv(direct)
        _, curve_rows = read_csv(curve)
        assert direct_rows[0][4] == curve_rows[0][4]


class TestBitsMismatch:
    """A bundle and an index of different code lengths are wrong input: exit 2."""

    def prepare(self, corpus):
        # A 16-bit bundle, and a refreshed 32-bit index of as many codes.
        assert main(init_args(corpus)) == 0
        assert main(stream_args(corpus)) == 0
        rng = np.random.default_rng(0)
        wide = CodeIndex(32)
        wide.insert_many(sign(rng.standard_normal((480, 32))))
        wide.refresh_projected_codes(rng.standard_normal((32, 32)))
        wide_index = str(corpus["dir"] / "wide.index")
        save_index(wide_index, wide)
        return wide_index

    def test_query_is_exit_2(self, corpus):
        wide_index = self.prepare(corpus)
        out = str(corpus["dir"] / "hits.csv")
        rc = main(
            [
                "query",
                "--bundle", corpus["bundle"],
                "--index", wide_index,
                "--features", corpus["q_f"],
                "--out", out,
            ]
        )
        assert rc == 2

    def test_eval_is_exit_2(self, corpus):
        wide_index = self.prepare(corpus)
        out = str(corpus["dir"] / "eval.csv")
        rc = main(
            [
                "eval",
                "--bundle", corpus["bundle"],
                "--index", wide_index,
                "--query-features", corpus["q_f"],
                "--query-labels", corpus["q_l"],
                "--db-labels", corpus["db_l"],
                "--out", out,
            ]
        )
        assert rc == 2

    def test_stream_resume_is_exit_2(self, corpus):
        wide_index = self.prepare(corpus)
        assert main(stream_args(corpus, **{"--index-out": wide_index})) == 2


class TestSweepC:
    def test_csv_rows(self, corpus):
        out = str(corpus["dir"] / "sweep.csv")
        rc = main(
            [
                "sweep-c",
                "--features", corpus["db_f"],
                "--labels", corpus["db_l"],
                "--bits", "16",
                "--c-values", "0.01,0.1",
                "--seed", "5",
                "--n-queries", "60",
                "--init-size", "120",
                "--chunk", "120",
                "--out", out,
            ]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["aggressiveness", "mean_ap"]
        assert [float(r[0]) for r in rows] == [0.01, 0.1]
        assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)


class TestExitCodes:
    def test_unrelated_runtime_error_is_not_exit_3(self, corpus, monkeypatch):
        def broken(path):
            raise RuntimeError("not a lock or freshness problem")

        monkeypatch.setattr(cli, "read_features", broken)
        with pytest.raises(RuntimeError, match="not a lock"):
            main(init_args(corpus))


class TestArgumentErrors:
    def test_unknown_command_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["do-magic"])

    def test_missing_required_flag_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["init", "--features", "x"])
