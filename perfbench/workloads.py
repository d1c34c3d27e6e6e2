"""The three workloads: ingest, mixed and offline.

Each is one process and a closed loop with one client. A workload makes its
inputs from the seed once, untimed; ``setup(tracer)`` does the program work
that precedes measurement and returns its seconds; ``run_pass(tracer)`` runs
one timed pass and checks its outputs. With a tracer, set-up and pass go
through the traced replay of the same public calls; every time a pass
returns is net of the tracer's shadow work.

The first pass of a run is checked against the benchmark's own oracle; every
later pass must reproduce the first pass's output digests exactly.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import os
import shutil
from time import perf_counter

import numpy as np

from streamhash import cli
from streamhash.errors import StaleProjectionError
from streamhash.evaluate import mean_relevant_fraction
from streamhash.fileformats import (
    index_to_bytes,
    load_bundle,
    load_index,
    read_labels,
    write_features,
    write_labels,
)
from streamhash.index import CodeIndex
from streamhash.itq import encode_batch, fit_pca_itq
from streamhash.labelcodes import sample_label_matrix
from streamhash.online import init_projection_state, process_chunk

import loadgen
import oracle
import replay

K = 10

# "setups" is how many set-ups a run times for the median `setup_s`: the
# cheap ones are repeated more, because file syncs make single set-ups noisy.
SIZES = {
    "ingest": {
        "full": {"init": 300, "stream": 20_000, "dim": 64, "classes": 16, "bits": 32, "probe": 20,
                 "setups": 7},
        "tiny": {"init": 300, "stream": 1_200, "dim": 16, "classes": 6, "bits": 8, "probe": 5,
                 "setups": 2},
    },
    "mixed": {
        "full": {"init": 300, "prefill": 100_000, "dim": 64, "classes": 16, "bits": 64,
                 "chunk": 300, "rounds": 10, "queries": 10, "min_passes": 10, "setups": 5},
        "tiny": {"init": 300, "prefill": 2_000, "dim": 16, "classes": 6, "bits": 8,
                 "chunk": 50, "rounds": 3, "queries": 4, "min_passes": 1, "setups": 2},
    },
    "offline": {
        "full": {"init": 300, "db": 20_000, "dim": 64, "classes": 16, "bits": 32,
                 "query_rows": 600, "eval_queries": 150, "probe": 50, "setups": 3},
        "tiny": {"init": 300, "db": 1_200, "dim": 16, "classes": 6, "bits": 8,
                 "query_rows": 40, "eval_queries": 20, "probe": 10, "setups": 2},
    },
}


def run_cli(argv: list[str]) -> int:
    """streamhash.cli.main(argv) in process, its chatter kept off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _shadow(tr) -> float:
    return tr.shadow_seconds if tr is not None else 0.0


def _remove(*paths: str):
    for p in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(p)


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: str, checks: oracle.Checks):
        self.seed = seed
        self.cfg = SIZES[self.name][size]
        self.min_passes = self.cfg.get("min_passes", 1)
        self.setups = self.cfg["setups"]
        self.dir = workdir
        self.checks = checks
        self.first_digests: dict | None = None
        self.setup_digests: dict | None = None
        self.passes = 0
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def compare_setup(self, digests: dict):
        """Every set-up, traced or not, must write the same bytes."""
        if self.setup_digests is None:
            self.setup_digests = digests
            return
        self.checks.ok(
            digests == self.setup_digests, f"{self.name}: a set-up wrote different bytes"
        )

    def compare_digests(self, digests: dict, pass_no: int):
        if self.first_digests is None:
            self.first_digests = digests
            return
        for key, value in digests.items():
            self.checks.ok(
                value == self.first_digests[key],
                f"{self.name} pass {pass_no}: {key} differs from the first pass",
            )


class Ingest(Workload):
    """``streamhash init`` in set-up, then one ``streamhash stream`` per pass.

    Each pass streams every point into a copy of the freshly initialised
    bundle.
    """

    name = "ingest"

    def __init__(self, *args):
        super().__init__(*args)
        c = self.cfg
        n = c["init"] + c["stream"]
        X, masks = loadgen.generate(n + c["probe"], c["dim"], c["classes"], self.seed)
        self.features, self.probes = X[:n], X[n:].astype(np.float64)
        self.labels = loadgen.label_sets(masks[:n])
        self.feat, self.lab = self.path("db.feat"), self.path("db.labels")
        self.bundle, self.index = self.path("model.bundle"), self.path("model.bundle.index")
        self.fresh_bundle = self.path("fresh.bundle")
        self.init_argv = ["init", "--features", self.feat, "--labels", self.lab,
                          "--out", self.fresh_bundle, "--bits", str(c["bits"]), "--seed", "0"]
        self.stream_argv = ["stream", "--bundle", self.bundle, "--features", self.feat,
                            "--labels", self.lab, "--metrics-out", self.path("metrics.csv")]

    def setup(self, tr=None) -> float:
        _remove(self.fresh_bundle, self.fresh_bundle + ".lock")
        t0 = perf_counter()
        write_features(self.feat, self.features)
        write_labels(self.lab, self.labels, self.cfg["classes"])
        if tr is None:
            rc = run_cli(self.init_argv)
        else:
            rc = 0
            replay.replay_init(tr, self.init_argv)
        elapsed = perf_counter() - t0
        self.checks.ok(rc == 0, f"ingest set-up: cli exit code {rc}")
        self.compare_setup({"fresh_bundle": oracle.sha256_file(self.fresh_bundle)})
        return elapsed

    def run_pass(self, tr) -> dict:
        _remove(self.index, self.bundle + ".lock", self.path("metrics.csv"))
        shutil.copyfile(self.fresh_bundle, self.bundle)
        s0 = _shadow(tr)
        t0 = perf_counter()
        if tr is None:
            rc = run_cli(self.stream_argv)
        else:
            rc = 0
            replay.replay_stream(tr, self.stream_argv)
        stream_s = perf_counter() - t0 - (_shadow(tr) - s0)
        self.checks.attempted += 1
        self.passes += 1
        if rc:
            self.checks.fail(f"ingest: cli stream exit code {rc}")
        digests = {"bundle": oracle.sha256_file(self.bundle), "index": oracle.sha256_file(self.index)}
        if self.first_digests is None:
            self.verify()
        self.compare_digests(digests, self.passes)
        return {
            "pass_s": stream_s,
            "stream_s": stream_s,
            "points": self.cfg["stream"],
            "digests": digests,
        }

    def verify(self):
        c, checks = self.cfg, self.checks
        bundle = load_bundle(self.bundle)
        index = load_index(self.index)
        state = bundle.state
        checks.ok(
            state.rounds_seen == len(index) == index.n_projected == c["stream"],
            f"ingest: rounds_seen={state.rounds_seen} len(index)={len(index)} "
            f"n_projected={index.n_projected}, expected {c['stream']}",
        )
        checks.ok(state.ledger.rounds == c["stream"], "ingest: ledger rounds != points streamed")
        try:
            index.assert_fresh(state.P)
            fresh = True
        except StaleProjectionError:
            fresh = False
        checks.ok(fresh, "ingest: projected cache does not match the bundle's P")
        with open(self.index, "rb") as f:
            image = oracle.parse_index(f.read())
        hm = bundle.hash_model
        cache = oracle.check_index(
            checks, image, self.features[c["init"] :], hm.W, hm.b, state.P, "ingest index"
        )
        if cache is not None:
            results = [index.query_asymmetric(state.R, x, K) for x in self.probes]
            oracle.check_asym_queries(checks, cache, state.R, self.probes, results, K, "ingest")


class Mixed(Workload):
    """A prefilled index; rounds of one streamed chunk then a top-k query burst.

    One pass is an epoch of `rounds` rounds that starts from the state left
    by set-up, so every pass sees the same index sizes and inputs.
    """

    name = "mixed"

    def __init__(self, *args):
        super().__init__(*args)
        c = self.cfg
        n_stream = c["rounds"] * c["chunk"]
        n_queries = c["rounds"] * c["queries"]
        total = c["init"] + c["prefill"] + n_stream + n_queries
        X, masks = loadgen.generate(total, c["dim"], c["classes"], self.seed)
        self.init_X = X[: c["init"]].astype(np.float64)
        stored = slice(c["init"], c["init"] + c["prefill"] + n_stream)
        self.stored_X = X[stored]
        labels = loadgen.label_sets(masks[c["init"] + c["prefill"] : stored.stop])
        base = c["prefill"]
        self.chunks = [
            (
                self.stored_X[base + r * c["chunk"] : base + (r + 1) * c["chunk"]].astype(np.float64),
                labels[r * c["chunk"] : (r + 1) * c["chunk"]],
            )
            for r in range(c["rounds"])
        ]
        self.queries = X[stored.stop :].astype(np.float64)

    def setup(self, tr=None) -> float:
        c = self.cfg
        t0 = perf_counter()
        if tr is None:
            self.hash_model = fit_pca_itq(self.init_X, c["bits"], seed=0)
        else:
            self.hash_model = tr.call("itq.fit_pca_itq", fit_pca_itq, self.init_X, c["bits"], seed=0)
        self.label_matrix = sample_label_matrix(c["classes"], c["bits"], seed=1)
        self.state0 = init_projection_state(c["bits"], c["dim"], seed=2)
        self.index0 = CodeIndex(c["bits"])
        prefill = self.stored_X[: c["prefill"]].astype(np.float64)
        self.index0.insert_many(encode_batch(self.hash_model, prefill))
        self.index0.refresh_projected_codes(self.state0.P)
        return perf_counter() - t0

    def run_pass(self, tr) -> dict:
        c, checks = self.cfg, self.checks
        state, index = copy.deepcopy(self.state0), copy.deepcopy(self.index0)
        hm, lm = self.hash_model, self.label_matrix
        first = self.first_digests is None
        fresh, latency = [], []
        digest = hashlib.sha256()
        for r, (X, labels) in enumerate(self.chunks):
            s0 = _shadow(tr)
            t0 = perf_counter()
            if tr is None:
                process_chunk(state, lm, hm, X, labels, index=index)
                index.refresh_projected_codes(state.P)
            else:
                replay.stream_chunk(tr, state, lm, hm, X, labels, index)
                replay.refresh(tr, index, state.P)
            fresh.append(perf_counter() - t0 - (_shadow(tr) - s0))
            cache = replay.cache_words(tr, index) if tr is not None else None
            burst = self.queries[r * c["queries"] : (r + 1) * c["queries"]]
            results = []
            for x in burst:
                s0 = _shadow(tr)
                t0 = perf_counter()
                if tr is None:
                    out = index.query_asymmetric(state.R, x, K)
                else:
                    out = replay.traced_query(tr, index, cache, "asym", state.R, x, K)
                latency.append(perf_counter() - t0 - (_shadow(tr) - s0))
                results.append(out)
            checks.attempted += 1 + len(burst)
            for ids, dists in results:
                digest.update(ids.tobytes())
                digest.update(dists.tobytes())
            if first:
                self.verify_round(r, index, state, burst[:2], results[:2])
        digest.update(state.P.tobytes())
        digest.update(state.R.tobytes())
        self.passes += 1
        if first:
            try:
                image = oracle.parse_index(index_to_bytes(index))
            except ValueError as e:
                checks.ok(False, f"mixed: index image after the first epoch: {e}")
            else:
                oracle.check_index(
                    checks, image, self.stored_X[: len(index)], hm.W, hm.b, state.P, "mixed index"
                )
        digests = {"epoch": digest.hexdigest()}
        self.compare_digests(digests, self.passes)
        return {
            "pass_s": sum(fresh) + sum(latency),
            "write_s": sum(fresh),
            "points": len(self.chunks) * c["chunk"],
            "fresh": fresh,
            "latency": latency,
            "digests": digests,
        }

    def verify_round(self, r, index, state, queries, results):
        c, checks = self.cfg, self.checks
        expected = c["prefill"] + (r + 1) * c["chunk"]
        checks.ok(
            len(index) == index.n_projected == expected,
            f"mixed round {r}: len(index)={len(index)} n_projected={index.n_projected}, "
            f"expected {expected}",
        )
        cache = oracle.cache_matrix(oracle.parse_index(index_to_bytes(index)))
        oracle.check_asym_queries(checks, cache, state.R, queries, results, K, f"mixed round {r}")


class Offline(Workload):
    """A trained bundle; ``streamhash query``, ``eval`` in both modes, baseline."""

    name = "offline"

    def __init__(self, *args):
        super().__init__(*args)
        c = self.cfg
        n = c["init"] + c["db"]
        total = n + c["query_rows"] + c["eval_queries"]
        X, masks = loadgen.generate(total, c["dim"], c["classes"], self.seed)
        self.db_X, self.db_labels = X[:n], loadgen.label_sets(masks[:n])
        self.q_X = X[n : n + c["query_rows"]]
        self.e_X = X[n + c["query_rows"] :]
        self.e_labels = loadgen.label_sets(masks[n + c["query_rows"] :])
        p = self.path
        self.bundle, self.index = p("model.bundle"), p("model.bundle.index")
        self.hits, self.eval_out = p("hits.csv"), {m: p(f"eval_{m}.csv") for m in ("asym", "sym")}
        self.init_argv = ["init", "--features", p("db.feat"), "--labels", p("db.labels"),
                          "--out", self.bundle, "--bits", str(c["bits"]), "--seed", "0"]
        self.stream_argv = ["stream", "--bundle", self.bundle, "--features", p("db.feat"),
                            "--labels", p("db.labels")]
        self.query_argv = ["query", "--bundle", self.bundle, "--index", self.index,
                           "--features", p("q.feat"), "--k", str(K), "--out", self.hits]
        self.eval_argv = {
            m: ["eval", "--bundle", self.bundle, "--index", self.index,
                "--query-features", p("e.feat"), "--query-labels", p("e.labels"),
                "--db-labels", p("db.labels"), "--mode", m, "--out", self.eval_out[m]]
            for m in ("asym", "sym")
        }

    def setup(self, tr=None) -> float:
        c, p = self.cfg, self.path
        _remove(self.bundle, self.index, self.bundle + ".lock")
        t0 = perf_counter()
        write_features(p("db.feat"), self.db_X)
        write_labels(p("db.labels"), self.db_labels, c["classes"])
        write_features(p("q.feat"), self.q_X)
        write_features(p("e.feat"), self.e_X)
        write_labels(p("e.labels"), self.e_labels, c["classes"])
        if tr is None:
            rc = run_cli(self.init_argv) or run_cli(self.stream_argv)
        else:
            rc = 0
            replay.replay_init(tr, self.init_argv)
            replay.replay_stream(tr, self.stream_argv)
        elapsed = perf_counter() - t0
        self.checks.ok(rc == 0, f"offline set-up: cli exit code {rc}")
        self.compare_setup(
            {"bundle": oracle.sha256_file(self.bundle), "index": oracle.sha256_file(self.index)}
        )
        # The baseline's inputs, as the eval command reads them.
        q_labels, _ = read_labels(p("e.labels"))
        db_labels, _ = read_labels(p("db.labels"))
        self.baseline_args = (q_labels, db_labels[c["init"] :])
        return elapsed

    def run_pass(self, tr) -> dict:
        times = {}
        rcs = []
        for step in ("query", "asym", "sym", "baseline"):
            s0 = _shadow(tr)
            t0 = perf_counter()
            if step == "baseline":
                if tr is None:
                    baseline = mean_relevant_fraction(*self.baseline_args)
                else:
                    baseline = tr.call(
                        "evaluate.mean_relevant_fraction", mean_relevant_fraction, *self.baseline_args
                    )
            elif tr is None:
                rcs.append(run_cli(self.query_argv if step == "query" else self.eval_argv[step]))
            elif step == "query":
                replay.replay_query(tr, self.query_argv)
            else:
                replay.replay_eval(tr, self.eval_argv[step])
            times[step] = perf_counter() - t0 - (_shadow(tr) - s0)
        self.checks.attempted += 4
        self.passes += 1
        if any(rcs):
            self.checks.fail(f"offline: cli exit codes {rcs}")
        digests = {
            **self.setup_digests,
            "hits": oracle.sha256_file(self.hits),
            "eval_asym": oracle.sha256_file(self.eval_out["asym"]),
            "eval_sym": oracle.sha256_file(self.eval_out["sym"]),
            "baseline": repr(baseline),
        }
        if self.first_digests is None:
            self.verify(baseline)
        self.compare_digests(digests, self.passes)
        return {
            "pass_s": sum(times.values()),
            "query_s": times["query"],
            "eval_s": times["asym"] + times["sym"] + times["baseline"],
            "queries": self.cfg["query_rows"],
            "digests": digests,
        }

    def verify(self, baseline: float):
        c, checks = self.cfg, self.checks
        bundle = load_bundle(self.bundle)
        hm, state = bundle.hash_model, bundle.state
        with open(self.index, "rb") as f:
            image = oracle.parse_index(f.read())
        cache = oracle.check_index(
            checks, image, self.db_X[c["init"] :], hm.W, hm.b, state.P, "offline index"
        )
        if cache is None:
            return
        hits = oracle.read_hits(self.hits)
        checks.ok(
            sorted(hits) == list(range(c["query_rows"]))
            and all(len(ids) == K for ids, _ in hits.values()),
            f"offline: hits.csv does not hold top-{K} for each of {c['query_rows']} queries",
        )
        probe = np.random.default_rng(self.seed).choice(c["query_rows"], c["probe"], replace=False)
        queries = self.q_X[probe].astype(np.float64)
        results = [tuple(np.asarray(v) for v in hits.get(int(q), ([], []))) for q in probe]
        oracle.check_asym_queries(checks, cache, state.R, queries, results, K, "offline hits.csv")

        q_masks = oracle.label_masks(self.e_labels)
        db_masks = oracle.label_masks(self.db_labels[c["init"] :])
        e_X = self.e_X.astype(np.float64)
        asym_bits = np.where(e_X @ state.R >= 0, 1, -1)
        codes = np.where(e_X @ hm.W + hm.b >= 0, 1, -1)
        sym_bits = np.where(codes.astype(np.float64) @ state.P >= 0, 1, -1)
        for mode, bits in (("asym", asym_bits), ("sym", sym_bits)):
            ref_map, ref_n = oracle.mean_ap(bits, cache, q_masks, db_masks)
            with open(self.eval_out[mode]) as f:
                row = f.read().splitlines()[1].split(",")
            checks.ok(
                int(row[3]) == ref_n and oracle.close(float(row[4]), ref_map),
                f"offline eval {mode}: mean_ap {row[4]} over {row[3]} queries, "
                f"oracle {ref_map!r} over {ref_n}",
            )
        ref_base = oracle.relevant_fraction(q_masks, db_masks)
        checks.ok(
            oracle.close(baseline, ref_base),
            f"offline: mean_relevant_fraction {baseline!r}, oracle {ref_base!r}",
        )


WORKLOADS = {w.name: w for w in (Ingest, Mixed, Offline)}
