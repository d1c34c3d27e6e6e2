"""Traced replays of the CLI commands the benchmark runs.

A CLI command cannot be timed per layer from outside, so a traced pass
replays ``init``, ``stream``, ``query`` and ``eval`` through the same public
functions ``streamhash.cli`` calls, in the same order, with a span around
each call. The argv is parsed by the program's own parser, so defaults come
from one place. Input validation that cannot fire on the generated inputs is
left out. A replay must write the same bytes as the command it replays;
the benchmark compares the digests.
"""

from __future__ import annotations

import csv
import os
import time

import numpy as np

from streamhash import cli
from streamhash.codes import hamming_rows, pack_rows, sign
from streamhash.evaluate import mean_average_precision
from streamhash.fileformats import (
    ModelBundle,
    bundle_lock,
    index_to_bytes,
    load_bundle,
    load_index,
    read_features,
    read_labels,
    save_bundle,
    save_index,
)
from streamhash.index import CodeIndex
from streamhash.itq import encode, encode_batch, fit_pca_itq
from streamhash.labelcodes import ideal_code, sample_label_matrix
from streamhash.online import init_projection_state, process_stream_point

from oracle import parse_index
from spans import Tracer


def _write_csv(path: str, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _save(tr: Tracer, name: str, fn, path: str, obj):
    tr.call(name, fn, path, obj)
    tr.add("fileformats.bytes_written", os.path.getsize(path))


def cache_words(tr: Tracer, index: CodeIndex) -> np.ndarray:
    return tr.prep(lambda: parse_index(index_to_bytes(index))["projected"])


def traced_query(tr: Tracer, index, cache, mode, P_or_R, query, k, parent=None):
    """One top-k query as a real span, or as a shadow when `parent` is given.

    Either way the Hamming scan inside it is timed by a shadow call on the
    same packed query code.
    """
    if mode == "sym":
        name, fn = "index.query_symmetric", index.query_symmetric
        g_q = tr.prep(lambda: sign(P_or_R.T @ query.astype(np.float64)))
    else:
        name, fn = "index.query_asymmetric", index.query_asymmetric
        g_q = tr.prep(lambda: sign(P_or_R.T @ query))
    if parent is None:
        sid = tr.begin(name)
        out = fn(P_or_R, query, k)
        tr.end(sid)
    else:
        out, sid = tr.shadow(name, parent, fn, P_or_R, query, k)
    q_words = tr.prep(lambda: pack_rows(g_q[None, :])[0])
    tr.shadow("codes.hamming_rows", sid, hamming_rows, q_words, cache)
    tr.add("codes.hamming_rows.rows", cache.shape[0])
    return out


def stream_chunk(tr: Tracer, state, label_matrix, hash_model, X, labels, index):
    """process_chunk, call by call: encode_batch, insert_many, per-point updates."""
    X = np.asarray(X, dtype=np.float64)
    codes = tr.call("itq.encode_batch", encode_batch, hash_model, X)
    tr.call("index.insert_many", index.insert_many, codes)
    ledger = state.ledger
    mistakes = (int(ledger.code_mistakes.sum()), int(ledger.feature_mistakes.sum()))
    for i in range(X.shape[0]):
        sid = tr.begin("online.process_stream_point")
        process_stream_point(state, label_matrix, hash_model, X[i], labels[i], code=codes[i])
        tr.end(sid)
        tr.shadow("labelcodes.ideal_code", sid, ideal_code, label_matrix, labels[i])
        tr.distinct["labelcodes.distinct_label_sets"].add(frozenset(labels[i]))
    tr.add("online.points", X.shape[0])
    tr.add("online.code_mistakes", int(ledger.code_mistakes.sum()) - mistakes[0])
    tr.add("online.feature_mistakes", int(ledger.feature_mistakes.sum()) - mistakes[1])
    return codes


def refresh(tr: Tracer, index: CodeIndex, P):
    tr.peak("index.cache_lag_points.max", len(index) - index.n_projected)
    tr.call("index.refresh_projected_codes", index.refresh_projected_codes, P)
    tr.add("index.refresh.rows", len(index))


def replay_init(tr: Tracer, argv: list[str]):
    args = cli.build_parser().parse_args(argv)
    sid = tr.begin("cli.init")
    features = tr.call("fileformats.read_features", read_features, args.features)
    _labels, n_classes = tr.call("fileformats.read_labels", read_labels, args.labels)
    hash_model = tr.call(
        "itq.fit_pca_itq",
        fit_pca_itq,
        features[: args.init_size].astype(np.float64),
        args.bits,
        iters=args.itq_iters,
        seed=args.seed,
    )
    label_matrix = sample_label_matrix(n_classes, args.bits, seed=args.seed + 1)
    state = init_projection_state(
        args.bits, features.shape[1], aggressiveness=args.aggressiveness, seed=args.seed + 2
    )
    bundle = ModelBundle(
        hash_model=hash_model,
        label_matrix=label_matrix,
        state=state,
        config={"init_size": args.init_size, "chunk_size": args.chunk, "itq_iters": args.itq_iters},
    )
    _save(tr, "fileformats.save_bundle", save_bundle, args.out, bundle)
    tr.end(sid)


def replay_stream(tr: Tracer, argv: list[str]):
    args = cli.build_parser().parse_args(argv)
    sid = tr.begin("cli.stream")
    with bundle_lock(args.bundle):
        bundle = tr.call("fileformats.load_bundle", load_bundle, args.bundle)
        features = tr.call("fileformats.read_features", read_features, args.features)
        labels, _ = tr.call("fileformats.read_labels", read_labels, args.labels)
        chunk = args.chunk or bundle.config["chunk_size"]
        init_size = bundle.config["init_size"]
        bundle_out = args.bundle_out or args.bundle
        index_out = args.index_out or args.bundle + ".index"
        state = bundle.state
        if state.rounds_seen > 0:
            index = tr.call("fileformats.load_index", load_index, index_out)
        else:
            index = CodeIndex(bundle.hash_model.nbits)
        first = init_size + state.rounds_seen
        metrics_rows = []
        cumulative = 0.0
        for start in range(first, features.shape[0], chunk):
            stop = min(start + chunk, features.shape[0])
            t0 = time.perf_counter()
            stream_chunk(
                tr,
                state,
                bundle.label_matrix,
                bundle.hash_model,
                features[start:stop].astype(np.float64),
                labels[start:stop],
                index,
            )
            train_s = time.perf_counter() - t0
            refresh_s = 0.0
            if args.refresh == "per-chunk":
                t0 = time.perf_counter()
                refresh(tr, index, state.P)
                refresh_s = time.perf_counter() - t0
            cumulative += train_s + refresh_s
            _save(tr, "fileformats.save_bundle", save_bundle, bundle_out, bundle)
            _save(tr, "fileformats.save_index", save_index, index_out, index)
            metrics_rows.append(
                [
                    (start - init_size) // chunk + 1,
                    state.rounds_seen,
                    repr(train_s),
                    repr(refresh_s),
                    repr(cumulative),
                ]
            )
        if args.metrics_out:
            _write_csv(
                args.metrics_out,
                ["chunk", "points_seen", "train_seconds", "refresh_seconds", "cumulative_seconds"],
                metrics_rows,
            )
    tr.end(sid)


def replay_query(tr: Tracer, argv: list[str]):
    args = cli.build_parser().parse_args(argv)
    sid = tr.begin("cli.query")
    bundle = tr.call("fileformats.load_bundle", load_bundle, args.bundle)
    index = tr.call("fileformats.load_index", load_index, args.index)
    queries = tr.call("fileformats.read_features", read_features, args.features).astype(np.float64)
    index.assert_fresh(bundle.state.P)
    cache = cache_words(tr, index)
    rows = []
    for qi in range(queries.shape[0]):
        if args.mode == "sym":
            code = tr.call("itq.encode", encode, bundle.hash_model, queries[qi])
            ids, dists = traced_query(tr, index, cache, "sym", bundle.state.P, code, args.k)
        else:
            ids, dists = traced_query(tr, index, cache, "asym", bundle.state.R, queries[qi], args.k)
        for rank, (i, d) in enumerate(zip(ids, dists), start=1):
            rows.append([qi, rank, int(i), int(d)])
    _write_csv(args.out, ["query", "rank", "id", "distance"], rows)
    tr.end(sid)


def replay_eval(tr: Tracer, argv: list[str]):
    """The direct (no --checkpoints) eval, with the full-ranking queries shadowed."""
    args = cli.build_parser().parse_args(argv)
    sid = tr.begin("cli.eval")
    bundle = tr.call("fileformats.load_bundle", load_bundle, args.bundle)
    q_features = tr.call(
        "fileformats.read_features", read_features, args.query_features
    ).astype(np.float64)
    q_labels, _ = tr.call("fileformats.read_labels", read_labels, args.query_labels)
    db_labels, _ = tr.call("fileformats.read_labels", read_labels, args.db_labels)
    init_size = bundle.config["init_size"]
    index = tr.call("fileformats.load_index", load_index, args.index)
    map_sid = tr.begin(f"evaluate.mean_average_precision.{args.mode}")
    run = mean_average_precision(
        index,
        bundle.hash_model,
        bundle.state,
        q_features,
        q_labels,
        db_labels[init_size : init_size + index.n_projected],
        args.mode,
    )
    tr.end(map_sid)
    cache = cache_words(tr, index)
    n = index.n_projected
    for qi in range(q_features.shape[0]):
        if args.mode == "sym":
            code, _ = tr.shadow("itq.encode", map_sid, encode, bundle.hash_model, q_features[qi])
            traced_query(tr, index, cache, "sym", bundle.state.P, code, n, parent=map_sid)
        else:
            traced_query(tr, index, cache, "asym", bundle.state.R, q_features[qi], n, parent=map_sid)
    row = [bundle.state.rounds_seen, args.mode, run.query_ids.size, int(run.evaluated.sum()), repr(run.mean_ap)]
    _write_csv(args.out, ["points_seen", "mode", "n_queries", "n_evaluated", "mean_ap"], [row])
    tr.end(sid)
