"""Command-line front end.

Subcommands: gen-synth | init | stream | query | eval | sweep-c.
Exit codes: 0 ok, 2 bad inputs or malformed files, 3 stale projection or
bundle lock contention (see README for the walkthrough).
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .errors import LockContentionError, StaleProjectionError
from .evaluate import DEFAULT_LABELS_MEAN, DEFAULT_MODE, DEFAULT_SPREAD, DEFAULT_SWEEP_QUERIES
from .evaluate import (
    gen_synthetic_multilabel,
    mean_average_precision,
    run_c_sweep,
    run_checkpoint_curve,
    split_queries,
    SyntheticDataset,
)
from .fileformats import (
    ModelBundle,
    bundle_lock,
    load_bundle,
    load_index,
    read_features,
    read_labels,
    save_bundle,
    save_index,
    write_features,
    write_labels,
)
from .index import CodeIndex
from .itq import DEFAULT_ITQ_ITERS, encode
from .online import DEFAULT_AGGRESSIVENESS, DEFAULT_CHUNK_SIZE, DEFAULT_INIT_SIZE
from .online import init_models, stream_chunks

DEFAULT_BITS = 32
DEFAULT_C_VALUES = "0.0001,0.001,0.01,0.1,1,10"


def _write_csv(path: str, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_labelled(features_path: str, labels_path: str):
    features = read_features(features_path)
    labels, n_classes = read_labels(labels_path)
    if len(labels) != features.shape[0]:
        raise ValueError(f"{features.shape[0]} feature rows but {len(labels)} label lines")
    return features, labels, n_classes


def _load_index_for(path: str, bundle: ModelBundle) -> CodeIndex:
    """Load an index and check that it holds codes of the bundle's length."""
    index = load_index(path)
    if index.nbits != bundle.hash_model.nbits:
        raise ValueError(
            f"{path} holds {index.nbits}-bit codes but the bundle makes "
            f"{bundle.hash_model.nbits}-bit codes; wrong index file?"
        )
    return index


def _resume_index(path: str, bundle: ModelBundle) -> CodeIndex:
    """The index of a resumed stream, cut back to the codes its bundle committed.

    `stream` saves the index before the bundle, so a crash between the two
    leaves an index one chunk ahead. Stored codes depend only on the
    features, so the first rounds_seen of them are exact. A cache over the
    dropped codes came from that chunk's one refresh, which is undone too.
    """
    index = _load_index_for(path, bundle)
    rounds = bundle.state.rounds_seen
    if len(index) < rounds:
        raise ValueError(
            f"index holds {len(index)} codes but bundle has seen {rounds} points; "
            "wrong index file?"
        )
    if index.n_projected > rounds:
        index.projection_version -= 1
    index.truncate(rounds)
    return index


def _eval_row(points_seen: int, mode: str, run) -> list:
    return [points_seen, mode, run.query_ids.size, int(run.evaluated.sum()), repr(run.mean_ap)]


def cmd_gen_synth(args) -> int:
    ds = gen_synthetic_multilabel(
        args.n,
        args.dim,
        args.classes,
        args.seed,
        labels_per_point_mean=args.labels_mean,
        cluster_spread=args.spread,
    )
    if args.n_queries > 0:
        if not (args.query_features and args.query_labels):
            raise ValueError("--n-queries needs --query-features and --query-labels")
        db_f, db_l, q_f, q_l = split_queries(ds.features, ds.labels, args.n_queries, args.seed)
        write_features(args.query_features, q_f)
        write_labels(args.query_labels, q_l, ds.n_classes)
    else:
        db_f, db_l = ds.features, ds.labels
    write_features(args.out_features, db_f)
    write_labels(args.out_labels, db_l, ds.n_classes)
    print(
        f"generated n={args.n} dim={args.dim} classes={args.classes} "
        f"seed={args.seed} queries={args.n_queries}"
    )
    return 0


def cmd_init(args) -> int:
    features, _, n_classes = _read_labelled(args.features, args.labels)
    if args.init_size > features.shape[0]:
        raise ValueError(
            f"--init-size {args.init_size} exceeds the {features.shape[0]} available points"
        )
    hash_model, label_matrix, state = init_models(
        features[: args.init_size],
        args.bits,
        n_classes,
        seed=args.seed,
        aggressiveness=args.aggressiveness,
        itq_iters=args.itq_iters,
    )
    bundle = ModelBundle(
        hash_model=hash_model,
        label_matrix=label_matrix,
        state=state,
        config={
            "init_size": args.init_size,
            "chunk_size": args.chunk,
            "itq_iters": args.itq_iters,
        },
    )
    save_bundle(args.out, bundle)
    print(
        f"initialised: bits={args.bits} init_size={args.init_size} "
        f"aggressiveness={args.aggressiveness} chunk={args.chunk} "
        f"itq_iters={args.itq_iters} seed={args.seed} classes={n_classes}"
    )
    return 0


def cmd_stream(args) -> int:
    with bundle_lock(args.bundle):
        bundle = load_bundle(args.bundle)
        features, labels, n_classes = _read_labelled(args.features, args.labels)
        if n_classes != bundle.label_matrix.n_classes:
            raise ValueError(
                f"label file has {n_classes} classes, bundle expects "
                f"{bundle.label_matrix.n_classes}"
            )
        if features.shape[1] != bundle.hash_model.dim:
            raise ValueError(
                f"feature dim {features.shape[1]} != bundle dim {bundle.hash_model.dim}"
            )
        chunk = args.chunk or bundle.config["chunk_size"]
        if args.aggressiveness is not None:
            bundle.state.aggressiveness = args.aggressiveness
            bundle.state.ledger.aggressiveness = args.aggressiveness
        init_size = bundle.config["init_size"]
        bundle_out = args.bundle_out or args.bundle
        index_out = args.index_out or args.bundle + ".index"

        state = bundle.state
        if state.rounds_seen > 0:
            index = _resume_index(index_out, bundle)
        else:
            index = CodeIndex(bundle.hash_model.nbits)
        first = init_size + state.rounds_seen
        if first >= features.shape[0]:
            print("nothing to stream: all points already consumed")
            return 0

        metrics_rows = []
        cumulative = 0.0
        chunks = stream_chunks(
            state,
            bundle.label_matrix,
            bundle.hash_model,
            index,
            features,
            labels,
            first,
            chunk,
            refresh=args.refresh == "per-chunk",
        )
        for start, _, train_s, refresh_s in chunks:
            cumulative += train_s + refresh_s
            save_index(index_out, index)
            save_bundle(bundle_out, bundle)  # last: the bundle commits the chunk
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
        print(
            f"streamed {state.rounds_seen - (first - init_size)} points in "
            f"{len(metrics_rows)} chunks; index size {len(index)} "
            f"(searchable {index.n_projected})"
        )
    return 0


def cmd_query(args) -> int:
    bundle = load_bundle(args.bundle)
    index = _load_index_for(args.index, bundle)
    queries = read_features(args.features).astype(np.float64)
    if queries.shape[1] != bundle.hash_model.dim:
        raise ValueError(
            f"query dim {queries.shape[1]} != bundle dim {bundle.hash_model.dim}"
        )
    index.assert_fresh(bundle.state.P)
    rows = []
    for qi in range(queries.shape[0]):
        if args.mode == "sym":
            ids, dists = index.query_symmetric(
                bundle.state.P, encode(bundle.hash_model, queries[qi]), args.k
            )
        else:
            ids, dists = index.query_asymmetric(bundle.state.R, queries[qi], args.k)
        for rank, (i, d) in enumerate(zip(ids, dists), start=1):
            rows.append([qi, rank, int(i), int(d)])
    _write_csv(args.out, ["query", "rank", "id", "distance"], rows)
    print(f"ranked {queries.shape[0]} queries (k={args.k}, mode={args.mode})")
    return 0


def cmd_eval(args) -> int:
    bundle = load_bundle(args.bundle)
    q_features = read_features(args.query_features).astype(np.float64)
    q_labels, _ = read_labels(args.query_labels)
    db_labels, _ = read_labels(args.db_labels)
    init_size = bundle.config["init_size"]
    header = ["points_seen", "mode", "n_queries", "n_evaluated", "mean_ap"]
    if args.checkpoints:
        if not args.db_features:
            raise ValueError("--checkpoints needs --db-features to replay the stream")
        db_features = read_features(args.db_features).astype(np.float64)
        checkpoints = [int(c) for c in args.checkpoints.split(",") if c.strip()]
        curve = run_checkpoint_curve(
            bundle.hash_model,
            bundle.label_matrix,
            db_features,
            db_labels,
            q_features,
            q_labels,
            checkpoints,
            mode=args.mode,
            aggressiveness=bundle.state.aggressiveness,
            proj_seed=bundle.state.seed,
            init_size=init_size,
            chunk_size=bundle.config["chunk_size"],
        )
        rows = [_eval_row(points_seen, args.mode, run) for points_seen, run in curve]
    else:
        if not args.index:
            raise ValueError("eval needs --index (or --checkpoints with --db-features)")
        index = _load_index_for(args.index, bundle)
        run = mean_average_precision(
            index,
            bundle.hash_model,
            bundle.state,
            q_features,
            q_labels,
            db_labels[init_size : init_size + index.n_projected],
            args.mode,
        )
        rows = [_eval_row(bundle.state.rounds_seen, args.mode, run)]
    _write_csv(args.out, header, rows)
    for row in rows:
        print(f"points_seen={row[0]} mode={row[1]} mean_ap={row[4]}")
    return 0


def cmd_sweep_c(args) -> int:
    features, labels, n_classes = _read_labelled(args.features, args.labels)
    dataset = SyntheticDataset(features.astype(np.float64), labels, n_classes)
    c_values = [float(c) for c in args.c_values.split(",") if c.strip()]
    rows = run_c_sweep(
        dataset,
        args.bits,
        c_values,
        args.seed,
        n_queries=args.n_queries,
        init_size=args.init_size,
        chunk_size=args.chunk,
        mode=args.mode,
    )
    _write_csv(
        args.out,
        ["aggressiveness", "mean_ap"],
        [[repr(c), repr(m)] for c, m in rows],
    )
    for c, m in rows:
        print(f"aggressiveness={c} mean_ap={m}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamhash",
        description="Streaming online hashing: train, index, search, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic multi-label dataset")
    p.add_argument("--out-features", required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels-mean", type=float, default=DEFAULT_LABELS_MEAN)
    p.add_argument("--spread", type=float, default=DEFAULT_SPREAD)
    p.add_argument("--n-queries", type=int, default=0)
    p.add_argument("--query-features")
    p.add_argument("--query-labels")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("init", help="fit the fixed hash stage and a fresh bundle")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bits", type=int, default=DEFAULT_BITS)
    p.add_argument("--init-size", type=int, default=DEFAULT_INIT_SIZE)
    p.add_argument("--itq-iters", type=int, default=DEFAULT_ITQ_ITERS)
    p.add_argument("--aggressiveness", type=float, default=DEFAULT_AGGRESSIVENESS)
    p.add_argument("--chunk", type=int, default=DEFAULT_CHUNK_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("stream", help="consume labelled points and update the bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--chunk", type=int, default=None)
    p.add_argument("--aggressiveness", type=float, default=None)
    p.add_argument("--refresh", choices=["per-chunk", "never"], default="per-chunk")
    p.add_argument("--metrics-out")
    p.add_argument("--index-out")
    p.add_argument("--bundle-out")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("query", help="rank the index for each query feature row")
    p.add_argument("--bundle", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--mode", choices=["sym", "asym"], default=DEFAULT_MODE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="mAP of the current state or along checkpoints")
    p.add_argument("--bundle", required=True)
    p.add_argument("--index")
    p.add_argument("--query-features", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--db-labels", required=True)
    p.add_argument("--db-features")
    p.add_argument("--mode", choices=["sym", "asym"], default=DEFAULT_MODE)
    p.add_argument("--checkpoints")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-c", help="mAP across aggressiveness values")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--bits", type=int, default=DEFAULT_BITS)
    p.add_argument("--c-values", default=DEFAULT_C_VALUES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-queries", type=int, default=DEFAULT_SWEEP_QUERIES)
    p.add_argument("--init-size", type=int, default=DEFAULT_INIT_SIZE)
    p.add_argument("--chunk", type=int, default=DEFAULT_CHUNK_SIZE)
    p.add_argument("--mode", choices=["sym", "asym"], default=DEFAULT_MODE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_c)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StaleProjectionError, LockContentionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
