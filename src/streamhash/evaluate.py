"""Retrieval evaluation and the synthetic streaming protocol.

Ground truth: a database item is relevant to a query iff the two share at
least one class label. Quality is mean average precision over the full
ranking; queries with no relevant item are excluded from the mean. Queries
are always held out of the index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .index import CodeIndex
from .itq import DEFAULT_ITQ_ITERS, HashModel, encode
from .labelcodes import LabelHashMatrix
from .online import DEFAULT_AGGRESSIVENESS, DEFAULT_CHUNK_SIZE, DEFAULT_INIT_SIZE
from .online import ProjectionState, init_models, init_projection_state, stream_chunks

DEFAULT_MODE = "asym"
DEFAULT_LABELS_MEAN = 1.5
DEFAULT_SPREAD = 1.5
DEFAULT_SWEEP_QUERIES = 500


@dataclass(eq=False)
class SyntheticDataset:
    """Multi-label Gaussian-mixture points: features plus label sets."""

    features: np.ndarray
    labels: list
    n_classes: int
    params: dict = field(default_factory=dict)


@dataclass(eq=False)
class EvalRun:
    """Per-query APs and their mean for one (state, index, mode) snapshot."""

    query_ids: np.ndarray
    ap_values: np.ndarray
    evaluated: np.ndarray
    mean_ap: float
    mode: str
    rounds: int = 0
    cumulative_train_seconds: float = 0.0
    cumulative_refresh_seconds: float = 0.0
    config: dict = field(default_factory=dict)


def _label_matrix01(db_labels, query_label_sets) -> np.ndarray:
    """(N, C) database class membership; C also spans every query class."""
    n = len(db_labels)
    counts = np.fromiter((len(labels) for labels in db_labels), dtype=np.intp, count=n)
    cols = np.fromiter(
        (int(c) for labels in db_labels for c in labels), dtype=np.intp, count=int(counts.sum())
    )
    top = max((int(c) for labels in query_label_sets for c in labels), default=-1)
    n_classes = max(int(cols.max(initial=-1)), top) + 1
    out = np.zeros((n, n_classes), dtype=bool)
    out[np.repeat(np.arange(n), counts), cols] = True
    return out


def _relevance(db01: np.ndarray, query_labels) -> np.ndarray:
    return db01[:, sorted(int(c) for c in query_labels)].any(axis=1)


def groundtruth_neighbors(query_labels, db_labels) -> np.ndarray:
    """Boolean relevance of every database item: shares >= 1 class."""
    return _relevance(_label_matrix01(db_labels, [query_labels]), query_labels)


def average_precision(ranked_ids, relevance) -> float:
    """AP of a full ranking; 0.0 when nothing is relevant.

    AP = (1/|rel|) * sum over relevant ranks r of (#relevant in top r) / r.
    """
    ranked = np.asarray(ranked_ids, dtype=np.int64)
    rel = np.asarray(relevance, dtype=bool)
    if ranked.size != rel.size:
        raise ValueError(f"ranking covers {ranked.size} items, relevance {rel.size}")
    pos = np.flatnonzero(rel[ranked])
    n_rel = pos.size
    if n_rel == 0:
        return 0.0
    precision_at_hit = np.arange(1, n_rel + 1, dtype=np.float64) / (pos + 1)
    return float(precision_at_hit.sum() / n_rel)


def mean_average_precision(
    index: CodeIndex,
    hash_model: HashModel,
    state: ProjectionState,
    query_features: np.ndarray,
    query_labels,
    db_labels,
    mode: str,
    train_seconds: float = 0.0,
    refresh_seconds: float = 0.0,
    config: dict | None = None,
) -> EvalRun:
    """Full-ranking mAP of the current snapshot, symmetric or asymmetric.

    db_labels[i] must be the label set of index id i. Requires a cache
    refreshed from state.P (checked for both modes).
    """
    if mode not in ("sym", "asym"):
        raise ValueError(f"mode must be 'sym' or 'asym', got {mode!r}")
    index.assert_fresh(state.P)
    n = index.n_projected
    if len(db_labels) != n:
        raise ValueError(f"{len(db_labels)} database label sets for {n} searchable entries")
    query_features = np.asarray(query_features, dtype=np.float64)
    if len(query_labels) != query_features.shape[0]:
        raise ValueError("query features and labels disagree on the query count")

    db01 = _label_matrix01(db_labels, query_labels)

    n_queries = query_features.shape[0]
    ap_values = np.zeros(n_queries)
    evaluated = np.zeros(n_queries, dtype=bool)
    for qi in range(n_queries):
        if mode == "sym":
            ids, _ = index.query_symmetric(state.P, encode(hash_model, query_features[qi]), n)
        else:
            ids, _ = index.query_asymmetric(state.R, query_features[qi], n)
        rel = _relevance(db01, query_labels[qi])
        evaluated[qi] = bool(rel.any())
        if evaluated[qi]:
            ap_values[qi] = average_precision(ids, rel)
    mean_ap = float(ap_values[evaluated].mean()) if evaluated.any() else 0.0
    return EvalRun(
        query_ids=np.arange(n_queries, dtype=np.int64),
        ap_values=ap_values,
        evaluated=evaluated,
        mean_ap=mean_ap,
        mode=mode,
        rounds=state.rounds_seen,
        cumulative_train_seconds=train_seconds,
        cumulative_refresh_seconds=refresh_seconds,
        config=dict(config or {}),
    )


def mean_relevant_fraction(query_labels, db_labels) -> float:
    """Expected AP of a random ranking: mean share of relevant items."""
    query_labels = list(query_labels)
    db01 = _label_matrix01(db_labels, query_labels)
    fracs = []
    for labels in query_labels:
        rel = _relevance(db01, labels)
        if rel.any():
            fracs.append(rel.mean())
    return float(np.mean(fracs)) if fracs else 0.0


def gen_synthetic_multilabel(
    n_points: int,
    dim: int,
    n_classes: int,
    seed: int,
    labels_per_point_mean: float = DEFAULT_LABELS_MEAN,
    cluster_spread: float = DEFAULT_SPREAD,
) -> SyntheticDataset:
    """Sample a multi-label dataset around Gaussian class centroids.

    Each point draws a >=1-truncated Poisson number of distinct classes
    and sits at the mean of their centroids plus isotropic noise of scale
    cluster_spread. spread 0 gives noiseless centroids. The default
    spread overlaps the clusters enough that a fixed hash of the features
    is lossy, which is the regime streaming refinement is for.
    """
    if n_points < 1 or dim < 1 or n_classes < 1:
        raise ValueError("n_points, dim and n_classes must be positive")
    if n_classes > 65535:
        raise ValueError("n_classes capped at 65535")
    if labels_per_point_mean <= 0:
        raise ValueError("labels_per_point_mean must be positive")
    if cluster_spread < 0:
        raise ValueError("cluster_spread must be non-negative")
    rng = np.random.default_rng(seed)
    centroids = rng.standard_normal((n_classes, dim))
    features = np.empty((n_points, dim))
    labels = []
    for i in range(n_points):
        n_active = 0
        # Rejection-truncate to >=1. A mean so small that 10k draws all
        # come up zero would loop for ages; refuse instead.
        for _ in range(10_000):
            n_active = int(rng.poisson(labels_per_point_mean))
            if n_active >= 1:
                break
        else:
            raise ValueError(
                "labels_per_point_mean too small to truncate by rejection"
            )
        n_active = min(n_active, n_classes)
        chosen = np.sort(rng.choice(n_classes, size=n_active, replace=False))
        labels.append(frozenset(int(c) for c in chosen))
        features[i] = centroids[chosen].mean(axis=0)
        if cluster_spread > 0:
            features[i] += cluster_spread * rng.standard_normal(dim)
    params = {
        "n_points": n_points,
        "dim": dim,
        "n_classes": n_classes,
        "seed": seed,
        "labels_per_point_mean": labels_per_point_mean,
        "cluster_spread": cluster_spread,
    }
    return SyntheticDataset(
        features=features, labels=labels, n_classes=n_classes, params=params
    )


def split_queries(features: np.ndarray, labels, n_queries: int, seed: int):
    """Seeded held-out split: (db_features, db_labels, q_features, q_labels)."""
    features = np.asarray(features)
    n = features.shape[0]
    if not 0 < n_queries < n:
        raise ValueError(f"n_queries must be in (0, {n}), got {n_queries}")
    perm = np.random.default_rng(seed).permutation(n)
    q_idx, db_idx = perm[:n_queries], perm[n_queries:]
    labels = list(labels)
    return (
        features[db_idx],
        [labels[i] for i in db_idx],
        features[q_idx],
        [labels[i] for i in q_idx],
    )


@dataclass(eq=False)
class TrainedPipeline:
    """Everything produced by one streaming run over a database."""

    hash_model: HashModel
    label_matrix: LabelHashMatrix
    state: ProjectionState
    index: CodeIndex
    db_labels: list
    train_seconds: float
    refresh_seconds: float


def run_streaming_pipeline(
    db_features: np.ndarray,
    db_labels,
    n_classes: int,
    nbits: int,
    aggressiveness: float = DEFAULT_AGGRESSIVENESS,
    seed: int = 0,
    init_size: int = DEFAULT_INIT_SIZE,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    itq_iters: int = DEFAULT_ITQ_ITERS,
    record_stream: bool = False,
) -> TrainedPipeline:
    """Initialise on the first init_size points, then stream the rest.

    The first init_size points only train the fixed hash stage; streamed
    points (everything after them) are inserted into the index and drive
    the online updates, with a cache refresh per chunk. Seeds derive as
    in init_models.
    """
    db_features = np.asarray(db_features, dtype=np.float64)
    n = db_features.shape[0]
    if not 0 < init_size < n:
        raise ValueError(f"init_size must be in (0, {n}), got {init_size}")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    db_labels = list(db_labels)
    if len(db_labels) != n:
        raise ValueError(f"{n} points but {len(db_labels)} label sets")

    t0 = time.perf_counter()
    hash_model, label_matrix, state = init_models(
        db_features[:init_size], nbits, n_classes, seed, aggressiveness, itq_iters, record_stream
    )
    index = CodeIndex(nbits)
    train_seconds = time.perf_counter() - t0
    refresh_seconds = 0.0
    for _, _, train_s, refresh_s in stream_chunks(
        state, label_matrix, hash_model, index, db_features, db_labels, init_size, chunk_size, True
    ):
        train_seconds += train_s
        refresh_seconds += refresh_s
    return TrainedPipeline(
        hash_model=hash_model,
        label_matrix=label_matrix,
        state=state,
        index=index,
        db_labels=db_labels[init_size:],
        train_seconds=train_seconds,
        refresh_seconds=refresh_seconds,
    )


def run_checkpoint_curve(
    hash_model: HashModel,
    label_matrix: LabelHashMatrix,
    db_features: np.ndarray,
    db_labels,
    query_features: np.ndarray,
    query_labels,
    checkpoints,
    mode: str = DEFAULT_MODE,
    aggressiveness: float = DEFAULT_AGGRESSIVENESS,
    proj_seed: int = 0,
    init_size: int = DEFAULT_INIT_SIZE,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[tuple[int, EvalRun]]:
    """mAP measured while the stream grows, from a fresh projection state.

    Streams db_features[init_size:] in chunks; each checkpoint (a
    points-seen count) is evaluated at the first chunk boundary reaching
    it. Checkpoints that collapse onto the same boundary, or exceed the
    stream, yield one row at that boundary / the end. Returns
    [(points_seen, EvalRun), ...].
    """
    db_features = np.asarray(db_features, dtype=np.float64)
    db_labels = list(db_labels)
    pending = sorted({int(c) for c in checkpoints})
    if pending and pending[0] < 1:
        raise ValueError("checkpoints must be >= 1 points seen")
    state = init_projection_state(
        hash_model.nbits,
        hash_model.dim,
        aggressiveness=aggressiveness,
        seed=proj_seed,
    )
    index = CodeIndex(hash_model.nbits)
    rows: list[tuple[int, EvalRun]] = []

    def evaluate_now():
        index.refresh_projected_codes(state.P)
        run = mean_average_precision(
            index,
            hash_model,
            state,
            query_features,
            query_labels,
            db_labels[init_size : init_size + index.n_projected],
            mode,
        )
        rows.append((state.rounds_seen, run))

    for _ in stream_chunks(
        state, label_matrix, hash_model, index, db_features, db_labels, init_size, chunk_size, False
    ):
        if pending and state.rounds_seen >= pending[0]:
            pending = [c for c in pending if c > state.rounds_seen]
            evaluate_now()
    if pending:
        evaluate_now()
    return rows


def run_c_sweep(
    dataset: SyntheticDataset,
    nbits: int,
    c_values,
    seed: int,
    n_queries: int = DEFAULT_SWEEP_QUERIES,
    init_size: int = DEFAULT_INIT_SIZE,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    mode: str = DEFAULT_MODE,
) -> list[tuple[float, float]]:
    """Final mAP for each aggressiveness value, all else held fixed.

    Reported for inspection; the method is insensitive over a wide range,
    so no ordering is asserted anywhere.
    """
    db_f, db_l, q_f, q_l = split_queries(dataset.features, dataset.labels, n_queries, seed)
    rows = []
    for c in c_values:
        if c <= 0:
            raise ValueError("aggressiveness values must be positive")
        pipe = run_streaming_pipeline(
            db_f,
            db_l,
            dataset.n_classes,
            nbits,
            aggressiveness=float(c),
            seed=seed,
            init_size=init_size,
            chunk_size=chunk_size,
        )
        run = mean_average_precision(
            pipe.index, pipe.hash_model, pipe.state, q_f, q_l, pipe.db_labels, mode
        )
        rows.append((float(c), run.mean_ap))
    return rows
