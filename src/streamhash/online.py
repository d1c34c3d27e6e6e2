"""Online passive-aggressive learning of the two projections.

The fixed hash stage maps a feature x to a code h. Retrieval quality is
then improved online by learning, per bit j:

  * a code-side column p_j, predicting the target bit from h, and
  * a feature-side column r_j, predicting the same target bit from x.

Each streamed labelled point yields a target code from the label hasher;
every bit whose hinge loss is positive takes the closed-form
passive-aggressive step, clipped by the aggressiveness parameter. Passive
bits are left bit-identical. The code-side matrix P refreshes stored
database codes without touching raw features; the feature-side matrix R
maps raw queries directly.

A BoundLedger tracks per-bit mistake counts plus the quantities needed to
evaluate the relative mistake bounds against any fixed competitor:

  code side:    M_j <= max(K, 1/C)   * (||u||^2 + 2C * sum_i loss_u(h_i, g_ij))
  feature side: M_j <= max(Rmax^2, 1/C) * (||u||^2 + 2C * sum_i loss_u(x_i, g_ij))

where Rmax is the largest feature norm seen and a mistake is a pre-update
sign disagreement (sign(0) = +1) with the target bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroNormError
from .itq import HashModel, encode, encode_batch, fit_pca_itq
from .labelcodes import LabelHashMatrix, ideal_code, sample_label_matrix

DEFAULT_AGGRESSIVENESS = 0.1
DEFAULT_INIT_SIZE = 300  # points that only fit the hash stage
DEFAULT_CHUNK_SIZE = 1000


def hinge_loss(target: int, w: np.ndarray, v: np.ndarray) -> float:
    """Hinge loss of one column on one (input, target-bit) pair; input is a code or feature."""
    margin = target * float(np.dot(w, v))
    return 0.0 if margin >= 1.0 else 1.0 - margin


hinge_loss_code = hinge_loss_feature = hinge_loss


def update_code_projection(
    w: np.ndarray, code: np.ndarray, target: int, aggressiveness: float
) -> tuple[np.ndarray, float]:
    """One passive-aggressive step of a code-side column.

    Returns (w_next, tau). tau = min(aggressiveness, loss / K) because
    ||code||^2 == K for +-1 codes. Passive rounds return w itself.
    """
    if aggressiveness <= 0:
        raise ValueError("aggressiveness must be positive")
    loss = hinge_loss(target, w, code)
    if loss == 0.0:
        return w, 0.0
    tau = min(aggressiveness, loss / code.size)
    return w + (tau * target) * np.asarray(code, dtype=np.float64), tau


def update_feature_projection(
    w: np.ndarray, x: np.ndarray, target: int, aggressiveness: float
) -> tuple[np.ndarray, float]:
    """One passive-aggressive step of a feature-side column.

    tau = min(aggressiveness, loss / ||x||^2). A zero-norm x with positive
    loss has no finite step and raises ZeroNormError.
    """
    if aggressiveness <= 0:
        raise ValueError("aggressiveness must be positive")
    loss = hinge_loss(target, w, x)
    if loss == 0.0:
        return w, 0.0
    sq = float(np.dot(x, x))
    if sq == 0.0:
        raise ZeroNormError("zero-norm feature with positive loss has no finite update")
    tau = min(aggressiveness, loss / sq)
    return w + (tau * target) * np.asarray(x, dtype=np.float64), tau


@dataclass(eq=False)
class BoundLedger:
    """Mistake counters and (optionally) the recorded stream.

    Competitor losses are recomputed from the recorded stream at bound
    time, so record_stream must be True for mistake_bound to work. Long
    production streams keep it off and only the counters accumulate.
    """

    nbits: int
    aggressiveness: float
    record_stream: bool = False
    rounds: int = 0
    r_max: float = 0.0
    code_mistakes: np.ndarray = None
    feature_mistakes: np.ndarray = None
    _codes: list = field(default_factory=list, repr=False)
    _targets: list = field(default_factory=list, repr=False)
    _features: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.code_mistakes is None:
            self.code_mistakes = np.zeros(self.nbits, dtype=np.int64)
        if self.feature_mistakes is None:
            self.feature_mistakes = np.zeros(self.nbits, dtype=np.int64)

    def record_round(self, code, x, target, code_pred, feature_pred):
        x = np.asarray(x, dtype=np.float64)
        self.record_rows(
            np.asarray(code)[None, :],
            x[None, :],
            np.asarray(target)[None, :],
            (code_pred != target)[None, :],
            (feature_pred != target)[None, :],
            [float(np.dot(x, x))],
        )

    def record_rows(self, codes, X, targets, code_wrong, feature_wrong, sq_norms):
        """Add rounds at once: (n, K) mistake flags and each row's ||x||^2."""
        self.code_mistakes += code_wrong.sum(axis=0)
        self.feature_mistakes += feature_wrong.sum(axis=0)
        self.r_max = max([self.r_max, *map(math.sqrt, sq_norms)])
        self.rounds += len(codes)
        if self.record_stream:
            self._codes.extend(np.asarray(codes, dtype=np.int8))
            self._targets.extend(np.asarray(targets, dtype=np.int8))
            self._features.extend(np.asarray(X, dtype=np.float64))

    def code_stream(self) -> tuple[np.ndarray, np.ndarray]:
        """(rounds, K) codes and targets seen so far."""
        return np.array(self._codes), np.array(self._targets)

    def feature_stream(self) -> tuple[np.ndarray, np.ndarray]:
        """(rounds, dim) features and (rounds, K) targets seen so far."""
        return np.array(self._features), np.array(self._targets)


def mistake_bound(ledger: BoundLedger, u: np.ndarray, mode: str) -> np.ndarray:
    """Per-bit mistake bounds relative to a fixed competitor u.

    mode "code" bounds the code-side counters with factor max(K, 1/C);
    mode "feature" bounds the feature-side counters with factor
    max(Rmax^2, 1/C). The same u is scored against every bit's target
    sequence; the result is a length-K vector.
    """
    if ledger.rounds == 0:
        raise ValueError("empty ledger: no rounds recorded")
    if not ledger.record_stream:
        raise ValueError("ledger did not record the stream; competitor losses unavailable")
    u = np.asarray(u, dtype=np.float64)
    if mode == "code":
        inputs, targets = ledger.code_stream()
        factor = max(float(ledger.nbits), 1.0 / ledger.aggressiveness)
    elif mode == "feature":
        inputs, targets = ledger.feature_stream()
        factor = max(ledger.r_max**2, 1.0 / ledger.aggressiveness)
    else:
        raise ValueError(f"mode must be 'code' or 'feature', got {mode!r}")
    if u.shape != (inputs.shape[1],):
        raise ValueError(f"competitor shape {u.shape} != ({inputs.shape[1]},)")
    scores = inputs.astype(np.float64) @ u
    losses = np.maximum(0.0, 1.0 - targets * scores[:, None])
    return factor * (float(np.dot(u, u)) + 2.0 * ledger.aggressiveness * losses.sum(axis=0))


@dataclass(eq=False)
class ProjectionState:
    """Both learned projections plus the running ledger.

    P is (nbits, nbits) with column j = p_j; R is (dim, nbits) with
    column j = r_j.
    """

    P: np.ndarray
    R: np.ndarray
    aggressiveness: float
    seed: int
    rounds_seen: int = 0
    ledger: BoundLedger = None

    def __post_init__(self):
        if self.ledger is None:
            self.ledger = BoundLedger(
                nbits=self.P.shape[1], aggressiveness=self.aggressiveness
            )


def init_projection_state(
    nbits: int,
    dim: int,
    aggressiveness: float = DEFAULT_AGGRESSIVENESS,
    seed: int = 0,
    record_stream: bool = False,
) -> ProjectionState:
    """Seeded Gaussian init: P entries std 1/sqrt(nbits), R entries std 1/sqrt(dim)."""
    if nbits < 1 or dim < 1:
        raise ValueError("nbits and dim must be positive")
    if aggressiveness <= 0:
        raise ValueError("aggressiveness must be positive")
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((nbits, nbits)) / np.sqrt(nbits)
    R = rng.standard_normal((dim, nbits)) / np.sqrt(dim)
    ledger = BoundLedger(
        nbits=nbits, aggressiveness=aggressiveness, record_stream=record_stream
    )
    return ProjectionState(
        P=P, R=R, aggressiveness=aggressiveness, seed=seed, ledger=ledger
    )


def _require_finite(X: np.ndarray):
    """Reject NaN and infinite features, which the dense steps would spread through R."""
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")


def _chunk_targets(label_matrix: LabelHashMatrix, labels_seq) -> np.ndarray:
    """(n, K) target codes, calling ideal_code once per distinct label set."""
    cache = {}
    rows = []
    for labels in labels_seq:
        key = tuple(sorted(set(labels)))
        if key not in cache:
            cache[key] = ideal_code(label_matrix, key)
        rows.append(cache[key])
    return np.array(rows, dtype=np.int8).reshape(len(rows), label_matrix.nbits)


def _learn_rows(state: ProjectionState, codes: np.ndarray, X: np.ndarray, targets: np.ndarray):
    """The per-point passive-aggressive steps over the rows of one chunk, in order.

    A bit with zero hinge loss gets tau = 0, so the dense rank-one step
    leaves its column bit-identical. The ledger takes the rows that
    completed, also when a zero-norm feature stops the chunk part-way.
    """
    H = codes.astype(np.float64)
    G = targets.astype(np.float64)
    sq_norms = [float(np.dot(x, x)) for x in X]  # np.dot's order keeps R and r_max exact
    n, nbits = H.shape
    P, R, c = state.P, state.R, state.aggressiveness
    code_scores = np.empty((n, nbits))
    feat_scores = np.empty((n, nbits))
    done = 0
    try:
        for i in range(n):
            h, x, g = H[i], X[i], G[i]
            s = code_scores[i] = h @ P
            m = g * s
            loss = np.where(m >= 1.0, 0.0, 1.0 - m)
            P += np.multiply.outer(h, np.minimum(c, loss / nbits) * g)

            s = feat_scores[i] = x @ R
            m = g * s
            loss = np.where(m >= 1.0, 0.0, 1.0 - m)
            sq = sq_norms[i]
            if sq > 0.0:
                R += np.multiply.outer(x, np.minimum(c, loss / sq) * g)
            elif loss.any():
                raise ZeroNormError("zero-norm feature with positive loss has no finite update")
            done = i + 1
    finally:
        positive = targets[:done] > 0
        state.ledger.record_rows(
            codes[:done],
            X[:done],
            targets[:done],
            (code_scores[:done] >= 0.0) != positive,
            (feat_scores[:done] >= 0.0) != positive,
            sq_norms[:done],
        )
        state.rounds_seen += done


def process_stream_point(
    state: ProjectionState,
    label_matrix: LabelHashMatrix,
    hash_model: HashModel,
    x: np.ndarray,
    labels,
    code: np.ndarray | None = None,
) -> ProjectionState:
    """Consume one labelled point: encode, derive the target, update all bits.

    Column j takes exactly the per-column closed-form step on
    (code, target_j); passive columns are left untouched. Passing a
    precomputed `code` skips re-encoding (it must equal
    encode(hash_model, x)). Mutates and returns `state`.
    """
    x = np.asarray(x, dtype=np.float64)
    _require_finite(x)
    if code is None:
        code = encode(hash_model, x)
    target = ideal_code(label_matrix, labels)
    _learn_rows(state, np.asarray(code)[None, :], x[None, :], target[None, :])
    return state


def process_chunk(
    state: ProjectionState,
    label_matrix: LabelHashMatrix,
    hash_model: HashModel,
    X: np.ndarray,
    labels_seq,
    index=None,
) -> np.ndarray:
    """Stream one chunk of points, optionally inserting codes into an index.

    Features are checked and targets derived first, so a non-finite
    feature or a bad label set rejects the chunk before anything changes.
    Codes are inserted before the learning updates, matching the
    encode-insert-update order of the per-point protocol. Returns the
    (N, nbits) code matrix.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D chunk, got shape {X.shape}")
    if len(labels_seq) != X.shape[0]:
        raise ValueError(f"{X.shape[0]} points but {len(labels_seq)} label sets")
    _require_finite(X)
    targets = _chunk_targets(label_matrix, labels_seq)
    codes = encode_batch(hash_model, X)
    if index is not None:
        index.insert_many(codes)
    _learn_rows(state, codes, X, targets)
    return codes


def init_models(
    X: np.ndarray,
    nbits: int,
    n_classes: int,
    seed: int,
    aggressiveness: float,
    itq_iters: int,
    record_stream: bool = False,
) -> tuple[HashModel, LabelHashMatrix, ProjectionState]:
    """Fit the hash stage on the init sample X, draw the label hasher and projections.

    The one seed rule: hash stage seed, label hasher seed + 1, projections seed + 2.
    """
    hash_model = fit_pca_itq(X, nbits, iters=itq_iters, seed=seed)
    label_matrix = sample_label_matrix(n_classes, nbits, seed=seed + 1)
    state = init_projection_state(nbits, hash_model.dim, aggressiveness, seed + 2, record_stream)
    return hash_model, label_matrix, state


def stream_chunks(
    state: ProjectionState,
    label_matrix: LabelHashMatrix,
    hash_model: HashModel,
    index,
    X: np.ndarray,
    labels,
    first: int,
    chunk: int,
    refresh: bool,
):
    """Stream X[first:] in chunks: process_chunk, then a cache refresh from P if `refresh`.

    Yields (start, stop, train_seconds, refresh_seconds) after each chunk.
    """
    for start in range(first, X.shape[0], chunk):
        stop = min(start + chunk, X.shape[0])
        t0 = time.perf_counter()
        process_chunk(state, label_matrix, hash_model, X[start:stop], labels[start:stop], index)
        t1 = time.perf_counter()
        if refresh:
            index.refresh_projected_codes(state.P)
        yield start, stop, t1 - t0, (time.perf_counter() - t1) if refresh else 0.0
