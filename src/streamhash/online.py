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

import time
from dataclasses import dataclass, field

import numpy as np

from .codes import sign
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
        self.code_mistakes += code_pred != target
        self.feature_mistakes += feature_pred != target
        self.r_max = max(self.r_max, float(np.sqrt(np.dot(x, x))))
        self.rounds += 1
        if self.record_stream:
            self._codes.append(np.asarray(code, dtype=np.int8))
            self._targets.append(np.asarray(target, dtype=np.int8))
            self._features.append(np.asarray(x, dtype=np.float64))

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
    if code is None:
        code = encode(hash_model, x)
    target = ideal_code(label_matrix, labels)
    h = code.astype(np.float64)
    g = target.astype(np.float64)
    nbits = state.P.shape[1]

    code_scores = h @ state.P
    code_pred = sign(code_scores)
    code_losses = np.where(g * code_scores >= 1.0, 0.0, 1.0 - g * code_scores)
    active = code_losses > 0.0
    if np.any(active):
        taus = np.minimum(state.aggressiveness, code_losses / nbits)
        state.P[:, active] += h[:, None] * (taus * g)[active]

    feat_scores = x @ state.R
    feat_pred = sign(feat_scores)
    feat_losses = np.where(g * feat_scores >= 1.0, 0.0, 1.0 - g * feat_scores)
    active_r = feat_losses > 0.0
    if np.any(active_r):
        sq = float(np.dot(x, x))
        if sq == 0.0:
            raise ZeroNormError(
                "zero-norm feature with positive loss has no finite update"
            )
        taus_r = np.minimum(state.aggressiveness, feat_losses / sq)
        state.R[:, active_r] += x[:, None] * (taus_r * g)[active_r]

    state.ledger.record_round(code, x, target, code_pred, feat_pred)
    state.rounds_seen += 1
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

    Codes are inserted before the learning updates, matching the
    encode-insert-update order of the per-point protocol. Returns the
    (N, nbits) code matrix.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D chunk, got shape {X.shape}")
    if len(labels_seq) != X.shape[0]:
        raise ValueError(f"{X.shape[0]} points but {len(labels_seq)} label sets")
    codes = encode_batch(hash_model, X)
    if index is not None:
        index.insert_many(codes)
    for i in range(X.shape[0]):
        process_stream_point(
            state, label_matrix, hash_model, X[i], labels_seq[i], code=codes[i]
        )
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
