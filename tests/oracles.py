"""Independent reference implementations used to check the package.

Everything here deliberately avoids the package's own closed forms and
vectorised kernels: the QP step is solved numerically, Hamming distances
and rankings come from plain Python loops, and average precision is
computed in exact rational arithmetic. The exceptions are the reference
learner, the per-point update loop the chunk fast path must reproduce bit
for bit, and the previous average-precision and label-matrix bodies, which
the evaluator must reproduce exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from streamhash import ZeroNormError, encode, encode_batch, ideal_code, sign


def solve_soft_margin_step(prev, feat, target, aggressiveness):
    """Numerically solve one online step of the soft-margin problem.

      minimise 0.5 * ||w - prev||^2 + C * xi
      subject to xi >= 0 and target * (w . feat) >= 1 - xi

    Returns the optimal w found by SLSQP.
    """
    prev = np.asarray(prev, dtype=np.float64)
    feat = np.asarray(feat, dtype=np.float64)
    n = prev.size

    def objective(z):
        w, xi = z[:n], z[n]
        return 0.5 * float(np.sum((w - prev) ** 2)) + aggressiveness * xi

    def objective_grad(z):
        g = np.empty(n + 1)
        g[:n] = z[:n] - prev
        g[n] = aggressiveness
        return g

    margin_jac = np.concatenate([target * feat, [1.0]])
    xi_jac = np.zeros(n + 1)
    xi_jac[n] = 1.0
    constraints = [
        {
            "type": "ineq",
            "fun": lambda z: target * float(np.dot(z[:n], feat)) - 1.0 + z[n],
            "jac": lambda z: margin_jac,
        },
        {"type": "ineq", "fun": lambda z: z[n], "jac": lambda z: xi_jac},
    ]
    # Feasible start: keep w at prev, take the smallest admissible slack.
    # SLSQP sometimes stops with a line-search status right at the
    # optimum, so run a few deterministic starts and keep the feasible
    # terminal point with the lowest objective.
    margin0 = target * float(np.dot(prev, feat))
    slack0 = max(0.0, 1.0 - margin0)
    starts = [
        np.concatenate([prev, [slack0]]),
        np.concatenate([prev, [slack0 + 1.0]]),
        np.concatenate([np.zeros(n), [1.0]]),
    ]
    best = None
    for z0 in starts:
        res = minimize(
            objective,
            z0,
            jac=objective_grad,
            method="SLSQP",
            constraints=constraints,
            options={"maxiter": 1000, "ftol": 1e-12},
        )
        z = res.x
        feasible = (
            z[n] >= -1e-9
            and target * float(np.dot(z[:n], feat)) - 1.0 + z[n] >= -1e-9
        )
        if feasible and (best is None or objective(z) < objective(best)):
            best = z
    if best is None:
        raise RuntimeError("QP solver found no feasible point from any start")
    return best[:n]


def hamming_scalar(a_bits, b_bits) -> int:
    assert len(a_bits) == len(b_bits)
    return sum(1 for x, y in zip(a_bits, b_bits) if x != y)


def sign_scalar(value: float) -> int:
    return 1 if value >= 0 else -1


def project_scalar(matrix, vec) -> list:
    """sign(matrix^T vec) with plain Python accumulation."""
    matrix = np.asarray(matrix, dtype=np.float64)
    vec = np.asarray(vec, dtype=np.float64)
    out = []
    for j in range(matrix.shape[1]):
        acc = 0.0
        for i in range(matrix.shape[0]):
            acc += matrix[i, j] * vec[i]
        out.append(sign_scalar(acc))
    return out


def encode_scalar(W, b, x) -> list:
    """sign(W^T x + b) with plain Python accumulation."""
    W = np.asarray(W, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    out = []
    for j in range(W.shape[1]):
        acc = 0.0
        for i in range(W.shape[0]):
            acc += W[i, j] * x[i]
        out.append(sign_scalar(acc + b[j]))
    return out


def rank_exhaustive(query_bits, db_bits_matrix):
    """Sort ids by (Hamming distance, id) using scalar loops."""
    dists = [hamming_scalar(query_bits, row) for row in db_bits_matrix]
    order = sorted(range(len(dists)), key=lambda i: (dists[i], i))
    return order, [dists[i] for i in order]


def average_precision_fraction(ranked_ids, relevance) -> Fraction:
    """Exact-rational AP of a full ranking; 0 when nothing is relevant."""
    hits = [bool(relevance[i]) for i in ranked_ids]
    n_rel = sum(hits)
    if n_rel == 0:
        return Fraction(0)
    total = Fraction(0)
    seen = 0
    for rank, hit in enumerate(hits, start=1):
        if hit:
            seen += 1
            total += Fraction(seen, rank)
    return total / n_rel


def groundtruth_neighbors_sets(query_labels, db_labels) -> np.ndarray:
    """Relevance by set intersection: item i shares >= 1 class with the query."""
    q = frozenset(query_labels)
    return np.fromiter((bool(q & set(d)) for d in db_labels), dtype=bool, count=len(db_labels))


def mean_relevant_fraction_sets(query_labels, db_labels) -> float:
    """Mean share of relevant items over queries with any, one set scan per query."""
    fracs = []
    for labels in query_labels:
        rel = groundtruth_neighbors_sets(labels, db_labels)
        if rel.any():
            fracs.append(rel.mean())
    return float(np.mean(fracs)) if fracs else 0.0


def map_exhaustive(db_codes, query_codes, query_relevances) -> float:
    """mAP over queries with >= 1 relevant item, all scalar arithmetic."""
    aps = []
    for q_bits, rel in zip(query_codes, query_relevances):
        if not any(rel):
            continue
        order, _ = rank_exhaustive(q_bits, db_codes)
        aps.append(average_precision_fraction(order, rel))
    if not aps:
        return 0.0
    return float(sum(aps) / len(aps))


def reference_process_stream_point(state, label_matrix, hash_model, x, labels, code=None):
    """The per-point learner as it was before the chunk fast path.

    The body of the old process_stream_point, with the old
    BoundLedger.record_round inlined, so nothing here goes through the
    package's chunk path. Mutates and returns `state`.
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

    ledger = state.ledger
    ledger.code_mistakes += code_pred != target
    ledger.feature_mistakes += feat_pred != target
    ledger.r_max = max(ledger.r_max, float(np.sqrt(np.dot(x, x))))
    ledger.rounds += 1
    if ledger.record_stream:
        ledger._codes.append(np.asarray(code, dtype=np.int8))
        ledger._targets.append(np.asarray(target, dtype=np.int8))
        ledger._features.append(np.asarray(x, dtype=np.float64))
    state.rounds_seen += 1
    return state


def reference_process_chunk(state, label_matrix, hash_model, X, labels_seq):
    """Encode a chunk, then run the reference learner point by point."""
    X = np.asarray(X, dtype=np.float64)
    codes = encode_batch(hash_model, X)
    for i in range(X.shape[0]):
        reference_process_stream_point(
            state, label_matrix, hash_model, X[i], labels_seq[i], code=codes[i]
        )
    return codes


def reference_average_precision(ranked_ids, relevance) -> float:
    """average_precision as it was before the hit-position form: full-length cumsum."""
    ranked = np.asarray(ranked_ids, dtype=np.int64)
    rel = np.asarray(relevance, dtype=bool)
    if ranked.size != rel.size:
        raise ValueError(f"ranking covers {ranked.size} items, relevance {rel.size}")
    hits = rel[ranked]
    n_rel = int(hits.sum())
    if n_rel == 0:
        return 0.0
    ranks = np.arange(1, hits.size + 1, dtype=np.float64)
    precision_at_hit = np.cumsum(hits)[hits] / ranks[hits]
    return float(precision_at_hit.sum() / n_rel)


def reference_label_matrix01(db_labels, query_label_sets) -> np.ndarray:
    """The class-membership matrix as it was before vectorising: a Python double loop."""
    n_classes = 0
    for labels in list(db_labels) + list(query_label_sets):
        for c in labels:
            n_classes = max(n_classes, int(c) + 1)
    out = np.zeros((len(db_labels), n_classes), dtype=bool)
    for i, labels in enumerate(db_labels):
        for c in labels:
            out[i, c] = True
    return out
