"""Output checks computed by the benchmark itself.

Nothing here calls the program's ranking, refresh or evaluation code: the
index file is parsed from its documented byte layout, codes and the
projected cache are recomputed from the features and the bundle's matrices,
rankings are brute force over ``unpack_rows`` of the cache (ties broken by
id), and relevance, AP and the random baseline come from label bitmasks.

A sign computed here may legitimately differ from the program's where the
value is within EPS of zero (summation order), so such entries are not
counted as mismatches.
"""

from __future__ import annotations

import csv
import hashlib
import struct
import sys

import numpy as np

from streamhash.codes import unpack_rows

EPS = 1e-9
INDEX_MAGIC = b"OHWI"
BLOCK = 16384


class Checks:
    """Counts checks made and failed; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def ok(self, condition: bool, what: str) -> bool:
        self.attempted += 1
        if not condition:
            self.fail(what)
        return bool(condition)

    def fail(self, what: str):
        self.failed += 1
        self.messages.append(what)
        print(f"check failed: {what}", file=sys.stderr)


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _read_array(data: bytes, off: int) -> tuple[np.ndarray, int]:
    dtypes = {1: "<f8", 2: "<i8", 3: "<u8"}
    code, ndim = struct.unpack_from("<BB", data, off)
    off += 2
    shape = struct.unpack_from("<" + "q" * ndim, data, off)
    off += 8 * ndim
    arr = np.frombuffer(data, dtype=dtypes[code], count=int(np.prod(shape)), offset=off)
    return arr.reshape(shape), off + arr.nbytes


def parse_index(data: bytes) -> dict:
    """Fields of an OHWI index image: nbits, size, words, projected (or None)."""
    if data[:4] != INDEX_MAGIC:
        raise ValueError("not an index image")
    _version, nbits, size, _proj_version, has_projected, digest_len = struct.unpack_from(
        "<IIQQBI", data, 4
    )
    off = 4 + struct.calcsize("<IIQQBI") + digest_len
    words, off = _read_array(data, off)
    projected = None
    if has_projected:
        projected, off = _read_array(data, off)
    if off != len(data) or words.shape[0] != size:
        raise ValueError("index image layout does not match its header")
    return {"nbits": nbits, "size": size, "words": words, "projected": projected}


def pad_bits_clear(words: np.ndarray, nbits: int) -> bool:
    """The bits past nbits in each row's last word are zero."""
    if nbits % 64 == 0:
        return True
    pad = np.uint64(((1 << 64) - 1) ^ ((1 << (nbits % 64)) - 1))
    return not np.any(words[:, -1] & pad)


def sign_agrees(scores: np.ndarray, bits: np.ndarray) -> bool:
    """bits == sign(scores) (sign(0) = +1) wherever |score| > EPS."""
    ref = np.where(scores >= 0, 1, -1)
    return bool(np.all((ref == bits) | (np.abs(scores) <= EPS)))


def check_index(
    checks: Checks, image: dict, features: np.ndarray, W, b, P, what: str
) -> np.ndarray | None:
    """Stored codes and projected cache against a recomputation from features.

    Returns the cache as a float32 +-1 matrix, or None when the check failed.
    """
    n = features.shape[0]
    nbits = image["nbits"]
    if not checks.ok(image["size"] == n, f"{what}: index holds {image['size']} codes, expected {n}"):
        return None
    if not checks.ok(image["projected"] is not None, f"{what}: index has no projected cache"):
        return None
    cache = np.empty((n, nbits), dtype=np.float32)
    codes_ok = pad_bits_clear(image["words"], nbits)
    cache_ok = pad_bits_clear(image["projected"], nbits)
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        codes = unpack_rows(image["words"][start:stop], nbits)
        block = unpack_rows(image["projected"][start:stop], nbits)
        codes_ok &= sign_agrees(features[start:stop].astype(np.float64) @ W + b, codes)
        cache_ok &= sign_agrees(codes.astype(np.float64) @ P, block)
        cache[start:stop] = block
    good = checks.ok(codes_ok, f"{what}: stored codes differ from sign(X W + b)")
    good &= checks.ok(cache_ok, f"{what}: projected cache differs from sign(h P)")
    return cache if good else None


def cache_matrix(image: dict) -> np.ndarray:
    """The projected cache of an index image as a float32 +-1 matrix."""
    return unpack_rows(image["projected"], image["nbits"]).astype(np.float32)


def brute_topk(cache: np.ndarray, query_bits: np.ndarray, k: int):
    """Top-k (ids, distances) over a float32 +-1 cache, ties by ascending id."""
    nbits = cache.shape[1]
    dists = ((nbits - cache @ query_bits.astype(np.float32)) / 2).astype(np.int64)
    order = np.argsort(dists, kind="stable")[:k]
    return order, dists[order]


def check_asym_queries(
    checks: Checks, cache: np.ndarray, R: np.ndarray, queries, results, k: int, what: str
):
    """results[i] = (ids, dists) the program returned for queries[i]."""
    for i, (x, (ids, dists)) in enumerate(zip(queries, results)):
        scores = np.asarray(x, dtype=np.float64) @ R
        if np.any(np.abs(scores) <= EPS):
            continue
        ref_ids, ref_d = brute_topk(cache, np.where(scores >= 0, 1, -1), k)
        checks.ok(
            np.array_equal(np.asarray(ids), ref_ids) and np.array_equal(np.asarray(dists), ref_d),
            f"{what}: query {i} top-{k} differs from brute force",
        )


def read_hits(path: str) -> dict[int, tuple[list[int], list[int]]]:
    """hits.csv rows grouped by query: {query: (ids, distances)} in rank order."""
    out: dict[int, tuple[list[int], list[int]]] = {}
    with open(path, newline="") as f:
        rows = csv.reader(f)
        next(rows)
        for q, rank, i, d in rows:
            ids, dists = out.setdefault(int(q), ([], []))
            if int(rank) != len(ids) + 1:
                raise ValueError(f"{path}: query {q} rank {rank} out of order")
            ids.append(int(i))
            dists.append(int(d))
    return out


def label_masks(label_seq) -> np.ndarray:
    """uint64 bitmask per label set (classes < 64)."""
    return np.array([sum(1 << int(c) for c in labels) for labels in label_seq], dtype=np.uint64)


def relevance(q_masks: np.ndarray, db_masks: np.ndarray) -> np.ndarray:
    """(Q, N) bool: query and item share at least one class."""
    return (q_masks[:, None] & db_masks[None, :]) != 0


def mean_ap(query_bits: np.ndarray, cache: np.ndarray, q_masks, db_masks) -> tuple[float, int]:
    """Full-ranking mAP over queries with a relevant item, and their count."""
    nbits = cache.shape[1]
    ranks = np.arange(1, cache.shape[0] + 1, dtype=np.float64)
    aps = []
    for start in range(0, query_bits.shape[0], 64):
        block = query_bits[start : start + 64].astype(np.float32)
        dists = ((nbits - block @ cache.T) / 2).astype(np.int64)
        rel = relevance(q_masks[start : start + 64], db_masks)
        for qi in range(block.shape[0]):
            hits = rel[qi][np.argsort(dists[qi], kind="stable")]
            n_rel = int(hits.sum())
            if n_rel:
                aps.append(float((np.cumsum(hits)[hits] / ranks[hits]).sum() / n_rel))
    return (float(np.mean(aps)) if aps else 0.0), len(aps)


def relevant_fraction(q_masks: np.ndarray, db_masks: np.ndarray) -> float:
    """Mean share of relevant items over queries with at least one."""
    shares = []
    for start in range(0, q_masks.shape[0], 64):
        rel = relevance(q_masks[start : start + 64], db_masks)
        shares.extend(rel.mean(axis=1)[rel.any(axis=1)].tolist())
    return float(np.mean(shares)) if shares else 0.0


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
