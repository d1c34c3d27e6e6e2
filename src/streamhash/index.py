"""Append-only database of packed codes with a refreshable projected cache.

The index stores only fixed binary codes (never raw features). A refresh
recomputes the searchable cache g = sign(P^T h) for every stored code, so
its cost depends on the database size and code length alone, not on the
original feature dimension. Queries run against the cache and fail loudly
when it does not match the projection being queried rather than serving
rankings computed under an older projection.

Concurrency contract: many concurrent readers or one exclusive writer.

Distances tie-break by ascending insertion id.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .codes import (
    hamming_rows,
    pack_bools,
    pack_rows,
    sign,
    unpack_rows,
    validate_code,
    words_per_code,
)
from .errors import StaleProjectionError

REFRESH_BLOCK_ROWS = 8192


def _projection_digest(P: np.ndarray) -> bytes:
    h = hashlib.sha256()
    h.update(np.int64(P.shape[0]).tobytes())
    h.update(np.int64(P.shape[1]).tobytes())
    h.update(np.ascontiguousarray(P, dtype=np.float64).tobytes())
    return h.digest()


class CodeIndex:
    """Insert codes, refresh the projected cache, rank by Hamming distance."""

    def __init__(self, nbits: int):
        if nbits < 1:
            raise ValueError("nbits must be positive")
        self.nbits = nbits
        self._n_words = words_per_code(nbits)
        self._words = np.empty((0, self._n_words), dtype="<u8")
        self._size = 0
        self._projected = None
        self.projection_version = 0
        self._projection_digest = None

    def __len__(self) -> int:
        return self._size

    @property
    def n_projected(self) -> int:
        """Entries reachable by queries (inserted before the last refresh)."""
        return 0 if self._projected is None else self._projected.shape[0]

    def _grow_to(self, n: int):
        cap = self._words.shape[0]
        if n <= cap:
            return
        new_cap = max(n, 2 * cap, 1024)
        grown = np.zeros((new_cap, self._n_words), dtype="<u8")
        grown[: self._size] = self._words[: self._size]
        self._words = grown

    def insert(self, bits) -> int:
        """Append one code; returns its dense id (insertion order)."""
        return int(self.insert_many(validate_code(bits, self.nbits)[None, :])[0])

    def insert_many(self, bits_matrix: np.ndarray) -> np.ndarray:
        """Append a batch of codes; returns their ids."""
        bits_matrix = np.asarray(bits_matrix)
        if bits_matrix.ndim != 2 or bits_matrix.shape[1] != self.nbits:
            raise ValueError(
                f"expected shape (N, {self.nbits}), got {bits_matrix.shape}"
            )
        if not np.all(np.abs(bits_matrix) == 1):
            raise ValueError("code entries must be -1 or +1")
        n = bits_matrix.shape[0]
        self._grow_to(self._size + n)
        self._words[self._size : self._size + n] = pack_rows(bits_matrix)
        ids = np.arange(self._size, self._size + n, dtype=np.int64)
        self._size += n
        return ids

    def truncate(self, n: int):
        """Keep the first n codes; a cache that covers dropped codes is dropped too."""
        if not 0 <= n <= self._size:
            raise ValueError(f"cannot truncate {self._size} codes to {n}")
        self._size = n
        if self.n_projected > n:
            self._projected = None
            self._projection_digest = None

    def stored_code(self, idx: int) -> np.ndarray:
        """The fixed +-1 code stored under an id."""
        if not 0 <= idx < self._size:
            raise IndexError(f"id {idx} out of range [0, {self._size})")
        return unpack_rows(self._words[idx : idx + 1], self.nbits)[0]

    def refresh_projected_codes(self, P: np.ndarray):
        """Recompute the searchable cache g = sign(P^T h) for every entry.

        Touches only stored codes; runs in O(len(index) * nbits^2).
        """
        P = np.asarray(P, dtype=np.float64)
        if P.shape != (self.nbits, self.nbits):
            raise ValueError(f"P must be {self.nbits}x{self.nbits}, got {P.shape}")
        out = np.empty((self._size, self._n_words), dtype="<u8")
        # Every block is min(size, REFRESH_BLOCK_ROWS) rows wide: the last
        # one overlaps its neighbour instead of shrinking, because a narrow
        # product (one row goes through gemv) can round differently.
        for end in range(REFRESH_BLOCK_ROWS, self._size + REFRESH_BLOCK_ROWS, REFRESH_BLOCK_ROWS):
            stop = min(end, self._size)
            start = max(0, stop - REFRESH_BLOCK_ROWS)
            h_block = unpack_rows(self._words[start:stop], self.nbits).astype(np.float64)
            out[start:stop] = pack_bools(h_block @ P >= 0.0)
        self._projected = out
        self.projection_version += 1
        self._projection_digest = _projection_digest(P)

    def assert_fresh(self, P: np.ndarray):
        """Raise StaleProjectionError unless the cache was built from this P."""
        if self._projected is None:
            raise StaleProjectionError(
                "projected cache missing: call refresh_projected_codes first"
            )
        if self._projection_digest != _projection_digest(np.asarray(P, dtype=np.float64)):
            raise StaleProjectionError(
                "projected cache was built from a different projection; refresh first"
            )

    def _rank(self, code_bits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        if k < 1:
            raise ValueError("k must be >= 1")
        if self._projected is None:
            raise StaleProjectionError(
                "projected cache missing: call refresh_projected_codes first"
            )
        q_words = pack_rows(code_bits[None, :])[0]
        dists = hamming_rows(q_words, self._projected)
        k = min(k, dists.size)
        # Stable sort on distance == ascending-id tie-break; on the narrow
        # distances from hamming_rows numpy's stable sort is a radix sort.
        order = np.argsort(dists, kind="stable")[:k]
        return order.astype(np.int64), dists[order].astype(np.int64)

    def query_symmetric(
        self, P: np.ndarray, code_bits, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rank by Hamming distance between sign(P^T h_q) and the cache.

        Returns (ids, distances), best first. P must match the cache.
        """
        code_bits = validate_code(code_bits, self.nbits)
        self.assert_fresh(P)
        g_q = sign(np.asarray(P, dtype=np.float64).T @ code_bits.astype(np.float64))
        return self._rank(g_q, k)

    def query_asymmetric(
        self, R: np.ndarray, x: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rank by Hamming distance between sign(R^T x) and the cache.

        The raw query never passes through the fixed hash stage. Callers
        that also hold the code-side projection should assert_fresh(P)
        against it; this path alone can only require that a cache exists.
        """
        R = np.asarray(R, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if R.ndim != 2 or R.shape[1] != self.nbits:
            raise ValueError(f"R must be (dim, {self.nbits}), got {R.shape}")
        if x.shape != (R.shape[0],):
            raise ValueError(f"query shape {x.shape} != ({R.shape[0]},)")
        g_q = sign(R.T @ x)
        return self._rank(g_q, k)
