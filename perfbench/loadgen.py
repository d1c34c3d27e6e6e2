"""Seeded, vectorised synthetic multi-label load.

The model is the one behind ``streamhash.gen_synthetic_multilabel``: each
point draws a >=1-truncated Poisson number of distinct classes and sits at
the mean of their Gaussian centroids plus isotropic noise. The draws are made
in whole arrays instead of one point at a time, so a 1e5-point prefill costs
a fraction of a second. The values differ from the package generator's; only
the distribution is shared. The same seed always gives the same arrays.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 16384


def generate(
    n: int,
    dim: int,
    n_classes: int,
    seed: int,
    labels_mean: float = 1.5,
    spread: float = 1.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Return (features float32 (n, dim), label masks bool (n, n_classes)).

    Rows are drawn in fixed blocks so that the generator's own memory stays
    small next to the program's.
    """
    rng = np.random.default_rng(seed)
    centroids = rng.standard_normal((n_classes, dim))
    features = np.empty((n, dim), dtype=np.float32)
    masks = np.empty((n, n_classes), dtype=bool)
    for start in range(0, n, BLOCK_ROWS):
        m = min(BLOCK_ROWS, n - start)
        counts = rng.poisson(labels_mean, m)
        while (zero := counts == 0).any():
            counts[zero] = rng.poisson(labels_mean, int(zero.sum()))
        counts = np.minimum(counts, n_classes)
        # The `count` smallest of n_classes uniform keys pick distinct classes.
        keys = rng.random((m, n_classes))
        cutoff = np.sort(keys, axis=1)[np.arange(m), counts - 1]
        block = keys <= cutoff[:, None]
        masks[start : start + m] = block
        rows = (block @ centroids) / counts[:, None]
        rows += spread * rng.standard_normal((m, dim))
        features[start : start + m] = rows
    return features, masks


def label_sets(masks: np.ndarray) -> list[tuple[int, ...]]:
    """Sorted class tuples, one per mask row."""
    cols = np.nonzero(masks)[1].tolist()
    out = []
    start = 0
    for count in masks.sum(axis=1).tolist():
        out.append(tuple(cols[start : start + count]))
        start += count
    return out
