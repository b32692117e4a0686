"""Lloyd's k-means with farthest-point initialization.

Used to distill each class's cached features into a handful of centroids
for cluster-mode inference. Deterministic given the Rng (ties break toward
the lowest index everywhere).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .rng import Rng
from .tensor import sqdist

_MAX_ITER = 100
_REL_TOL = 1e-6


def kmeans(points, k: int, rng: Rng):
    """Cluster rows of ``points`` into ``k`` centroids.

    Init picks a random first centroid, then repeatedly the point farthest
    from its nearest chosen centroid. At most ``_MAX_ITER`` Lloyd iterations
    run, until the objective's relative improvement drops below
    ``_REL_TOL``; an empty cluster takes the point of largest residual.

    Returns (centroids (k, d), assignment (n,), objective_history).
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if k < 1 or k > n:
        raise ConfigError(f"k must be in [1, {n}], got {k}")

    chosen = [int(rng.integers(0, n))]
    d2 = ((pts - pts[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        i = int(np.argmax(d2))
        chosen.append(i)
        d2 = np.minimum(d2, ((pts - pts[i]) ** 2).sum(axis=1))
    centroids = pts[chosen].copy()

    history = []
    prev_obj = None
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(_MAX_ITER):
        dists = sqdist(pts, centroids)
        assign = dists.argmin(axis=1)
        residual = dists[np.arange(n), assign]
        obj = float(residual.sum())
        history.append(obj)
        if prev_obj is not None and prev_obj - obj <= _REL_TOL * max(prev_obj, 1e-12):
            break
        prev_obj = obj

        new_centroids = centroids.copy()
        for j in range(k):
            members = assign == j
            if members.any():
                new_centroids[j] = pts[members].mean(axis=0)
        empty = [j for j in range(k) if not (assign == j).any()]
        if empty:
            far_order = np.argsort(-residual, kind="stable")
            for slot, j in enumerate(empty):
                new_centroids[j] = pts[far_order[slot]]
        centroids = new_centroids

    return centroids, assign, history
