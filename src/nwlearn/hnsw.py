"""Hierarchical navigable small-world graph for approximate nearest neighbors.

A layered proximity graph over a fixed feature matrix: greedy descent
through the sparse upper layers, then a best-first beam search on the base
layer, which holds every node. Distances are squared Euclidean internally
(monotone in the true distance). Only the level draws consume randomness;
given the Rng the build is deterministic, with ties broken by node id.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import ConfigError, ContractError
from .rng import Rng

DEFAULT_M = 16
DEFAULT_EF_CONSTRUCTION = 200
DEFAULT_EF_SEARCH = 100


class _Layer:
    """Fixed-capacity adjacency: nbr[v, :cnt[v]] are v's neighbor ids."""

    def __init__(self, n: int, cap: int):
        self.nbr = np.full((n, cap), -1, dtype=np.int64)
        self.cnt = np.zeros(n, dtype=np.int64)
        self.cap = cap

    def neighbors(self, v: int) -> np.ndarray:
        return self.nbr[v, : self.cnt[v]]

    def set_neighbors(self, v: int, ids):
        k = len(ids)
        self.nbr[v, :k] = ids
        self.cnt[v] = k


class HnswIndex:
    def __init__(
        self,
        features,
        m: int = DEFAULT_M,
        ef_construction: int = DEFAULT_EF_CONSTRUCTION,
        ef_search: int = DEFAULT_EF_SEARCH,
        rng: Rng | None = None,
    ):
        feats = np.ascontiguousarray(features, dtype=np.float64)
        if feats.ndim != 2 or len(feats) == 0:
            raise ContractError("HnswIndex needs a non-empty feature matrix")
        if m < 2 or ef_construction < 1 or ef_search < 1:
            raise ConfigError(f"bad HNSW params m={m}, ef_construction={ef_construction}, ef_search={ef_search}")
        self.features = feats
        self.m = m
        self.m0 = 2 * m  # base layer keeps twice the edges
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self._norms = (feats * feats).sum(axis=1)
        n = len(feats)
        rng = rng if rng is not None else Rng(0)
        level_mult = 1.0 / np.log(m)
        levels = (-np.log(rng.random(n)) * level_mult).astype(np.int64)
        self._layers: list[_Layer] = []
        self._entry: int | None = None
        for i in range(n):
            self._insert(i, int(levels[i]))

    def __len__(self) -> int:
        return len(self.features)

    # -- distance helpers (squared, via ||x||^2 - 2 x.q + ||q||^2) ----------

    def _dist_many(self, q: np.ndarray, qq: float, ids) -> np.ndarray:
        return self._norms[ids] - 2.0 * (self.features[ids] @ q) + qq

    def _dist_one(self, q: np.ndarray, i: int) -> float:
        diff = self.features[i] - q
        return float(diff @ diff)

    def _new_layer(self) -> _Layer:
        cap = self.m0 if not self._layers else self.m
        return _Layer(len(self.features), cap)

    # -- construction --------------------------------------------------------

    def _insert(self, i: int, level: int):
        if self._entry is None:
            for _ in range(level + 1):
                self._layers.append(self._new_layer())
            self._entry = i
            return
        q = self.features[i]
        qq = float(self._norms[i])
        top = len(self._layers) - 1
        cur = self._entry
        curd = self._dist_one(q, cur)
        for layer_idx in range(top, level, -1):
            cur, curd = self._descend(q, qq, cur, curd, self._layers[layer_idx])
        entry = (curd, cur)
        for layer_idx in range(min(level, top), -1, -1):
            layer = self._layers[layer_idx]
            found = self._search_layer(q, qq, entry, self.ef_construction, layer)
            neighbors = self._select_heuristic(found, self.m)
            layer.set_neighbors(i, [j for _, j in neighbors])
            for d, j in neighbors:
                links = layer.neighbors(j)
                if len(links) + 1 <= layer.cap:
                    layer.nbr[j, layer.cnt[j]] = i
                    layer.cnt[j] += 1
                else:
                    extended = np.append(links, i)
                    dl = self._dist_many(self.features[j], float(self._norms[j]), extended)
                    cand = sorted(zip(dl.tolist(), extended.tolist()))
                    layer.set_neighbors(j, [x for _, x in self._select_heuristic(cand, layer.cap)])
            entry = found[0]  # descend from the closest point found
        for _ in range(top + 1, level + 1):
            layer = self._new_layer()
            self._layers.append(layer)
            self._entry = i

    def _descend(self, q, qq: float, cur: int, curd: float, layer: _Layer) -> tuple[int, float]:
        while True:
            neigh = layer.neighbors(cur)
            if len(neigh) == 0:
                return cur, curd
            dists = self._dist_many(q, qq, neigh)
            j = int(np.argmin(dists))
            if dists[j] < curd:
                cur, curd = int(neigh[j]), float(dists[j])
            else:
                return cur, curd

    def _search_layer(self, q, qq: float, entry: tuple[float, int], ef: int,
                      layer: _Layer) -> list[tuple[float, int]]:
        """Beam search from one entry; returns (dist, id) ascending."""
        visited = np.zeros(len(self.features), dtype=bool)
        visited[entry[1]] = True
        cand = [entry]
        best = [(-entry[0], entry[1])]
        worst = entry[0]
        n_best = 1
        while cand:
            d, i = heapq.heappop(cand)
            if n_best >= ef and d > worst:
                break
            neigh = layer.neighbors(i)
            ids = neigh[~visited[neigh]]
            if ids.size == 0:
                continue
            visited[ids] = True
            dists = self._dist_many(q, qq, ids)
            for j, dj in zip(ids.tolist(), dists.tolist()):
                if n_best < ef:
                    heapq.heappush(best, (-dj, j))
                    heapq.heappush(cand, (dj, j))
                    n_best += 1
                    worst = -best[0][0]
                elif dj < worst:
                    heapq.heapreplace(best, (-dj, j))
                    heapq.heappush(cand, (dj, j))
                    worst = -best[0][0]
        return sorted((-nd, i) for nd, i in best)

    def _select_heuristic(self, candidates, cap: int) -> list[tuple[float, int]]:
        """Diversifying neighbor selection: keep a candidate only if it is
        closer to the query than to every already-kept neighbor."""
        if len(candidates) <= cap:
            return list(candidates)
        ids = np.array([i for _, i in candidates], dtype=np.int64)
        d_to_q = np.array([d for d, _ in candidates])
        f = self.features[ids]
        norms = self._norms[ids]
        # min distance from each candidate to the kept set, updated lazily
        min_to_kept = np.full(len(ids), np.inf)
        out = []
        for a in range(len(ids)):
            if min_to_kept[a] >= d_to_q[a]:
                out.append((float(d_to_q[a]), int(ids[a])))
                if len(out) == cap:
                    break
                d_a = norms + norms[a] - 2.0 * (f @ f[a])
                np.minimum(min_to_kept, d_a, out=min_to_kept)
        return out

    # -- queries -------------------------------------------------------------

    def search(self, query, k: int, ef_search: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """k approximate nearest rows; returns (indices, euclidean distances)
        ascending by (distance, index)."""
        q = np.ascontiguousarray(query, dtype=np.float64).reshape(-1)
        if k < 1 or k > len(self.features):
            raise ContractError(f"k must be in [1, {len(self.features)}], got {k}")
        ef = max(ef_search if ef_search is not None else self.ef_search, k)
        qq = float(q @ q)
        cur = self._entry
        curd = self._dist_one(q, cur)
        for layer_idx in range(len(self._layers) - 1, 0, -1):
            cur, curd = self._descend(q, qq, cur, curd, self._layers[layer_idx])
        found = self._search_layer(q, qq, (curd, cur), ef, self._layers[0])[:k]
        idx = np.array([i for _, i in found], dtype=np.int64)
        # the norm expansion can go epsilon-negative at zero distance
        dist = np.sqrt(np.maximum(np.array([d for d, _ in found]), 0.0))
        return idx, dist
