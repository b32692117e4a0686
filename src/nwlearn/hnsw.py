"""Hierarchical navigable small-world graph for approximate nearest neighbors
(Malkov & Yashunin, 2018).

A layered proximity graph over a fixed feature matrix. Each node draws a
level, and layer l holds the nodes whose level is at least l, so the base
layer holds every node. The build links one layer at a time from exact
candidate lists: each member's ef_construction nearest other members, by
(squared distance, id), come from row blocks of one distance matrix; the
diversifying heuristic picks m forward links among them; each member's
list is then the heuristic's pick of the layer cap (2m on the base layer,
m above) among its forward links and the reverse links onto it. A query
descends greedily through the upper layers from the entry node, the lowest
id at the top level, then runs a best-first beam search on the base layer.
Distances are squared Euclidean internally (monotone in the true
distance). Only the level draws consume randomness; given the Rng the
build is deterministic, with ties broken by node id.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import ConfigError, ContractError
from .rng import Rng
from .tensor import smallest_k, sqdist

DEFAULT_M = 16
DEFAULT_EF_CONSTRUCTION = 200
DEFAULT_EF_SEARCH = 100
# entries of one squared-distance block in the build, bounding its memory
_BLOCK_ELEMS = 1 << 18


class _Layer:
    """Fixed-capacity adjacency: nbr[v, :cnt[v]] are v's neighbor ids."""

    def __init__(self, n: int, cap: int):
        self.nbr = np.full((n, cap), -1, dtype=np.int64)
        self.cnt = np.zeros(n, dtype=np.int64)

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
        self._entry = int(np.argmax(levels))  # the lowest id at the top level
        self._layers = [self._build_layer(np.flatnonzero(levels >= lc), self.m0 if lc == 0 else self.m)
                        for lc in range(int(levels.max()) + 1)]

    def __len__(self) -> int:
        return len(self.features)

    # -- distance helpers (squared, via ||x||^2 - 2 x.q + ||q||^2) ----------

    def _dist_many(self, q: np.ndarray, qq: float, ids) -> np.ndarray:
        return self._norms[ids] - 2.0 * (self.features[ids] @ q) + qq

    def _dist_one(self, q: np.ndarray, i: int) -> float:
        diff = self.features[i] - q
        return float(diff @ diff)

    # -- construction --------------------------------------------------------

    def _build_layer(self, members: np.ndarray, cap: int) -> _Layer:
        """Link one layer's members: each keeps the heuristic pick of m
        among its ef_construction nearest other members, then the heuristic
        pick of cap among those forward links and the reverse links onto it."""
        n = len(self.features)
        layer = _Layer(n, cap)
        k = min(self.ef_construction, len(members) - 1)
        if k == 0:
            return layer
        feats = self.features[members]
        src, dst = [], []
        rows = max(1, _BLOCK_ELEMS // len(members))
        for start in range(0, len(members), rows):
            d2 = sqdist(feats[start:start + rows], feats)
            block = np.arange(len(d2))
            d2[block, start + block] = np.inf  # a node is not its own candidate
            cand = members[smallest_k(d2, k)]
            for v, ids in zip(members[start:start + rows].tolist(), cand):
                kept = self._select_heuristic(v, ids, self.m)
                src.append(np.full(len(kept), v))
                dst.append(kept)
        src, dst = np.concatenate(src), np.concatenate(dst)
        # each link, listed once at each of its ends, sorted by (node, other)
        pairs = np.unique(np.concatenate([src * n + dst, dst * n + src]))
        node, other = pairs // n, pairs % n
        bounds = np.searchsorted(node, members).tolist() + [len(node)]
        for i, v in enumerate(members.tolist()):
            layer.set_neighbors(v, self._select_heuristic(v, other[bounds[i]:bounds[i + 1]], cap))
        return layer

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

    def _select_heuristic(self, v: int, ids: np.ndarray, cap: int) -> np.ndarray:
        """Diversifying pick of at most cap of the candidate ids for node v:
        in order of (distance to v, id), keep a candidate only if it is no
        farther from v than from every already-kept one. Both sides of that
        test use one formula, so exact duplicates tie and are kept."""
        if len(ids) <= cap:
            return ids
        f = self.features[ids]
        norms = self._norms[ids]

        def dist_to(x, xx):
            return norms - 2.0 * (f @ x) + xx

        d_to_v = dist_to(self.features[v], self._norms[v])
        order = np.lexsort((ids, d_to_v))
        f, norms, ids, d_to_v = f[order], norms[order], ids[order], d_to_v[order]
        # min distance from each candidate to the kept set
        min_to_kept = np.full(len(ids), np.inf)
        kept = [0]
        while len(kept) < cap:
            a = kept[-1]
            np.minimum(min_to_kept, dist_to(f[a], norms[a]), out=min_to_kept)
            ok = min_to_kept[a + 1:] >= d_to_v[a + 1:]
            if not ok.any():
                break
            kept.append(a + 1 + int(ok.argmax()))
        return ids[kept]

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
