"""Hierarchical navigable small-world graph for approximate nearest neighbors
(Malkov & Yashunin, 2018).

A layered proximity graph over a fixed feature matrix. Each node draws a
level, and layer l holds the nodes whose level is at least l, so the base
layer holds every node. The build links one layer at a time from exact
candidate lists: each member's ef_construction nearest other members come
from row blocks of one distance matrix; the diversifying heuristic picks m
forward links among them; each member's list is then the heuristic's pick
of the layer cap (2m on the base layer, m above) among its forward links
and the reverse links onto it. Ties in distance break by the rotated id
(id - v - 1) mod n of the node v being linked, so exact duplicates link to
each other around a ring instead of all to the lowest ids.

A query computes one squared-distance row to every node, then walks the
layers' plain neighbour lists over it: a greedy descent through the upper
layers from the entry node, the lowest id at the top level, then a
best-first beam search on the base layer. Distances are squared Euclidean
internally (monotone in the true distance). Only the level draws consume
randomness; given the Rng the build is deterministic.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace

import numpy as np

from .errors import ConfigError, ContractError, DomainError
from .rng import Rng
from .tensor import smallest_k, sqdist

DEFAULT_M = 16
DEFAULT_EF_CONSTRUCTION = 200
DEFAULT_EF_SEARCH = 100
# entries of one squared-distance block in the build, bounding its memory
_BLOCK_ELEMS = 1 << 18


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
        if not np.isfinite(feats).all():
            raise DomainError("HnswIndex features must be finite")
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
        # _layers[l][v] lists v's neighbour ids on layer l, empty off the layer
        self._layers = [self._build_layer(np.flatnonzero(levels >= lc), self.m0 if lc == 0 else self.m)
                        for lc in range(int(levels.max()) + 1)]

    def __len__(self) -> int:
        return len(self.features)

    # -- construction --------------------------------------------------------

    def _build_layer(self, members: np.ndarray, cap: int) -> list[list[int]]:
        """Link one layer's members: each keeps the heuristic pick of m
        among its ef_construction nearest other members, then the heuristic
        pick of cap among those forward links and the reverse links onto it."""
        n = len(self.features)
        adj = [[] for _ in range(n)]
        k = min(self.ef_construction, len(members) - 1)
        if k == 0:
            return adj
        feats = self.features[members]
        src, dst = [], []
        rows = max(1, _BLOCK_ELEMS // len(members))
        for start in range(0, len(members), rows):
            d2 = sqdist(feats[start:start + rows], feats)
            block = np.arange(len(d2))
            d2[block, start + block] = np.inf  # a node is not its own candidate
            pos = smallest_k(d2, k)
            # a row whose k-th candidate ties a value beyond it takes the tied
            # ones in rotated order, starting just after the row's own node
            kth = np.take_along_axis(d2, pos[:, -1:], axis=1)
            for r in np.flatnonzero(np.count_nonzero(d2 <= kth, axis=1) > k).tolist():
                shift = start + r + 1
                pos[r] = (np.argsort(np.roll(d2[r], -shift), kind="stable")[:k] + shift) % len(members)
            for v, ids in zip(members[start:start + rows].tolist(), members[pos]):
                kept = self._select_heuristic(v, ids, self.m)
                src.append(np.full(len(kept), v))
                dst.append(kept)
        src, dst = np.concatenate(src), np.concatenate(dst)
        # each link, listed once at each of its ends, sorted by (node, other)
        pairs = np.unique(np.concatenate([src * n + dst, dst * n + src]))
        node, other = pairs // n, pairs % n
        bounds = np.searchsorted(node, members).tolist() + [len(node)]
        for i, v in enumerate(members.tolist()):
            adj[v] = self._select_heuristic(v, other[bounds[i]:bounds[i + 1]], cap).tolist()
        return adj

    def _select_heuristic(self, v: int, ids: np.ndarray, cap: int) -> np.ndarray:
        """Diversifying pick of at most cap of the candidate ids for node v:
        in order of (distance to v, rotated id), keep a candidate only if it
        is no farther from v than from every already-kept one. Both sides of
        that test use one formula, so exact duplicates tie and are kept."""
        if len(ids) <= cap:
            return ids
        f = self.features[ids]
        norms = self._norms[ids]

        def dist_to(x, xx):
            return norms - 2.0 * (f @ x) + xx

        d_to_v = dist_to(self.features[v], self._norms[v])
        order = np.lexsort(((ids - v - 1) % len(self.features), d_to_v))
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
        if not np.isfinite(q).all():  # NaN distances never end the descent
            raise DomainError("HNSW query must be finite")
        ef = max(ef_search if ef_search is not None else self.ef_search, k)
        # squared distance to every node, via ||x||^2 - 2 x.q + ||q||^2, read
        # through a memoryview: a search reads a fraction of the row, and
        # each read makes one Python float
        dist = (self._norms - 2.0 * (self.features @ q) + float(q @ q)).data
        cur = self._entry
        for layer in self._layers[:0:-1]:  # greedy descent to the base layer
            while layer[cur]:
                j = min(layer[cur], key=dist.__getitem__)
                if dist[j] >= dist[cur]:
                    break
                cur = j
        # best-first beam search: cand is a min-heap of (dist, id) to expand,
        # best a max-heap of the ef nearest found so far
        base = self._layers[0]
        visited = bytearray(len(base))
        visited[cur] = 1
        worst = dist[cur]
        cand, best = [(worst, cur)], [(-worst, cur)]
        while cand:
            d, i = heappop(cand)
            if d > worst and len(best) >= ef:
                break
            for j in base[i]:
                if visited[j]:
                    continue
                visited[j] = 1
                dj = dist[j]
                if len(best) < ef:
                    heappush(best, (-dj, j))
                elif dj < worst:
                    heapreplace(best, (-dj, j))
                else:
                    continue
                heappush(cand, (dj, j))
                worst = -best[0][0]
        found = sorted((-nd, i) for nd, i in best)[:k]
        idx = np.array([i for _, i in found], dtype=np.int64)
        # the norm expansion can go epsilon-negative at zero distance
        return idx, np.sqrt(np.maximum([d for d, _ in found], 0.0))
