"""Hierarchical navigable small-world graph for approximate nearest neighbors
(Malkov & Yashunin, 2018).

A layered proximity graph over a fixed feature matrix. Each node draws a
level, and layer l holds the nodes whose level is at least l, so the base
layer holds every node. The build links one layer at a time from exact
candidate lists: each member's ef_construction nearest other members come
from row blocks of one distance matrix; the diversifying heuristic picks m
forward links among them, then the layer cap (2m on the base layer, m
above) among each member's forward and reverse links. The heuristic runs in
lockstep over a block of nodes, with the block's working set under
_BLOCK_ELEMS floats: it gathers the candidates' features once, sorts them
by distance to their node, and keeps one boolean mask of the candidates
still in play, which each kept slot's stacked matvec narrows. Ties in
distance break by the rotated id (id - v - 1) mod n of the node v being
linked, so exact duplicates link to each other around a ring instead of all
to the lowest ids.

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
from .tensor import sqdist

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
            pos = np.argpartition(d2, k - 1, axis=1)[:, :k]  # the heuristic sorts them
            # a row whose k-th candidate ties a value beyond it takes the tied
            # ones in rotated order, starting just after the row's own node
            kth = np.take_along_axis(d2, pos[:, -1:], axis=1)
            for r in np.flatnonzero(np.count_nonzero(d2 <= kth, axis=1) > k).tolist():
                shift = start + r + 1
                pos[r] = (np.argsort(np.roll(d2[r], -shift), kind="stable")[:k] + shift) % len(members)
            v = members[start:start + rows]
            kept = members[pos] if k <= self.m else self._select_heuristic(v, members[pos], self.m)
            src.append(np.broadcast_to(v[:, None], kept.shape)[kept >= 0])
            dst.append(kept[kept >= 0])
        src, dst = np.concatenate(src), np.concatenate(dst)
        # each link, listed once at each of its ends, sorted by (node, other)
        pairs = np.unique(np.concatenate([src * n + dst, dst * n + src]))
        node, other = pairs // n, pairs % n
        bounds = np.searchsorted(node, members)
        degree = np.diff(np.append(bounds, len(node)))
        for v, ids in zip(members.tolist(), np.split(other, bounds[1:])):
            adj[v] = ids.tolist()
        for d in np.unique(degree[degree > cap]).tolist():  # over-full lists, by length
            at = np.flatnonzero(degree == d)
            kept = self._select_heuristic(members[at], other[bounds[at, None] + np.arange(d)], cap)
            for v, ids in zip(members[at].tolist(), kept.tolist()):
                adj[v] = [j for j in ids if j >= 0]
        return adj

    def _select_heuristic(self, v: np.ndarray, ids: np.ndarray, cap: int) -> np.ndarray:
        """Diversifying pick of at most cap of each row's candidate ids (more
        than cap) for the row's node v, in lockstep over the rows: in order of
        (distance to v, rotated id), keep a candidate only if it is no farther
        from v than from every already-kept one. Both sides of that test use
        one formula, so exact duplicates tie and are kept. Returns the picks
        padded by -1.

        Per block of rows: one gather of the candidates' features, reordered
        in place of a second gather by one argsort (whose sorted distances
        also show the rows with a tie, re-sorted by rotated id). A mask marks
        the candidates still in play; each step's matvec from the last pick
        clears those it dominates, since a dominated candidate never comes
        back, and the next pick is the first one left. The loop ends at the
        first step where no row picks, and drops the finished rows once they
        are at least half of those it holds."""
        n, (rows, width), d = len(self.features), ids.shape, self.features.shape[1]
        out = np.full((rows, cap), -1)
        # a block's features, their reordered or compacted copy and its (block, width) arrays fit the bound
        step = max(1, _BLOCK_ELEMS // (width * (2 * d + 8)))
        for start in range(0, rows, step):
            vs, c = v[start:start + step], ids[start:start + step]
            f, norms = np.take(self.features, c, axis=0), self._norms[c]
            d_to_v = norms - 2.0 * np.matmul(f, self.features[vs, :, None])[..., 0]
            d_to_v += self._norms[vs, None]
            # flat positions of the block's candidates in the order of the sort;
            # rows with a tie sort by (distance, rotated id), to the same sorted distances
            at = np.argsort(d_to_v, axis=1) + width * np.arange(len(c))[:, None]
            sorted_d = np.take(d_to_v, at)
            tied = np.flatnonzero((np.diff(sorted_d, axis=1) == 0).any(axis=1))
            at[tied] = np.lexsort(((c[tied] - vs[tied, None] - 1) % n, d_to_v[tied])) + width * tied[:, None]
            c, d_to_v, norms = np.take(c, at), sorted_d, np.take(norms, at)
            f = np.take(f.reshape(-1, d), at, axis=0)  # the sorted copy frees the first gather
            # play[r, j]: candidate j of row r is neither kept nor dominated,
            # that is, no farther from v than from each of the row's kept ones
            play = np.ones(c.shape, dtype=bool)
            live = np.arange(len(c))  # the rows of out that the arrays hold
            a = np.zeros(len(c), dtype=np.int64)  # each row's last pick
            out[start:start + step, 0] = c[:, 0]
            for t in range(1, cap):
                r = np.arange(len(live))
                play[r, a] = False
                dist = norms - 2.0 * np.matmul(f, f[r, a, :, None])[..., 0] + norms[r, a, None]
                play &= dist >= d_to_v
                more, a = play.any(axis=1), play.argmax(axis=1)
                picking = np.count_nonzero(more)
                if picking == 0:
                    break
                out[start + live, t] = np.where(more, c[r, a], -1)
                if 2 * picking <= len(live):  # at least half the rows are done: drop them
                    live, c, d_to_v, f, norms, play, a = (
                        arr[more] for arr in (live, c, d_to_v, f, norms, play, a))
        return out

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
