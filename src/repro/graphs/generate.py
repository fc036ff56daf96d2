"""Graph workload generators.

The paper's connected-components evaluation uses random graphs built by
"randomly adding m unique edges to the vertex set" — the LEDA-style
G(n, m) model — with n = 1M vertices and m = 4M…20M edges (Fig. 2).
The related-work comparisons reference 2-D/3-D mesh graphs
(Krishnamurthy et al.) and small dense random graphs (Goddard et al.),
so those families are provided too, plus degenerate families (stars,
chains, cliques) that exercise Shiloach–Vishkin's best and worst cases
and the labeling-sensitivity experiment.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ._util import unique_sorted
from .edgelist import EdgeList

__all__ = [
    "random_graph",
    "rmat_graph",
    "mesh2d",
    "mesh3d",
    "chain_graph",
    "star_graph",
    "cliques_graph",
    "forest_of_chains",
    "worst_case_labeling",
    "best_case_labeling",
]


def random_graph(n: int, m: int, rng: np.random.Generator | int | None = None) -> EdgeList:
    """LEDA-style G(n, m): ``m`` distinct uniform edges on ``n`` vertices.

    Edges are sampled by drawing endpoint pairs, canonicalizing, and
    rejecting duplicates until exactly ``m`` unique non-loop edges
    exist; the result is returned in random order (the paper's
    "arbitrary order" edge array).
    """
    if n < 0:
        raise WorkloadError(f"n must be >= 0, got {n}")
    if m < 0:
        raise WorkloadError(f"m must be >= 0, got {m}")
    if n < 2 and m > 0:
        raise WorkloadError("need at least 2 vertices to place an edge")
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise WorkloadError(f"m={m} exceeds the {max_m} possible edges on {n} vertices")
    rng = np.random.default_rng(rng)
    codes = np.empty(0, dtype=np.int64)
    need = m
    while need > 0:
        # oversample to cover rejections (loops + duplicates)
        batch = int(need * 1.2) + 16
        a = rng.integers(0, n, size=batch, dtype=np.int64)
        b = rng.integers(0, n, size=batch, dtype=np.int64)
        keep = a != b
        lo = np.minimum(a[keep], b[keep])
        hi = np.maximum(a[keep], b[keep])
        codes = unique_sorted(np.concatenate([codes, lo * n + hi]))
        need = m - len(codes)
    if len(codes) > m:
        codes = rng.choice(codes, size=m, replace=False)
    u = codes // n
    v = codes % n
    order = rng.permutation(m)
    return EdgeList(n, u[order], v[order])


def rmat_graph(
    scale: int,
    edge_factor: int = 8,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    rng: np.random.Generator | int | None = None,
) -> EdgeList:
    """R-MAT power-law graph (Chakrabarti et al.; the Graph500 generator).

    ``n = 2**scale`` vertices and approximately ``edge_factor · n``
    distinct edges whose degree distribution is heavy-tailed — the
    modern successor of the paper's uniform G(n, m) workload, useful
    for stressing load balancing: a few vertices carry enormous degree,
    which is exactly what dynamic scheduling and hotspot handling are
    for.

    Each edge picks its endpoint bits by recursively descending the
    adjacency matrix quadrants with probabilities ``(a, b, c, 1−a−b−c)``;
    self-loops and duplicates are rejected, so the realized edge count
    can fall slightly below the target on tiny graphs.
    """
    if scale < 1 or scale > 30:
        raise WorkloadError("scale must be in [1, 30]")
    if edge_factor < 1:
        raise WorkloadError(f"edge_factor must be >= 1, got {edge_factor}")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise WorkloadError("quadrant probabilities must be non-negative")
    rng = np.random.default_rng(rng)
    n = 1 << scale
    target = edge_factor * n
    max_m = n * (n - 1) // 2
    target = min(target, max_m)
    codes = np.empty(0, dtype=np.int64)
    for _ in range(64):  # convergence is fast; the bound is a safety net
        need = target - len(codes)
        if need <= 0:
            break
        batch = int(need * 1.4) + 16
        u = np.zeros(batch, dtype=np.int64)
        v = np.zeros(batch, dtype=np.int64)
        for _bit in range(scale):
            r = rng.random(batch)
            # quadrant: 0→(0,0) w.p. a, 1→(0,1) w.p. b, 2→(1,0) w.p. c, 3→(1,1)
            ubit = (r >= a + b).astype(np.int64)
            vbit = ((r >= a) & (r < a + b) | (r >= a + b + c)).astype(np.int64)
            u = (u << 1) | ubit
            v = (v << 1) | vbit
        keep = u != v
        lo = np.minimum(u[keep], v[keep])
        hi = np.maximum(u[keep], v[keep])
        codes = unique_sorted(np.concatenate([codes, lo * n + hi]))
    m = min(len(codes), target)
    codes = codes[:m] if len(codes) == m else rng.choice(codes, size=m, replace=False)
    order = rng.permutation(m)
    return EdgeList(n, (codes // n)[order], (codes % n)[order])


def mesh2d(rows: int, cols: int) -> EdgeList:
    """4-connected 2-D mesh (the regular topology of the Krishnamurthy study)."""
    if rows < 1 or cols < 1:
        raise WorkloadError("mesh dimensions must be >= 1")
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horiz_u = idx[:, :-1].ravel()
    horiz_v = idx[:, 1:].ravel()
    vert_u = idx[:-1, :].ravel()
    vert_v = idx[1:, :].ravel()
    return EdgeList(
        rows * cols,
        np.concatenate([horiz_u, vert_u]),
        np.concatenate([horiz_v, vert_v]),
    )


def mesh3d(nx: int, ny: int, nz: int) -> EdgeList:
    """6-connected 3-D mesh."""
    if min(nx, ny, nz) < 1:
        raise WorkloadError("mesh dimensions must be >= 1")
    idx = np.arange(nx * ny * nz, dtype=np.int64).reshape(nx, ny, nz)
    us, vs = [], []
    us.append(idx[:-1, :, :].ravel()); vs.append(idx[1:, :, :].ravel())
    us.append(idx[:, :-1, :].ravel()); vs.append(idx[:, 1:, :].ravel())
    us.append(idx[:, :, :-1].ravel()); vs.append(idx[:, :, 1:].ravel())
    return EdgeList(nx * ny * nz, np.concatenate(us), np.concatenate(vs))


def chain_graph(n: int) -> EdgeList:
    """A path 0—1—…—(n−1): maximal-diameter worst case for pointer jumping."""
    if n < 1:
        raise WorkloadError("chain needs at least one vertex")
    idx = np.arange(n - 1, dtype=np.int64)
    return EdgeList(n, idx, idx + 1)


def star_graph(n: int) -> EdgeList:
    """A star with center 0: Shiloach–Vishkin's single-iteration best case."""
    if n < 1:
        raise WorkloadError("star needs at least one vertex")
    leaves = np.arange(1, n, dtype=np.int64)
    return EdgeList(n, np.zeros(n - 1, dtype=np.int64), leaves)


def cliques_graph(k: int, size: int) -> EdgeList:
    """``k`` disjoint cliques of ``size`` vertices: many dense components."""
    if k < 1 or size < 1:
        raise WorkloadError("need k >= 1 cliques of size >= 1")
    local = np.triu_indices(size, k=1)
    us, vs = [], []
    for c in range(k):
        base = c * size
        us.append(local[0] + base)
        vs.append(local[1] + base)
    return EdgeList(
        k * size,
        np.concatenate(us).astype(np.int64) if us else np.empty(0, np.int64),
        np.concatenate(vs).astype(np.int64) if vs else np.empty(0, np.int64),
    )


def forest_of_chains(
    k: int, length: int, rng: np.random.Generator | int | None = None
) -> EdgeList:
    """``k`` disjoint paths of ``length`` vertices, vertex labels shuffled.

    A sparse multi-component workload whose component structure is known
    by construction — handy for property tests.
    """
    if k < 1 or length < 1:
        raise WorkloadError("need k >= 1 chains of length >= 1")
    n = k * length
    us, vs = [], []
    for c in range(k):
        base = c * length
        idx = np.arange(base, base + length - 1, dtype=np.int64)
        us.append(idx)
        vs.append(idx + 1)
    u = np.concatenate(us) if us else np.empty(0, np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, np.int64)
    rng = np.random.default_rng(rng)
    perm = rng.permutation(n).astype(np.int64)
    return EdgeList(n, perm[u], perm[v]).shuffled(rng)


def worst_case_labeling(g: EdgeList) -> EdgeList:
    """Relabel vertices to maximize Shiloach–Vishkin iterations.

    A BFS ordering *reversed* makes every graft point up a long chain of
    decreasing labels, forcing ~log n graft-and-shortcut rounds on
    path-like graphs.
    """
    order = _bfs_order(g)
    perm = np.empty(g.n, dtype=np.int64)
    perm[order] = np.arange(g.n - 1, -1, -1, dtype=np.int64)
    return g.relabeled(perm)


def best_case_labeling(g: EdgeList) -> EdgeList:
    """Relabel vertices to minimize Shiloach–Vishkin iterations.

    A BFS ordering gives every vertex a neighbor with a smaller label
    close to the component root, so grafting collapses components in
    very few rounds.
    """
    order = _bfs_order(g)
    perm = np.empty(g.n, dtype=np.int64)
    perm[order] = np.arange(g.n, dtype=np.int64)
    return g.relabeled(perm)


def _bfs_order(g: EdgeList) -> np.ndarray:
    """Vertices in BFS-from-smallest-root order, all components covered."""
    indptr, indices = g.adjacency_csr()
    visited = np.zeros(g.n, dtype=bool)
    order = np.empty(g.n, dtype=np.int64)
    pos = 0
    for root in range(g.n):
        if visited[root]:
            continue
        visited[root] = True
        frontier = np.array([root], dtype=np.int64)
        while len(frontier):
            order[pos : pos + len(frontier)] = frontier
            pos += len(frontier)
            neigh = indices[
                np.concatenate(
                    [np.arange(indptr[f], indptr[f + 1]) for f in frontier]
                )
            ] if len(frontier) else np.empty(0, np.int64)
            neigh = np.unique(neigh)
            neigh = neigh[~visited[neigh]]
            visited[neigh] = True
            frontier = neigh
    return order
