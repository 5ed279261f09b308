"""Spatial realization generator.

One realization of the network is built in stages, mirroring how the
system operates: base stations drop as a Poisson point process in a square
window centred on the origin, Voronoi-adjacent stations (Delaunay
neighbours) are greedily matched into cooperating pairs in random order,
every interfering pair (and every leftover unmatched station) draws an
active link direction from the DL traffic ratio delta, and each active
cell receives one uniformly placed terminal.

The probe link is anchored at the origin.  In "dl" typical mode the
terminal sits at the origin and its nearest BS serves the UL (for the
decoupled scheme, that BS's matched partner serves the DL ACK) -- the
serving distance then follows the nearest-neighbour law organically.  In
"ul" typical mode a BS is pinned at the origin and the probe terminal is
placed at a distance drawn from the same nearest-neighbour law, which is
the distance distribution the analytical model assumes.

The coupled baseline ("duca") reuses the machinery with pairing disabled:
every BS carries an independent direction and a terminal in its own cell,
and the probe terminal talks to its nearest BS in both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree


@dataclass(frozen=True)
class RngStream:
    """Seeded, numbered random stream; identical (seed, stream_id) pairs
    reproduce identical realizations bit for bit."""

    seed: int
    stream_id: int = 0

    def generator(self, *extra: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream_id, *extra])


class TypicalUnpairedError(RuntimeError):
    """The probe's serving BS ended the matching round unmatched; the
    realization must be resampled."""


@dataclass
class Deployment:
    """One spatial realization plus the probe-link anchoring.

    ``pairs`` rows are (ul_member, dl_member): the member closer to the
    pair's terminal receives UL, the farther transmits DL.  ``pair_active_dl``
    is each interfering pair's drawn link direction (ignored for the probe's
    own pair, which carries the two-way transaction).  ``active_ues`` holds
    one terminal per pair followed by one per unmatched BS.
    """

    window_half_width: float
    bs_positions: np.ndarray              # (N, 2)
    adjacency: List[np.ndarray]           # Delaunay neighbour lists
    pairs: np.ndarray                     # (P, 2) int, (ul_member, dl_member)
    unpaired: np.ndarray                  # (U,) int
    pair_active_dl: np.ndarray            # (P,) bool
    unpaired_active_dl: np.ndarray        # (U,) bool
    active_ues: np.ndarray                # (P + U, 2)
    scheme: str                           # "duda" | "duca"
    typical_mode: str                     # "ul" | "dl"
    typical_ue: np.ndarray                # (2,)
    typical_ul_bs: int
    typical_dl_bs: int
    typical_pair_index: int               # row in pairs; -1 for duca
    degenerate: bool = False

    @property
    def n_bs(self) -> int:
        return len(self.bs_positions)

    @property
    def matched_fraction(self) -> float:
        return 1.0 - len(self.unpaired) / max(self.n_bs, 1)


def sample_ppp(lam: float, window_half_width: float, rng) -> np.ndarray:
    """Sample a homogeneous PPP of intensity lam on the centred square of
    half-width window_half_width; returns an (N, 2) position array."""
    if lam <= 0 or window_half_width <= 0:
        raise ValueError("lam and window_half_width must be positive")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    side = 2.0 * window_half_width
    n = gen.poisson(lam * side * side)
    return gen.uniform(-window_half_width, window_half_width, size=(n, 2))


def delaunay_adjacency(points: np.ndarray) -> Tuple[List[np.ndarray], bool]:
    """Neighbour lists of the Delaunay triangulation (equivalently, pairs of
    Voronoi cells sharing an edge).

    Fewer than 3 points, or a fully degenerate (collinear) configuration,
    falls back to complete adjacency with the degenerate flag set.
    """
    n = len(points)
    if n < 3:
        return [np.array([j for j in range(n) if j != i]) for i in range(n)], True
    try:
        tri = Delaunay(points)
    except QhullError:
        return [np.array([j for j in range(n) if j != i]) for i in range(n)], True
    indptr, indices = tri.vertex_neighbor_vertices
    return [indices[indptr[i]:indptr[i + 1]] for i in range(n)], False


def pair_bs(
    points: np.ndarray, adjacency: Sequence[np.ndarray], rng
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Greedy randomized matching on the adjacency graph.

    Stations are visited in a uniformly random order; an unmatched station
    pairs with its nearest unmatched neighbour (Euclidean ties broken by
    the lower index).  Stations left without an unmatched neighbour stay
    single.  The output partitions all indices.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = len(points)
    px = [float(p[0]) for p in points]
    py = [float(p[1]) for p in points]
    adj = [[int(j) for j in nb] for nb in adjacency]
    partner = [-1] * n
    for i in gen.permutation(n).tolist():
        if partner[i] >= 0:
            continue
        xi, yi = px[i], py[i]
        best_d = math.inf
        best_j = -1
        for j in adj[i]:
            if partner[j] >= 0:
                continue
            dx = px[j] - xi
            dy = py[j] - yi
            d = dx * dx + dy * dy
            if d < best_d or (d == best_d and j < best_j):
                best_d = d
                best_j = j
        if best_j >= 0:
            partner[i] = best_j
            partner[best_j] = i
    pairs: List[Tuple[int, int]] = []
    seen = [False] * n
    for i in range(n):
        j = partner[i]
        if j >= 0 and not seen[i]:
            seen[i] = seen[j] = True
            pairs.append((i, j))
    unpaired = [i for i in range(n) if partner[i] < 0]
    return pairs, unpaired


def _clip_convex(vertices: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Clip a convex polygon to the half-plane normal . x <= offset
    (Sutherland-Hodgman, one edge)."""
    if len(vertices) == 0:
        return vertices
    inside = vertices @ normal <= offset
    out = []
    n = len(vertices)
    for k in range(n):
        a, b = vertices[k], vertices[(k + 1) % n]
        ia, ib = inside[k], inside[(k + 1) % n]
        if ia:
            out.append(a)
        if ia != ib:
            da = normal @ a - offset
            db = normal @ b - offset
            t = da / (da - db)
            out.append(a + t * (b - a))
    return np.array(out) if out else np.empty((0, 2))


def _voronoi_cell_polygon(points: np.ndarray, i: int, half_width: float) -> np.ndarray:
    """Vertices of Voronoi cell i clipped to the window (convex)."""
    poly = np.array([
        [-half_width, -half_width], [half_width, -half_width],
        [half_width, half_width], [-half_width, half_width],
    ])
    pi = points[i]
    for j in range(len(points)):
        if j == i:
            continue
        normal = points[j] - pi
        offset = (points[j] @ points[j] - pi @ pi) / 2.0
        poly = _clip_convex(poly, normal, offset)
        if len(poly) == 0:
            break
    return poly


def _uniform_in_cells(
    points: np.ndarray, members: Sequence[int], half_width: float, gen: np.random.Generator
) -> np.ndarray:
    """Exact uniform point in the union of the members' Voronoi cells via
    polygon triangulation (slow path for cells too small to hit by global
    rejection)."""
    tris = []
    areas = []
    for i in members:
        poly = _voronoi_cell_polygon(points, i, half_width)
        for k in range(1, len(poly) - 1):
            a, b, c = poly[0], poly[k], poly[k + 1]
            area = 0.5 * abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
            tris.append((a, b, c))
            areas.append(area)
    total = float(np.sum(areas))
    if total <= 0.0 or not tris:
        return np.array(points[members[0]], dtype=float, copy=True)
    k = int(gen.choice(len(tris), p=np.asarray(areas) / total))
    a, b, c = tris[k]
    u, v = gen.uniform(size=2)
    su = math.sqrt(u)
    return (1 - su) * a + su * (1 - v) * b + su * v * c


def _uniform_in_groups(
    points: np.ndarray,
    group_of_bs: np.ndarray,
    n_groups: int,
    window_half_width: float,
    gen: np.random.Generator,
) -> np.ndarray:
    """One uniform point per group, where group g's region is the union of
    the Voronoi cells of the stations with group_of_bs == g (clipped to the
    window).  Rejection-samples batches of window-uniform candidates and
    keeps each group's first hit; groups whose region is too small to hit
    fall back to exact polygon sampling."""
    tree = cKDTree(points)
    out = np.full((n_groups, 2), np.nan)
    missing = n_groups
    batch = max(512, 10 * len(points))
    for _ in range(12):
        if missing == 0:
            break
        cand = gen.uniform(-window_half_width, window_half_width, size=(batch, 2))
        # one thread: a batch of 10 candidates per station is too small to repay
        # starting worker threads
        _, owner = tree.query(cand, workers=1)
        gids = group_of_bs[owner]
        uniq, first = np.unique(gids, return_index=True)
        fill = np.isnan(out[uniq, 0])
        out[uniq[fill]] = cand[first[fill]]
        missing = int(np.isnan(out[:, 0]).sum())
    if missing:
        for g in np.flatnonzero(np.isnan(out[:, 0])):
            members = np.flatnonzero(group_of_bs == g)
            out[g] = _uniform_in_cells(points, members, window_half_width, gen)
    return out


def assign_directions_and_ues(
    pairs: Sequence[Tuple[int, int]],
    unpaired: Sequence[int],
    points: np.ndarray,
    delta: float,
    rng,
    typical_mode: str = "dl",
    *,
    window_half_width: float,
    scheme: str = "duda",
    lambda_b: float | None = None,
    degenerate: bool = False,
) -> Deployment:
    """Draw link directions and terminal positions, and anchor the probe.

    Raises TypicalUnpairedError when the probe's serving BS is unmatched in
    a decoupled-scheme realization (callers resample).  ``lambda_b`` is only
    needed in "ul" typical mode, where the probe terminal's distance is
    drawn from the nearest-neighbour law of that intensity.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    if typical_mode not in ("ul", "dl"):
        raise ValueError("typical_mode must be 'ul' or 'dl'")
    if scheme not in ("duda", "duca"):
        raise ValueError("scheme must be 'duda' or 'duca'")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        raise ValueError("realization contains no base stations")

    pair_arr = np.array([list(p) for p in pairs], dtype=int).reshape(len(pairs), 2)
    unpaired_arr = np.asarray(list(unpaired), dtype=int)

    # Typical serving geometry.
    if typical_mode == "dl":
        typical_ue = np.zeros(2)
        d0 = np.linalg.norm(points, axis=1)
        ul_bs = int(np.argmin(d0))
    else:
        if lambda_b is None:
            raise ValueError("lambda_b is required in 'ul' typical mode")
        ul_bs = int(np.argmin(np.linalg.norm(points, axis=1)))
        r = math.sqrt(gen.exponential() / (math.pi * lambda_b))
        theta = gen.uniform(0.0, 2.0 * math.pi)
        typical_ue = points[ul_bs] + np.array([r * math.cos(theta), r * math.sin(theta)])

    typical_pair_index = -1
    if scheme == "duda":
        rows = np.flatnonzero((pair_arr == ul_bs).any(axis=1))
        if len(rows) == 0:
            raise TypicalUnpairedError(f"typical BS {ul_bs} is unmatched")
        typical_pair_index = int(rows[0])
        a, b = pair_arr[typical_pair_index]
        dl_bs = int(b if a == ul_bs else a)
    else:
        dl_bs = ul_bs
        if len(pair_arr):
            raise ValueError("coupled-baseline deployments carry no pairs")

    # Directions.
    pair_active_dl = gen.uniform(size=len(pair_arr)) < delta
    unpaired_active_dl = gen.uniform(size=len(unpaired_arr)) < delta

    # Terminals: one per pair (uniform in the union of the two cells), one
    # per unmatched station (uniform in its own cell).
    group_of_bs = np.full(n, -1, dtype=int)
    for g, (i, j) in enumerate(pair_arr):
        group_of_bs[i] = g
        group_of_bs[j] = g
    for k, i in enumerate(unpaired_arr):
        group_of_bs[i] = len(pair_arr) + k
    n_groups = len(pair_arr) + len(unpaired_arr)
    active_ues = _uniform_in_groups(points, group_of_bs, n_groups, window_half_width, gen)

    # Orient each pair: the member nearer its terminal receives UL.
    oriented = pair_arr.copy()
    if len(pair_arr):
        ues = active_ues[: len(pair_arr)]
        d_first = np.sum((points[pair_arr[:, 0]] - ues) ** 2, axis=1)
        d_second = np.sum((points[pair_arr[:, 1]] - ues) ** 2, axis=1)
        flip = d_second < d_first
        oriented[flip] = oriented[flip][:, ::-1]

    # The probe overrides its own cell: its pair is role-fixed by the
    # serving geometry and hosts the probe terminal.
    if typical_pair_index >= 0:
        oriented[typical_pair_index] = (ul_bs, dl_bs)
        active_ues[typical_pair_index] = typical_ue
        pair_active_dl[typical_pair_index] = False
    elif scheme == "duca":
        k = np.flatnonzero(unpaired_arr == ul_bs)
        if len(k):
            active_ues[len(pair_arr) + k[0]] = typical_ue

    return Deployment(
        window_half_width=window_half_width,
        bs_positions=points,
        adjacency=[],
        pairs=oriented,
        unpaired=unpaired_arr,
        pair_active_dl=pair_active_dl,
        unpaired_active_dl=unpaired_active_dl,
        active_ues=active_ues,
        scheme=scheme,
        typical_mode=typical_mode,
        typical_ue=typical_ue,
        typical_ul_bs=ul_bs,
        typical_dl_bs=dl_bs,
        typical_pair_index=typical_pair_index,
        degenerate=degenerate,
    )


def generate_deployment(
    lambda_b: float,
    delta: float,
    window_half_width: float,
    stream: RngStream,
    scheme: str = "duda",
    typical_mode: str = "dl",
    max_resamples: int = 64,
    keep_adjacency: bool = False,
) -> Tuple[Deployment, int]:
    """Produce one usable realization, resampling when the probe's serving
    BS ends up unmatched (decoupled scheme); returns (deployment, resamples).
    """
    resamples = 0
    for attempt in range(max_resamples + 1):
        gen = stream.generator(attempt)
        pts = sample_ppp(lambda_b, window_half_width, gen)
        if typical_mode == "ul":
            pts = np.vstack([np.zeros((1, 2)), pts])
        if len(pts) < 2:
            resamples += 1
            continue
        if scheme == "duda":
            adjacency, degen = delaunay_adjacency(pts)
            pairs, unpaired = pair_bs(pts, adjacency, gen)
        else:
            adjacency, degen = [], False
            pairs, unpaired = [], list(range(len(pts)))
        try:
            dep = assign_directions_and_ues(
                pairs,
                unpaired,
                pts,
                delta,
                gen,
                typical_mode,
                window_half_width=window_half_width,
                scheme=scheme,
                lambda_b=lambda_b,
                degenerate=degen,
            )
        except TypicalUnpairedError:
            resamples += 1
            continue
        if keep_adjacency:
            dep.adjacency = list(adjacency)
        return dep, resamples
    raise RuntimeError(
        f"typical BS unmatched in {max_resamples} consecutive realizations"
    )


def snapshot_csv(dep: Deployment) -> str:
    """Deployment snapshot as CSV text with columns x, y, role, pair_id."""
    lines = ["x,y,role,pair_id"]

    def add(pos, role, pid):
        lines.append(f"{pos[0]:.9g},{pos[1]:.9g},{role},{pid}")

    for g, (i, j) in enumerate(dep.pairs):
        if g == dep.typical_pair_index:
            add(dep.bs_positions[i], "bs_typical_ul", g)
            add(dep.bs_positions[j], "bs_typical_dl", g)
            add(dep.active_ues[g], "ue_typical", g)
        else:
            add(dep.bs_positions[i], "bs_ul", g)
            add(dep.bs_positions[j], "bs_dl", g)
            add(dep.active_ues[g], "ue", g)
    for k, i in enumerate(dep.unpaired):
        g = len(dep.pairs) + k
        role = "bs_unpaired"
        if dep.scheme == "duca" and i == dep.typical_ul_bs:
            add(dep.bs_positions[i], "bs_typical_ul", -1)
            add(dep.active_ues[g], "ue_typical", -1)
            continue
        add(dep.bs_positions[i], role, -1)
        add(dep.active_ues[g], "ue", -1)
    return "\n".join(lines) + "\n"
