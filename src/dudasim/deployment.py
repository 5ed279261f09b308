"""Spatial realization generator.

One realization of the network is built in stages, mirroring how the
system operates: base stations drop as a Poisson point process in a square
window centred on the origin, Voronoi-adjacent stations (Delaunay
neighbours) are greedily matched into cooperating pairs in random order,
and the stations form a table of units: a pair (ul_bs, dl_bs), in which one
station receives the UL and its partner sends the DL, or an unmatched
station (i, i), which does both.  Each unit draws an active link direction
from the DL traffic ratio delta and receives one uniformly placed terminal.

A realization carries probes, two-way transactions whose success the
simulation evaluates.  A probe's serving station receives its UL; for the
decoupled scheme the station's matched partner sends the DL ACK, and a
probe whose serving station ends the matching unmatched has no DUDA link
and is dropped.  For each probe its own unit is silent, and every other
unit interferes only with a transmitter inside the square of half-width
``window_half_width`` centred at the probe's anchor.

``generate_deployment`` makes one draw of one of two kinds:

* One probe at the origin (``origin_deployment``, for ``snapshot`` and the
  demos, redraws until the probe is usable), stations in the window of
  half-width ``window_half_width``.  In "dl" typical mode the probe
  terminal sits at the origin and its nearest station serves it, so the
  serving distance follows the nearest-neighbour law organically.  In "ul"
  mode a station is pinned at the origin, with the probe terminal at a
  distance drawn from that law, the distribution the analytical model
  assumes.  The mask then covers the whole window.
* Many probes in a guarded window (``guarded``, the campaigns, which take
  one draw per realization and skip one with no usable probe): stations in
  half-width ``window_half_width`` + h, h = ``window_half_width`` / 2, and
  probes in the central square of half-width h.  In "dl" mode
  round(lambda_b (2h)^2) terminals, at least one, are uniform in it, each
  served by its nearest station and anchored at itself.  In "ul" mode each
  station of the square is pinned (Slivnyak) with a terminal drawn as
  above, and anchored at the station.  Every mask lies inside the window,
  so (realization, probe) has the law of the one-probe draw: the Palm
  distribution of the terminal process (Baccelli and Blaszczyszyn,
  *Stochastic Geometry and Wireless Networks*, vol. I; Haenggi,
  *Stochastic Geometry for Wireless Networks*, ch. 8).

The coupled baseline ("duca") reuses the machinery with pairing disabled:
every BS is its own unit, with an independent direction and a terminal in
its own cell, and the probe terminal talks to its serving BS both ways.

One draw serves several schemes: the stations, the probes, each station's
direction uniform and the terminal candidates are the same for every
scheme, and one kd-tree lookup per candidate batch places the terminals of
all of them.  Each scheme gets its deployment, or none when the draw leaves
it no usable probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """Seeded, numbered random stream; identical (seed, stream_id) pairs
    reproduce identical realizations bit for bit."""

    seed: int
    stream_id: int = 0

    def generator(self, *extra: int) -> np.random.Generator:
        return np.random.default_rng(seed_words(self.seed, self.stream_id, *extra))


def seed_words(*ints: int) -> np.ndarray:
    """The uint32 entropy words numpy's SeedSequence makes of a list of
    non-negative ints: each int's fewest little-endian 32-bit words, in
    order.  ``default_rng(seed_words(*ints))`` is ``default_rng(list(ints))``
    bit for bit, without numpy's per-call coercion of the list, and a loop
    over streams can build the words once and rewrite only the id's word."""
    words = []
    for n in ints:
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & 0xFFFFFFFF)
        while n >> 32:
            n >>= 32
            words.append(n & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


# Draws in a row that may give a scheme no usable probe before it stops
MAX_DRAWS = 65


class NoRealizationError(RuntimeError):
    """``MAX_DRAWS`` draws in a row gave a scheme no usable probe, for the
    reasons ``generate_deployment`` returned: the window holds too few
    stations at this density."""

    def __init__(self, misses: Sequence[str], lambda_b: float, window_half_width: float):
        n, sparse, empty = len(misses), misses.count("sparse"), misses.count("empty")
        none = f", {empty} had no station in the probe square" if empty else ""
        super().__init__(
            f"no usable realization in {n} draws: {sparse} had fewer than 2 base stations "
            f"(expected lambda_b*side^2 = {lambda_b * (2.0 * window_half_width) ** 2:.3g} "
            f"per window){none} and {n - sparse - empty} left the typical BS unmatched"
        )


@dataclass
class Deployment:
    """One spatial realization and its usable probes.

    Row g of ``units`` is (ul_bs, dl_bs): in a pair, the member nearer the
    unit's terminal ``ues[g]`` receives UL; an unmatched station i is (i, i).
    Pairs come first, then the unmatched stations.  A deployment built with
    ``all_terminals=False`` has NaN ``ues`` rows for the DL-active unmatched
    stations, whose terminals only receive.

    Probe k is the terminal ``probe_ues[k]``, whose UL station
    ``probe_bs[k]`` is a member of unit ``probe_units[k]``; the unit's other
    member (the station itself, if unmatched) sends its DL.  For probe k
    its own unit is silent, and another unit interferes only with a
    transmitter inside the square of half-width ``mask_half_width`` centred
    at ``anchors[k]``.
    """

    bs_positions: np.ndarray              # (N, 2)
    units: np.ndarray                     # (G, 2) int, (ul_bs, dl_bs)
    active_dl: np.ndarray                 # (G,) bool, the drawn link direction
    ues: np.ndarray                       # (G, 2)
    probe_bs: np.ndarray                  # (K,) int, station serving each probe's UL
    probe_units: np.ndarray               # (K,) int, row of units of each probe
    probe_ues: np.ndarray                 # (K, 2)
    anchors: np.ndarray                   # (K, 2), centre of each probe's mask
    mask_half_width: float
    degenerate: bool = False


def sample_ppp(lam: float, window_half_width: float, gen: np.random.Generator) -> np.ndarray:
    """Sample a homogeneous PPP of intensity lam on the centred square of
    half-width window_half_width; returns an (N, 2) position array."""
    if lam <= 0 or window_half_width <= 0:
        raise ValueError("lam and window_half_width must be positive")
    side = 2.0 * window_half_width
    n = gen.poisson(lam * side * side)
    return gen.uniform(-window_half_width, window_half_width, size=(n, 2))


def delaunay_adjacency(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Neighbours in the Delaunay triangulation (equivalently, pairs of
    Voronoi cells sharing an edge) as CSR arrays: station i's neighbours are
    ``indices[indptr[i]:indptr[i + 1]]``.  Returns (indptr, indices,
    degenerate).

    Fewer than 3 points, or a fully degenerate (collinear) configuration,
    falls back to the complete graph with the degenerate flag set.
    """
    from scipy.spatial import Delaunay, QhullError

    n = len(points)
    if n >= 3:
        try:
            indptr, indices = Delaunay(points).vertex_neighbor_vertices
            return indptr, indices, False
        except QhullError:
            pass
    indptr = np.arange(n + 1) * max(n - 1, 0)
    indices = np.flatnonzero(~np.eye(n, dtype=bool)) % max(n, 1)
    return indptr, indices, True


def pair_bs(
    points: np.ndarray, indptr: np.ndarray, indices: np.ndarray, gen: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy randomized matching on the CSR adjacency graph.

    Stations are visited in a uniformly random order; an unmatched station
    pairs with its nearest unmatched neighbour (Euclidean ties broken by
    the lower index).  Stations left without an unmatched neighbour stay
    single.  Returns ``pairs`` as a (P, 2) array with i < j in each row, in
    increasing order of i, and the unmatched stations in increasing order;
    together they partition all indices.
    """
    n = len(points)
    x, y = points.T
    row = np.repeat(np.arange(n), np.diff(indptr))
    dx = x[indices] - x[row]
    dy = y[indices] - y[row]
    d2 = dx * dx + dy * dy
    # rows stay contiguous, each sorted by (squared distance, index): a stable
    # two-key sort of the index order; equal indices sit only in different
    # rows, so the unstable argsort cannot reorder a tie
    o = np.argsort(indices)
    nbrs = indices[o[np.lexsort((d2[o], row[o]))]].tolist()
    ptr = indptr.tolist()
    partner = [-1] * n
    for i in gen.permutation(n).tolist():
        if partner[i] >= 0:
            continue
        for k in range(ptr[i], ptr[i + 1]):
            j = nbrs[k]
            if partner[j] < 0:
                partner[i] = j
                partner[j] = i
                break
    partner = np.array(partner, dtype=int)
    first = np.flatnonzero(partner > np.arange(n))
    return np.column_stack((first, partner[first])), np.flatnonzero(partner < 0)


# Placement screens candidates once at most this many stations of groups
# without a terminal remain: the screen costs a few ufunc passes per member of
# its local set and candidate, against about 0.4 us for a kd-tree lookup, so
# it pays only while that set is small.
_SCREEN_STATIONS = 8
_SCREEN_NEIGHBOURS = 6
# The screen works on blocks of at most this many (member, candidate)
# distances, 64 KB, so that its temporaries stay small; whole batches raised
# the peak RSS of a campaign by about 1 MB.
_SCREEN_BLOCK = 8192


def _uniform_in_groups(
    points: np.ndarray,
    groupings: Sequence[Tuple[np.ndarray, np.ndarray]],
    window_half_width: float,
    gen: np.random.Generator,
) -> List[np.ndarray]:
    """One uniform point per needed group of each grouping of the stations.

    A grouping is (group_of_bs, need): group g's region is the union of the
    Voronoi cells of the stations with group_of_bs == g (clipped to the
    window), and the boolean mask ``need`` (one entry per group) names the
    groups that get a point.  Rejection-samples batches of window-uniform
    candidates and keeps each group's first hit until every needed group of
    every grouping has one; one kd-tree of the stations decides which cell a
    candidate falls in, for all groupings at once.  Every station lies in the
    window and the stations are distinct, so every region has positive area
    and the loop ends with probability 1.  Rows of groups not needed are NaN.
    Which groups are sought, and which other groupings share the call, change
    only how far the candidate stream is read, not the first hit of any group
    sought: each grouping gets the points it would get alone.

    Once at most ``_SCREEN_STATIONS`` stations of missing groups remain, each
    batch is screened before the lookup against a local set L: those stations
    plus their ``_SCREEN_NEIGHBOURS`` nearest stations.  A candidate goes on
    to the kd-tree only if its nearest member of L is a missing group's
    station, or ties with one within rounding.  The screen is exact: a point
    in the cell of a missing station s is nearer to s than to every station,
    so also than to every member of L.  Candidates are read in the same order
    as without the screen, so every group gets the same first hit, and the
    batch size only decides how far the stream is read past the last one.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(points)
    missing = [np.array(need, dtype=bool) for _, need in groupings]
    outs = [np.full((len(m), 2), np.nan) for m in missing]
    batch = max(512, 5 * len(points))
    local = None
    while any(m.any() for m in missing):
        cand = gen.uniform(-window_half_width, window_half_width, size=(batch, 2))
        if local is not None:
            (lx, ly), m = local
            keep = np.empty(len(cand), dtype=bool)
            step = _SCREEN_BLOCK // len(lx)
            for lo in range(0, len(cand), step):
                # squared distances from every member of L (rows; the missing
                # stations first) to a block of candidates, in the kd-tree's
                # form dx*dx + dy*dy; no BLAS product, whose threads cost CPU
                block = cand[lo:lo + step]
                d2 = np.subtract.outer(lx, block[:, 0])
                d2 *= d2
                dy = np.subtract.outer(ly, block[:, 1])
                dy *= dy
                d2 += dy
                near_other = d2[m:].min(axis=0, initial=np.inf)
                keep[lo:lo + step] = d2[:m].min(axis=0) <= near_other * (1.0 + 1e-9)
            cand = cand[keep]
        # one thread: a batch of a few candidates per station is too small to
        # repay starting worker threads
        _, owner = tree.query(cand, workers=1)
        in_missing = np.zeros(len(points), dtype=bool)
        for (group_of_bs, _), miss, out in zip(groupings, missing, outs):
            if not miss.any():
                continue
            group = group_of_bs[owner]
            hit = np.flatnonzero(miss[group])
            uniq, first = np.unique(group[hit], return_index=True)
            out[uniq] = cand[hit[first]]
            miss[uniq] = False
            in_missing |= miss[group_of_bs]
        stations = np.flatnonzero(in_missing)
        if 0 < len(stations) <= _SCREEN_STATIONS:
            k = min(_SCREEN_NEIGHBOURS + 1, len(points))
            near = np.zeros(len(points), dtype=bool)
            near[tree.query(points[stations], k=k, workers=1)[1]] = True
            members = np.concatenate([stations, np.flatnonzero(near & ~in_missing)])
            local = points[members].T, len(stations)
    return outs


def assign_directions_and_ues(
    partitions: Sequence[Tuple[np.ndarray, np.ndarray]],
    points: np.ndarray,
    delta: float,
    gen: np.random.Generator,
    *,
    window_half_width: float,
    all_terminals: bool = True,
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Draw link directions and terminal positions, one unit table per
    partition of the stations into units.

    Each partition is (pairs, unpaired): a (P, 2) int array and an int array
    that together hold every station once.  The stations must be distinct
    points inside the window.  Returns, per partition, (units, active_dl,
    ues, unit_of_bs) as ``Deployment`` holds the first three, and the unit
    row of each station.

    ``gen`` first gives one uniform per station; a unit is DL-active when the
    uniform of its lower-index station is below delta, so each partition's
    directions are iid Bernoulli(delta), and partitions that share a station
    as a unit's lower index share that unit's direction.  The terminals of
    every partition are then placed from one candidate stream, each partition
    getting the terminals it would get alone.

    With ``all_terminals`` false, only the terminals that a unit table's own
    directions read are placed: one per pair (it orients the pair) and one
    per UL-active unmatched station.  A DL-active unmatched station's row of
    ``ues`` is then NaN.  Nothing is drawn after the terminals, so every
    other array is the same as with all terminals placed.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    n = len(points)
    if n == 0:
        raise ValueError("realization contains no base stations")
    # otherwise some terminal region has no area and placement never ends
    xy = points[np.lexsort(points.T)]
    if np.abs(points).max() > window_half_width or (xy[1:] == xy[:-1]).all(axis=1).any():
        raise ValueError("stations must be distinct points inside the window")

    u = gen.uniform(size=n)
    layouts, groupings = [], []
    for pairs, unpaired in partitions:
        # each station once: a repeated one leaves a unit whose region has no area
        if not np.array_equal(np.sort(np.concatenate([pairs.ravel(), unpaired])), np.arange(n)):
            raise ValueError("pairs and unpaired must partition the stations")
        # Units: one per pair, then one per unmatched station.
        units = np.concatenate([pairs, unpaired[:, None].repeat(2, axis=1)])
        group_of_bs = np.empty(n, dtype=int)
        group_of_bs[units] = np.arange(len(units))[:, None]
        active_dl = u[units.min(axis=1)] < delta
        # Terminals: one per unit, uniform in the union of its stations'
        # cells; without all_terminals, none for the DL-active unmatched
        # stations' units.
        need = all_terminals | ~active_dl | (units[:, 0] != units[:, 1])
        layouts.append((units, active_dl, group_of_bs))
        groupings.append((group_of_bs, need))
    placed = _uniform_in_groups(points, groupings, window_half_width, gen)

    out = []
    for (units, active_dl, group_of_bs), ues in zip(layouts, placed):
        # Orient each unit: the member nearer its terminal receives UL.  A
        # row (i, i) cannot flip, so a table without pairs skips this.
        if (units[:, 0] != units[:, 1]).any():
            d2 = ((points[units] - ues[:, None]) ** 2).sum(axis=2)
            flip = d2[:, 1] < d2[:, 0]
            units[flip] = units[flip, ::-1]
        out.append((units, active_dl, ues, group_of_bs))
    return out


# The guard h of a guarded draw, as a fraction of window_half_width, and its
# "dl" probes per expected station of the probe square of half-width h.
# Chosen once from CPU per effective probe at three densities (README,
# "Many probes per realization").
_GUARD = 0.5
_PROBES_PER_STATION = 1.0


def _draw_probes(
    pts: np.ndarray, lambda_b: float, guard: float, count: int, typical_mode: str,
    gen: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(serving station, terminal, anchor) of each probe of a draw, in the
    probe square of half-width ``guard``: ``count`` uniform terminals, each
    served by its nearest station ("dl"), or every station in the square
    with a terminal at a nearest-neighbour-law distance ("ul")."""
    if typical_mode == "dl":
        from scipy.spatial import cKDTree

        ues = gen.uniform(-guard, guard, size=(count, 2)) if guard else np.zeros((1, 2))
        return cKDTree(pts).query(ues, workers=1)[1], ues, ues
    bs = np.flatnonzero((np.abs(pts) <= guard).all(axis=1))
    r = np.sqrt(gen.exponential(size=len(bs)) / (math.pi * lambda_b))
    theta = gen.uniform(0.0, 2.0 * math.pi, size=len(bs))
    ues = pts[bs] + np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    return bs, ues, pts[bs]


def generate_deployment(
    lambda_b: float,
    delta: float,
    window_half_width: float,
    stream: RngStream,
    schemes: Sequence[str] = ("duda",),
    typical_mode: str = "dl",
    all_terminals: bool = True,
    guarded: bool = False,
    attempt: int = 0,
) -> Dict[str, Union[Deployment, str]]:
    """Draw ``attempt`` of ``stream``, one probe at the origin or with
    ``guarded`` many probes in the guarded window (see the module
    docstring): for each scheme its deployment, or why the draw gave it no
    usable probe, "sparse" (fewer than 2 stations), "empty" (no probe) or
    "unmatched" (the decoupled scheme matched no probe's serving station).

    ``stream.generator(attempt)`` gives the stations, the probes and then,
    for the decoupled scheme, the matching's visiting order;
    ``stream.generator(attempt, 1)`` gives the directions and terminals
    (``assign_directions_and_ues``, which takes ``all_terminals``).  The
    coupled scheme takes every probe, the decoupled scheme those whose
    serving station it matched.  Each scheme thus gets the deployment it
    would get alone, and the schemes share the draw's stations, probes,
    directions and terminal candidates.
    """
    for scheme in schemes:
        if scheme not in ("duda", "duca"):
            raise ValueError("scheme must be 'duda' or 'duca'")
    if typical_mode not in ("ul", "dl"):
        raise ValueError("typical_mode must be 'ul' or 'dl'")
    guard = _GUARD * window_half_width if guarded else 0.0
    count = max(1, round(_PROBES_PER_STATION * lambda_b * (2.0 * guard) ** 2))
    gen = stream.generator(attempt)
    pts = sample_ppp(lambda_b, window_half_width + guard, gen)
    if typical_mode == "ul" and not guarded:
        pts = np.vstack([np.zeros((1, 2)), pts])
    if len(pts) < 2:
        return dict.fromkeys(schemes, "sparse")
    probe_bs, probe_ues, anchors = _draw_probes(pts, lambda_b, guard, count, typical_mode, gen)
    if not len(probe_bs):
        return dict.fromkeys(schemes, "empty")
    taken = {}  # scheme -> (pairs, unpaired, degenerate, usable probes)
    for scheme in schemes:
        if scheme == "duca":
            taken[scheme] = (np.empty((0, 2), dtype=int), np.arange(len(pts)), False,
                             np.ones(len(probe_bs), dtype=bool))
            continue
        indptr, indices, degen = delaunay_adjacency(pts)
        pairs, unpaired = pair_bs(pts, indptr, indices, gen)
        usable = ~np.isin(probe_bs, unpaired)
        if usable.any():
            taken[scheme] = pairs, unpaired, degen, usable
    out: Dict[str, Union[Deployment, str]] = dict.fromkeys(schemes, "unmatched")
    if taken:
        layouts = assign_directions_and_ues(
            [t[:2] for t in taken.values()], pts, delta, stream.generator(attempt, 1),
            window_half_width=window_half_width + guard, all_terminals=all_terminals,
        )
        for (scheme, (_, _, degen, use)), (units, active_dl, ues, unit_of_bs) in zip(
                taken.items(), layouts):
            out[scheme] = Deployment(
                pts, units, active_dl, ues, probe_bs[use], unit_of_bs[probe_bs[use]],
                probe_ues[use], anchors[use], window_half_width, degen,
            )
    return out


def origin_deployment(
    lambda_b: float, delta: float, window_half_width: float, stream: RngStream,
    scheme: str = "duda", typical_mode: str = "dl", all_terminals: bool = True,
) -> Tuple[Deployment, int]:
    """One probe at the origin for one scheme: the first of draws 0, 1, ...
    of ``stream`` (``generate_deployment``'s ``attempt``) that gives the
    scheme a usable probe, and its number, the redraws it took."""
    misses = []
    for attempt in range(MAX_DRAWS):
        dep = generate_deployment(lambda_b, delta, window_half_width, stream, (scheme,),
                                  typical_mode, all_terminals, attempt=attempt)[scheme]
        if isinstance(dep, Deployment):
            return dep, attempt
        misses.append(dep)
    raise NoRealizationError(misses, lambda_b, window_half_width)


def snapshot_csv(dep: Deployment) -> str:
    """Deployment snapshot as CSV text with columns x, y, role, pair_id:
    unit by unit, its stations (UL, then DL) and then its terminal.  A
    pair's rows carry its unit row as pair_id, an unmatched station's -1.
    The first probe's unit is the typical one: its serving station receives
    the UL and its terminal is the probe terminal."""
    lines = ["x,y,role,pair_id"]

    def add(pos, role, pid):
        lines.append(f"{pos[0]:.9g},{pos[1]:.9g},{role},{pid}")

    probe, serving = int(dep.probe_units[0]), int(dep.probe_bs[0])
    for g, (i, j) in enumerate(dep.units.tolist()):
        tag, ue = "", dep.ues[g]
        if g == probe:
            tag, ue, i, j = "_typical", dep.probe_ues[0], serving, i + j - serving
        pid = g if i != j else -1
        if i != j:
            add(dep.bs_positions[i], f"bs{tag}_ul", pid)
            add(dep.bs_positions[j], f"bs{tag}_dl", pid)
        else:
            add(dep.bs_positions[i], "bs_typical_ul" if tag else "bs_unpaired", pid)
        add(ue, f"ue{tag}", pid)
    return "\n".join(lines) + "\n"
