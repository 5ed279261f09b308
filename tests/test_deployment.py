import copy
import math

import numpy as np
import pytest
from scipy import stats as sps

from dudasim.coverage import nearest_distance_cdf
from dudasim.deployment import (
    Deployment,
    NoRealizationError,
    RngStream,
    assign_directions_and_ues,
    delaunay_adjacency,
    generate_deployment,
    pair_bs,
    sample_ppp,
    snapshot_csv,
    _uniform_in_groups,
)

from helpers import (
    brute_force_delaunay_edges, deploy, deploy_guarded, reference_pair_bs,
    reference_uniform_in_groups,
)

LAMBDA = 0.005
HALF = 75.0
ORIGIN = np.zeros(2)


class TestSeedWords:
    # seeds and ids on both sides of each 32-bit word boundary pin the
    # stream to numpy's coercion of the list into entropy words
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**70])
    @pytest.mark.parametrize("ident", [0, 2**32 - 1, 2**32])
    def test_matches_default_rng_of_the_list(self, seed, ident):
        for ids in ((ident,), (ident, 0x5E7)):
            want = np.random.default_rng([seed, *ids]).bit_generator.state
            assert RngStream(seed, ids[0]).generator(*ids[1:]).bit_generator.state == want

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RngStream(1, -1).generator()


def neighbours(indptr, indices, i):
    return indices[indptr[i]:indptr[i + 1]]


def edges_of(indptr, indices):
    out = set()
    for i in range(len(indptr) - 1):
        for j in neighbours(indptr, indices, i):
            out.add((min(i, int(j)), max(i, int(j))))
    return out


def adjacency_lists(indptr, indices):
    return [neighbours(indptr, indices, i) for i in range(len(indptr) - 1)]


def csr(lists):
    indptr = np.concatenate([[0], np.cumsum([len(nb) for nb in lists])])
    return indptr, np.concatenate(lists).astype(int)


class TestSamplePpp:
    def test_count_mean(self):
        # 150 m window at density 0.005 -> 112.5 expected stations
        counts = [
            len(sample_ppp(LAMBDA, HALF, RngStream(1, i).generator())) for i in range(4000)
        ]
        mean = np.mean(counts)
        se = np.std(counts) / math.sqrt(len(counts))
        assert abs(mean - 112.5) < 3 * se + 0.5

    def test_positions_inside_window(self):
        pts = sample_ppp(LAMBDA, HALF, RngStream(2).generator())
        assert np.all(np.abs(pts) <= HALF)

    def test_sparse_limit_mostly_empty(self):
        empties = sum(
            len(sample_ppp(1e-7, 10.0, RngStream(3, i).generator())) == 0 for i in range(300)
        )
        assert empties > 290

    def test_uniformity_marginals(self):
        gen = RngStream(4).generator()
        pts = np.vstack([sample_ppp(LAMBDA, HALF, gen) for _ in range(400)])
        for axis in (0, 1):
            p = sps.kstest(pts[:, axis], sps.uniform(loc=-HALF, scale=2 * HALF).cdf).pvalue
            assert p > 0.01

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sample_ppp(0.0, HALF, RngStream(5).generator())
        with pytest.raises(ValueError):
            sample_ppp(LAMBDA, -1.0, RngStream(5).generator())


class TestDelaunayAdjacency:
    def test_triangle(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 0.9]])
        indptr, indices, degenerate = delaunay_adjacency(pts)
        assert not degenerate
        assert edges_of(indptr, indices) == {(0, 1), (0, 2), (1, 2)}

    def test_unit_square_has_one_diagonal(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        indptr, indices, degenerate = delaunay_adjacency(pts)
        assert not degenerate
        edges = edges_of(indptr, indices)
        sides = {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert sides <= edges
        diagonals = edges - sides
        assert len(diagonals) == 1
        assert diagonals <= {(0, 2), (1, 3)}

    def test_matches_empty_circumcircle_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            pts = rng.uniform(0, 10, size=(9, 2))
            indptr, indices, degenerate = delaunay_adjacency(pts)
            assert not degenerate
            assert edges_of(indptr, indices) == brute_force_delaunay_edges(pts)

    def test_symmetry(self):
        pts = sample_ppp(LAMBDA, HALF, RngStream(6).generator())
        indptr, indices, _ = delaunay_adjacency(pts)
        edges = edges_of(indptr, indices)
        for i in range(len(pts)):
            for j in neighbours(indptr, indices, i):
                assert (min(i, int(j)), max(i, int(j))) in edges
                assert i in neighbours(indptr, indices, int(j))

    def test_jittered_grid_mean_degree(self):
        # interior vertices of a planar triangulation average ~6 neighbours
        rng = np.random.default_rng(33)
        g = np.arange(20, dtype=float)
        xx, yy = np.meshgrid(g, g)
        pts = np.column_stack([xx.ravel(), yy.ravel()]) + rng.uniform(-0.3, 0.3, (400, 2))
        indptr, _, _ = delaunay_adjacency(pts)
        interior = [
            i for i, p in enumerate(pts) if 3 < p[0] < 16 and 3 < p[1] < 16
        ]
        mean_degree = np.mean(np.diff(indptr)[interior])
        assert 5.6 < mean_degree < 6.4

    def test_degenerate_two_points(self):
        indptr, indices, degenerate = delaunay_adjacency(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert degenerate
        assert edges_of(indptr, indices) == {(0, 1)}

    def test_degenerate_collinear(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        indptr, indices, degenerate = delaunay_adjacency(pts)
        assert degenerate
        assert len(edges_of(indptr, indices)) == 6  # complete graph on 4 vertices
        assert list(np.diff(indptr)) == [3, 3, 3, 3]


class TestPairing:
    def test_two_points_pair_up(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        indptr, indices, _ = delaunay_adjacency(pts)
        pairs, unpaired = pair_bs(pts, indptr, indices, RngStream(7).generator())
        assert len(pairs) == 1 and len(unpaired) == 0

    def test_three_mutual_neighbours_any_order(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
        indptr, indices, _ = delaunay_adjacency(pts)
        for seed in range(24):
            pairs, unpaired = pair_bs(pts, indptr, indices, RngStream(seed).generator())
            assert len(pairs) == 1
            assert len(unpaired) == 1

    @pytest.mark.slow
    def test_partition_and_edge_membership(self):
        for seed in range(1000):
            pts = sample_ppp(LAMBDA, HALF, RngStream(40, seed).generator())
            indptr, indices, _ = delaunay_adjacency(pts)
            pairs, unpaired = pair_bs(pts, indptr, indices, RngStream(41, seed).generator())
            edge_set = edges_of(indptr, indices)
            touched = set(unpaired.tolist())
            for i, j in pairs.tolist():
                assert (min(i, j), max(i, j)) in edge_set
                assert i not in touched and j not in touched
                touched.update((i, j))
            assert touched == set(range(len(pts)))

    @pytest.mark.slow
    def test_matched_fraction_band(self):
        fracs = []
        for seed in range(1000):
            pts = sample_ppp(LAMBDA, HALF, RngStream(42, seed).generator())
            indptr, indices, _ = delaunay_adjacency(pts)
            pairs, unpaired = pair_bs(pts, indptr, indices, RngStream(43, seed).generator())
            fracs.append(2 * len(pairs) / len(pts))
        assert all(0.6 < f <= 1.0 for f in fracs)

    def test_tie_break_prefers_lower_index(self):
        # visited station 0 sees stations 1 and 2 at exactly equal distance
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
        indptr, indices = csr([np.array([1, 2, 3]), np.array([0]), np.array([0]), np.array([0])])
        for seed in range(16):
            gen = RngStream(seed).generator()
            first = gen.permutation(4)[0]
            if first != 0:
                continue
            pairs, _ = pair_bs(pts, indptr, indices, RngStream(seed).generator())
            assert (0, 1) in [(min(i, j), max(i, j)) for i, j in pairs.tolist()]

    @staticmethod
    def _assert_matches_reference(pts, indptr, indices, seed):
        pairs, unpaired = pair_bs(pts, indptr, indices, np.random.default_rng(seed))
        ref_pairs, ref_unpaired = reference_pair_bs(
            pts, adjacency_lists(indptr, indices), np.random.default_rng(seed)
        )
        assert pairs.shape == (len(ref_pairs), 2)
        assert [tuple(p) for p in pairs.tolist()] == ref_pairs
        assert unpaired.tolist() == ref_unpaired

    def test_matches_list_reference_on_ppp(self):
        for seed in range(250):
            gen = RngStream(44, seed).generator()
            pts = sample_ppp(LAMBDA, HALF, gen)
            indptr, indices, _ = delaunay_adjacency(pts)
            self._assert_matches_reference(pts, indptr, indices, seed)

    def test_matches_list_reference_on_ties(self):
        # a square lattice: every station sees its axis neighbours at equal
        # distance, so the tie rule decides most matches
        g = np.arange(6, dtype=float)
        xx, yy = np.meshgrid(g, g)
        lattice = np.column_stack([xx.ravel(), yy.ravel()])
        star = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
        star_csr = csr([np.array([1, 2, 3]), np.array([0]), np.array([0]), np.array([0])])
        for seed in range(40):
            self._assert_matches_reference(lattice, *delaunay_adjacency(lattice)[:2], seed)
            self._assert_matches_reference(star, *star_csr, seed)
        collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        for seed in range(16):
            self._assert_matches_reference(collinear, *delaunay_adjacency(collinear)[:2], seed)


class TestAssignDirections:
    def _deployment(self, seed, scheme="duda", typical_mode="dl"):
        dep, _ = deploy(
            LAMBDA, 0.5, HALF, RngStream(seed), scheme=scheme, typical_mode=typical_mode
        )
        return dep

    def test_direction_fraction(self):
        dl = total = 0
        for seed in range(150):
            dep = self._deployment(seed)
            mask = np.arange(len(dep.units)) != dep.probe_units[0]
            dl += int(dep.active_dl[mask].sum())
            total += int(mask.sum())
        se = math.sqrt(0.25 / total)
        assert abs(dl / total - 0.5) < 3 * se

    def test_delta_near_one_all_downlink(self):
        pts = sample_ppp(LAMBDA, HALF, RngStream(50).generator())
        indptr, indices, _ = delaunay_adjacency(pts)
        pairs, unpaired = pair_bs(pts, indptr, indices, RngStream(51).generator())
        [(units, active_dl, _, _)] = assign_directions_and_ues(
            [(pairs, unpaired)], pts, 1.0 - 1e-12, RngStream(52).generator(),
            window_half_width=HALF,
        )
        assert len(units) == len(pairs) + len(unpaired)
        assert active_dl.all()

    def test_rejects_bad_delta(self):
        pts = sample_ppp(LAMBDA, HALF, RngStream(53).generator())
        indptr, indices, _ = delaunay_adjacency(pts)
        pairs, unpaired = pair_bs(pts, indptr, indices, RngStream(54).generator())
        for delta in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                assign_directions_and_ues(
                    [(pairs, unpaired)], pts, delta, RngStream(55).generator(),
                    window_half_width=HALF,
                )

    def test_rejects_stations_without_a_cell_or_group(self):
        # a duplicated station, or one outside the window, leaves a terminal
        # region of zero area that rejection sampling would never hit
        pts = np.array([[0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        outside = np.array([[0.0, 0.0], [5.0, 5.0], [20.0, 0.0]])
        for points in (pts, outside):
            with pytest.raises(ValueError, match="distinct points inside the window"):
                assign_directions_and_ues(
                    [(np.empty((0, 2), dtype=int), np.arange(3))], points, 0.5,
                    RngStream(56).generator(), window_half_width=15.0,
                )
        with pytest.raises(ValueError, match="partition the stations"):
            assign_directions_and_ues(
                [(np.empty((0, 2), dtype=int), np.arange(2))], outside * 0.5, 0.5,
                RngStream(56).generator(), window_half_width=15.0,
            )

    @pytest.mark.parametrize("unpaired", [[0, 1, 2, 3], [2, 3, 3], [2, 4]],
                             ids=["overlap", "duplicate", "past_n"])
    def test_rejects_pairs_and_unpaired_that_do_not_partition(self, unpaired):
        # the duplicate once made a unit with no station, whose region has no
        # area, and placement never ended; the overlap puts stations 0 and 1
        # in two units each
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
        with pytest.raises(ValueError, match="partition the stations"):
            assign_directions_and_ues(
                [(np.array([[0, 1]]), np.array(unpaired))], pts, 0.5,
                RngStream(57).generator(), window_half_width=15.0,
            )

    @pytest.mark.parametrize("kwargs, message", [
        ({"scheme": "dcda"}, "scheme must be"),
        ({"typical_mode": "both"}, "typical_mode must be"),
    ])
    def test_generate_rejects_unknown_scheme_or_mode(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            deploy(LAMBDA, 0.5, HALF, RngStream(59), **kwargs)

    def test_pair_orientation_follows_terminal(self):
        # the probe's unit too: its terminal orients it as an interferer
        for seed in range(40):
            dep = self._deployment(seed)
            for g, (ul, dl) in enumerate(dep.units):
                u = dep.ues[g]
                d_ul = np.linalg.norm(dep.bs_positions[ul] - u)
                d_dl = np.linalg.norm(dep.bs_positions[dl] - u)
                assert d_ul <= d_dl

    def test_terminals_inside_their_cells(self):
        dep = self._deployment(60)
        pts = dep.bs_positions
        for g, (i, j) in enumerate(dep.units):
            u = dep.ues[g]
            d2 = np.sum((pts - u) ** 2, axis=1)
            # an unmatched station's row is (i, i): its own cell
            assert int(np.argmin(d2)) in (i, j)

    def test_typical_dl_mode_anchoring(self):
        dep = self._deployment(61, typical_mode="dl")
        assert np.array_equal(dep.probe_ues, np.zeros((1, 2)))
        assert np.array_equal(dep.anchors, np.zeros((1, 2)))
        d = np.linalg.norm(dep.bs_positions, axis=1)
        assert dep.probe_bs.tolist() == [int(np.argmin(d))]
        assert dep.probe_bs[0] in dep.units[dep.probe_units[0]]
        assert dep.units[dep.probe_units[0], 0] != dep.units[dep.probe_units[0], 1]

    def test_typical_ul_mode_anchoring(self):
        dep = self._deployment(62, typical_mode="ul")
        assert dep.probe_bs.tolist() == [0]
        assert np.array_equal(dep.bs_positions[0], ORIGIN)
        assert np.array_equal(dep.anchors, np.zeros((1, 2)))

    def test_duca_mode_no_pairs(self):
        dep = self._deployment(63, scheme="duca")
        assert np.array_equal(dep.units[:, 0], np.arange(len(dep.bs_positions)))
        assert np.array_equal(dep.units[:, 1], dep.units[:, 0])

    @pytest.mark.slow
    def test_ul_mode_link_distance_is_rayleigh(self):
        dists = []
        for seed in range(2000):
            dep, _ = deploy(
                LAMBDA, 0.5, HALF, RngStream(70, seed), typical_mode="ul"
            )
            dists.append(np.linalg.norm(dep.probe_ues[0] - dep.bs_positions[dep.probe_bs[0]]))
        p = sps.kstest(dists, lambda r: nearest_distance_cdf(r, LAMBDA)).pvalue
        assert p > 0.01

    @pytest.mark.slow
    def test_dl_mode_link_distance_is_rayleigh(self):
        dists = []
        for seed in range(2000):
            dep, _ = deploy(
                LAMBDA, 0.5, HALF, RngStream(71, seed), typical_mode="dl"
            )
            dists.append(np.linalg.norm(dep.bs_positions[dep.probe_bs[0]]))
        p = sps.kstest(dists, lambda r: nearest_distance_cdf(r, LAMBDA)).pvalue
        assert p > 0.01


class TestGuardedDeployment:
    """The campaigns' draws: stations in the window widened by the guard
    h = HALF / 2, probes in the central square of half-width h."""

    GUARD = HALF / 2

    @pytest.mark.parametrize("mode", ["dl", "ul"])
    def test_probes_and_their_units(self, mode):
        dropped = 0
        for seed in range(20):
            both = generate_deployment(LAMBDA, 0.5, HALF, RngStream(96, seed),
                                       ("duda", "duca"), mode, guarded=True)
            duda, duca = both["duda"], both["duca"]
            assert isinstance(duda, Deployment) and isinstance(duca, Deployment)
            pts = duca.bs_positions
            assert np.array_equal(duda.bs_positions, pts)
            assert np.abs(pts).max() <= HALF + self.GUARD
            assert np.abs(pts).max() > HALF  # the guard is sampled
            if mode == "dl":
                # round(lambda_b (2h)^2) uniform terminals, each served by its
                # nearest station and anchored at itself
                assert len(duca.probe_bs) == round(LAMBDA * (2 * self.GUARD) ** 2)
                assert np.abs(duca.probe_ues).max() <= self.GUARD
                d2 = ((duca.probe_ues[:, None] - pts) ** 2).sum(axis=2)
                assert np.array_equal(duca.probe_bs, d2.argmin(axis=1))
                assert np.array_equal(duca.anchors, duca.probe_ues)
            else:
                # every station of the central square, anchored at itself
                inner = np.flatnonzero((np.abs(pts) <= self.GUARD).all(axis=1))
                assert np.array_equal(duca.probe_bs, inner)
                assert np.array_equal(duca.anchors, pts[inner])
            for dep in (duda, duca):
                assert dep.mask_half_width == HALF
                assert (dep.units[dep.probe_units] == dep.probe_bs[:, None]).any(axis=1).all()
            # duda keeps exactly the probes whose station it matched
            paired = duda.units[:, 0] != duda.units[:, 1]
            matched = np.isin(duca.probe_bs, duda.units[paired])
            assert np.array_equal(duda.probe_bs, duca.probe_bs[matched])
            assert np.array_equal(duda.probe_ues, duca.probe_ues[matched])
            dropped += len(matched) - matched.sum()
        assert dropped > 0

    @pytest.mark.parametrize("mode", ["dl", "ul"])
    def test_each_scheme_alone_as_in_company(self, mode):
        for seed in range(5):
            stream = RngStream(97, seed)
            both = generate_deployment(LAMBDA, 0.5, HALF, stream, ("duda", "duca"), mode,
                                       guarded=True)
            for scheme in ("duda", "duca"):
                alone = deploy_guarded(LAMBDA, 0.5, HALF, stream, scheme, mode)
                assert isinstance(alone, Deployment)
                for name, value in vars(alone).items():
                    assert np.array_equal(value, getattr(both[scheme], name)), name


class CountingGenerator:
    """Forwards ``uniform`` to a Generator and counts the calls."""

    def __init__(self, gen):
        self.gen = gen
        self.calls = 0

    def uniform(self, *args, **kwargs):
        self.calls += 1
        return self.gen.uniform(*args, **kwargs)


def chi_square_uniform(u, corner, side, k):
    """Chi-square statistic and degrees of freedom of points u against the
    uniform law on the square of the given lower-left corner and side, cut
    into k x k equal sub-squares; every point must lie in the square."""
    assert np.all((u >= corner) & (u <= corner + side))
    idx = np.minimum(((u - corner) / side * k).astype(int), k - 1)
    counts = np.bincount(idx[:, 0] * k + idx[:, 1], minlength=k * k)
    expected = len(u) / (k * k)
    return float(np.sum((counts - expected) ** 2) / expected), k * k - 1


class TestTerminalPlacement:
    # 3 x 3 stations at spacing 10 in the window [-15, 15]^2: every Voronoi
    # cell is an exact 10 x 10 square
    GRID = np.array([[x, y] for x in (-10.0, 0.0, 10.0) for y in (-10.0, 0.0, 10.0)])
    # four stations at 0.3 m around the origin cut its cell down to the
    # square [-0.15, 0.15]^2 (0.09 m^2); the grid's outer eight ring them
    TINY = np.vstack([
        [[0.0, 0.0], [0.3, 0.0], [-0.3, 0.0], [0.0, 0.3], [0.0, -0.3]],
        GRID[np.any(GRID != 0.0, axis=1)],
    ])

    def test_terminals_uniform_in_square_cells(self):
        # stations 0 and 1 share an edge and form a pair (a 10 x 20 region);
        # the other seven are singles
        group_of_bs = np.array([0, 0, 1, 2, 3, 4, 5, 6, 7])
        gen = np.random.default_rng(2024)
        ues = np.array([
            _uniform_in_groups(self.GRID, [(group_of_bs, np.ones(8, dtype=bool))], 15.0, gen)[0]
            for _ in range(4000)
        ])
        stat, dof = 0.0, 0
        for g in range(8):
            members = np.flatnonzero(group_of_bs == g)
            u = ues[:, g]
            if len(members) == 1:
                s, d = chi_square_uniform(u, self.GRID[members[0]] - 5.0, 10.0, 5)
            else:  # the pair's two squares, each hit with probability 1/2
                lower = u[:, 1] < self.GRID[members, 1].mean()
                s1, d1 = chi_square_uniform(u[lower], self.GRID[members[0]] - 5.0, 10.0, 5)
                s2, d2 = chi_square_uniform(u[~lower], self.GRID[members[1]] - 5.0, 10.0, 5)
                n = len(u)
                s, d = s1 + s2 + (2.0 * lower.sum() - n) ** 2 / n, d1 + d2 + 1
            stat, dof = stat + s, dof + d
        assert sps.chi2.sf(stat, dof) > 1e-3

    def test_tiny_cell_needs_many_batches_and_stays_uniform(self):
        # a 512-candidate batch on the 900 m^2 window hits the 0.09 m^2 cell
        # with probability 1 - exp(-0.0512) ~ 0.05
        points = self.TINY
        group_of_bs = np.arange(len(points))
        gen = CountingGenerator(np.random.default_rng(7))
        n = 800
        every = np.ones(len(points), dtype=bool)
        ues = np.array([
            _uniform_in_groups(points, [(group_of_bs, every)], 15.0, gen)[0][0] for _ in range(n)
        ])
        # the loop must outlast a 12-batch cap for most of these placements
        assert gen.calls / n > 12
        stat, dof = chi_square_uniform(ues, np.array([-0.15, -0.15]), 0.3, 3)
        assert sps.chi2.sf(stat, dof) > 1e-3

    @staticmethod
    def _groups(points, scheme, gen):
        """Terminal groups as ``assign_directions_and_ues`` numbers them: one
        per pair, then one per unmatched station."""
        if scheme == "duda":
            indptr, indices, _ = delaunay_adjacency(points)
            pairs, unpaired = pair_bs(points, indptr, indices, gen)
        else:
            pairs, unpaired = np.empty((0, 2), dtype=int), np.arange(len(points))
        group_of_bs = np.empty(len(points), dtype=int)
        group_of_bs[pairs[:, 0]] = group_of_bs[pairs[:, 1]] = np.arange(len(pairs))
        group_of_bs[unpaired] = np.arange(len(pairs), len(pairs) + len(unpaired))
        return group_of_bs, len(pairs) + len(unpaired)

    @staticmethod
    def _assert_matches_reference(points, group_of_bs, masks, half, gen, other=None):
        """Placement from the generator's state, seeking the groups of each
        mask in turn, against the reference from the same state; then all
        masks, and the (group_of_bs, need) grouping ``other`` if given, in
        one call, as the generator seeks the groups of every scheme that
        takes a draw."""
        n_groups = len(masks[0])
        want = reference_uniform_in_groups(points, group_of_bs, n_groups, half, copy.deepcopy(gen))
        groupings = [(group_of_bs, need) for need in masks]
        checks = [(need, want) for need in masks]
        if other is not None:
            groupings.append(other)
            checks.append((other[1], reference_uniform_in_groups(
                points, other[0], len(other[1]), half, copy.deepcopy(gen))))
        joint = _uniform_in_groups(points, groupings, half, copy.deepcopy(gen))
        alone = [_uniform_in_groups(points, [g], half, copy.deepcopy(gen))[0]
                 for g in groupings[:len(masks)]]
        assert len(joint) == len(groupings)
        for got, (need, ref) in [*zip(alone, checks), *zip(joint, checks)]:
            assert np.array_equal(got[need], ref[need])
            assert np.isnan(got[~need]).all()

    @pytest.mark.parametrize("scheme", ["duda", "duca"])
    def test_matches_reference_placement(self, scheme):
        # the screened loop keeps the unscreened loop's first hits exactly,
        # both for every group but the probe's (as the generator seeks them)
        # and for random subsets of the groups, alone and in one call with
        # the other scheme's groups
        other = "duca" if scheme == "duda" else "duda"
        masks = np.random.default_rng(47)
        for lam, count in ((LAMBDA, 300), (0.04, 40)):
            for mode in ("dl", "ul"):
                for i in range(count):
                    gen = RngStream(46, i).generator(int(lam * 1e4))
                    pts = sample_ppp(lam, HALF, gen)
                    if mode == "ul":
                        pts = np.vstack([np.zeros((1, 2)), pts])
                    if len(pts) < 2:
                        continue
                    other_groups, other_n = self._groups(pts, other, copy.deepcopy(gen))
                    group_of_bs, n_groups = self._groups(pts, scheme, gen)
                    probe_bs = np.argmin(np.linalg.norm(pts, axis=1))
                    need = np.arange(n_groups) != group_of_bs[probe_bs]
                    other_need = np.arange(other_n) != other_groups[probe_bs]
                    subset = masks.random(n_groups) < masks.uniform(0.1, 0.9)
                    self._assert_matches_reference(
                        pts, group_of_bs, (need, subset), HALF, gen, (other_groups, other_need)
                    )
        # the 3 x 3 grid (stations 0 and 1 paired for duda) with the other
        # scheme's groups, and the tiny cell
        paired = np.array([0, 0, 1, 2, 3, 4, 5, 6, 7])
        grid, grid_other = (paired, np.arange(9)) if scheme == "duda" else (np.arange(9), paired)
        other_need = np.ones(int(grid_other.max()) + 1, dtype=bool)
        for points, group_of_bs, other in ((self.GRID, grid, (grid_other, other_need)),
                                           (self.TINY, np.arange(13), None)):
            n_groups = int(group_of_bs.max()) + 1
            for seed in range(100):
                gen = np.random.default_rng(seed)
                every = np.ones(n_groups, dtype=bool)
                subset = masks.random(n_groups) < 0.5
                self._assert_matches_reference(
                    points, group_of_bs, (every, subset), 15.0, gen, other
                )


class TestReproducibilityAndExport:
    def test_bit_identical_realizations(self):
        a, ra = deploy(LAMBDA, 0.5, HALF, RngStream(90, 7))
        b, rb = deploy(LAMBDA, 0.5, HALF, RngStream(90, 7))
        assert ra == rb
        assert np.array_equal(a.bs_positions, b.bs_positions)
        assert np.array_equal(a.units, b.units)
        assert np.array_equal(a.ues, b.ues)
        assert np.array_equal(a.active_dl, b.active_dl)
        for name in ("probe_bs", "probe_units", "probe_ues", "anchors"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert snapshot_csv(a) == snapshot_csv(b)

    def test_distinct_streams_differ(self):
        a, _ = deploy(LAMBDA, 0.5, HALF, RngStream(90, 7))
        b, _ = deploy(LAMBDA, 0.5, HALF, RngStream(90, 8))
        assert not np.array_equal(a.bs_positions, b.bs_positions)

    def test_resample_rate_reported(self):
        total = 0
        for seed in range(200):
            _, rs = deploy(LAMBDA, 0.5, HALF, RngStream(91, seed))
            total += rs
        # unmatched-probe rate is around 5-10%, never pathological
        assert 0 < total < 60

    @pytest.mark.parametrize("scheme", ["duda", "duca"])
    def test_too_few_stations_named_as_the_cause(self, scheme):
        # a 1 m window holds 0.005 stations on average: every draw is unusable
        msg = (r"no usable realization in 65 draws: 65 had fewer than 2 base stations "
               r"\(expected lambda_b\*side\^2 = 0\.005 per window\)")
        with pytest.raises(RuntimeError, match=msg):
            deploy(LAMBDA, 0.5, 0.5, RngStream(93), scheme=scheme)

    def test_no_realization_message_counts_each_reason(self):
        # the reasons generate_deployment returns, in any order
        err = NoRealizationError(["empty", "sparse", "unmatched", "empty"], 0.005, 10.0)
        assert str(err) == (
            "no usable realization in 4 draws: 1 had fewer than 2 base stations (expected "
            "lambda_b*side^2 = 2 per window), 2 had no station in the probe square and 1 "
            "left the typical BS unmatched")

    def test_snapshot_schema(self):
        dep, _ = deploy(LAMBDA, 0.5, HALF, RngStream(92))
        text = snapshot_csv(dep)
        lines = text.strip().split("\n")
        assert lines[0] == "x,y,role,pair_id"
        roles = {line.split(",")[2] for line in lines[1:]}
        assert "bs_typical_ul" in roles and "bs_typical_dl" in roles
        assert "ue_typical" in roles
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 4
            float(cells[0]), float(cells[1]), int(cells[3])

    @pytest.mark.parametrize("mode", ["dl", "ul"])
    @pytest.mark.parametrize("scheme", ["duda", "duca"])
    def test_snapshot_rows_roles_and_pair_ids(self, scheme, mode):
        def xy(p):
            return f"{p[0]:.9g},{p[1]:.9g}"

        for seed in range(5):
            dep, _ = deploy(LAMBDA, 0.5, HALF, RngStream(94, seed), scheme, mode)
            rows = [line.rsplit(",", 2) for line in snapshot_csv(dep).splitlines()[1:]]
            assert len(rows) == len(dep.bs_positions) + len(dep.units)
            # every station exactly once, and one terminal per unit
            stations = {pos: (role, int(pid)) for pos, role, pid in rows if role.startswith("bs")}
            terminals = {pos: (role, int(pid)) for pos, role, pid in rows if role.startswith("ue")}
            assert sorted(stations) == sorted(xy(p) for p in dep.bs_positions)
            assert len(terminals) == len(dep.units)
            # pair members and their terminal share the pair's id; singles -1
            for g, (i, j) in enumerate(dep.units.tolist()):
                pid = g if i != j else -1
                ue = dep.probe_ues[0] if g == dep.probe_units[0] else dep.ues[g]
                assert stations[xy(dep.bs_positions[i])][1] == pid
                assert stations[xy(dep.bs_positions[j])][1] == pid
                assert terminals[xy(ue)][1] == pid
            # each typical role once, at the probe's stations and terminal
            roles = [role for _, role, _ in rows]
            probe, ul_bs = dep.probe_units[0], dep.probe_bs[0]
            dl_bs = dep.units[probe].sum() - ul_bs
            assert roles.count("bs_typical_ul") == roles.count("ue_typical") == 1
            assert stations[xy(dep.bs_positions[ul_bs])][0] == "bs_typical_ul"
            assert terminals[xy(dep.probe_ues[0])][0] == "ue_typical"
            if scheme == "duda":
                assert roles.count("bs_typical_dl") == 1
                assert stations[xy(dep.bs_positions[dl_bs])] == ("bs_typical_dl", probe)
            else:
                assert "bs_typical_dl" not in roles
                assert stations[xy(dep.bs_positions[ul_bs])] == ("bs_typical_ul", -1)
            # the probe's anchor at the origin
            anchor = "bs_typical_ul" if mode == "ul" else "ue_typical"
            assert [pos for pos, role, _ in rows if role == anchor] == ["0,0"]
