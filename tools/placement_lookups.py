"""Count the kd-tree owner lookups of terminal placement, with and without
its local screen.

    PYTHONPATH=src python3 tools/placement_lookups.py [--lambda-b 0.005]
        [--seed 9] [--draws 300]

Draw r of ``RngStream(seed, r)``, for r < draws, is generated twice: as
``snapshot``'s one-probe draw for each scheme (every terminal placed), and
as a campaign's guarded draw serving both schemes (only the transmitting
terminals placed, "dl" typical mode).  A lookup is one candidate that
``_uniform_in_groups`` hands the kd-tree to find its cell; the screen's own
nearest-station queries are not counted.  "Without the screen" sets
``_SCREEN_STATIONS`` to 0, so the screen never starts.  Prints the mean
lookups per draw that places terminals (a draw that gives every scheme no
usable probe places none), for each kind.
"""

from __future__ import annotations

import argparse

import scipy.spatial

from dudasim import deployment
from dudasim.deployment import RngStream, generate_deployment

COUNTS = {"lookups": 0, "placements": 0}


class CountingTree(scipy.spatial.cKDTree):
    def query(self, x, k=1, **kwargs):
        if k == 1:
            COUNTS["lookups"] += len(x)
        return super().query(x, k=k, **kwargs)


def place_counted(*args, **kwargs):
    """``_uniform_in_groups`` with its kd-tree counting owner lookups."""
    COUNTS["placements"] += 1
    tree, scipy.spatial.cKDTree = scipy.spatial.cKDTree, CountingTree
    try:
        return PLACE(*args, **kwargs)
    finally:
        scipy.spatial.cKDTree = tree


PLACE = deployment._uniform_in_groups
deployment._uniform_in_groups = place_counted


def mean_lookups(lambda_b: float, seed: int, draws: int, schemes, guarded: bool) -> float:
    COUNTS.update(lookups=0, placements=0)
    for r in range(draws):
        generate_deployment(lambda_b, 0.5, 75.0, RngStream(seed, r), schemes,
                            all_terminals=not guarded, guarded=guarded)
    return COUNTS["lookups"] / COUNTS["placements"]


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--lambda-b", type=float, default=0.005)
    ap.add_argument("--seed", type=int, default=9)
    ap.add_argument("--draws", type=int, default=300)
    args = ap.parse_args(argv)
    kinds = [(f"snapshot one-probe draw, {s}", (s,), False) for s in ("duda", "duca")]
    kinds.append(("campaign guarded draw, both schemes", ("duda", "duca"), True))
    screen = deployment._SCREEN_STATIONS
    for name, schemes, guarded in kinds:
        counts = []
        for stations in (0, screen):
            deployment._SCREEN_STATIONS = stations
            counts.append(mean_lookups(args.lambda_b, args.seed, args.draws, schemes, guarded))
        print(f"{name}: {counts[0]:,.0f} lookups per draw without the screen, "
              f"{counts[1]:,.0f} with it")


if __name__ == "__main__":
    main()
