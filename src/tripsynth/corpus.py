"""Deterministic synthetic trip corpora with planted, recoverable structure.

The corpus lives on a square grid of zones whose shared cell borders are the
roads. Each traveller type gets a daily leg pattern (chained tours, one-way
pass-throughs) with planted departure windows, zone popularity follows a
power law, and route choice between the two L-shaped grid routes uses a
fixed split. Everything derives from one seed, so the same spec always
yields byte-identical tables.

The default slot grid is six four-hour blocks and each leg's windows sit
inside its own block, one block per leg. That layout keeps daily patterns
inside the slot structure the day actually has room for, so the corpus is a
pattern a sequential day-filling process can reproduce rather than one that
forces late spillover.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .model import (
    TimeSlotPartition,
    TravellerType,
    TripRecord,
    Zone,
)

_ID_PREFIX = {
    TravellerType.COMMUTER: "CM",
    TravellerType.STABLE: "ST",
    TravellerType.RANDOM: "RD",
    TravellerType.HIGH_FREQ: "HF",
    TravellerType.PASSBY: "PB",
}

# Slot grid the corpus is designed around: six four-hour blocks.
CORPUS_SLOT_STARTS = (1, 241, 481, 721, 961, 1201)

ROUTE_SPLIT = 0.7  # probability of the row-first grid route
ZIPF_EXPONENT = 1.2  # zone popularity decay

# Planted departure windows, one {(lo_minute, hi_minute): weight} dict per
# daily leg. Windows are inclusive 1-based minute ranges; minutes are drawn
# uniformly inside the chosen window.
LEG_WINDOWS = {
    TravellerType.COMMUTER: (
        {(361, 420): 0.25, (421, 480): 0.75},    # 06:00-08:00
        # Mostly 16:00-19:00, with a late-return tail past 20:00.
        {(961, 1020): 0.15, (1021, 1080): 0.45, (1081, 1140): 0.25,
         (1141, 1200): 0.05, (1211, 1290): 0.1},
    ),
    TravellerType.STABLE: (
        {(541, 600): 0.5, (601, 660): 0.5},      # 09:00-11:00
        # Mostly 14:00-16:00, with spill both before noon and after 16:00.
        {(661, 720): 0.15, (841, 900): 0.25, (901, 960): 0.4,
         (961, 1050): 0.14, (1051, 1200): 0.04, (1211, 1320): 0.02},
    ),
    TravellerType.RANDOM: (
        {(541, 660): 0.7, (661, 720): 0.3},      # 09:00-12:00
        {(781, 900): 0.6, (901, 960): 0.4},      # 13:00-16:00
        # 17:00-20:00 with an after-20:00 tail.
        {(1021, 1140): 0.6, (1141, 1200): 0.25, (1211, 1320): 0.15},
    ),
    TravellerType.HIGH_FREQ: (
        # The tour runs morning-heavy: each later leg keeps some mass in the
        # tail of the previous block, thinning toward the evening.
        {(541, 630): 0.7, (631, 720): 0.3},        # 09:00-12:00
        {(661, 720): 0.48, (751, 870): 0.52},      # 11:00-12:00 / 12:30-14:30
        {(871, 960): 0.45, (991, 1110): 0.55},     # 14:30-16:00 / 16:30-18:30
        {(1111, 1200): 0.31, (1211, 1330): 0.69},  # 18:30-20:00 / 20:10-22:10
    ),
    TravellerType.PASSBY: (
        {(631, 720): 0.4, (721, 840): 0.6},      # 10:30-14:00
    ),
}

_DESK_INDIVIDUALS = (
    (TravellerType.COMMUTER, 200),
    (TravellerType.STABLE, 150),
    (TravellerType.RANDOM, 250),
    (TravellerType.HIGH_FREQ, 300),
    (TravellerType.PASSBY, 100),
)


@dataclass
class CorpusSpec:
    """Size and seed of one synthetic corpus; defaults are the desk-scale
    fixture (about a thousand individuals on a 7x7 grid over one week).
    Route split and zone popularity are the constants ROUTE_SPLIT and
    ZIPF_EXPONENT."""

    grid_side: int = 7
    days: int = 7
    rng_seed: int = 7
    individuals: tuple = _DESK_INDIVIDUALS


@dataclass(frozen=True)
class PlantedIndividual:
    """Ground truth for one synthetic individual."""

    traveller_id: str
    ttype: TravellerType
    home: str
    anchors: tuple
    od_support: frozenset


@dataclass
class SynthCorpus:
    """A generated corpus plus everything needed to check it."""

    spec: CorpusSpec
    trips: list
    zones: list
    network: tuple  # sorted (road, neighbor) edges
    planted: dict
    partition: TimeSlotPartition


def _zone_id(index: int, side: int) -> str:
    pad = len(str(side * side))
    return f"Z{index + 1:0{pad}d}"


def _road_id(cell_a: int, cell_b: int, side: int) -> str:
    pad = len(str(side * side))
    a, b = sorted((cell_a, cell_b))
    return f"R{a + 1:0{pad}d}_{b + 1:0{pad}d}"


def _grid_zones(side: int) -> list:
    zones = []
    for idx in range(side * side):
        r, c = divmod(idx, side)
        roads = set()
        for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < side and 0 <= cc < side:
                roads.add(_road_id(idx, rr * side + cc, side))
        zones.append(
            Zone(
                zone_id=_zone_id(idx, side),
                longitude=round(118.0 + c * 0.01, 6),
                latitude=round(30.9 + r * 0.01, 6),
                roads=frozenset(roads),
            )
        )
    return zones


def _grid_network(side: int) -> tuple:
    """Sorted (road, neighbor) edges: roads sharing a grid cell are mutually
    adjacent (both directions)."""
    edges = set()
    for idx in range(side * side):
        r, c = divmod(idx, side)
        here = []
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < side and 0 <= cc < side:
                here.append(_road_id(idx, rr * side + cc, side))
        edges.update((road, peer) for road in here for peer in here if peer != road)
    return tuple(sorted(edges))


def _cells_between(side: int, o_idx: int, d_idx: int, row_first: bool) -> list:
    """L-shaped cell walk from origin to destination cell."""
    r0, c0 = divmod(o_idx, side)
    r1, c1 = divmod(d_idx, side)
    cells = [(r0, c0)]

    def walk_cols(r, c):
        step = 1 if c1 > c else -1
        while c != c1:
            c += step
            cells.append((r, c))
        return c

    def walk_rows(r, c):
        step = 1 if r1 > r else -1
        while r != r1:
            r += step
            cells.append((r, c))
        return r

    if row_first:
        c_mid = walk_cols(r0, c0)
        walk_rows(r0, c_mid)
    else:
        r_mid = walk_rows(r0, c0)
        walk_cols(r_mid, c0)
    return [r * side + c for r, c in cells]


def _route(side: int, o_idx: int, d_idx: int, row_first: bool) -> tuple:
    cells = _cells_between(side, o_idx, d_idx, row_first)
    return tuple(_road_id(a, b, side) for a, b in zip(cells, cells[1:]))


def _pick(rng: random.Random, mixture: dict):
    items = sorted(mixture.items())
    return rng.choices([k for k, _ in items], weights=[w for _, w in items])[0]


def _draw_distinct(rng: random.Random, items, weights, k: int) -> list:
    pool = list(items)
    w = list(weights)
    out = []
    for _ in range(k):
        choice = rng.choices(range(len(pool)), weights=w)[0]
        out.append(pool.pop(choice))
        w.pop(choice)
    return out


def _day_legs(rng: random.Random, planted: PlantedIndividual) -> list:
    """(origin, destination) pairs for one day, in leg order."""
    home, anchors = planted.home, planted.anchors
    t = planted.ttype
    if t in (TravellerType.COMMUTER, TravellerType.STABLE):
        return [(home, anchors[0]), (anchors[0], home)]
    if t is TravellerType.HIGH_FREQ:
        # A fixed daily tour: every zone on it has exactly one departing leg,
        # so the origin-conditioned preference pins which leg comes next.
        a, b, c = anchors[0], anchors[1], anchors[2]
        return [(home, a), (a, b), (b, c), (c, home)]
    if t is TravellerType.RANDOM:
        x, y = _draw_distinct(rng, list(anchors), [1.0] * len(anchors), 2)
        return [(home, x), (x, y), (y, home)]
    if t is TravellerType.PASSBY:
        exit_zone = anchors[rng.randrange(len(anchors))]
        return [(home, exit_zone)]
    raise AssertionError(t)


def _plant_individuals(rng: random.Random, spec: CorpusSpec) -> dict:
    side = spec.grid_side
    n_zones = side * side
    zone_ids = [_zone_id(i, side) for i in range(n_zones)]
    zipf = [1.0 / (i + 1) ** ZIPF_EXPONENT for i in range(n_zones)]
    west = [r * side for r in range(side)]
    east = [r * side + side - 1 for r in range(side)]
    row_zipf = [1.0 / (i + 1) ** ZIPF_EXPONENT for i in range(side)]

    planted = {}
    for ttype, count in spec.individuals:
        prefix = _ID_PREFIX[ttype]
        for i in range(count):
            tid = f"{prefix}{i + 1:04d}"
            if ttype is TravellerType.PASSBY:
                entry = west[rng.choices(range(side), weights=row_zipf)[0]]
                exits = _draw_distinct(rng, east, row_zipf, 2)
                home = zone_ids[entry]
                anchors = tuple(zone_ids[e] for e in exits)
                support = frozenset((home, a) for a in anchors)
            else:
                n_anchors = {
                    TravellerType.COMMUTER: 1,
                    TravellerType.STABLE: 1,
                    TravellerType.HIGH_FREQ: 3,
                    TravellerType.RANDOM: 4,
                }[ttype]
                cells = _draw_distinct(rng, range(n_zones), zipf, n_anchors + 1)
                home = zone_ids[cells[0]]
                anchors = tuple(zone_ids[c] for c in cells[1:])
                if ttype is TravellerType.HIGH_FREQ:
                    a, b, c = anchors
                    support = frozenset(((home, a), (a, b), (b, c), (c, home)))
                elif ttype is TravellerType.RANDOM:
                    support = frozenset(
                        {(home, a) for a in anchors}
                        | {(a, home) for a in anchors}
                        | {(a, b) for a in anchors for b in anchors if a != b}
                    )
                else:
                    support = frozenset(
                        pair
                        for a in anchors
                        for pair in ((home, a), (a, home))
                    )
            planted[tid] = PlantedIndividual(
                traveller_id=tid,
                ttype=ttype,
                home=home,
                anchors=anchors,
                od_support=support,
            )
    return planted


def synth_corpus(spec: CorpusSpec | None = None) -> SynthCorpus:
    """Build a corpus: zones, road network, and a planted trip history.

    Fully deterministic in the spec: types, individuals, days and legs
    are walked in a fixed order off a single RNG stream.
    """
    spec = spec or CorpusSpec()
    if spec.grid_side < 2:
        raise ValueError("grid_side must be >= 2")
    if spec.days < 1:
        raise ValueError("days must be >= 1")
    rng = random.Random(spec.rng_seed)
    side = spec.grid_side
    partition = TimeSlotPartition.from_boundaries(CORPUS_SLOT_STARTS)
    zones = _grid_zones(side)
    network = _grid_network(side)
    zone_index = {z.zone_id: i for i, z in enumerate(zones)}

    planted = _plant_individuals(rng, spec)
    # One path tuple per (origin, destination, row-first), shared by trips.
    routes = {}
    trips = []
    for tid in sorted(planted):
        ind = planted[tid]
        windows = LEG_WINDOWS[ind.ttype]
        for day in range(spec.days):
            legs = _day_legs(rng, ind)
            minutes = []
            for leg_ix in range(len(legs)):
                lo, hi = _pick(rng, windows[min(leg_ix, len(windows) - 1)])
                minutes.append(rng.randint(lo, hi))
            # Keep each day chronological even if windows overlap.
            minutes.sort()
            for i in range(1, len(minutes)):
                if minutes[i] <= minutes[i - 1]:
                    minutes[i] = min(minutes[i - 1] + 1, 1440)
            for (o_zone, d_zone), minute in zip(legs, minutes):
                key = o_zone, d_zone, rng.random() < ROUTE_SPLIT
                path = routes.get(key)
                if path is None:
                    path = routes[key] = _route(
                        side, zone_index[o_zone], zone_index[d_zone], key[2]
                    )
                duration = 9 * len(path) + rng.randint(0, 14)
                trips.append(
                    TripRecord(
                        traveller_id=tid,
                        traveller_type=ind.ttype,
                        date=day,
                        departure=minute,
                        o_zone=o_zone,
                        d_zone=d_zone,
                        path=path,
                        duration=duration,
                    )
                )
    return SynthCorpus(
        spec=spec,
        trips=trips,
        zones=zones,
        network=network,
        planted=planted,
        partition=partition,
    )
