"""Enumeration oracles for the selection laws used in generation, the
slot shares the synthetic corpus plants, and per-metric oracles for the
validation report.

The oracles recompute each selection law arithmetically from the frozen
state. They intentionally repeat the maths, and the generator's weighting
constants, instead of importing the generator's factor helpers, so a bug
there cannot cancel out here, and tests can compare sampled frequencies
against independently derived exact values. Of the two ledgers they read
only the per-minute counts, and sum slot counts and totals from those.

The per-metric oracles compute each report metric from the trip list on
its own, one metric per scan; build_report computes them all from one scan.
They do their own grouping, ranking and entropy.
"""
import math
from collections import Counter, defaultdict

from tripsynth.corpus import CORPUS_SLOT_STARTS, LEG_WINDOWS
from tripsynth.model import TimeSlotPartition, TravellerType, TripRecord

# The generator's slot weights: reserved-slot scale, full-deficit feedback
# and preference floor.
KAPPA = 1e-9
BLOWUP = 1e9
EPSILON = 1e-6


def planted_slot_shares(ttype: TravellerType) -> dict:
    """Expected departure-slot shares implied by the planted leg windows.

    A window straddling a slot boundary contributes to each slot in
    proportion to the overlapping minute span.
    """
    partition = TimeSlotPartition(CORPUS_SLOT_STARTS)
    windows = LEG_WINDOWS[ttype]
    shares: dict = {}
    for window in windows:
        total = sum(window.values())
        for (lo, hi), w in window.items():
            span = hi - lo + 1
            for slot in partition:
                overlap = min(hi, slot.end) - max(lo, slot.start) + 1
                if overlap > 0:
                    shares[slot.slot_id] = (
                        shares.get(slot.slot_id, 0.0)
                        + (w / total) * (overlap / span) / len(windows)
                    )
    return shares


def oracle_slot_probabilities(
    partition: TimeSlotPartition,
    profile,
    current_zone: str,
    ledger,
    reference,
    minute: int,
    remaining: int,
) -> dict:
    """Exact slot-selection distribution over the slots still reachable at
    the clock `minute`: the slot under it and every later one."""
    ttype = profile.traveller_type
    ref_minutes = reference[ttype].minute
    ref_total = sum(ref_minutes)
    if ref_total <= 0:
        raise ValueError("reference aggregate is empty")
    gen_minutes = ledger.minute
    gen_total = sum(gen_minutes)

    first = None
    for slot in partition.slots:
        if slot.start <= minute <= slot.end:
            first = slot.slot_id
            break
    reachable = [s.slot_id for s in partition.slots if s.slot_id >= first]
    held = min(remaining - 1, len(reachable) - 1)
    active = set(reachable[: len(reachable) - held] if held > 0 else reachable)

    vf = profile.total_trips
    from_zone = profile.per_origin.get(current_zone, 0)

    weights = {}
    for slot in partition.slots:
        sid = slot.slot_id
        if sid < first:
            continue
        logic = 1.0 if sid in active else KAPPA
        span = slice(slot.start, slot.end + 1)
        gen_share = (sum(gen_minutes[span]) / gen_total) if gen_total else 0.0
        ref_share = sum(ref_minutes[span]) / ref_total
        x = gen_share - ref_share
        if x >= 0.0:
            feedback = max(0.0, 1.0 - x)
        else:
            feedback = BLOWUP ** min(-x, 1.0)
        slot_history = sum(profile.slot_origin_counts.get(sid, {}).values())
        pref = slot_history / vf
        if from_zone:
            origin_pref = (
                profile.slot_origin_counts.get(sid, {}).get(current_zone, 0)
                / from_zone
            )
        else:
            origin_pref = 0.0
        weights[sid] = logic * feedback * (pref * (1.0 + origin_pref) + EPSILON)

    total = sum(weights.values())
    if total <= 0:
        raise ValueError("all slot weights vanished")
    return {sid: w / total for sid, w in weights.items()}


def oracle_period_probabilities(
    slot,
    minute: int,
    ledger,
    reference,
    ttype: TravellerType,
    floor: float = 1e-12,
) -> dict:
    """Exact departure-minute distribution inside one chosen slot."""
    ref_minutes = reference[ttype].minute
    ref_total = sum(ref_minutes)
    if ref_total <= 0:
        raise ValueError("reference aggregate is empty")
    gen_minutes = ledger.minute
    gen_total = sum(gen_minutes)

    start = max(slot.start, minute)
    if start > slot.end:
        raise ValueError("slot has no selectable minutes")
    minutes = range(start, slot.end + 1)
    deltas = {}
    for m in minutes:
        ref_share = ref_minutes[m] / ref_total
        gen_share = (gen_minutes[m] / gen_total) if gen_total else 0.0
        deltas[m] = ref_share - gen_share
    if any(d > 0.0 for d in deltas.values()):
        weights = {m: max(0.0, d) for m, d in deltas.items()}
    else:
        weights = {m: 1.0 / max(abs(d), floor) for m, d in deltas.items()}
    total = sum(weights.values())
    return {m: w / total for m, w in weights.items()}


def oracle_destination_probabilities(profile, origin: str):
    """Exact destination distribution, applying the relocation rule.

    Returns (origin_used, {zone: probability}, relocated).
    """
    row = profile.od_counts.get(origin)
    relocated = False
    if not row:
        candidates = sorted(profile.per_origin)
        if not candidates:
            raise ValueError("profile has no origins")
        best = candidates[0]
        for z in candidates[1:]:
            if profile.per_origin[z] > profile.per_origin[best]:
                best = z
        origin = best
        row = profile.od_counts[origin]
        relocated = True
    total = sum(row.values())
    return origin, {z: n / total for z, n in row.items()}, relocated


def oracle_path_probabilities(catalog, o_zone: str, d_zone: str) -> dict:
    """Exact route distribution for one OD pair from pooled crowd counts."""
    entries = catalog.get(o_zone, d_zone)
    if not entries:
        raise ValueError(f"no pooled path for ({o_zone}, {d_zone})")
    total = sum(e.crowd_count for e in entries)
    return {e.path_id: e.crowd_count / total for e in entries}


def first_typed(trips) -> list:
    """`trips`, each under the type of its traveller's first trip."""
    first = {}
    for t in trips:
        first.setdefault(t.traveller_id, t.traveller_type)
    return [TripRecord(t.traveller_id, first[t.traveller_id], t.date, t.departure, t.o_zone,
                       t.d_zone, t.path, t.duration) for t in trips]


def _filtered(trips, ttype=None, day_filter=None):
    for trip in trips:
        if ttype is not None and trip.traveller_type is not ttype:
            continue
        if day_filter is not None and not day_filter(trip.date):
            continue
        yield trip


def _grouped(trips, key) -> dict:
    """{key(trip): trips} in first-seen key order, each list stably sorted
    by (date, departure)."""
    groups: dict = defaultdict(list)
    for t in trips:
        groups[key(t)].append(t)
    return {
        k: sorted(seq, key=lambda t: (t.date, t.departure)) for k, seq in groups.items()
    }


def _traveller(trip):
    return trip.traveller_id


def temporal_distribution(
    trips, granularity: int = 15, ttype=None, day_filter=None
) -> Counter:
    """Departures per fixed window of `granularity` minutes (which must
    divide the day), keyed by 1-based window index."""
    if granularity < 1 or 1440 % granularity:
        raise ValueError("granularity must divide 1440")
    return Counter(
        (t.departure - 1) // granularity + 1
        for t in _filtered(trips, ttype, day_filter)
    )


def zone_visit_counts(trips, ttype=None) -> Counter:
    """Visits per zone: each trip touches its origin and its destination."""
    visits: Counter = Counter()
    for t in _filtered(trips, ttype):
        visits[t.o_zone] += 1
        visits[t.d_zone] += 1
    return visits


def od_pair_counts(trips, ttype=None) -> Counter:
    return Counter((t.o_zone, t.d_zone) for t in _filtered(trips, ttype))


def _topk(counts: Counter, k_fraction: float, universe=None) -> set:
    """The ceil(k * base) labels with the largest counts, ties to the
    smaller label; base is the number of labels unless `universe` is given.
    Errors carry the report's texts."""
    if not 0.0 < k_fraction <= 1.0:
        raise ValueError(f"k fraction out of (0, 1]: {k_fraction}")
    if not counts:
        raise ValueError("empty distribution")
    n = math.ceil(k_fraction * (len(counts) if universe is None else universe))
    if n > len(counts):
        raise ValueError(f"only {len(counts)} ranked labels for top-{n} request")
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return {label for label, _ in ranked[:n]}


def topk_zones(trips, k_fraction: float, ttype=None, universe=None) -> set:
    """The ceil(k * base) most visited zones; base defaults to the number of
    zones visited in `trips`, or pass `universe` to fix a shared base size.
    Ties resolve to lexicographically smaller zone ids."""
    return _topk(zone_visit_counts(trips, ttype), k_fraction, universe)


def topk_od(trips, k_fraction: float, ttype=None, universe=None) -> set:
    """The ceil(k * base) most frequent OD pairs, analogous to topk_zones."""
    return _topk(od_pair_counts(trips, ttype), k_fraction, universe)


def road_access_counts(trips, ttype=None) -> Counter:
    """Trips touching each road: one count per trip per distinct road in its
    path, both travel directions pooled under the road id."""
    counts: Counter = Counter()
    for t in _filtered(trips, ttype):
        for road in set(t.path.split("-")):
            counts[road] += 1
    return counts


def continuity_ratio(trips) -> dict:
    """Per-type share of consecutive trip pairs whose next origin equals the
    previous destination, each type's pairs taken from an individual's
    trips of that type in time order. Individuals with fewer than two trips
    of a type contribute no pairs; types without pairs are omitted."""
    pairs: Counter = Counter()
    continuous: Counter = Counter()
    by_type_and_id = _grouped(trips, lambda t: (t.traveller_type, t.traveller_id))
    for (ttype, _), seq in by_type_and_id.items():
        for prev, cur in zip(seq, seq[1:]):
            pairs[ttype] += 1
            continuous[ttype] += cur.o_zone == prev.d_zone
    return {t: continuous[t] / pairs[t] for t in pairs}


def destination_entropy(trips) -> float:
    """Shannon entropy (nats) of the destinations of `trips`, summed over
    the destinations in first-seen order."""
    zones = [t.d_zone for t in trips]
    if not zones:
        raise ValueError("empty distribution")
    total = len(zones)
    shares = (zones.count(z) / total for z in dict.fromkeys(zones))
    return -sum(share * math.log(share) for share in shares)


def entropy_by_individual(trips) -> dict:
    grouped = _grouped(trips, _traveller)
    return {tid: destination_entropy(seq) for tid, seq in sorted(grouped.items())}


def daily_frequency_by_individual(trips) -> dict:
    """Mean trips per observed day for each individual, using the number of
    distinct days present in the dataset as the denominator."""
    days = {t.date for t in trips}
    if not days:
        return {}
    grouped = _grouped(trips, _traveller)
    return {tid: len(seq) / len(days) for tid, seq in sorted(grouped.items())}
