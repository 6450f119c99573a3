"""Sequential trip synthesis with crowd-level feedback.

Each individual is walked through the generation horizon day by day. Every
trip picks, in order: a departure time slot, a departure minute inside it, a
destination, a route, and a duration. Slot choice runs over the slots the
clock has not yet passed and multiplies three factor families: a logic
factor that discounts slots reserved for later trips of the day, a feedback
factor that compares the running share of generated departures per slot
against the seed data (kept separately per traveller type), and the
individual's own historical slot and slot-given-origin preferences.
"""
from __future__ import annotations

import logging
import random
from bisect import bisect_left, bisect_right
from collections import defaultdict, namedtuple
from itertools import accumulate

from .ingest import DurationPool, PathCatalog
from .model import (
    MINUTES_PER_DAY,
    TYPE_ORDER,
    AggregationLedger,
    CorruptInputError,
    IndividualProfile,
    TimeSlot,
    TimeSlotPartition,
    TripRecord,
)

log = logging.getLogger(__name__)

# Floor applied to absolute share overshoots when every candidate minute is
# already at or above its reference share; keeps inverse weights finite.
DELTA_FLOOR = 1e-12

# Slot-choice weights. KAPPA scales a reserved slot, BLOWUP is the feedback
# factor at full deficit and EPSILON the preference floor. KAPPA * BLOWUP = 1,
# so a slot merely behind on its aggregate share can at best draw level with,
# never overtake, a slot still logically available; 1/BLOWUP < EPSILON, so a
# full overshoot cannot push a slot below an unpreferred one.
KAPPA = 1e-9
EPSILON = 1e-6
BLOWUP = 1e9


class InvalidParams(ValueError):
    """A generation parameter is out of range, or an individual has too many
    trips for EPSILON to stay below every historical preference."""


class GenParams(namedtuple("GenParams", "min_gap start_day horizon_days rng_seed",
                           defaults=(1, 0, 7, 0))):
    """Minimum gap between trips, horizon and seed for one generation run.
    The slot-choice weights are the module constants KAPPA, EPSILON and
    BLOWUP."""

    __slots__ = ()

    def check(self, max_trip_frequency: int = 0) -> None:
        """Reject a negative gap or horizon, and input data whose busiest
        individual has so many trips that EPSILON would rival a historical
        preference."""
        if self.min_gap < 0:
            raise InvalidParams("min_gap must be >= 0")
        if self.horizon_days < 0:
            raise InvalidParams("horizon_days must be >= 0")
        if max_trip_frequency > 0 and EPSILON >= 1.0 / max_trip_frequency:
            raise InvalidParams(
                "epsilon must stay below 1/max_trip_frequency "
                f"(= 1/{max_trip_frequency})"
            )


class GenStats:
    """Bookkeeping for one generation run, or for one individual of it."""

    __slots__ = ("trips", "relocations", "chain_breaks", "continuity_pairs",
                 "degenerate_slot_draws", "duration_fallbacks", "midnight_spills",
                 "spill_dropped_quota", "quarantined")

    def __init__(self, trips=0, relocations=0, chain_breaks=0, continuity_pairs=0,
                 degenerate_slot_draws=0, duration_fallbacks=0, midnight_spills=0,
                 spill_dropped_quota=0, quarantined: list | None = None):
        self.trips = trips
        # trips whose origin was relocated off the cursor
        self.relocations = relocations
        # relocations that broke a consecutive-trip pair
        self.chain_breaks = chain_breaks
        # consecutive same-individual trip pairs
        self.continuity_pairs = continuity_pairs
        # all-zero slot weights, slot taken undrawn
        self.degenerate_slot_draws = degenerate_slot_draws
        # durations drawn from the path-only pool
        self.duration_fallbacks = duration_fallbacks
        # trips arriving after midnight, ending their day
        self.midnight_spills = midnight_spills
        # trips of a spilled day's quota left undrawn
        self.spill_dropped_quota = spill_dropped_quota
        self.quarantined = [] if quarantined is None else quarantined


class GenCursor:
    """Mutable per-individual generation state.

    `day` and `minute` are the clock: the day index and the 1-based minute
    of day before which no further departure may fall. `terms` and
    `destinations` cache preference_terms and the cumulative destination
    weights by current zone. All caches live as long as the cursor, which
    is one individual of one run. `stats` counts what this individual's
    trips have done so far. The type's generated counts are its
    AggregationLedger, passed to each trip beside the cursor.
    """

    __slots__ = ("profile", "day", "minute", "location", "daily_quota", "generated_today",
                 "stats", "terms", "destinations")

    def __init__(self, profile: IndividualProfile, day: int, minute: int, location: str,
                 daily_quota: int, generated_today: int = 0, stats: GenStats | None = None,
                 terms: dict | None = None, destinations: dict | None = None):
        self.profile = profile
        self.day = day
        self.minute = minute
        self.location = location
        self.daily_quota = daily_quota
        self.generated_today = generated_today
        self.stats = GenStats() if stats is None else stats
        self.terms = {} if terms is None else terms
        self.destinations = {} if destinations is None else destinations


def initial_location(profile: IndividualProfile) -> str:
    """The zone this individual most frequently touched (origins plus
    destinations); lexicographically smallest id wins ties."""
    combined = dict(profile.per_origin)
    for row in profile.od_counts.values():
        for d, n in row.items():
            combined[d] = combined.get(d, 0) + n
    return max(sorted(combined), key=combined.__getitem__)


def most_frequent_origin(profile: IndividualProfile) -> str:
    """The zone this individual most frequently departed from (relocation
    target); lexicographically smallest id wins ties."""
    return max(sorted(profile.per_origin), key=profile.per_origin.__getitem__)


def daily_quota(profile: IndividualProfile, rng: random.Random) -> int:
    """Trips to attempt today: floor of the mean daily rate, plus one with
    probability equal to the fractional remainder."""
    days = profile.observed_days
    base, rem = divmod(profile.total_trips, days)
    return base + (1 if rng.random() < rem / days else 0)


def subsequent_slots(partition: TimeSlotPartition, minute: int, remaining: int):
    """Today's reachable slots around the clock `minute`, as two slot ids.

    Returns (first, last_active): slots `first..n` are reachable (the slot
    under the clock and everything later); of those, `first..last_active`
    are active and the latest min(remaining - 1, n - first) are reserved,
    held back so later trips of the day keep somewhere to go. At least one
    slot is always active. A minute outside 1..1440 raises ValueError.
    """
    if remaining < 1:
        raise ValueError("remaining must be >= 1")
    n = len(partition.slots)
    first = partition.slot_of(minute).slot_id
    return first, n - min(remaining - 1, n - first)


def balance_weight(x: float) -> float:
    """Feedback curve over the share imbalance x in [-1, 1].

    Decreasing, with value 1 at balance, 0 at full overshoot, and BLOWUP at
    full deficit: overshoots are damped linearly while deficits are boosted
    exponentially.
    """
    if x >= 0.0:
        return 1.0 - x if x < 1.0 else 0.0
    return BLOWUP ** (-x if x > -1.0 else 1.0)


def preference_terms(
    profile: IndividualProfile,
    current_zone: str,
    partition: TimeSlotPartition,
) -> list:
    """cp * (1 + cop) + EPSILON for every slot, in partition order.

    cp is the slot's share of the individual's history; cop is the share of
    departures from `current_zone` that fall in the slot, 0 when the
    individual never departed from `current_zone`.
    """
    total = profile.total_trips
    from_zone = profile.per_origin.get(current_zone, 0)
    terms = []
    for slot in partition:
        by_origin = profile.slot_origin_counts.get(slot.slot_id, {})
        cp = sum(by_origin.values()) / total
        cop = by_origin.get(current_zone, 0) / from_zone if from_zone else 0.0
        terms.append(cp * (1.0 + cop) + EPSILON)
    return terms


def slot_weights(
    partition: TimeSlotPartition,
    terms: list,
    counts: AggregationLedger,
    first: int,
    last_active: int,
) -> list:
    """Unnormalized selection weights of the reachable slots `first..n`.

    Each weight is logic factor * feedback factor * preference term: logic
    is 1 up to `last_active` and KAPPA for the reserved slots after it (see
    subsequent_slots), feedback pushes the slot's share of `counts` (the
    type's trips generated so far) minus its reference share (kept in
    `counts.slot_shares`) through the balance curve, and `terms` are the
    individual's preference_terms at its current zone.
    """
    total = counts.total or 1  # an empty ledger's shares are all 0.0
    generated, expected = counts.slot, counts.slot_shares
    cut, stop = last_active + 1, len(partition.slots) + 1
    # A logic factor of 1.0 leaves the product's bits unchanged, so the
    # active slots are weighted without it.
    active = zip(generated[first:cut], expected[first:cut], terms[first - 1:])
    weights = [balance_weight(g / total - e) * t for g, e, t in active]
    if cut < stop:
        reserved = zip(generated[cut:stop], expected[cut:stop], terms[cut - 1:])
        weights += [KAPPA * balance_weight(g / total - e) * t for g, e, t in reserved]
    return weights


def _cumulative_draw(labels, cum: list, rng: random.Random):
    """One inverse-CDF draw: takes one rng.random() value u and returns the
    label of the first cumulative weight in `cum` above u times the total
    cum[-1], or the last label. That is the table search random.choices
    makes, so the label drawn and the RNG state left are the same."""
    return labels[bisect_right(cum, rng.random() * (cum[-1] + 0.0), 0, len(cum) - 1)]


def select_time_slot(weights: list, first: int, rng: random.Random) -> int:
    """Sample a slot id from `first, first + 1, ...` proportionally to
    `weights` (as slot_weights returns them, some positive): the id drawn
    and the RNG state left are those of rng.choices(ids, weights). A zero
    weight is never drawn."""
    ids = range(first, first + len(weights))
    return _cumulative_draw(ids, list(accumulate(weights)), rng)


def period_weights(
    slot: TimeSlot,
    minute: int,
    counts: AggregationLedger,
):
    """Departure minutes inside `slot` that can be drawn, with the running
    sums of their weights, added left to right as itertools.accumulate adds.

    Candidates run from max(slot start, clock `minute`) to the slot end.
    With r, n, R and T as in AggregationLedger, where some candidates are
    in deficit only those are listed, their slice of `counts.deficit` cut
    out with two bisections, each weighted by the int r * T - n * R >= 1.
    Otherwise the candidates' range is listed, weighted by inverse
    overshoots n / T - r / R, floored at DELTA_FLOOR.
    """
    start = max(slot.start, minute)
    if start > slot.end:
        raise ValueError(f"slot {slot.slot_id} has no minutes left at {minute}")
    total = counts.total or 1  # an empty ledger's shares are all 0.0
    listed = counts.deficit
    stop = slot.end + 1
    lo = bisect_left(listed, start)
    hi = bisect_left(listed, stop, lo)
    acc = 0
    if lo < hi:
        minutes = listed[lo:hi]
        expected, scaled = counts.ref.minute, counts.scaled
        return minutes, [acc := acc + expected[m] * total - scaled[m] for m in minutes]
    shares, generated = counts.shares, counts.minute
    # No candidate trails its share here, so the overshoot x is never
    # negative and equals the absolute share difference.
    return range(start, stop), [
        acc := acc + 1.0 / (x if (x := n / total - r) > DELTA_FLOOR else DELTA_FLOOR)
        for r, n in zip(shares[start:stop], generated[start:stop])
    ]


def select_time_period(
    slot: TimeSlot,
    minute: int,
    counts: AggregationLedger,
    rng: random.Random,
) -> int:
    """Sample a departure minute inside the chosen slot.

    One inverse-CDF draw (_cumulative_draw, as random.choices makes it) over
    the running sums of period_weights: the minutes in deficit when there
    are any, otherwise every candidate minute by inverse overshoot. Those
    sums are positive and finite by construction. Every other candidate
    would add a zero weight, a repeated sum the search never stops at, so
    leaving them out changes neither the minute drawn nor the RNG state.
    """
    return _cumulative_draw(*period_weights(slot, minute, counts), rng)


def select_destination(cursor: GenCursor, rng: random.Random):
    """Sample a destination proportionally to the individual's historical
    OD counts from the cursor's location, relocating to the individual's
    most frequent origin when the location has none. Each location's
    counts, which IndividualProfile holds as ints >= 1, are accumulated
    once and cached on the cursor as
    (origin_used, destinations, running sums, relocated), so a draw is the
    one random.choices would make. Returns (origin_used, destination,
    relocated)."""
    found = cursor.destinations.get(cursor.location)
    if found is None:
        origin = cursor.location
        row = cursor.profile.od_counts.get(origin)
        relocated = not row
        if relocated:
            origin = most_frequent_origin(cursor.profile)
            row = cursor.profile.od_counts[origin]
        dests = sorted(row)
        found = origin, dests, list(accumulate(row[d] for d in dests)), relocated
        cursor.destinations[cursor.location] = found
    origin, dests, cum, relocated = found
    return origin, _cumulative_draw(dests, cum, rng), relocated


def route_draws(catalog: PathCatalog) -> dict:
    """{(o_zone, d_zone): (routes, running crowd counts)} of each pair with routes."""
    return {od: (entries, list(accumulate(e.crowd_count for e in entries)))
            for od, entries in catalog.entries.items() if entries}


def select_path(draws: dict, o_zone: str, d_zone: str, rng: random.Random):
    """Sample a route for the OD pair from the route_draws table `draws`,
    proportionally to crowd counts, as random.choices would; a pair with
    no pooled route raises CorruptInputError."""
    found = draws.get((o_zone, d_zone))
    if found is None:
        raise CorruptInputError(f"no pooled path for OD pair ({o_zone}, {d_zone})")
    return _cumulative_draw(*found, rng)


def sample_duration(
    pools: DurationPool, path_id: str, slot_id: int, rng: random.Random
) -> tuple:
    """Uniform draw from historical durations of (path, slot); falls back to
    the path-only pool when that slot was never observed.
    Returns (duration, fell_back)."""
    pool = pools.samples.get((path_id, slot_id))
    fell_back = not pool
    if fell_back:
        pool = pools.fallback(path_id)
    if not pool:
        raise CorruptInputError(f"no recorded durations for path {path_id!r}")
    return pool[rng.randrange(len(pool))], fell_back


def generate_trip(
    cursor: GenCursor,
    partition: TimeSlotPartition,
    ledger: AggregationLedger,
    draws: dict,
    pools: DurationPool,
    params: GenParams,
    rng: random.Random,
) -> TripRecord:
    """Generate one trip and advance the cursor.

    The slot draw runs over the slots that still have minutes at or after
    the clock; a slot already entirely in the past is not weighed at all,
    since no departure minute inside it could respect the clock. Records
    the trip in the ledger, moves the location to the destination and
    pushes the clock past arrival plus the minimum gap, rolling over
    midnight if needed. A cursor with no quota left today is refused by
    subsequent_slots (ValueError) before any draw.
    """
    profile, stats = cursor.profile, cursor.stats
    remaining = cursor.daily_quota - cursor.generated_today
    first, last_active = subsequent_slots(partition, cursor.minute, remaining)
    terms = cursor.terms.get(cursor.location)
    if terms is None:
        terms = preference_terms(profile, cursor.location, partition)
        cursor.terms[cursor.location] = terms
    weights = slot_weights(partition, terms, ledger, first, last_active)
    if max(weights) > 0.0:
        slot_id = select_time_slot(weights, first, rng)
    else:
        # Degenerate corner: the clock is in the last slot (with two or more
        # reachable slots some weight is positive), every generated departure
        # of the type sits in it and the reference has none there, so full
        # overshoot zeroes its feedback factor. That slot is the only one
        # left, so it is taken without a draw.
        slot_id = first
        stats.degenerate_slot_draws += 1
    slot = partition.by_id(slot_id)
    departure = select_time_period(slot, cursor.minute, ledger, rng)
    origin, destination, relocated = select_destination(cursor, rng)
    if relocated:
        stats.relocations += 1
        if stats.trips:
            stats.chain_breaks += 1
    entry = select_path(draws, origin, destination, rng)
    duration, fell_back = sample_duration(pools, entry.path_id, slot_id, rng)
    stats.duration_fallbacks += fell_back

    trip = TripRecord(
        profile.traveller_id, profile.traveller_type, cursor.day, departure, origin,
        destination, entry.path, duration,
    )
    ledger.record(slot_id, departure)

    # The clock is 1-based, so a minute of MINUTES_PER_DAY stays on its day.
    days, minute = divmod(departure + duration + params.min_gap - 1, MINUTES_PER_DAY)
    cursor.day += days
    cursor.minute = minute + 1
    cursor.location = destination
    cursor.generated_today += 1
    stats.trips += 1
    return trip


def _generate_individual(
    profile, partition, ledger, draws, pools, params, rng, stats
) -> list:
    """All trips of one individual over the horizon, chronological; folds
    their counts into `stats` once the last one is drawn."""
    cursor = GenCursor(
        profile=profile,
        day=params.start_day,
        minute=1,
        location=initial_location(profile),
        daily_quota=daily_quota(profile, rng),
    )
    trips = []
    counted = cursor.stats
    end_day = params.start_day + params.horizon_days
    while cursor.day < end_day:
        if cursor.generated_today >= cursor.daily_quota:
            # Today's quota is done: jump to the start of the next day.
            cursor.day += 1
            cursor.minute = 1
        else:
            day_before = cursor.day
            trips.append(
                generate_trip(cursor, partition, ledger, draws, pools, params, rng)
            )
            if cursor.day == day_before:
                continue
            # Trip spilled past midnight; the old day's unmet quota is dropped.
            counted.midnight_spills += 1
            counted.spill_dropped_quota += cursor.daily_quota - cursor.generated_today
        # A new day starts: draw its quota.
        cursor.daily_quota = daily_quota(profile, rng)
        cursor.generated_today = 0
    counted.continuity_pairs = max(counted.trips - 1, 0)
    for name in GenStats.__slots__:
        if name != "quarantined":
            setattr(stats, name, getattr(stats, name) + getattr(counted, name))
    return trips


def generate_all(
    profiles: dict,
    reference: dict,
    catalog: PathCatalog,
    pools: DurationPool,
    params: GenParams,
    partition: TimeSlotPartition,
    *,
    stats: GenStats | None = None,
):
    """Generate trips for every profile. Checks `params` against the
    largest profile when called, then returns an iterator of records grouped
    by traveller type (fixed type order), individuals in id order, trips
    chronological.

    Each type runs against its own feedback ledger and an independent RNG
    stream derived from (rng_seed, type), so one type's output does not
    depend on which other types are present. An individual whose prepared
    inputs turn out inconsistent (CorruptInputError) is quarantined
    (dropped, logged, listed in stats) and the run continues; its ledger
    contributions up to the failure remain. Any other error propagates.
    A type without reference departures has no ledger, so each of its
    individuals is quarantined before any draw. Routes are drawn from one
    route_draws(catalog) table built for the call; `catalog` is only read.
    """
    params.check(max((p.total_trips for p in profiles.values()), default=0))
    stats = stats if stats is not None else GenStats()
    draws = route_draws(catalog)
    return _generate_types(profiles, reference, draws, pools, params, partition, stats)


def _generate_types(profiles, reference, draws, pools, params, partition, stats):
    by_type = defaultdict(list)
    for tid in sorted(profiles):
        by_type[profiles[tid].traveller_type].append(profiles[tid])
    for ttype in TYPE_ORDER:
        if not by_type[ttype]:
            continue
        rng = random.Random(f"{params.rng_seed}:{ttype.value}")
        ledger = None
        for profile in by_type[ttype]:
            try:
                ledger = ledger or AggregationLedger(reference, ttype)
                trips = _generate_individual(
                    profile, partition, ledger, draws, pools, params, rng, stats
                )
            except CorruptInputError:
                stats.quarantined.append(profile.traveller_id)
                log.warning(
                    "quarantined individual %s", profile.traveller_id, exc_info=True
                )
                continue
            yield from trips
