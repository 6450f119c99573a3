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
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import accumulate
from math import inf

from .ingest import DurationPool, PathCatalog
from .model import (
    MINUTES_PER_DAY,
    TYPE_ORDER,
    AggregationLedger,
    CorruptInputError,
    FeedbackCounts,
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


@dataclass
class GenParams:
    """Minimum gap between trips, horizon and seed for one generation run.
    The slot-choice weights are the module constants KAPPA, EPSILON and
    BLOWUP."""

    min_gap: int = 1
    start_day: int = 0
    horizon_days: int = 7
    rng_seed: int = 0

    def check(self, max_trip_frequency: int = 0) -> None:
        """Reject a negative gap, and input data whose busiest individual
        has so many trips that EPSILON would rival a historical preference."""
        if self.min_gap < 0:
            raise InvalidParams("min_gap must be >= 0")
        if max_trip_frequency > 0 and EPSILON >= 1.0 / max_trip_frequency:
            raise InvalidParams(
                "epsilon must stay below 1/max_trip_frequency "
                f"(= 1/{max_trip_frequency})"
            )


@dataclass(slots=True)
class GenCursor:
    """Mutable per-individual generation state.

    `day` and `minute` are the clock: the day index and the 1-based minute
    of day before which no further departure may fall. `counts` are the
    type's generated counts, bound to its reference departures (see
    FeedbackCounts). `terms` and `destinations` cache
    preference_terms and the checked cumulative destination weights by
    current zone. All caches live as long as the cursor, which is one
    individual of one run. `trips`, `relocations`, `chain_breaks`,
    `degenerate_slot_draws` and `duration_fallbacks` count what
    generate_trip has done so far, as GenStats defines them.
    """

    profile: IndividualProfile
    day: int
    minute: int
    location: str
    daily_quota: int
    generated_today: int = 0
    trips: int = 0
    relocations: int = 0
    chain_breaks: int = 0
    degenerate_slot_draws: int = 0
    duration_fallbacks: int = 0
    counts: FeedbackCounts | None = field(default=None, repr=False)
    terms: dict = field(default_factory=dict, repr=False)
    destinations: dict = field(default_factory=dict, repr=False)


@dataclass
class GenStats:
    """Bookkeeping for one generation run."""

    trips: int = 0
    relocations: int = 0  # trips whose origin was relocated off the cursor
    chain_breaks: int = 0  # relocations that broke a consecutive-trip pair
    continuity_pairs: int = 0  # consecutive same-individual trip pairs
    degenerate_slot_draws: int = 0  # all-zero slot weights, slot taken undrawn
    duration_fallbacks: int = 0  # durations drawn from the path-only pool
    midnight_spills: int = 0  # trips arriving after midnight, ending their day
    spill_dropped_quota: int = 0  # trips of a spilled day's quota left undrawn
    quarantined: list = field(default_factory=list)


def initial_location(profile: IndividualProfile) -> str:
    """The zone this individual most frequently touched (origins plus
    destinations); lexicographically smallest id wins ties."""
    combined = Counter(profile.per_origin)
    combined.update(profile.per_destination)
    if not combined:
        raise CorruptInputError(f"profile {profile.traveller_id!r} has no trips")
    return max(sorted(combined), key=combined.__getitem__)


def most_frequent_origin(profile: IndividualProfile) -> str:
    """The zone this individual most frequently departed from (relocation
    target); lexicographically smallest id wins ties."""
    if not profile.per_origin:
        raise CorruptInputError(f"profile {profile.traveller_id!r} has no trips")
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
    n = len(partition)
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
    if total == 0:
        raise CorruptInputError(f"profile {profile.traveller_id!r} has no trips")
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
    counts: FeedbackCounts,
    first: int,
    last_active: int,
) -> list:
    """Unnormalized selection weights of the reachable slots `first..n`.

    Each weight is logic factor * feedback factor * preference term: logic
    is 1 up to `last_active` and KAPPA for the reserved slots after it (see
    subsequent_slots), feedback pushes the slot's share of `counts` (the
    type's trips generated so far) minus its share of `counts.ref` (the
    type's reference departures) through the balance curve, and `terms`
    are the individual's preference_terms at its current zone.
    """
    total = counts.total or 1  # an empty ledger's shares are all 0.0
    ref = counts.ref
    generated, expected, ref_total = counts.slot, ref.slot, ref.total
    cut, stop = last_active + 1, len(partition) + 1
    # A logic factor of 1.0 leaves the product's bits unchanged, so the
    # active slots are weighted without it.
    active = zip(generated[first:cut], expected[first:cut], terms[first - 1:])
    reserved = zip(generated[cut:stop], expected[cut:stop], terms[cut - 1:])
    weights = [balance_weight(g / total - e / ref_total) * t for g, e, t in active]
    weights += [
        KAPPA * balance_weight(g / total - e / ref_total) * t for g, e, t in reserved
    ]
    return weights


def _cumulative_draw(labels, cum: list, rng: random.Random):
    """One inverse-CDF draw: takes one rng.random() value u and returns the
    label of the first cumulative weight in `cum` above u times the total
    cum[-1], or the last label. That is the table search random.choices
    makes, so the label drawn and the RNG state left are the same."""
    return labels[bisect_right(cum, rng.random() * (cum[-1] + 0.0), 0, len(cum) - 1)]


def _checked_cumulative(labels, weights) -> list:
    """The running sums of `weights`, as _cumulative_draw takes them.

    Raises ValueError for mismatched lengths, no labels, a negative weight,
    or a total that is not positive and finite.
    """
    n = len(labels)
    if n != len(weights):
        raise ValueError("labels and weights differ in length")
    if not n:
        raise ValueError("nothing to draw from")
    if min(weights) < 0:
        raise ValueError("weights must be non-negative")
    cum = list(accumulate(weights))
    if not 0.0 < cum[-1] + 0.0 < inf:
        raise ValueError("weights must have a positive, finite sum")
    return cum


def weighted_draw(labels, weights, rng: random.Random, k=None):
    """Inverse-CDF draw from `labels` by non-negative `weights`.

    Draws through _cumulative_draw over _checked_cumulative(labels,
    weights), so the labels drawn and the RNG state left are those of
    rng.choices(labels, weights, k=...), and the same ValueErrors are
    raised. A zero weight repeats a cumulative entry and is never drawn.
    With k=None returns a single label; otherwise a list of k draws.
    """
    cum = _checked_cumulative(labels, weights)
    if k is None:
        return _cumulative_draw(labels, cum, rng)
    return [_cumulative_draw(labels, cum, rng) for _ in range(k)]


def select_time_slot(weights: list, first: int, rng: random.Random) -> int:
    """Sample a slot id from `first, first + 1, ...` proportionally to
    `weights` (as slot_weights returns them)."""
    return weighted_draw(range(first, first + len(weights)), weights, rng)


def period_weights(
    slot: TimeSlot,
    minute: int,
    counts: FeedbackCounts,
):
    """Departure minutes inside `slot` that can be drawn, with their weights.

    Candidates run from max(slot start, clock `minute`) to the slot end. A
    minute's share is its count over the total, in `counts` (the type's
    trips generated so far) and in `counts.ref` (its reference
    departures). Where some candidates still trail their reference share,
    only those are listed, each weighted by its shortfall share - n / total
    (deficit-proportional). They are the candidates' slice of the list of
    minutes in deficit that `counts` keeps current on every add (see
    FeedbackCounts), cut out with two bisections, so no other minute is
    visited; that list is exact while ref.total * total < 2**52, so every
    listed weight is positive. Once every candidate is at or past its
    reference share, all candidates are listed, weighted by inverse
    overshoots, floored at DELTA_FLOOR.
    """
    start = max(slot.start, minute)
    if start > slot.end:
        raise ValueError(f"slot {slot.slot_id} has no minutes left at {minute}")
    generated = counts.minute
    total = counts.total or 1  # an empty ledger's shares are all 0.0
    listed, shares = counts.deficit_minutes(), counts.shares
    stop = slot.end + 1
    lo = bisect_left(listed, start)
    hi = bisect_left(listed, stop, lo)
    if lo < hi:
        minutes = listed[lo:hi]
        return minutes, [shares[m] - generated[m] / total for m in minutes]
    # No candidate trails its share here, so the overshoot x is never
    # negative and equals the absolute share difference.
    weights = [
        1.0 / (x if (x := n / total - r) > DELTA_FLOOR else DELTA_FLOOR)
        for r, n in zip(shares[start:stop], generated[start:stop])
    ]
    return list(range(start, stop)), weights


def select_time_period(
    slot: TimeSlot,
    minute: int,
    counts: FeedbackCounts,
    rng: random.Random,
) -> int:
    """Sample a departure minute inside the chosen slot.

    One inverse-CDF draw (_cumulative_draw, as weighted_draw makes it) over
    period_weights: the minutes in deficit when there are any, otherwise
    every candidate minute by inverse overshoot. Those weights are positive
    and finite by construction, so weighted_draw's checks are skipped. The
    full candidate list would add only zero weights, which repeat
    cumulative entries the search never stops at, so leaving them out
    changes neither the minute drawn nor the RNG state.
    """
    minutes, weights = period_weights(slot, minute, counts)
    return _cumulative_draw(minutes, list(accumulate(weights)), rng)


def destination_weights(profile: IndividualProfile, origin: str):
    """Destination candidates and weights from `origin`, relocating to the
    individual's most frequent historical origin when `origin` has none.

    Returns (origin_used, destinations, weights, relocated).
    """
    row = profile.od_counts.get(origin)
    relocated = False
    if not row:
        origin = most_frequent_origin(profile)
        row = profile.od_counts[origin]
        relocated = True
    dests = sorted(row)
    return origin, dests, [row[d] for d in dests], relocated


def select_destination(cursor: GenCursor, rng: random.Random):
    """Sample a destination proportionally to the individual's historical
    OD counts from the cursor's location, relocating as destination_weights
    does. Each location's weights are checked and accumulated once and
    cached on the cursor, so a draw is the one _cumulative_draw that
    weighted_draw would make. Returns (origin_used, destination,
    relocated)."""
    found = cursor.destinations.get(cursor.location)
    if found is None:
        origin, dests, weights, relocated = destination_weights(
            cursor.profile, cursor.location
        )
        found = origin, dests, _checked_cumulative(dests, weights), relocated
        cursor.destinations[cursor.location] = found
    origin, dests, cum, relocated = found
    return origin, _cumulative_draw(dests, cum, rng), relocated


def select_path(catalog: PathCatalog, o_zone: str, d_zone: str, rng: random.Random):
    """Sample a pooled route for the OD pair proportionally to crowd counts.

    The counts are checked and accumulated on the OD pair's first draw and
    kept in catalog.route_draws, so a draw is the one _cumulative_draw that
    weighted_draw would make."""
    od = (o_zone, d_zone)
    found = catalog.route_draws.get(od)
    if found is None:
        entries = catalog.get(o_zone, d_zone)
        if not entries:
            raise CorruptInputError(f"no pooled path for OD pair ({o_zone}, {d_zone})")
        cum = _checked_cumulative(entries, [e.crowd_count for e in entries])
        found = catalog.route_draws[od] = entries, cum
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
        pool = pools.fallback.get(path_id)
    if not pool:
        raise CorruptInputError(f"no recorded durations for path {path_id!r}")
    return pool[rng.randrange(len(pool))], fell_back


def generate_trip(
    cursor: GenCursor,
    partition: TimeSlotPartition,
    ledger: AggregationLedger,
    catalog: PathCatalog,
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
    profile = cursor.profile
    remaining = cursor.daily_quota - cursor.generated_today
    first, last_active = subsequent_slots(partition, cursor.minute, remaining)
    terms = cursor.terms.get(cursor.location)
    if terms is None:
        terms = preference_terms(profile, cursor.location, partition)
        cursor.terms[cursor.location] = terms
    counts = cursor.counts
    weights = slot_weights(partition, terms, counts, first, last_active)
    if max(weights) > 0.0:
        slot_id = select_time_slot(weights, first, rng)
    else:
        # Degenerate corner: the clock is in the last slot (with two or more
        # reachable slots some weight is positive), every generated departure
        # of the type sits in it and the reference has none there, so full
        # overshoot zeroes its feedback factor. That slot is the only one
        # left, so it is taken without a draw.
        slot_id = first
        cursor.degenerate_slot_draws += 1
    slot = partition.by_id(slot_id)
    departure = select_time_period(slot, cursor.minute, counts, rng)
    origin, destination, relocated = select_destination(cursor, rng)
    if relocated:
        cursor.relocations += 1
        if cursor.trips:
            cursor.chain_breaks += 1
    entry = select_path(catalog, origin, destination, rng)
    duration, fell_back = sample_duration(pools, entry.path_id, slot_id, rng)
    cursor.duration_fallbacks += fell_back

    ttype = profile.traveller_type
    trip = TripRecord(
        profile.traveller_id, ttype, cursor.day, departure, origin, destination,
        entry.path, duration,
    )
    ledger.record(ttype, slot_id, departure)

    minute = departure + duration + params.min_gap
    while minute > MINUTES_PER_DAY:
        minute -= MINUTES_PER_DAY
        cursor.day += 1
    cursor.minute = minute
    cursor.location = destination
    cursor.generated_today += 1
    cursor.trips += 1
    return trip


def _generate_individual(
    profile, partition, ledger, catalog, pools, params, rng, stats
) -> list:
    """All trips of one individual over the horizon, chronological; folds
    their counts into `stats` once the last one is drawn. A type without
    reference departures is refused (CorruptInputError) before any draw."""
    cursor = GenCursor(
        profile=profile,
        day=params.start_day,
        minute=1,
        location=initial_location(profile),
        counts=ledger.counts(profile.traveller_type),
        daily_quota=daily_quota(profile, rng),
    )
    trips = []
    spills = dropped = 0
    end_day = params.start_day + params.horizon_days
    while cursor.day < end_day:
        if cursor.generated_today >= cursor.daily_quota:
            # Today's quota is done: jump to the start of the next day.
            cursor.day += 1
            cursor.minute = 1
            cursor.daily_quota = daily_quota(profile, rng)
            cursor.generated_today = 0
            continue
        day_before = cursor.day
        trips.append(
            generate_trip(cursor, partition, ledger, catalog, pools, params, rng)
        )
        if cursor.day != day_before:
            # Trip spilled past midnight; the old day's unmet quota is dropped.
            spills += 1
            dropped += cursor.daily_quota - cursor.generated_today
            cursor.daily_quota = daily_quota(profile, rng)
            cursor.generated_today = 0
    stats.trips += cursor.trips
    stats.relocations += cursor.relocations
    stats.chain_breaks += cursor.chain_breaks
    stats.continuity_pairs += max(cursor.trips - 1, 0)
    stats.degenerate_slot_draws += cursor.degenerate_slot_draws
    stats.duration_fallbacks += cursor.duration_fallbacks
    stats.midnight_spills += spills
    stats.spill_dropped_quota += dropped
    return trips


def generate_all(
    profiles: dict,
    reference: AggregationLedger,
    catalog: PathCatalog,
    pools: DurationPool,
    params: GenParams,
    partition: TimeSlotPartition,
    *,
    stats: GenStats | None = None,
):
    """Generate trips for every profile; yields records grouped by traveller
    type (fixed type order), individuals in id order, trips chronological.

    Each type runs against its own feedback ledger and an independent RNG
    stream derived from (rng_seed, type), so one type's output does not
    depend on which other types are present. An individual whose prepared
    inputs turn out inconsistent (CorruptInputError) is quarantined
    (dropped, logged, listed in stats) and the run continues; its ledger
    contributions up to the failure remain. Any other error propagates.
    """
    params.check(max((p.total_trips for p in profiles.values()), default=0))
    stats = stats if stats is not None else GenStats()

    by_type = defaultdict(list)
    for tid in sorted(profiles):
        by_type[profiles[tid].traveller_type].append(profiles[tid])
    for ttype in TYPE_ORDER:
        if not by_type[ttype]:
            continue
        rng = random.Random(f"{params.rng_seed}:{ttype.value}")
        ledger = AggregationLedger(reference)
        for profile in by_type[ttype]:
            try:
                trips = _generate_individual(
                    profile, partition, ledger, catalog, pools, params, rng, stats
                )
            except CorruptInputError:
                stats.quarantined.append(profile.traveller_id)
                log.warning(
                    "quarantined individual %s", profile.traveller_id, exc_info=True
                )
                continue
            yield from trips
