"""Core domain types for trip synthesis.

Time is a 1-based minute-of-day grid (1..1440) plus an integer day index.
Calendar dates only exist at the CSV boundary; see `ingest` and `cli`.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum

MINUTES_PER_DAY = 1440


class CorruptInputError(ValueError):
    """Prepared inputs are internally inconsistent (e.g. a missing OD entry)."""


def hhmm_to_minute(text: str) -> int:
    """Parse 'HH:MM' into a 1-based minute of day ('00:00' -> 1)."""
    hh, _, mm = text.partition(":")
    if not (hh.isdigit() and mm.isdigit() and len(mm) == 2):
        raise ValueError(f"bad time of day: {text!r}")
    if int(mm) >= 60:
        raise ValueError(f"bad time of day: {text!r}")
    minute = int(hh) * 60 + int(mm) + 1
    if not 1 <= minute <= MINUTES_PER_DAY:
        raise ValueError(f"time of day out of range: {text!r}")
    return minute


def minute_to_hhmm(minute: int) -> str:
    """Render a 1-based minute of day as 'HH:MM' (1 -> '00:00')."""
    if not 1 <= minute <= MINUTES_PER_DAY:
        raise ValueError(f"minute out of range: {minute}")
    return f"{(minute - 1) // 60:02d}:{(minute - 1) % 60:02d}"


class TravellerType(Enum):
    """Behavioural classes used to keep aggregate feedback separate."""

    COMMUTER = "commuter"
    STABLE = "stable"
    RANDOM = "random"
    HIGH_FREQ = "high_freq"
    PASSBY = "passby"

    @classmethod
    def parse(cls, text: str) -> "TravellerType":
        """Parse a CSV label, tolerating case, spaces, hyphens and a
        trailing 'traveller' word ('High-freq traveller' -> HIGH_FREQ)."""
        key = text.strip().lower().replace("-", "_").replace(" ", "_")
        for suffix in ("_traveller", "_traveler"):
            if key.endswith(suffix):
                key = key[: -len(suffix)]
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown traveller type: {text!r}")


TYPE_ORDER: tuple[TravellerType, ...] = tuple(TravellerType)


@dataclass(frozen=True)
class TimeSlot:
    """A contiguous run of minutes [start, end], both 1-based inclusive."""

    slot_id: int
    start: int
    end: int

    def __post_init__(self):
        if not (1 <= self.start <= self.end <= MINUTES_PER_DAY):
            raise ValueError(f"bad slot bounds: [{self.start}, {self.end}]")

    def __contains__(self, minute: int) -> bool:
        return self.start <= minute <= self.end

    def width(self) -> int:
        return self.end - self.start + 1

    def label(self) -> str:
        """Clock-interval label, e.g. [421, 480] -> '07:00-08:00'."""
        lo = self.start - 1
        hi = self.end  # exclusive right edge in wall-clock terms
        return f"{lo // 60:02d}:{lo % 60:02d}-{hi // 60:02d}:{hi % 60:02d}"


class TimeSlotPartition:
    """An ordered partition of the 1440-minute day into disjoint slots.

    Every minute belongs to exactly one slot; slot ids are 1-based and
    ordered by start minute.
    """

    def __init__(self, slots):
        slots = tuple(slots)
        if not slots:
            raise ValueError("empty partition")
        if slots[0].start != 1 or slots[-1].end != MINUTES_PER_DAY:
            raise ValueError("partition must cover minutes 1..1440")
        for prev, cur in zip(slots, slots[1:]):
            if cur.start != prev.end + 1:
                raise ValueError(
                    f"partition gap/overlap between slot {prev.slot_id} and {cur.slot_id}"
                )
        for i, slot in enumerate(slots, start=1):
            if slot.slot_id != i:
                raise ValueError("slot ids must run 1..n in order")
        self.slots = slots
        # The slot of each minute of day, by index (index 0 unused).
        self._by_minute = (None,) + tuple(s for s in slots for _ in range(s.width()))

    @classmethod
    def from_boundaries(cls, starts) -> "TimeSlotPartition":
        """Build from ascending slot start minutes; the first must be 1."""
        starts = sorted(set(int(s) for s in starts))
        if not starts or starts[0] != 1:
            raise ValueError("slot starts must begin at minute 1")
        if starts[-1] > MINUTES_PER_DAY:
            raise ValueError("slot start beyond end of day")
        ends = [s - 1 for s in starts[1:]] + [MINUTES_PER_DAY]
        return cls(
            TimeSlot(i, a, b) for i, (a, b) in enumerate(zip(starts, ends), start=1)
        )

    @classmethod
    def hourly(cls) -> "TimeSlotPartition":
        return cls.from_boundaries(range(1, MINUTES_PER_DAY + 1, 60))

    def slot_of(self, minute: int) -> TimeSlot:
        """The unique slot containing a 1-based minute of day."""
        if not 1 <= minute <= MINUTES_PER_DAY:
            raise ValueError(f"minute out of range: {minute}")
        return self._by_minute[minute]

    def by_id(self, slot_id: int) -> TimeSlot:
        if not 1 <= slot_id <= len(self.slots):
            raise ValueError(f"unknown slot id: {slot_id}")
        return self.slots[slot_id - 1]

    def __len__(self):
        return len(self.slots)

    def __iter__(self):
        return iter(self.slots)

    def __eq__(self, other):
        return isinstance(other, TimeSlotPartition) and self.slots == other.slots

    def boundaries(self) -> list[int]:
        return [s.start for s in self.slots]


@dataclass(frozen=True)
class Zone:
    """A traffic zone with a representative point and its bounding roads."""

    zone_id: str
    longitude: float
    latitude: float
    roads: frozenset = frozenset()


@dataclass(slots=True)
class TripRecord:
    """One observed or synthesized trip.

    Not frozen: a frozen dataclass sets each field through
    object.__setattr__, and a record is built for every parsed row and
    every generated trip. Nothing mutates a record once built.
    """

    traveller_id: str
    traveller_type: TravellerType
    date: int  # day index relative to the configured epoch
    departure: int  # 1-based minute of day
    o_zone: str
    d_zone: str
    path: tuple
    duration: int  # minutes

    def __post_init__(self):
        if not 1 <= self.departure <= MINUTES_PER_DAY:
            raise ValueError(f"departure out of range: {self.departure}")
        if self.duration < 1:
            raise ValueError(f"non-positive duration: {self.duration}")
        if not self.path:
            raise ValueError("empty path")
        if not self.o_zone or not self.d_zone:
            raise ValueError("missing zone id")


@dataclass(frozen=True)
class IndividualProfile:
    """Aggregated trip history of one individual over an observation window.

    All counters are plain dicts over observed keys only; missing keys mean
    zero. `od_counts` maps origin -> {destination: trips}; the per-slot
    origin breakdown `slot_origin_counts` maps slot id -> {origin: trips}.
    `total_trips`, `per_origin` and `per_destination` are derived from
    `od_counts` on construction.
    """

    traveller_id: str
    traveller_type: TravellerType
    od_counts: dict = field(repr=False)
    slot_origin_counts: dict = field(repr=False)
    observed_days: int = 1
    total_trips: int = field(init=False)
    per_origin: dict = field(init=False, repr=False)
    per_destination: dict = field(init=False, repr=False)

    def __post_init__(self):
        per_origin, per_destination = {}, {}
        for o, row in self.od_counts.items():
            for d, n in row.items():
                per_origin[o] = per_origin.get(o, 0) + n
                per_destination[d] = per_destination.get(d, 0) + n
        object.__setattr__(self, "total_trips", sum(per_origin.values()))
        object.__setattr__(self, "per_origin", per_origin)
        object.__setattr__(self, "per_destination", per_destination)


# Below this product of the two totals, the integer deficit rule of
# FeedbackCounts decides exactly as the float test it replaces (see there).
EXACT_SHARE_BOUND = 2**52


class TypeCounts:
    """Departure counts of one traveller type as dense lists indexed by
    minute of day and by slot id (index 0 unused), plus their total."""

    __slots__ = ("minute", "slot", "total")

    def __init__(self):
        # A slot spans at least one minute, so slot ids never exceed 1440.
        self.minute = [0] * (MINUTES_PER_DAY + 1)
        self.slot = [0] * (MINUTES_PER_DAY + 1)
        self.total = 0

    def add(self, slot_id: int, minute: int, n: int = 1) -> None:
        self.slot[slot_id] += n
        self.minute[minute] += n
        self.total += n


class FeedbackCounts(TypeCounts):
    """The generated side of the feedback factor: counts of one type, made
    one departure at a time against its fixed, non-empty reference `ref`.

    Keeps `ref`'s share r / R of every minute of the day in `shares`, and
    the ascending list of minutes in deficit (see deficit_minutes). With r
    and n a minute's count in the reference and here, R the reference total
    and T = total or 1 (an empty ledger's shares are all 0.0), a minute is
    in deficit when r * T > n * R. That integer rule equals the float test
    r / R - n / T > 0.0 while R * T < 2**52: two distinct shares then
    differ by at least 1 / (R * T), more than the rounding of both
    quotients (at most 2**-53 each, the shares being at most 1). Larger
    products are refused.

    A minute's status changes only when its own count or T changes, so add
    keeps the list current: T rises by one, the minutes due back at the new
    T re-enter, and the recorded minute is re-tested. A minute that leaves
    waits in `_waiting`, keyed by the least T that puts it back in deficit
    (n * R // r + 1), and `_due[m]` holds that key (0 while listed); an
    entry whose key no longer matches `_due` is stale and skipped.
    """

    __slots__ = ("ref", "shares", "_deficit", "_due", "_waiting")

    def __init__(self, ref: TypeCounts):
        super().__init__()
        ref_total = ref.total
        if not ref_total:
            raise ValueError("feedback counts need a non-empty reference")
        self.ref = ref
        self.shares = [r / ref_total for r in ref.minute]
        # Empty, so every minute the reference saw trails its share.
        self._deficit = [m for m in range(1, MINUTES_PER_DAY + 1) if ref.minute[m]]
        self._due = [0] * (MINUTES_PER_DAY + 1)
        self._waiting = defaultdict(list)

    def add(self, slot_id: int, minute: int) -> None:
        self.slot[slot_id] += 1
        self.minute[minute] += 1
        self.total = total = self.total + 1
        listed, due = self._deficit, self._due
        back = self._waiting.pop(total, None)
        if back:
            for m in back:
                if due[m] == total:
                    due[m] = 0
                    insort(listed, m)
        ref = self.ref
        r = ref.minute[minute]
        if r:
            count, ref_total = self.minute[minute], ref.total
            if r * total > count * ref_total:
                if due[minute]:
                    due[minute] = 0
                    insort(listed, minute)
            else:
                if not due[minute]:
                    del listed[bisect_left(listed, minute)]
                due[minute] = at = count * ref_total // r + 1
                self._waiting[at].append(minute)

    def deficit_minutes(self) -> list:
        """The ascending minutes in deficit against `ref`. Raises
        ValueError once ref.total * (total or 1) reaches EXACT_SHARE_BOUND,
        where the integer rule could part from the float shares the
        weights are made of."""
        ref_total = self.ref.total
        if ref_total * (self.total or 1) >= EXACT_SHARE_BOUND:
            raise ValueError(
                f"share totals {ref_total} x {self.total} reach 2**52; "
                "minute deficits would no longer be exact"
            )
        return self._deficit


class AggregationLedger:
    """Per-type departure counts by minute of day and by slot id.

    One ledger holds the source reference. One per type run, built over
    that `reference`, holds the trips generated so far as FeedbackCounts,
    which the feedback factor compares with the reference.
    """

    def __init__(self, reference: "AggregationLedger | None" = None):
        self.by_type = {}
        self.reference = reference

    def counts(self, ttype: TravellerType) -> TypeCounts:
        """The live dense counts of one type, created empty on first use.
        Over a reference they are FeedbackCounts against the type's
        reference departures; CorruptInputError when it has none."""
        counts = self.by_type.get(ttype)
        if counts is None:
            reference = self.reference
            counts = self.by_type[ttype] = (
                TypeCounts() if reference is None
                else FeedbackCounts(reference.departures(ttype))
            )
        return counts

    def departures(self, ttype: TravellerType) -> TypeCounts:
        """The counts of one type; CorruptInputError when it has none.
        Unlike counts(), never adds the type."""
        counts = self.by_type.get(ttype)
        if counts is None or counts.total == 0:
            raise CorruptInputError(f"no departures for type {ttype.value!r}")
        return counts

    def record(self, ttype: TravellerType, slot_id: int, minute: int) -> None:
        if not (1 <= minute <= MINUTES_PER_DAY and 1 <= slot_id <= MINUTES_PER_DAY):
            raise ValueError(f"cannot record slot {slot_id}, minute {minute}")
        self.counts(ttype).add(slot_id, minute)
