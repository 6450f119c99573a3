"""Core domain types for trip synthesis.

Time is a 1-based minute-of-day grid (1..1440) plus an integer day index.
Calendar dates only exist at the CSV boundary; see `ingest` and `cli`.
"""
from __future__ import annotations

import re
from array import array
from bisect import bisect_left, insort
from collections import defaultdict, namedtuple
from enum import Enum
from itertools import chain
from operator import ge

MINUTES_PER_DAY = 1440


class CorruptInputError(ValueError):
    """Prepared inputs are internally inconsistent (e.g. a missing OD entry)."""


def check_counts(values, what: str) -> None:
    """ValueError naming, through `what`, the first of `values` that is not
    an int >= 1, a bool included; the values are streamed once."""
    for v in values:
        if type(v) is not int or v < 1:
            raise ValueError(f"{what} is not an integer >= 1: {v!r}")


# [0-9], not str.isdigit(): that also takes other Unicode digits, as int() does.
_HHMM = re.compile(r"([0-9]{2}):([0-9]{2})")


def hhmm_to_minute(text: str) -> int:
    """Parse 'HH:MM' in ASCII digits, padding stripped, into a 1-based
    minute of day ('00:00' -> 1)."""
    match = _HHMM.fullmatch(text.strip())
    if match is None or int(match[2]) >= 60:
        raise ValueError(f"bad time of day: {text!r}")
    minute = int(match[1]) * 60 + int(match[2]) + 1
    if minute > MINUTES_PER_DAY:
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


class TimeSlot(namedtuple("TimeSlot", "slot_id start end")):
    """A contiguous run of minutes [start, end], both 1-based inclusive."""

    __slots__ = ()

    def __new__(cls, slot_id: int, start: int, end: int):
        if not (1 <= start <= end <= MINUTES_PER_DAY):
            raise ValueError(f"bad slot bounds: [{start}, {end}]")
        return super().__new__(cls, slot_id, start, end)

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
    """An ordered partition of the 1440-minute day into disjoint slots,
    built from their start minutes, ints strictly ascending from 1 to at
    most 1440; slot ids run 1..n by start. TypeError names an entry that
    is not an int (a bool included); ValueError refuses any other list."""

    def __init__(self, starts):
        starts = list(starts)
        for s in starts:
            if type(s) is not int:
                raise TypeError(repr(s))
        if starts[:1] != [1] or starts[-1] > MINUTES_PER_DAY or any(map(ge, starts, starts[1:])):
            raise ValueError(f"slot starts must be strictly ascending from minute 1 "
                             f"to at most {MINUTES_PER_DAY}: {starts!r}")
        ends = [s - 1 for s in starts[1:]] + [MINUTES_PER_DAY]
        self.slots = tuple(
            TimeSlot(i, a, b) for i, (a, b) in enumerate(zip(starts, ends), start=1)
        )
        # The slot of each minute of day, by index (index 0 unused).
        self._by_minute = (None,) + tuple(s for s in self.slots for _ in range(s.width()))

    @classmethod
    def hourly(cls) -> "TimeSlotPartition":
        return cls(range(1, MINUTES_PER_DAY + 1, 60))

    def slot_of(self, minute: int) -> TimeSlot:
        """The unique slot containing a 1-based minute of day."""
        if not 1 <= minute <= MINUTES_PER_DAY:
            raise ValueError(f"minute out of range: {minute}")
        return self._by_minute[minute]

    def slot_ids(self) -> tuple:
        """The slot id of each minute of day, by index (index 0 unused)."""
        return (0,) + tuple(s.slot_id for s in self._by_minute[1:])

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


class Zone(namedtuple("Zone", "zone_id longitude latitude roads", defaults=(frozenset(),))):
    """A traffic zone with a representative point and its bounding roads."""

    __slots__ = ()


class _Fields:
    """Value equality over the attributes a subclass names in `__slots__`,
    for a record type that is not a tuple; instances are unhashable, as
    they are mutable."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


class TripRecord(_Fields):
    """One observed or synthesized trip.

    Not frozen: a record is built for every generated trip, and a frozen
    one would set each field through object.__setattr__. Nothing mutates a
    record once built.
    """

    __slots__ = ("traveller_id", "traveller_type", "date", "departure", "o_zone", "d_zone",
                 "path", "duration")

    def __init__(self, traveller_id: str, traveller_type: TravellerType, date: int,
                 departure: int, o_zone: str, d_zone: str, path: tuple, duration: int):
        if not 1 <= departure <= MINUTES_PER_DAY:
            raise ValueError(f"departure out of range: {departure}")
        if duration < 1:
            raise ValueError(f"non-positive duration: {duration}")
        if not path:
            raise ValueError("empty path")
        if not o_zone or not d_zone:
            raise ValueError("missing zone id")
        self.traveller_id = traveller_id
        self.traveller_type = traveller_type
        self.date = date  # day index relative to the configured epoch
        self.departure = departure  # 1-based minute of day
        self.o_zone = o_zone
        self.d_zone = d_zone
        self.path = path
        self.duration = duration  # minutes


class TripTable:
    """Trips as parallel columns. Traveller ids and zones are int codes
    into `names`, shared by both roles, and paths are codes into `paths`;
    `types` maps each traveller code to the TYPE_ORDER index of its first
    row, the one type `append` keeps for it. Dates and durations are
    lists, as their ints have no fixed width. Iteration yields
    TripRecords, each under its traveller's type."""

    __slots__ = ("names", "paths", "types", "traveller", "date", "departure",
                 "o_zone", "d_zone", "path", "duration")

    def __init__(self):
        self.names, self.paths, self.date, self.duration, self.types = [], [], [], [], {}
        self.traveller, self.o_zone, self.d_zone, self.path = (array("i") for _ in range(4))
        self.departure = array("h")

    @classmethod
    def of(cls, trips) -> "TripTable":
        """`trips` itself if it is a table, else its TripRecords packed
        into a new one, each traveller under the type of its first record."""
        if isinstance(trips, cls):
            return trips
        table = cls()
        names, paths = {}, {}  # name or path -> its code, in first-seen order
        for t in trips:
            table.append(names.setdefault(t.traveller_id, len(names)),
                         TYPE_ORDER.index(t.traveller_type), t.date, t.departure,
                         names.setdefault(t.o_zone, len(names)),
                         names.setdefault(t.d_zone, len(names)),
                         paths.setdefault(t.path, len(paths)), t.duration)
        table.names, table.paths = list(names), list(paths)
        return table

    def append(self, traveller, ttype, date, departure, o_zone, d_zone, path, duration) -> int:
        """Add one row given as codes; returns its traveller's kept (first) type."""
        self.traveller.append(traveller)
        self.date.append(date)
        self.departure.append(departure)
        self.o_zone.append(o_zone)
        self.d_zone.append(d_zone)
        self.path.append(path)
        self.duration.append(duration)
        return self.types.setdefault(traveller, ttype)

    def __len__(self):
        return len(self.date)

    def __iter__(self):
        name = self.names.__getitem__
        types = {tid: TYPE_ORDER[t] for tid, t in self.types.items()}
        return map(TripRecord, map(name, self.traveller), map(types.__getitem__, self.traveller),
                   self.date, self.departure, map(name, self.o_zone), map(name, self.d_zone),
                   map(self.paths.__getitem__, self.path), self.duration)


class IndividualProfile(_Fields):
    """Aggregated trip history of one individual over an observation window.

    All counters are plain dicts over observed keys only; missing keys mean
    zero. `od_counts` maps origin -> {destination: trips}; the per-slot
    origin breakdown `slot_origin_counts` maps slot id -> {origin: trips}.
    `total_trips` and `per_origin` are derived from `od_counts` on
    construction. CorruptInputError refuses a profile with no trips, and
    ValueError one with an empty traveller or zone id, a count or an
    `observed_days` that is not an int >= 1 (a bool included), or slot x
    origin counts whose sums per origin differ from `per_origin`; each
    names the profile.
    """

    __slots__ = ("traveller_id", "traveller_type", "od_counts", "slot_origin_counts",
                 "observed_days", "total_trips", "per_origin")

    def __init__(self, traveller_id: str, traveller_type: TravellerType, od_counts: dict,
                 slot_origin_counts: dict, observed_days: int = 1):
        per_origin = {o: sum(row.values()) for o, row in od_counts.items() if row}
        total_trips = sum(per_origin.values())
        name = f"profile {traveller_id!r}"
        if total_trips < 1:
            raise CorruptInputError(f"{name} has no trips")
        check_counts([observed_days], f"{name}: observed_days")
        rows = [*od_counts.values(), *slot_origin_counts.values()]
        check_counts(chain.from_iterable(row.values() for row in rows),
                     f"{name}: OD or slot x origin count")
        if "" in chain([traveller_id], od_counts, *od_counts.values()):
            raise ValueError(f"{name} has an empty traveller or zone id")
        by_origin = {}
        for row in slot_origin_counts.values():
            for o, n in row.items():
                by_origin[o] = by_origin.get(o, 0) + n
        if by_origin != per_origin:
            raise ValueError(f"{name}: slot x origin counts differ from its OD counts per origin")
        self.traveller_id = traveller_id
        self.traveller_type = traveller_type
        self.od_counts = od_counts
        self.slot_origin_counts = slot_origin_counts
        self.observed_days = observed_days
        self.total_trips = total_trips
        self.per_origin = per_origin


class TypeCounts:
    """Departure counts of one traveller type, built from {minute of day:
    departures} under `partition`, as dense lists indexed by minute and by
    slot id (index 0 unused), plus their total. ValueError refuses a minute
    outside 1..1440 and a count that is not an int >= 1, a bool included."""

    __slots__ = ("minute", "slot", "total")

    def __init__(self, minutes: dict, partition: TimeSlotPartition):
        check_counts(minutes.values(), "departure count")
        # A slot spans at least one minute, so slot ids never exceed 1440.
        self.minute = [0] * (MINUTES_PER_DAY + 1)
        self.slot = [0] * (MINUTES_PER_DAY + 1)
        for minute, n in minutes.items():
            self.slot[partition.slot_of(minute).slot_id] += n
            self.minute[minute] += n
        self.total = sum(minutes.values())


class AggregationLedger:
    """The generated side of the feedback factor: the departures of one
    type in one run, held as TypeCounts holds them and recorded one at a
    time against its fixed reference `ref` = reference[ttype], which
    CorruptInputError refuses when it has no departures.

    With r and n a minute's count in the reference and here, R the reference
    total and T = total or 1, keeps the reference's minute and slot shares in
    `shares` and `slot_shares`, n * R of every minute the reference saw in
    `scaled`, and the ascending list `deficit` of minutes with r * T > n * R.

    A minute's status changes only when its own count or T changes, so record
    keeps the list current: T rises by one, the minutes due back at the new
    T re-enter, and the recorded minute is re-tested, which can only take
    it off the list: a minute still waiting has r * T <= n * R < (n + 1) * R.
    A minute that leaves waits in `_waiting`, keyed by the least T that
    puts it back in deficit (n * R // r + 1), and `_due[m]` holds that key
    (0 while listed); an entry whose key no longer matches `_due` is stale
    and skipped.
    """

    __slots__ = ("minute", "slot", "total", "ref", "shares", "slot_shares", "scaled", "deficit",
                 "_due", "_waiting")

    def __init__(self, reference: dict, ttype: TravellerType):
        ref = reference.get(ttype)
        if ref is None or not ref.total:
            raise CorruptInputError(f"no departures for type {ttype.value!r}")
        self.ref = ref
        self.minute = [0] * (MINUTES_PER_DAY + 1)
        self.slot = [0] * (MINUTES_PER_DAY + 1)
        self.total = 0
        self.shares = [r / ref.total for r in ref.minute]
        self.slot_shares = [e / ref.total for e in ref.slot]
        self.scaled = [0] * (MINUTES_PER_DAY + 1)
        # Empty, so every minute the reference saw trails its share.
        self.deficit = [m for m in range(1, MINUTES_PER_DAY + 1) if ref.minute[m]]
        self._due = [0] * (MINUTES_PER_DAY + 1)
        self._waiting = defaultdict(list)

    def record(self, slot_id: int, minute: int) -> None:
        if not (1 <= minute <= MINUTES_PER_DAY and 1 <= slot_id <= MINUTES_PER_DAY):
            raise ValueError(f"cannot record slot {slot_id}, minute {minute}")
        self.slot[slot_id] += 1
        self.minute[minute] += 1
        self.total = total = self.total + 1
        listed, due = self.deficit, self._due
        back = self._waiting.pop(total, None)
        if back:
            for m in back:
                if due[m] == total:
                    due[m] = 0
                    insort(listed, m)
        ref = self.ref
        r = ref.minute[minute]
        if r:
            self.scaled[minute] = scaled = self.minute[minute] * ref.total
            if r * total <= scaled:
                if not due[minute]:
                    del listed[bisect_left(listed, minute)]
                due[minute] = at = scaled // r + 1
                self._waiting[at].append(minute)
