"""Read and write the on-disk formats; build the aggregates generation needs.

The tables are flat CSV: a trip table, a zone table, and an optional road
network edge list, of which only the road ids are read: generation draws
whole observed routes, so adjacency is never checked. Malformed trip rows are
collected, not fatal; a parse returns both the accepted records and per-row
errors. Each table's writer sits next to its parser and shares its header
and separator constants; the JSON store sits next to the types it holds.
"""
from __future__ import annotations

import csv
import datetime as dt
import functools
import json
import logging
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .model import (
    AggregationLedger,
    IndividualProfile,
    TimeSlotPartition,
    TravellerType,
    TripRecord,
    Zone,
    hhmm_to_minute,
    minute_to_hhmm,
)

log = logging.getLogger(__name__)

# Headers as written; the parsers match column names case-insensitively.
TRIP_HEADER = (
    "traveller_ID",
    "traveller_type",
    "Date",
    "Departure_time",
    "Time_slot",
    "O_zone",
    "D_zone",
    "Path",
    "Duration",
)
ZONE_HEADER = ("Zone_ID", "Longitude", "Latitude", "Roads")
NETWORK_HEADER = ("road_id", "neighbor_id")

PATH_SEPARATOR = "-"
ROAD_LIST_SEPARATOR = ";"
NETWORK_SEPARATOR = ","

STORE_VERSION = 2


@dataclass(frozen=True)
class RowError:
    """One rejected CSV row: physical line number plus a stable reason kind."""

    line: int
    reason: str
    detail: str = ""


@dataclass
class ParseResult:
    records: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def error_counts(self) -> Counter:
        return Counter(err.reason for err in self.errors)


def _header_index(header, wanted, what) -> list:
    """The index of each column named in `wanted`, case-insensitively.

    A missing column is a hard error: nothing row-level can recover it.
    """
    lookup = {name.strip().lower(): i for i, name in enumerate(header)}
    index = []
    for name in wanted:
        name = name.lower()
        if name not in lookup:
            raise ValueError(f"{what} table is missing column {name!r}")
        index.append(lookup[name])
    return index


def parse_day_index(text: str, epoch: dt.date) -> int:
    """Day index from either an ISO date or a bare integer offset."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    return (dt.date.fromisoformat(text) - epoch).days


def _memo(cache: dict, text: str, parse):
    """parse(text), stored in `cache` under `text`; None when parse raises
    ValueError. Callers look `text` up first and call this on a miss."""
    try:
        value = parse(text)
    except ValueError:
        value = None
    cache[text] = value
    return value


# Marks a text not yet in a memo, whose values include None.
_MISSING = object()


def _at_line(reader, exc: csv.Error) -> csv.Error:
    """`exc` with the number of the line `reader` stopped at in front."""
    return csv.Error(f"line {reader.line_num}: {exc}")


def parse_trips(
    stream,
    epoch: dt.date,
    *,
    duration_divisor: float = 1.0,
    delimiter: str = ",",
) -> ParseResult:
    """Parse a historical trip CSV into TripRecords.

    The textual time-slot column is not read: a slot is always derived from
    the departure minute under the partition in use. Durations are
    divided by `duration_divisor` (60.0 for input in seconds) and rounded to
    whole minutes. Bad rows become RowErrors and parsing continues.

    Each distinct type, date, time, duration and path text is parsed once per
    call; rows with the same path text share one path tuple, and rows with
    the same id or zone text one str. A csv.Error names the line it
    stopped at.
    """
    reader = csv.reader(stream, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("trip table is empty") from None
    except csv.Error as exc:
        raise _at_line(reader, exc) from None
    columns = _header_index(header, TRIP_HEADER, "trip")
    width = max(columns) + 1
    c_id, c_type, c_date, c_time, _, c_o, c_d, c_path, c_dur = columns

    def parse_day(text):
        return parse_day_index(text, epoch)

    def parse_duration(text):
        minutes = float(text) / duration_divisor
        if not math.isfinite(minutes):  # round() raises OverflowError on inf
            raise ValueError(text)
        duration = round(minutes)
        if duration < 1:
            raise ValueError(text)
        return duration

    # text -> parsed value, or None for a text that is rejected
    types: dict = {}
    days: dict = {}
    times: dict = {}
    durations: dict = {}
    paths: dict = {}
    # raw id or zone text -> its stripped value, one str per distinct text
    names: dict = {}

    result = ParseResult()
    errors = result.errors
    records = result.records
    try:
        for row in reader:
            line = reader.line_num
            if len(row) < width:
                # A blank row is short or, at full width, fails the type
                # check, so it is only looked for on these two paths.
                if "".join(row).strip():
                    errors.append(RowError(line, "short row", f"{len(row)} fields"))
                continue
            text = row[c_type]
            ttype = types.get(text, _MISSING)
            if ttype is _MISSING:
                ttype = _memo(types, text, TravellerType.parse)
            if ttype is None:
                if "".join(row).strip():
                    errors.append(RowError(line, "unknown traveller type", text))
                continue
            text = row[c_date]
            day = days.get(text, _MISSING)
            if day is _MISSING:
                day = _memo(days, text, parse_day)
            if day is None:
                errors.append(RowError(line, "bad date", text))
                continue
            text = row[c_time]
            departure = times.get(text, _MISSING)
            if departure is _MISSING:
                departure = _memo(times, text, hhmm_to_minute)
            if departure is None:
                errors.append(RowError(line, "bad departure time", text))
                continue
            text = row[c_dur]
            duration = durations.get(text, _MISSING)
            if duration is _MISSING:
                duration = _memo(durations, text, parse_duration)
            if duration is None:
                errors.append(RowError(line, "bad duration", text))
                continue
            text = row[c_path]
            path = paths.get(text)
            if path is None:
                path = paths[text] = tuple(p for p in text.split(PATH_SEPARATOR) if p)
            if not path:
                errors.append(RowError(line, "empty path"))
                continue
            text = row[c_o]
            o_zone = names.get(text)
            if o_zone is None:
                o_zone = names[text] = text.strip()
            text = row[c_d]
            d_zone = names.get(text)
            if d_zone is None:
                d_zone = names[text] = text.strip()
            if not o_zone or not d_zone:
                errors.append(RowError(line, "missing zone"))
                continue
            text = row[c_id]
            traveller_id = names.get(text)
            if traveller_id is None:
                traveller_id = names[text] = text.strip()
            if not traveller_id:
                errors.append(RowError(line, "missing traveller id"))
                continue
            records.append(
                TripRecord(
                    traveller_id=traveller_id,
                    traveller_type=ttype,
                    date=day,
                    departure=departure,
                    o_zone=o_zone,
                    d_zone=d_zone,
                    path=path,
                    duration=duration,
                )
            )
    except csv.Error as exc:
        raise _at_line(reader, exc) from None
    if result.errors:
        log.warning(
            "rejected %d trip rows: %s",
            len(result.errors),
            dict(result.error_counts),
        )
    return result


class _LineFeedRows:
    """Stream adapter for a csv writer that ends rows with "\r\n".

    With a "\n" terminator the csv module before Python 3.13 leaves a field
    holding "\r" unquoted, and the row cannot be read back. Ending rows with
    "\r\n" makes the writer quote it; each row still reaches `stream`
    ending "\n"."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, row: str):
        return self.stream.write(row[:-2] + "\n")


def write_trips_csv(records, stream, epoch: dt.date, partition: TimeSlotPartition,
                    delimiter: str = ",") -> int:
    """Write `records` as a trip table; returns the number of rows.

    The slot label is that of the departure's slot under `partition`. Each
    date, departure time and slot label is rendered once per call.
    """
    writer = csv.writer(_LineFeedRows(stream), delimiter=delimiter, lineterminator="\r\n")
    writer.writerow(TRIP_HEADER)
    date_text = functools.cache(lambda day: (epoch + dt.timedelta(days=day)).isoformat())
    time_text = functools.cache(minute_to_hhmm)
    slot_label = functools.cache(lambda minute: partition.slot_of(minute).label())
    n = 0
    for trip in records:
        writer.writerow(
            (
                trip.traveller_id,
                trip.traveller_type.value,
                date_text(trip.date),
                time_text(trip.departure),
                slot_label(trip.departure),
                trip.o_zone,
                trip.d_zone,
                PATH_SEPARATOR.join(trip.path),
                trip.duration,
            )
        )
        n += 1
    return n


def parse_zones(stream, *, delimiter: str = ",") -> list:
    """Parse the zone table. A short row, a missing or duplicate zone id and
    a coordinate that is not a number are hard errors; each, like a
    csv.Error, names the line it stopped at."""
    reader = csv.reader(stream, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("zone table is empty") from None
    except csv.Error as exc:
        raise _at_line(reader, exc) from None
    columns = _header_index(header, ZONE_HEADER, "zone")
    width = max(columns) + 1
    c_id, c_lon, c_lat, c_roads = columns
    zones = []
    seen = set()
    try:
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            line = reader.line_num
            if len(row) < width:
                raise ValueError(f"line {line}: short row, {len(row)} fields")
            zone_id = row[c_id].strip()
            if not zone_id:
                raise ValueError(f"line {line}: missing zone id")
            if zone_id in seen:
                raise ValueError(f"line {line}: duplicate zone id {zone_id!r}")
            seen.add(zone_id)
            try:
                longitude = float(row[c_lon])
                latitude = float(row[c_lat])
            except ValueError as exc:
                raise ValueError(f"line {line}: {exc}") from None
            roads = frozenset(
                r for r in row[c_roads].split(ROAD_LIST_SEPARATOR) if r.strip()
            )
            zones.append(
                Zone(zone_id=zone_id, longitude=longitude, latitude=latitude, roads=roads)
            )
    except csv.Error as exc:
        raise _at_line(reader, exc) from None
    return zones


def write_zones_csv(zones, stream, delimiter: str = ",") -> None:
    writer = csv.writer(_LineFeedRows(stream), delimiter=delimiter, lineterminator="\r\n")
    writer.writerow(ZONE_HEADER)
    for zone in zones:
        roads = ROAD_LIST_SEPARATOR.join(sorted(zone.roads))
        writer.writerow((zone.zone_id, zone.longitude, zone.latitude, roads))


def parse_network(stream) -> frozenset:
    """The road ids of a road network edge list: one `road_id,neighbor_id`
    per line. Adjacency is not kept; a leading header line is skipped.
    """
    expected = NETWORK_SEPARATOR.join(NETWORK_HEADER)
    roads = set()
    for i, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(NETWORK_SEPARATOR)]
        if len(parts) != len(NETWORK_HEADER) or not all(parts):
            raise ValueError(f"line {i}: expected {expected!r}, got {raw!r}")
        if i == 1 and parts[0].lower() == NETWORK_HEADER[0]:
            continue
        roads.update(parts)
    return frozenset(roads)


def write_network_csv(edges, stream) -> None:
    """Write (road, neighbor) pairs as a network edge list, in the order given."""
    stream.write(NETWORK_SEPARATOR.join(NETWORK_HEADER) + "\n")
    for road, neighbor in edges:
        stream.write(f"{road}{NETWORK_SEPARATOR}{neighbor}\n")


def build_profiles(trips, partition: TimeSlotPartition, window_days: int) -> dict:
    """Fold trips into per-individual history profiles.

    Returns {traveller_id: IndividualProfile}. If an individual appears under
    more than one traveller type, the first-seen type wins and a warning is
    logged. Trip dates spanning more days than `window_days` are an error:
    every daily rate would be inflated by the ratio.
    """
    if window_days < 1:
        raise ValueError("window_days must be >= 1")
    types: dict = {}
    od_counts: dict = defaultdict(lambda: defaultdict(Counter))
    slot_origin: dict = defaultdict(lambda: defaultdict(Counter))
    conflicted = set()
    dates = set()

    for trip in trips:
        tid = trip.traveller_id
        if tid not in types:
            types[tid] = trip.traveller_type
        elif types[tid] is not trip.traveller_type:
            conflicted.add(tid)
        dates.add(trip.date)
        od_counts[tid][trip.o_zone][trip.d_zone] += 1
        slot_origin[tid][partition.slot_of(trip.departure).slot_id][trip.o_zone] += 1

    if dates and max(dates) - min(dates) + 1 > window_days:
        raise ValueError(
            f"trip dates span {max(dates) - min(dates) + 1} days, "
            f"more than window_days = {window_days}"
        )
    if conflicted:
        log.warning(
            "%d individuals appear under multiple traveller types; keeping first-seen",
            len(conflicted),
        )

    return {
        tid: IndividualProfile(
            traveller_id=tid,
            traveller_type=types[tid],
            od_counts={o: dict(dst) for o, dst in od_counts[tid].items()},
            slot_origin_counts={s: dict(by_o) for s, by_o in slot_origin[tid].items()},
            observed_days=window_days,
        )
        for tid in sorted(types)
    }


@dataclass(frozen=True)
class PathEntry:
    """One pooled route between a zone pair, with its crowd-level count."""

    path_id: str
    path: tuple
    crowd_count: int


class PathCatalog:
    """Crowd-level route pool: (o_zone, d_zone) -> observed paths with counts."""

    def __init__(self, entries):
        self.entries = {od: tuple(paths) for od, paths in entries.items()}
        # (entries, cumulative crowd counts) per OD pair, filled by
        # generator.select_path on the pair's first draw and kept as long
        # as the catalog.
        self.route_draws = {}

    def get(self, o_zone: str, d_zone: str):
        return self.entries.get((o_zone, d_zone), ())

    def __contains__(self, od) -> bool:
        return od in self.entries

    def od_pairs(self):
        return sorted(self.entries)

    def __len__(self):
        return len(self.entries)


def path_id_of(path) -> str:
    """Canonical identity of a road sequence (the rendered sequence itself)."""
    return PATH_SEPARATOR.join(path)


def build_path_catalog(trips) -> PathCatalog:
    """Pool paths across all individuals per OD pair, counting occurrences."""
    counts: dict = defaultdict(Counter)
    paths_by_id: dict = {}
    for trip in trips:
        pid = path_id_of(trip.path)
        counts[(trip.o_zone, trip.d_zone)][pid] += 1
        paths_by_id[pid] = trip.path
    entries = {}
    for od in sorted(counts):
        entries[od] = tuple(
            PathEntry(pid, paths_by_id[pid], n)
            for pid, n in sorted(counts[od].items())
        )
    return PathCatalog(entries)


@dataclass
class DurationPool:
    """Historical trip durations pooled by (path, slot), with a path-only
    fallback pool derived from them on construction."""

    samples: dict = field(default_factory=dict)  # (path_id, slot_id) -> tuple
    fallback: dict = field(init=False)  # path_id -> tuple

    def __post_init__(self):
        pooled: dict = defaultdict(list)
        for (pid, _), values in self.samples.items():
            pooled[pid].extend(values)
        self.fallback = {pid: tuple(sorted(v)) for pid, v in pooled.items()}


def build_duration_pools(trips, partition: TimeSlotPartition) -> DurationPool:
    samples: dict = defaultdict(list)
    for trip in trips:
        slot_id = partition.slot_of(trip.departure).slot_id
        samples[(path_id_of(trip.path), slot_id)].append(trip.duration)
    return DurationPool({k: tuple(sorted(v)) for k, v in samples.items()})


def build_reference_aggregates(trips, partition: TimeSlotPartition) -> AggregationLedger:
    """Count departures per minute and per slot, keyed by traveller type."""
    per_type_minutes: dict = defaultdict(Counter)
    for trip in trips:
        per_type_minutes[trip.traveller_type][trip.departure] += 1
    return reference_from_minutes(per_type_minutes, partition)


def reference_from_minutes(
    per_type_minutes: dict, partition: TimeSlotPartition
) -> AggregationLedger:
    """A reference ledger from {traveller type: {minute: departures}}."""
    reference = AggregationLedger()
    for ttype, minutes in per_type_minutes.items():
        counts = reference.counts(ttype)
        for minute, n in minutes.items():
            counts.add(partition.slot_of(minute).slot_id, minute, n)
    return reference


# ---------------------------------------------------------------------------
# Store: versioned, deterministic JSON.


def save_store(path, *, partition, window_days, profiles, catalog, pools,
               reference) -> None:
    """Persist only what `generate` cannot derive: per-individual OD and
    slot x origin counts, the route catalog, per-(route, slot) durations
    and the per-type reference departures. Ids are stored as JSON strings
    and lists, never joined with a delimiter."""
    doc = {
        "version": STORE_VERSION,
        "window_days": window_days,
        "partition": partition.boundaries(),
        "profiles": {
            tid: {
                "type": p.traveller_type.value,
                "od": p.od_counts,
                "slot_origin": {
                    str(s): by_o for s, by_o in p.slot_origin_counts.items()
                },
            }
            for tid, p in profiles.items()
        },
        "catalog": [
            [o, d, [[e.path_id, e.crowd_count] for e in catalog.get(o, d)]]
            for o, d in catalog.od_pairs()
        ],
        "pools": [
            [pid, slot, list(v)] for (pid, slot), v in sorted(pools.samples.items())
        ],
        "reference": {
            ttype.value: {str(m): n for m, n in enumerate(counts.minute) if n}
            for ttype, counts in reference.by_type.items()
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


@dataclass
class Store:
    """Everything `generate` needs, as rebuilt from the persisted form."""

    partition: TimeSlotPartition
    window_days: int
    profiles: dict
    catalog: PathCatalog
    pools: DurationPool
    reference: AggregationLedger


def load_store(path) -> Store:
    """The store saved at `path`. A file that is not JSON, not a store of
    this version or malformed inside is a ValueError naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: store is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: store is not a JSON object")
    version = doc.get("version")
    if version != STORE_VERSION:
        raise ValueError(f"{path}: unsupported store version: {version!r}")
    try:
        partition = TimeSlotPartition.from_boundaries(doc["partition"])
        window_days = doc["window_days"]
        if type(window_days) is not int or window_days < 1:
            raise ValueError(f"window_days is not an integer >= 1: {window_days!r}")
        profiles = {
            tid: IndividualProfile(
                traveller_id=tid,
                traveller_type=TravellerType(raw["type"]),
                od_counts=raw["od"],
                slot_origin_counts={int(s): by_o for s, by_o in raw["slot_origin"].items()},
                observed_days=window_days,
            )
            for tid, raw in doc["profiles"].items()
        }
        catalog = PathCatalog(
            {
                (o, d): [
                    PathEntry(pid, tuple(pid.split(PATH_SEPARATOR)), n) for pid, n in rows
                ]
                for o, d, rows in doc["catalog"]
            }
        )
        pools = DurationPool({(pid, slot): tuple(v) for pid, slot, v in doc["pools"]})
        reference = reference_from_minutes(
            {
                TravellerType(name): {int(m): n for m, n in counts.items()}
                for name, counts in doc["reference"].items()
            },
            partition,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: store has no key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed store: {exc}") from None
    return Store(
        partition=partition,
        window_days=window_days,
        profiles=profiles,
        catalog=catalog,
        pools=pools,
        reference=reference,
    )
