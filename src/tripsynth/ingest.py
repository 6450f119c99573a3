"""Read and write the on-disk formats; build the aggregates generation needs.

The tables are flat CSV: a trip table, a zone table, of which only the
zone ids are read, and an optional road network edge list, of which only
the road ids are read: generation draws whole observed routes, so adjacency
is never checked. Malformed trip rows are collected, not fatal; a parse
returns both the accepted rows, as the columns of a TripTable that the
builders fold, and per-row errors. Each table's writer sits next to its
parser and shares its header and separator constants; the JSON store sits
next to the types it holds.
"""
from __future__ import annotations

import csv
import datetime as dt
import functools
import json
import logging
import math
import re
from collections import Counter, defaultdict, namedtuple
from itertools import chain
from pathlib import Path

from .model import (
    IndividualProfile,
    TimeSlotPartition,
    TYPE_ORDER,
    TravellerType,
    TripTable,
    TypeCounts,
    check_counts,
    hhmm_to_minute,
    minute_to_hhmm,
    path_id_of,
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

ROAD_LIST_SEPARATOR = ";"
NETWORK_SEPARATOR = ","

STORE_VERSION = 2


class RowError(namedtuple("RowError", "line reason detail", defaults=("",))):
    """One rejected CSV row: physical line number plus a stable reason kind."""

    __slots__ = ()


class ParseResult:
    """The rows a parse accepted, as a TripTable, and a RowError per row it refused."""

    __slots__ = ("records", "errors")

    def __init__(self, records: TripTable | None = None, errors: list | None = None):
        self.records = TripTable() if records is None else records
        self.errors = [] if errors is None else errors

    @property
    def error_counts(self) -> Counter:
        return Counter(err.reason for err in self.errors)


def _header_index(header, wanted, what) -> list:
    """The index of each column named in `wanted`, case-insensitively.

    A missing column, or one named twice, is a hard error: nothing
    row-level can recover it, nor tell which copy was meant.
    """
    names = [name.strip().lower() for name in header]
    index = []
    for name in wanted:
        name = name.lower()
        copies = names.count(name)
        if copies == 0:
            raise ValueError(f"{what} table is missing column {name!r}")
        if copies > 1:
            raise ValueError(f"{what} table names column {name!r} twice")
        index.append(names.index(name))
    return index


# ASCII digits only: int() also reads other Unicode digits and "_", and
# date.fromisoformat reads "20190812" and "2019-W33-1" on 3.11+ only.
_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_DAY_INDEX = re.compile(r"[+-]?[0-9]+")


def parse_date(text: str) -> dt.date:
    """The date `text` spells as `YYYY-MM-DD`, unpadded, as the Date column
    and the config's `epoch` read it; ValueError on any other spelling."""
    if _DATE.fullmatch(text) is None:
        raise ValueError(f"bad date: {text!r}")
    return dt.date.fromisoformat(text)


def parse_day_index(text: str, epoch: dt.date) -> int:
    """Day index from a `YYYY-MM-DD` date or an optionally signed integer, padding stripped."""
    text = text.strip()
    if _DAY_INDEX.fullmatch(text):
        return int(text)
    return (parse_date(text) - epoch).days


class _Memo(dict):
    """parse(text) of each text looked up, None where it raises ValueError."""

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, text):
        try:
            value = self.parse(text)
        except ValueError:
            value = None
        self[text] = value
        return value


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
    """Parse a historical trip CSV into a TripTable.

    The textual time-slot column is not read: a slot is always derived from
    the departure minute under the partition in use. A date is read by
    parse_day_index and a departure time by hhmm_to_minute; a duration is
    an ASCII decimal without "_", divided by `duration_divisor` (60.0 for
    input in seconds) and rounded half to even to whole minutes. Bad rows
    become RowErrors and parsing continues.

    Each accepted row takes the type of its traveller's first accepted
    row; a warning counts the travellers whose rows named several types.

    Each distinct type, date, time, duration, path, id and zone text is
    parsed once per call; rows go straight into the table's columns, and
    texts that strip to the same id or zone, or have the same path_id_of
    route id, share one code.
    A csv.Error names the line it stopped at.
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

    def parse_duration(text):
        if not text.isascii() or "_" in text:  # float() reads other digits and "_"
            raise ValueError(text)
        minutes = float(text) / duration_divisor
        if not math.isfinite(minutes):  # round() raises OverflowError on inf
            raise ValueError(text)
        duration = round(minutes)
        if duration < 1:
            raise ValueError(text)
        return duration

    result = ParseResult()
    errors = result.errors
    table = result.records
    name_codes, path_codes = {}, {}  # name or route id -> its code, in first-seen order

    def parse_name(text):
        name = text.strip()
        if not name:
            raise ValueError(text)
        return name_codes.setdefault(name, len(name_codes))

    def parse_path(text):
        return path_codes.setdefault(path_id_of(text), len(path_codes))

    # text -> parsed value or code, None for a rejected text
    types = _Memo(lambda text: TYPE_ORDER.index(TravellerType.parse(text)))
    days = _Memo(lambda text: parse_day_index(text, epoch))
    times = _Memo(hhmm_to_minute)
    durations = _Memo(parse_duration)
    paths = _Memo(parse_path)
    names = _Memo(parse_name)
    append = table.append
    retyped = set()  # travellers whose rows named several types
    try:
        for row in reader:
            line = reader.line_num
            if len(row) < width:
                # A blank row is short or, at full width, fails the type
                # check, so it is only looked for on these two paths.
                if "".join(row).strip():
                    errors.append(RowError(line, "short row", f"{len(row)} fields"))
                continue
            ttype = types[row[c_type]]
            if ttype is None:
                if "".join(row).strip():
                    errors.append(RowError(line, "unknown traveller type", row[c_type]))
                continue
            day = days[row[c_date]]
            if day is None:
                errors.append(RowError(line, "bad date", row[c_date]))
                continue
            departure = times[row[c_time]]
            if departure is None:
                errors.append(RowError(line, "bad departure time", row[c_time]))
                continue
            duration = durations[row[c_dur]]
            if duration is None:
                errors.append(RowError(line, "bad duration", row[c_dur]))
                continue
            path = paths[row[c_path]]
            if path is None:
                errors.append(RowError(line, "empty path"))
                continue
            o_zone, d_zone = names[row[c_o]], names[row[c_d]]
            if o_zone is None or d_zone is None:
                errors.append(RowError(line, "missing zone"))
                continue
            traveller = names[row[c_id]]
            if traveller is None:
                errors.append(RowError(line, "missing traveller id"))
                continue
            if append(traveller, ttype, day, departure, o_zone, d_zone, path, duration) != ttype:
                retyped.add(traveller)
    except csv.Error as exc:
        raise _at_line(reader, exc) from None
    table.names, table.paths = list(name_codes), list(path_codes)
    if errors:
        counts = result.error_counts
        first = {}  # reason -> its first RowError
        for err in errors:
            first.setdefault(err.reason, err)
        log.warning("rejected %d trip rows: %s", len(errors), ", ".join(
            f"{reason} x{counts[reason]} (first at line {err.line}"
            f"{f': {err.detail!r}' if err.detail else ''})" for reason, err in first.items()
        ))
    if retyped:
        log.warning(
            "retyped %d travellers seen under several types to their first type",
            len(retyped),
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
                trip.path,
                trip.duration,
            )
        )
        n += 1
    return n


def parse_zones(stream, *, delimiter: str = ",") -> frozenset:
    """The stripped zone ids of a zone table; only `Zone_ID` is read. A
    short row, a missing zone id and a duplicate one are hard errors; each,
    like a csv.Error, names the line it stopped at."""
    reader = csv.reader(stream, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("zone table is empty") from None
    except csv.Error as exc:
        raise _at_line(reader, exc) from None
    columns = _header_index(header, ZONE_HEADER, "zone")
    width = max(columns) + 1
    c_id = columns[0]
    zone_ids = set()
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
            if zone_id in zone_ids:
                raise ValueError(f"line {line}: duplicate zone id {zone_id!r}")
            zone_ids.add(zone_id)
    except csv.Error as exc:
        raise _at_line(reader, exc) from None
    return frozenset(zone_ids)


def write_zones_csv(zones, stream, delimiter: str = ",") -> None:
    writer = csv.writer(_LineFeedRows(stream), delimiter=delimiter, lineterminator="\r\n")
    writer.writerow(ZONE_HEADER)
    for zone in zones:
        roads = ROAD_LIST_SEPARATOR.join(sorted(zone.roads))
        writer.writerow((zone.zone_id, zone.longitude, zone.latitude, roads))


def parse_network(stream) -> frozenset:
    """The road ids of a road network edge list, a CSV table of
    `road_id,neighbor_id` rows. Adjacency is not kept; a first non-blank
    row equal to the header is skipped. A row that does not hold two ids,
    like a csv.Error, names its line."""
    expected = NETWORK_SEPARATOR.join(NETWORK_HEADER)
    reader = csv.reader(stream, delimiter=NETWORK_SEPARATOR)
    roads = set()
    first = True  # until the first non-blank row
    try:
        for row in reader:
            ids = [cell.strip() for cell in row]
            if not any(ids):
                continue
            if len(ids) != len(NETWORK_HEADER) or not all(ids):
                raise ValueError(f"line {reader.line_num}: expected {expected!r}, got {row!r}")
            if first:
                first = False
                if tuple(map(str.lower, ids)) == NETWORK_HEADER:
                    continue
            roads.update(ids)
    except csv.Error as exc:
        raise _at_line(reader, exc) from None
    return frozenset(roads)


def write_network_csv(edges, stream) -> None:
    """Write (road, neighbor) pairs as a network edge list, in the order given."""
    writer = csv.writer(_LineFeedRows(stream), delimiter=NETWORK_SEPARATOR, lineterminator="\r\n")
    writer.writerow(NETWORK_HEADER)
    writer.writerows(edges)


def build_profiles(trips, partition: TimeSlotPartition, window_days: int) -> dict:
    """Fold trips into per-individual history profiles.

    Returns {traveller_id: IndividualProfile}, each under its traveller's
    type in the table.
    Trip dates spanning more days than `window_days` are an error: every
    daily rate would be inflated by the ratio. Fewer days log a warning, as
    every daily rate is deflated by the ratio.
    """
    table = TripTable.of(trips)
    names, types = table.names, table.types
    if table.date:
        span = max(table.date) - min(table.date) + 1
        if span > window_days:
            raise ValueError(f"trip dates span {span} days, more than window_days = {window_days}")
        if span < window_days:
            log.warning("trip dates span %d days, fewer than window_days = %d: every daily "
                        "rate is deflated by the ratio", span, window_days)
    od_counts: dict = defaultdict(lambda: defaultdict(dict))
    for (tid, o, d), n in Counter(zip(table.traveller, table.o_zone, table.d_zone)).items():
        od_counts[tid][names[o]][names[d]] = n
    slots = map(partition.slot_ids().__getitem__, table.departure)
    slot_origin: dict = defaultdict(lambda: defaultdict(dict))
    for (tid, slot, o), n in Counter(zip(table.traveller, slots, table.o_zone)).items():
        slot_origin[tid][slot][names[o]] = n
    return {
        names[tid]: IndividualProfile(
            traveller_id=names[tid],
            traveller_type=TYPE_ORDER[types[tid]],
            od_counts=dict(od_counts[tid]),
            slot_origin_counts=dict(slot_origin[tid]),
            observed_days=window_days,
        )
        for tid in sorted(types, key=names.__getitem__)
    }


class PathEntry(namedtuple("PathEntry", "path_id crowd_count")):
    """One pooled route between a zone pair, with its crowd-level count."""

    __slots__ = ()


class PathCatalog:
    """Crowd-level route pool: (o_zone, d_zone) -> observed routes with counts.
    ValueError refuses a crowd count that is not an int >= 1, a bool
    included, and a route id other than its own path_id_of.
    A run only reads it: generate_all draws from a table it builds per call."""

    def __init__(self, entries):
        self.entries = {od: tuple(paths) for od, paths in entries.items()}
        routes = list(chain.from_iterable(self.entries.values()))
        check_counts((e.crowd_count for e in routes), "crowd count")
        for e in routes:
            if path_id_of(e.path_id) != e.path_id:
                raise ValueError(f"route {e.path_id!r} has an empty or padded road")

    def get(self, o_zone: str, d_zone: str):
        return self.entries.get((o_zone, d_zone), ())

    def od_pairs(self):
        return sorted(self.entries)


def build_path_catalog(trips) -> PathCatalog:
    """Pool routes across all individuals per OD pair, counting occurrences."""
    table = TripTable.of(trips)
    names, paths = table.names, table.paths
    counts: dict = defaultdict(Counter)
    for (o, d, p), n in Counter(zip(table.o_zone, table.d_zone, table.path)).items():
        counts[(names[o], names[d])][paths[p]] += n
    return PathCatalog({od: tuple(map(PathEntry._make, sorted(counts[od].items())))
                        for od in sorted(counts)})


class DurationPool:
    """Historical trip durations pooled by (path, slot), with a path-only
    fallback pool per path derived from them when that path first needs
    one."""

    __slots__ = ("samples", "_slot_ids", "_fallback")

    def __init__(self, samples: dict | None = None):
        self.samples = {} if samples is None else samples  # (path_id, slot_id) -> tuple
        self._slot_ids = None  # every slot id up to the largest sampled, once a path needs it
        self._fallback = {}  # path_id -> its path-only pool, for each path built

    def fallback(self, path_id: str) -> tuple:
        """The sorted durations of all slots of `path_id`, () when it has none."""
        pool = self._fallback.get(path_id)
        if pool is None:
            if self._slot_ids is None:
                self._slot_ids = range(1, max((s for _, s in self.samples), default=0) + 1)
            get = self.samples.get
            self._fallback[path_id] = pool = tuple(sorted(chain.from_iterable(
                get((path_id, s), ()) for s in self._slot_ids)))
        return pool


def build_duration_pools(trips, partition: TimeSlotPartition) -> DurationPool:
    """Durations by (path id, slot id), each pool a sorted tuple; each list
    gives way to its tuple before the next one is built."""
    table = TripTable.of(trips)
    keys = zip(map(table.paths.__getitem__, table.path),
               map(partition.slot_ids().__getitem__, table.departure))
    samples: dict = defaultdict(list)
    for key, duration in zip(keys, table.duration):
        samples[key].append(duration)
    for key, values in samples.items():
        values.sort()
        samples[key] = tuple(values)
    return DurationPool(dict(samples))


def build_reference_aggregates(trips, partition: TimeSlotPartition) -> dict:
    """{traveller type: TypeCounts} of the departures, each row under its
    traveller's type in the table."""
    table = TripTable.of(trips)
    per_type_minutes: dict = defaultdict(dict)
    row_types = map(table.types.__getitem__, table.traveller)
    for (t, minute), n in Counter(zip(row_types, table.departure)).items():
        per_type_minutes[TYPE_ORDER[t]][minute] = n
    return {t: TypeCounts(minutes, partition) for t, minutes in per_type_minutes.items()}


# ---------------------------------------------------------------------------
# Store: versioned, deterministic JSON.


def _joined(texts):
    """`texts` separated by commas."""
    for i, text in enumerate(texts):
        yield "," + text if i else text


def save_store(path, *, partition, window_days, profiles, catalog, pools,
               reference) -> None:
    """Persist only what `generate` cannot derive: per-individual OD and
    slot x origin counts, the route catalog, per-(route, slot) durations
    and the per-type reference departures. Ids are stored as JSON strings
    and lists, never joined with a delimiter.

    The document is written one section and one element at a time, its
    keys in sorted order: the file holds json.dumps(document,
    sort_keys=True, separators=(",", ":")) and a newline, never whole."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"catalog":[')
        fh.writelines(_joined(
            encode([o, d, [[e.path_id, e.crowd_count] for e in catalog.get(o, d)]])
            for o, d in catalog.od_pairs()
        ))
        fh.write(f'],"partition":{encode(partition.boundaries())},"pools":[')
        fh.writelines(_joined(
            encode([pid, slot, list(v)]) for (pid, slot), v in sorted(pools.samples.items())
        ))
        fh.write('],"profiles":{')
        fh.writelines(_joined(
            encode(tid) + ":" + encode({
                "type": p.traveller_type.value,
                "od": p.od_counts,
                "slot_origin": {str(s): by_o for s, by_o in p.slot_origin_counts.items()},
            })
            for tid, p in sorted(profiles.items())
        ))
        fh.write('},"reference":{')
        fh.writelines(_joined(
            encode(name) + ":" + encode({str(m): n for m, n in enumerate(counts.minute) if n})
            for name, counts in sorted((t.value, c) for t, c in reference.items())
        ))
        fh.write(f'}},"version":{STORE_VERSION},"window_days":{encode(window_days)}}}\n')


class Store:
    """Everything `generate` needs, as rebuilt from the persisted form."""

    __slots__ = ("partition", "profiles", "catalog", "pools", "reference")

    def __init__(self, partition: TimeSlotPartition, profiles: dict, catalog: PathCatalog,
                 pools: DurationPool, reference: dict):
        self.partition = partition
        self.profiles = profiles
        self.catalog = catalog
        self.pools = pools
        self.reference = reference  # {TravellerType: TypeCounts}


def _int_key(text: str) -> int:
    """The int a key spells as str() writes it; ValueError on any other spelling."""
    if str(n := int(text)) != text:
        raise ValueError(f"key is not an integer as written: {text!r}")
    return n


def _same_totals(expected: dict, found: dict, what: str) -> None:
    """ValueError naming, through `what`, the least key whose total differs
    between the two; a key missing on either side differs."""
    if expected != found:
        key = min(k for k in expected.keys() | found.keys() if expected.get(k) != found.get(k))
        raise ValueError(what.format(key))


def load_store(path) -> Store:
    """The store saved at `path`. A file that is not JSON, not a store of
    this version or malformed inside is a ValueError naming the file.
    Malformed includes what IndividualProfile, PathCatalog, TypeCounts and
    TimeSlotPartition refuse to build, a `window_days`, slot id or pooled
    duration that is not an int >= 1, a slot or minute key not spelled as
    str() writes its int, a slot id outside the partition, a type whose
    reference slot totals are not the sums of its profiles' slot counts, an
    OD pair whose catalog counts do not sum its profiles' OD counts, and a
    route with other than one pooled duration per catalog count.

    Each section is popped from the parsed document and released once it
    is converted, each pooled list as soon as its tuple exists. Equal zone
    and route texts of the catalog and the pools share one str."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: store is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: store is not a JSON object")
    version = doc.get("version")
    if version != STORE_VERSION:
        raise ValueError(f"{path}: unsupported store version: {version!r}")
    try:
        partition = TimeSlotPartition(doc["partition"])
        window_days = doc["window_days"]
        check_counts([window_days], "window_days")
        profiles = {
            tid: IndividualProfile(
                traveller_id=tid,
                traveller_type=TravellerType(raw["type"]),
                od_counts=raw["od"],
                slot_origin_counts={
                    partition.by_id(_int_key(s)).slot_id: by_o
                    for s, by_o in raw["slot_origin"].items()
                },
                observed_days=window_days,
            )
            for tid, raw in doc.pop("profiles").items()
        }
        one = {}.setdefault  # one(text, text): the one str kept for equal texts
        catalog = PathCatalog(
            {
                (one(o, o), one(d, d)): [PathEntry(one(pid, pid), n) for pid, n in rows]
                for o, d, rows in doc.pop("catalog")
            }
        )
        rows = doc.pop("pools")
        check_counts((slot for _, slot, _ in rows), "slot id")
        rows.reverse()
        samples = {}
        while rows:
            pid, slot, values = rows.pop()
            samples[one(pid, pid), partition.by_id(slot).slot_id] = tuple(values)
        check_counts(chain.from_iterable(samples.values()), "pooled duration")
        pools = DurationPool(samples)
        reference = {
            TravellerType(name): TypeCounts({_int_key(m): n for m, n in counts.items()},
                                            partition)
            for name, counts in doc.pop("reference").items()
        }
        zero = [0] * (len(partition) + 1)
        by_type: dict = {}  # type -> profile trips by slot id
        od_trips: dict = {}  # OD pair -> profile trips
        for p in profiles.values():
            slots = by_type.setdefault(p.traveller_type, zero.copy())
            for slot, by_o in p.slot_origin_counts.items():
                slots[slot] += sum(by_o.values())
            for o, row in p.od_counts.items():
                for d, n in row.items():
                    od_trips[o, d] = od_trips.get((o, d), 0) + n
        for ttype in TYPE_ORDER:
            counts = reference.get(ttype)
            if (counts.slot[:len(zero)] if counts else zero) != by_type.get(ttype, zero):
                raise ValueError(f"reference {ttype.value!r}: slot totals differ from "
                                 "the sums of its profiles' slot counts")
        _same_totals(od_trips, {od: sum(e.crowd_count for e in entries)
                                for od, entries in catalog.entries.items()},
                     "catalog pair {}: crowd counts differ from the profiles' OD counts")
        route_trips: dict = {}  # route -> catalog trips
        for e in chain.from_iterable(catalog.entries.values()):
            route_trips[e.path_id] = route_trips.get(e.path_id, 0) + e.crowd_count
        pooled: dict = {}  # route -> pooled durations over all slots
        for (pid, _), values in samples.items():
            pooled[pid] = pooled.get(pid, 0) + len(values)
        _same_totals(route_trips, pooled,
                     "route {!r}: pooled durations differ from its catalog counts")
    except KeyError as exc:
        raise ValueError(f"{path}: store has no key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed store: {exc}") from None
    return Store(
        partition=partition,
        profiles=profiles,
        catalog=catalog,
        pools=pools,
        reference=reference,
    )
