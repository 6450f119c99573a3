"""Command line pipeline around the library.

Four subcommands share one declarative YAML config: `corpus` emits a
synthetic seed dataset, `ingest` parses seed tables into a reusable store,
`generate` synthesizes a trip table from the store, and `validate` compares
generated output against the seed. Exit codes: 0 on success, 1 on runtime
failure, 2 on configuration errors.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import datetime as dt
import functools
import logging
import sys
from pathlib import Path

import yaml

from .corpus import CorpusSpec, synth_corpus
from .generator import (
    GenParams,
    GenStats,
    InvalidParams,
    generate_all,
)
# Each name the commands call is imported by name and called through this
# module's globals, so a caller can wrap it here.
from .ingest import (
    build_duration_pools,
    build_path_catalog,
    build_profiles,
    build_reference_aggregates,
    load_store,
    parse_date,
    parse_network,
    parse_trips,
    parse_zones,
    save_store,
    write_network_csv,
    write_trips_csv,
    write_zones_csv,
)
from .model import MINUTES_PER_DAY, TYPE_ORDER, TimeSlotPartition, split_path
from .validator import build_report, day_class

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """The config file is missing, malformed, or inconsistent."""


class Config:
    """Validated run configuration; paths are resolved next to the file."""

    __slots__ = ("paths", "epoch", "window_days", "duration_unit", "csv_delimiter",
                 "partition", "params", "report", "corpus_spec")

    def __init__(self, paths: dict, epoch: dt.date, window_days: int, duration_unit: str,
                 csv_delimiter: str, partition: TimeSlotPartition, params: GenParams,
                 report: dict, corpus_spec: CorpusSpec):
        self.paths = paths
        self.epoch = epoch
        self.window_days = window_days
        self.duration_unit = duration_unit
        self.csv_delimiter = csv_delimiter
        self.partition = partition
        self.params = params
        self.report = report  # build_report's keyword arguments
        self.corpus_spec = corpus_spec

    def duration_divisor(self) -> float:
        return 60.0 if self.duration_unit == "seconds" else 1.0

    def path(self, key: str) -> Path:
        try:
            return self.paths[key]
        except KeyError:
            raise ConfigError(f"config paths section is missing {key!r}") from None


def _int(value) -> int:
    # int() would read 7.9 as 7 and True as 1.
    if type(value) is not int:
        raise TypeError(repr(value))
    return value


def _float(value) -> float:
    # float() would read True as 1.0 and "0.5" as 0.5.
    if type(value) not in (int, float):
        raise TypeError(repr(value))
    return float(value)


def _path(value) -> str:
    # str() would read the list [a] as the file "['a']"; None and "" name no file.
    if type(value) is not str or not value:
        raise TypeError(repr(value))
    return value


def _list_of(read):
    """Reader of a YAML list, each entry read by `read`, into a tuple."""
    def read_list(values) -> tuple:
        # A string is iterable too, but "12" is not the list [1, 2].
        if not isinstance(values, list):
            raise TypeError(f"expected a list, got {values!r}")
        return tuple(read(v) for v in values)
    return read_list


def _section(name):
    """Reader of the root's `name` section: its mapping, {} when null."""
    def read_section(value) -> dict:
        if not isinstance(value, (dict, type(None))):
            raise ConfigError(f"section {name!r} must be a mapping")
        return value or {}
    return read_section


def _epoch(value) -> dt.date:
    if isinstance(value, str):
        try:
            value = parse_date(value)
        except ValueError:
            raise ConfigError(f"bad epoch date: {value!r}") from None
    # A YAML timestamp is a datetime, which is a date subclass.
    if type(value) is not dt.date:
        raise ConfigError("epoch must be an ISO date")
    return value


def _delimiter(value) -> str:
    if type(value) is not str or len(value) != 1 or value in '\r\n"':
        raise ConfigError("csv_delimiter must be a single character other than a line "
                          "break or the quote character")
    return value


def _partition(value) -> TimeSlotPartition:
    try:
        if value == "hourly":
            return TimeSlotPartition.hourly()
        if isinstance(value, list):
            return TimeSlotPartition(value)
    except TypeError as exc:
        raise ConfigError(f"bad slot start in 'partition': {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    raise ConfigError("partition must be 'hourly' or a list of slot starts")


def _individuals(value) -> tuple:
    """(type, count) for each type that `value` names, in TYPE_ORDER."""
    if not isinstance(value, dict):
        raise ConfigError("corpus individuals must map type name to count")
    counts = _read(value, "corpus individuals", [(t.value, None, _int) for t in TYPE_ORDER])
    return tuple((t, counts[t.value]) for t in TYPE_ORDER if t.value in value)


# One (key, default, reader) row per config key, by section. A default is
# the key's value when the file leaves the key out; it is not read, and a
# path left out is unset.

ROOT_ROWS = (
    ("paths", {}, _section("paths")),
    ("epoch", dt.date(2019, 8, 12), _epoch),
    ("window_days", 7, _int),
    ("duration_unit", "minutes", str),
    ("csv_delimiter", ",", _delimiter),
    ("partition", TimeSlotPartition.hourly(), _partition),
    ("generation", {}, _section("generation")),
    ("validation", {}, _section("validation")),
    ("corpus", {}, _section("corpus")),
)

PATHS_ROWS = (
    ("trips", None, _path),
    ("zones", None, _path),
    ("network", None, _path),
    ("store", None, _path),
    ("generated", None, _path),
    ("report", None, _path),
)

GENERATION_ROWS = (
    ("min_gap", GenParams().min_gap, _int),
    ("seed", GenParams().rng_seed, _int),
    ("horizon_days", GenParams().horizon_days, _int),
    ("start_day", GenParams().start_day, _int),
)

VALIDATION_ROWS = (
    ("granularity", 15, _int),
    ("holiday_weekdays", (5, 6), _list_of(_int)),
    ("holiday_days", (), _list_of(_int)),
    ("topk_zones", (0.10,), _list_of(_float)),
    ("topk_od", (0.50,), _list_of(_float)),
)

CORPUS_ROWS = (
    ("grid_side", CorpusSpec().grid_side, _int),
    ("days", CorpusSpec().days, _int),
    ("seed", CorpusSpec().rng_seed, _int),
    ("individuals", CorpusSpec().individuals, _individuals),
)


def _read(section, where, rows) -> dict:
    """{key: value} over `rows`: each key's reader applied to section[key],
    or its default when the key is left out. A TypeError or ValueError from
    a reader is refused here, naming the key; its ConfigError passes."""
    known = {key for key, _, _ in rows}
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where}")
    values = {}
    for key, default, read in rows:
        try:
            values[key] = read(section[key]) if key in section else default
        except ConfigError:
            raise
        except (TypeError, ValueError):
            raise ConfigError(f"bad value for {key!r} in {where}: {section[key]!r}") from None
    return values


def load_config(path) -> Config:
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    root = _read(doc, "config root", ROOT_ROWS)
    paths = _read(root["paths"], "paths", PATHS_ROWS)
    gen = _read(root["generation"], "generation", GENERATION_ROWS)
    val = _read(root["validation"], "validation", VALIDATION_ROWS)
    cor = _read(root["corpus"], "corpus", CORPUS_ROWS)
    if root["window_days"] < 1:
        raise ConfigError("window_days must be >= 1")
    if root["duration_unit"] not in ("minutes", "seconds"):
        raise ConfigError("duration_unit must be minutes or seconds, "
                          f"got {root['duration_unit']!r}")
    if val["granularity"] < 1 or MINUTES_PER_DAY % val["granularity"]:
        raise ConfigError("granularity must divide 1440")
    if not all(0 <= d <= 6 for d in val["holiday_weekdays"]):
        raise ConfigError("holiday_weekdays must be weekdays 0-6 (Monday = 0)")
    for k in val["topk_zones"] + val["topk_od"]:
        if not 0.0 < k <= 1.0:
            raise ConfigError(f"top-k fraction out of (0, 1]: {k}")

    params = GenParams(min_gap=gen["min_gap"], start_day=gen["start_day"],
                       horizon_days=gen["horizon_days"], rng_seed=gen["seed"])
    try:
        params.check()
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from None
    corpus_spec = CorpusSpec(grid_side=cor["grid_side"], days=cor["days"],
                             rng_seed=cor["seed"], individuals=cor["individuals"])

    # The trip writers render each day as a date counted from the epoch.
    epoch = root["epoch"]
    lo, hi = 1 - epoch.toordinal(), dt.date.max.toordinal() - epoch.toordinal()
    for key, first, n in (("'start_day' and 'horizon_days' in generation", params.start_day,
                           params.horizon_days), ("'days' in corpus", 0, corpus_spec.days)):
        if n > 0 and not lo <= first <= first + n - 1 <= hi:
            raise ConfigError(f"{key} give a day outside the calendar from epoch {epoch} "
                              f"(days {lo}..{hi})")

    resolved = {k: (path.parent / p).resolve() for k, p in paths.items() if p is not None}
    # A command that wrote one key's file would overwrite the other's.
    first_key = {}
    for key, file in resolved.items():
        if first_key.setdefault(file, key) != key:
            raise ConfigError(f"paths {first_key[file]!r} and {key!r} name one file: {file}")

    # day_class reads day % 7, and day 0 falls on the epoch's calendar weekday.
    weekdays = tuple((d - epoch.weekday()) % 7 for d in val["holiday_weekdays"])
    return Config(
        paths=resolved,
        epoch=epoch,
        window_days=root["window_days"],
        duration_unit=root["duration_unit"],
        csv_delimiter=root["csv_delimiter"],
        partition=root["partition"],
        params=params,
        report={
            "granularity": val["granularity"],
            "day_class": functools.partial(
                day_class, holiday_weekdays=weekdays, holiday_days=val["holiday_days"]
            ),
            "topk_zone_fractions": val["topk_zones"],
            "topk_od_fractions": val["topk_od"],
        },
        corpus_spec=corpus_spec,
    )


# ---------------------------------------------------------------------------
# Commands.


@contextlib.contextmanager
def _read_table(path):
    """Open a UTF-8 CSV table for reading, skipping a byte-order mark; a
    csv.Error or ValueError raised while reading it names the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except csv.Error as exc:
            raise csv.Error(f"{path}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _write_file(path):
    """Open `path` for writing as UTF-8 CSV text, making its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="", encoding="utf-8")


def cmd_corpus(config: Config) -> int:
    # Every required path is named before the first write; the network
    # table is optional, as for ingest.
    trips_path, zones_path = config.path("trips"), config.path("zones")
    try:
        built = synth_corpus(config.corpus_spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    with _write_file(trips_path) as fh:
        n = write_trips_csv(built.trips, fh, config.epoch, built.partition, config.csv_delimiter)
    with _write_file(zones_path) as fh:
        write_zones_csv(built.zones, fh, config.csv_delimiter)
    if "network" in config.paths:
        with _write_file(config.paths["network"]) as fh:
            write_network_csv(built.network, fh)
    log.info("corpus: %d trips, %d zones -> %s", n, len(built.zones), trips_path.parent)
    return 0


def cmd_ingest(config: Config) -> int:
    with _read_table(config.path("trips")) as fh:
        parsed = parse_trips(
            fh,
            config.epoch,
            duration_divisor=config.duration_divisor(),
            delimiter=config.csv_delimiter,
        )
    table = parsed.records
    if not table:
        log.error("no usable trip rows (rejected: %d)", len(parsed.errors))
        return 1
    # Zones and network are checked here but not stored: generate reads
    # neither.
    with _read_table(config.path("zones")) as fh:
        zone_ids = parse_zones(fh, delimiter=config.csv_delimiter)
    unknown_zones = {table.names[z] for z in {*table.o_zone, *table.d_zone}} - zone_ids
    if unknown_zones:
        log.warning("%d trip zones missing from zone table", len(unknown_zones))
    if "network" in config.paths:
        with _read_table(config.paths["network"]) as fh:
            roads = parse_network(fh)
        unknown_roads = {road for p in table.paths for road in split_path(p)} - roads
        if unknown_roads:
            log.warning("%d roads in paths missing from network", len(unknown_roads))

    profiles = build_profiles(table, config.partition, config.window_days)
    catalog = build_path_catalog(table)
    pools = build_duration_pools(table, config.partition)
    reference = build_reference_aggregates(table, config.partition)
    # The store holds only the aggregates: free the rows before it is written.
    n_trips, n_rejected = len(table), len(parsed.errors)
    del parsed, table

    store_path = config.path("store")
    store_path.parent.mkdir(parents=True, exist_ok=True)
    save_store(
        store_path,
        partition=config.partition,
        window_days=config.window_days,
        profiles=profiles,
        catalog=catalog,
        pools=pools,
        reference=reference,
    )
    log.info(
        "ingest: %d trips from %d individuals (%d rows rejected) -> %s",
        n_trips, len(profiles), n_rejected, store_path,
    )
    return 0


def cmd_generate(config: Config, seed=None) -> int:
    store = load_store(config.path("store"))
    params = config.params
    if seed is not None:
        params = params._replace(rng_seed=seed)
    stats = GenStats()
    records = generate_all(
        store.profiles,
        store.reference,
        store.catalog,
        store.pools,
        params,
        store.partition,
        stats=stats,
    )
    out_path = config.path("generated")
    with _write_file(out_path) as fh:
        n = write_trips_csv(records, fh, config.epoch, store.partition, config.csv_delimiter)
    log.info(
        "generate: %d trips, %d relocations (%d chain breaks / %d pairs), "
        "%d midnight spills (%d quota dropped), %d degenerate slot draws, "
        "%d duration fallbacks, %d quarantined -> %s",
        n, stats.relocations, stats.chain_breaks, stats.continuity_pairs,
        stats.midnight_spills, stats.spill_dropped_quota,
        stats.degenerate_slot_draws, stats.duration_fallbacks,
        len(stats.quarantined), out_path,
    )
    if stats.quarantined:
        log.error("quarantined individuals: %s", ", ".join(stats.quarantined))
        return 1
    return 0


def cmd_validate(config: Config, reference=None, generated=None) -> int:
    ref_path = Path(reference) if reference else config.path("trips")
    gen_path = Path(generated) if generated else config.path("generated")
    with _read_table(ref_path) as fh:
        ref = parse_trips(
            fh, config.epoch,
            duration_divisor=config.duration_divisor(),
            delimiter=config.csv_delimiter,
        )
    # `generate` writes durations in minutes whatever the input unit.
    with _read_table(gen_path) as fh:
        gen = parse_trips(fh, config.epoch, delimiter=config.csv_delimiter)
    report = build_report(ref.records, gen.records, **config.report)
    text = report.to_text()
    if "report" in config.paths:
        report_path = config.path("report")
        with _write_file(report_path) as fh:
            fh.write(text)
        log.info("validate: report -> %s", report_path)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripsynth",
        description="Synthesize and validate individual-level trip tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", required=True, help="YAML config file")
        return p

    add("corpus", "write a synthetic seed dataset (trips, zones, network)")
    add("ingest", "parse seed tables and build the generation store")
    p_gen = add("generate", "synthesize a trip table from the store")
    p_gen.add_argument("--seed", type=int, help="override the generation seed")
    p_val = add("validate", "compare generated trips against the seed data")
    p_val.add_argument("--reference", help="override the reference trip CSV")
    p_val.add_argument("--generated", help="override the generated trip CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        config = load_config(args.config)
        if args.command == "corpus":
            return cmd_corpus(config)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "generate":
            return cmd_generate(config, seed=args.seed)
        if args.command == "validate":
            return cmd_validate(config, args.reference, args.generated)
        raise AssertionError(args.command)
    except (ConfigError, InvalidParams) as exc:
        log.error("config error: %s", exc)
        return 2
    except (OSError, ValueError, KeyError, csv.Error) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
