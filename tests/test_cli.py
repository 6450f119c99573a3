import datetime as dt
import io
import json
import logging
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from tripsynth import cli
from tripsynth.cli import ConfigError, load_config, main
from tripsynth.corpus import CorpusSpec, synth_corpus
from tripsynth.ingest import (
    build_duration_pools,
    build_path_catalog,
    build_profiles,
    build_reference_aggregates,
    load_store,
    parse_network,
    parse_trips,
    parse_zones,
    save_store,
    write_network_csv,
    write_trips_csv,
    write_zones_csv,
)
from tripsynth.model import (
    TimeSlotPartition,
    TravellerType,
    TripRecord,
    Zone,
)
from tripsynth.validator import day_class

SMALL_CORPUS = """\
corpus:
  seed: 7
  individuals:
    commuter: 6
    stable: 5
    random: 6
    high_freq: 5
    passby: 4
"""

PATHS = """\
paths:
  trips: data/trips.csv
  zones: data/zones.csv
  network: data/network.csv
  store: build/store.json
  generated: out/generated.csv
  report: out/report.csv
"""


def write_config(tmp_path, body, name="run.yaml"):
    cfg = tmp_path / name
    cfg.write_text(body)
    return str(cfg)


class TestLoadConfig:
    def test_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, PATHS))
        assert config.epoch == dt.date(2019, 8, 12)
        assert config.window_days == 7
        assert config.duration_unit == "minutes"
        assert config.duration_divisor() == 1.0
        assert len(config.partition) == 24
        assert config.params.rng_seed == 0
        assert config.params.start_day == 0
        assert config.params.horizon_days == 7
        assert config.granularity == 15
        assert config.topk_zone_fractions == (0.1,)
        assert config.topk_od_fractions == (0.5,)
        assert config.path("trips") == tmp_path / "data" / "trips.csv"

    def test_full_document(self, tmp_path):
        body = PATHS + """\
epoch: 2020-01-06
window_days: 14
duration_unit: seconds
partition: [1, 241, 481, 721, 961, 1201]
generation:
  seed: 42
  horizon_days: 3
  start_day: 2
  min_gap: 5
validation:
  granularity: 30
  holiday_weekdays: [6]
  holiday_days: [2]
  topk_zones: [0.1, 0.2]
corpus:
  grid_side: 5
  days: 3
  individuals:
    commuter: 2
"""
        config = load_config(write_config(tmp_path, body))
        assert config.epoch == dt.date(2020, 1, 6)
        assert config.duration_divisor() == 60.0
        assert config.partition.boundaries() == [1, 241, 481, 721, 961, 1201]
        assert config.params.rng_seed == 42
        assert config.params.min_gap == 5
        assert config.params.start_day == 2
        assert config.params.horizon_days == 3
        assert config.topk_zone_fractions == (0.1, 0.2)
        assert config.corpus_spec.grid_side == 5
        assert config.corpus_spec.days == 3
        assert config.corpus_spec.individuals == ((TravellerType.COMMUTER, 2),)
        assert config.holiday_weekdays == (6,)
        assert config.holiday_days == (2,)
        rule = (config.holiday_weekdays, config.holiday_days)
        assert day_class(2, *rule) == "holiday"   # listed day
        assert day_class(6, *rule) == "holiday"   # weekday rule
        assert day_class(5, *rule) == "weekday"

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("bogus: 1\n", "unknown key"),
            ("paths: {nowhere: x}\n", "unknown key"),
            ("epoch: not-a-date\n", "bad epoch"),
            ("duration_unit: hours\n", "duration_unit"),
            ("partition: [2, 100]\n", "minute 1"),
            ("partition: nonsense\n", "partition"),
            ("generation: {horizon_days: -1}\n", "horizon_days"),
            ("generation: {epsilon: 1.0e-10}\n", "epsilon"),
            ("generation: {kappa: 1.0e-9}\n", "unknown key 'kappa'"),
            ("generation: {blowup: 1.0e9}\n", "unknown key 'blowup'"),
            ("generation: {workers: 0}\n", "workers"),
            ("corpus: {route_split: 0.7}\n", "unknown key 'route_split'"),
            ("corpus: {zipf_exponent: 1.2}\n", "unknown key 'zipf_exponent'"),
            ("window_days: abc\n", "'window_days' in config root"),
            ("generation: {seed: x}\n", "'seed' in generation"),
            ("validation: {holiday_days: 3}\n", "'holiday_days' in validation"),
            ("corpus: {grid_side: [1]}\n", "'grid_side' in corpus"),
            ("validation: {granularity: 17}\n", "granularity"),
            ("validation: {topk_zones: [0]}\n", "top-k"),
            ("corpus: {individuals: {wizard: 3}}\n", "wizard"),
            ("csv_delimiter: '::'\n", "single character"),
            # a quoted list is a string, not the list of its characters
            ("validation: {holiday_days: \"12\"}\n", "'holiday_days' in validation"),
            ("validation: {holiday_weekdays: \"56\"}\n", "'holiday_weekdays' in validation"),
            ("validation: {topk_zones: \"1\"}\n", "'topk_zones' in validation"),
            ("validation: {topk_od: \"0.5\"}\n", "'topk_od' in validation"),
            ("partition: [1, x]\n", "'partition': 'x'"),
            ("partition: [1, 241.5]\n", "'partition': 241.5"),
            ("partition: [1, true]\n", "'partition': True"),
            # int() would truncate a fraction and read a boolean as 0 or 1
            ("window_days: 7.9\n", "'window_days' in config root"),
            ("generation: {seed: true}\n", "'seed' in generation"),
            ("generation: {min_gap: 2.5}\n", "'min_gap' in generation"),
            ("generation: {horizon_days: false}\n", "'horizon_days' in generation"),
            ("generation: {start_day: 1.0}\n", "'start_day' in generation"),
            ("corpus: {days: 3.5}\n", "'days' in corpus"),
            ("corpus: {individuals: {passby: 2.5}}\n", "'passby' in corpus individuals"),
            ("validation: {holiday_days: [1.5]}\n", "'holiday_days' in validation"),
            ("validation: {holiday_weekdays: [true]}\n", "'holiday_weekdays' in validation"),
            ("validation: {granularity: 15.0}\n", "'granularity' in validation"),
            ("validation: {holiday_weekdays: [7]}\n", "Monday = 0"),
            # float() would read a boolean as 0.0 or 1.0 and parse a string
            ("validation: {topk_zones: [true]}\n", "'topk_zones' in validation"),
            ("validation: {topk_od: [\"0.5\"]}\n", "'topk_od' in validation"),
        ],
    )
    def test_rejects(self, tmp_path, body, fragment):
        with pytest.raises(ConfigError, match=fragment):
            load_config(write_config(tmp_path, body))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.yaml")

    def test_missing_path_key(self, tmp_path):
        config = load_config(write_config(tmp_path, "paths: {trips: t.csv}\n"))
        with pytest.raises(ConfigError, match="store"):
            config.path("store")


@pytest.fixture(scope="module")
def small():
    return synth_corpus(
        CorpusSpec(
            individuals=(
                (TravellerType.COMMUTER, 6),
                (TravellerType.STABLE, 5),
                (TravellerType.RANDOM, 6),
                (TravellerType.HIGH_FREQ, 5),
                (TravellerType.PASSBY, 4),
            )
        )
    )


def test_trips_csv_round_trip(small):
    epoch = dt.date(2019, 8, 12)
    buf = io.StringIO()
    n = write_trips_csv(small.trips, buf, epoch, small.partition)
    assert n == len(small.trips)
    parsed = parse_trips(io.StringIO(buf.getvalue()), epoch)
    assert not parsed.errors
    assert parsed.records == small.trips


def test_zone_and_network_round_trip(small):
    buf = io.StringIO()
    write_zones_csv(small.zones, buf)
    zones = parse_zones(io.StringIO(buf.getvalue()))
    assert zones == small.zones

    buf = io.StringIO()
    write_network_csv(small.network, buf)
    assert buf.getvalue().splitlines()[1:] == [f"{a},{b}" for a, b in small.network]
    roads = parse_network(io.StringIO(buf.getvalue()))
    assert roads == {road for edge in small.network for road in edge}


def reference_counts(reference) -> dict:
    """{type: (minute counts, slot counts, total)} of a reference ledger."""
    return {t: (c.minute, c.slot, c.total) for t, c in reference.by_type.items()}


class TestStore:
    def build(self, small, path):
        profiles = build_profiles(small.trips, small.partition, small.spec.days)
        catalog = build_path_catalog(small.trips)
        pools = build_duration_pools(small.trips, small.partition)
        reference = build_reference_aggregates(small.trips, small.partition)
        save_store(
            path,
            partition=small.partition,
            window_days=small.spec.days,
            profiles=profiles,
            catalog=catalog,
            pools=pools,
            reference=reference,
        )
        return profiles, catalog, pools, reference

    def test_round_trip(self, small, tmp_path):
        path = tmp_path / "store.json"
        profiles, catalog, pools, reference = self.build(small, path)
        store = load_store(path)
        assert store.partition == small.partition
        assert store.window_days == small.spec.days
        assert store.profiles == profiles
        assert store.catalog.entries == catalog.entries
        assert store.pools == pools
        assert reference_counts(store.reference) == reference_counts(reference)

    def test_holds_only_independent_facts(self, small, tmp_path):
        path = tmp_path / "store.json"
        self.build(small, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "version", "window_days", "partition", "profiles", "catalog", "pools",
            "reference",
        }
        assert doc["version"] == 2
        for raw in doc["profiles"].values():
            assert set(raw) == {"type", "od", "slot_origin"}

    def test_write_is_deterministic(self, small, tmp_path):
        self.build(small, tmp_path / "a.json")
        self.build(small, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_version_guard(self, small, tmp_path):
        path = tmp_path / "store.json"
        self.build(small, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_store(path)


HOURLY_PARTITION = TimeSlotPartition.hourly()
FOUR_HOUR_PARTITION = TimeSlotPartition.from_boundaries([1, 241, 481, 721, 961, 1201])


# Legal ids: non-empty; delimiters and non-ASCII allowed, except that a
# road id may not contain the path separator "-".
ID_CHARS = st.one_of(st.sampled_from("|:-; ,é中\"{}"), st.characters())
zone_ids = st.text(ID_CHARS, min_size=1, max_size=4)
road_ids = st.text(ID_CHARS, min_size=1, max_size=4).filter(lambda r: "-" not in r)


@st.composite
def trip_tables(draw):
    partition = draw(st.sampled_from([HOURLY_PARTITION, FOUR_HOUR_PARTITION]))
    tids = draw(st.lists(zone_ids, min_size=1, max_size=4, unique=True))
    zones = draw(st.lists(zone_ids, min_size=1, max_size=4, unique=True))
    roads = draw(st.lists(road_ids, min_size=1, max_size=4, unique=True))
    trips = []
    for _ in range(draw(st.integers(1, 12))):
        departure = draw(st.integers(1, 1440))
        trips.append(TripRecord(
            traveller_id=draw(st.sampled_from(tids)),
            traveller_type=draw(st.sampled_from(list(TravellerType))),
            date=draw(st.integers(0, 6)),
            departure=departure,
            o_zone=draw(st.sampled_from(zones)),
            d_zone=draw(st.sampled_from(zones)),
            path=tuple(draw(st.lists(st.sampled_from(roads), min_size=1, max_size=3))),
            duration=draw(st.integers(1, 90)),
        ))
    return partition, trips


@settings(max_examples=150, deadline=None)
@given(table=trip_tables())
@example(table=(FOUR_HOUR_PARTITION, [
    TripRecord("V|1", TravellerType.COMMUTER, 0, 400, "A|1", "B", ("r|1", "é"), 9),
    TripRecord("V|1", TravellerType.COMMUTER, 1, 900, "A", "1|B", ("r:2",), 5),
]))
def test_store_round_trips_any_legal_ids(table, tmp_path_factory):
    partition, trips = table
    path = tmp_path_factory.mktemp("store") / "store.json"
    profiles = build_profiles(trips, partition, 7)
    catalog = build_path_catalog(trips)
    pools = build_duration_pools(trips, partition)
    reference = build_reference_aggregates(trips, partition)
    save_store(path, partition=partition, window_days=7, profiles=profiles,
               catalog=catalog, pools=pools, reference=reference)
    store = load_store(path)
    assert store.partition == partition
    assert store.profiles == profiles
    assert store.catalog.entries == catalog.entries
    assert store.pools == pools
    assert reference_counts(store.reference) == reference_counts(reference)


# Python 3.10's csv module can neither write nor read a NUL character.
CSV_ID_CHARS = ID_CHARS if sys.version_info >= (3, 11) else ID_CHARS.filter(
    lambda c: c != "\x00"
)
# Traveller and zone ids are stripped on parse, so legal ones are stripped.
stripped_ids = st.text(CSV_ID_CHARS, min_size=1, max_size=6).filter(
    lambda s: s == s.strip()
)
csv_road_ids = st.text(CSV_ID_CHARS, min_size=1, max_size=4).filter(lambda r: "-" not in r)


@st.composite
def csv_tables(draw):
    partition = draw(st.sampled_from([HOURLY_PARTITION, FOUR_HOUR_PARTITION]))
    trips = []
    for _ in range(draw(st.integers(0, 8))):
        departure = draw(st.integers(1, 1440))
        trips.append(TripRecord(
            traveller_id=draw(stripped_ids),
            traveller_type=draw(st.sampled_from(list(TravellerType))),
            date=draw(st.integers(0, 100_000)),
            departure=departure,
            o_zone=draw(stripped_ids),
            d_zone=draw(stripped_ids),
            path=tuple(draw(st.lists(csv_road_ids, min_size=1, max_size=4))),
            duration=draw(st.integers(1, 100_000)),
        ))
    return partition, trips


@settings(max_examples=200, deadline=None)
@given(table=csv_tables(), delimiter=st.sampled_from([",", ";"]))
@example(
    table=(FOUR_HOUR_PARTITION, [
        TripRecord('V,"1";|', TravellerType.PASSBY, 0, 1, "A;é", 'B"中', ("r,1", "r;2|"), 1),
        TripRecord("V2", TravellerType.HIGH_FREQ, 9, 1440, "A|1", "1|B", ("r\r1", "\n"), 600),
    ]),
    delimiter=";",
)
@example(
    table=(HOURLY_PARTITION, [
        TripRecord("V1", TravellerType.STABLE, 3, 61, 'Z\r;1', 'Z,"2"\r3', ("r1",), 7),
    ]),
    delimiter=",",
)
def test_trips_csv_round_trips_any_legal_ids(table, delimiter):
    partition, trips = table
    epoch = dt.date(2019, 8, 12)
    buf = io.StringIO()
    write_trips_csv(trips, buf, epoch, partition, delimiter)
    parsed = parse_trips(io.StringIO(buf.getvalue()), epoch, delimiter=delimiter)
    assert not parsed.errors
    assert parsed.records == trips


# Road ids in the zone table may not contain the road-list separator ";" and
# are dropped when blank.
zone_road_ids = st.text(CSV_ID_CHARS, min_size=1, max_size=4).filter(
    lambda r: ";" not in r and r.strip()
)
coordinates = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def zone_tables(draw):
    ids = draw(st.lists(stripped_ids, min_size=1, max_size=6, unique=True))
    return [
        Zone(
            zone_id=zone_id,
            longitude=draw(coordinates),
            latitude=draw(coordinates),
            roads=frozenset(draw(st.lists(zone_road_ids, max_size=4))),
        )
        for zone_id in ids
    ]


@settings(max_examples=200, deadline=None)
@given(zones=zone_tables(), delimiter=st.sampled_from([",", ";"]))
@example(
    zones=[
        Zone("Z\r1", 118.0, 30.9, frozenset({"r\r1", 'r,"2"'})),
        Zone('Z;"2",', -0.5, 1e-300, frozenset()),
        Zone("Z\r\n3", 0.0, 0.0, frozenset({"r3"})),
    ],
    delimiter=",",
)
def test_zones_csv_round_trips_any_legal_ids(zones, delimiter):
    buf = io.StringIO()
    write_zones_csv(zones, buf, delimiter)
    assert parse_zones(io.StringIO(buf.getvalue()), delimiter=delimiter) == zones


def _with_profile_type(doc, name):
    next(iter(doc["profiles"].values()))["type"] = name
    return doc


def _with_window_days(doc, value):
    doc["window_days"] = value
    return doc


class TestPipeline:
    @pytest.fixture()
    def cfg(self, tmp_path):
        return write_config(tmp_path, PATHS + SMALL_CORPUS)

    def test_full_run(self, cfg, tmp_path):
        assert main(["corpus", "-c", cfg]) == 0
        assert main(["ingest", "-c", cfg]) == 0
        assert main(["generate", "-c", cfg]) == 0
        assert main(["validate", "-c", cfg]) == 0

        report = (tmp_path / "out" / "report.csv").read_text()
        assert report.splitlines()[0].startswith("# trip table validation report")
        assert "js_time,commuter,all," in report

        generated = (tmp_path / "out" / "generated.csv").read_text()
        config = load_config(cfg)
        parsed = parse_trips(io.StringIO(generated), config.epoch)
        assert not parsed.errors and parsed.records

    def test_rerun_is_byte_identical(self, cfg, tmp_path):
        main(["corpus", "-c", cfg])
        main(["ingest", "-c", cfg])
        out = tmp_path / "out" / "generated.csv"
        main(["generate", "-c", cfg])
        first = out.read_bytes()
        main(["generate", "-c", cfg])
        assert out.read_bytes() == first
        main(["generate", "-c", cfg, "--seed", "99"])
        assert out.read_bytes() != first

    def test_horizon_zero_writes_header_only(self, tmp_path):
        cfg = write_config(
            tmp_path, PATHS + SMALL_CORPUS + "generation: {horizon_days: 0}\n"
        )
        main(["corpus", "-c", cfg])
        main(["ingest", "-c", cfg])
        assert main(["generate", "-c", cfg]) == 0
        lines = (tmp_path / "out" / "generated.csv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("traveller_ID")

    def test_exit_codes(self, cfg, tmp_path):
        bad = write_config(tmp_path, "bogus: 1\n", name="bad.yaml")
        assert main(["corpus", "-c", bad]) == 2
        mistyped = write_config(tmp_path, "window_days: abc\n", name="mistyped.yaml")
        assert main(["corpus", "-c", mistyped]) == 2
        quoted = write_config(
            tmp_path, 'validation: {holiday_days: "12"}\n', name="quoted.yaml"
        )
        assert main(["corpus", "-c", quoted]) == 2
        entry = write_config(tmp_path, "partition: [1, x]\n", name="entry.yaml")
        assert main(["corpus", "-c", entry]) == 2
        fraction = write_config(tmp_path, "window_days: 7.9\n", name="fraction.yaml")
        assert main(["corpus", "-c", fraction]) == 2
        boolean = write_config(tmp_path, "generation: {seed: true}\n", name="boolean.yaml")
        assert main(["corpus", "-c", boolean]) == 2
        # With paths, so only the float entry can fail the run.
        for name, body in (("flag.yaml", "validation: {topk_zones: [true]}\n"),
                           ("text.yaml", 'validation: {topk_od: ["0.5"]}\n')):
            full = write_config(tmp_path, PATHS + SMALL_CORPUS + body, name=name)
            assert main(["corpus", "-c", full]) == 2
        # store not built yet
        assert main(["generate", "-c", cfg]) == 1
        # reference trips missing
        assert main(["validate", "-c", cfg]) == 1

    def test_ingest_log_counts_rows_and_individuals(self, cfg, tmp_path, caplog):
        # ingest frees the parsed rows before writing the store; the log
        # line still counts them.
        assert main(["corpus", "-c", cfg]) == 0
        trips = tmp_path / "data" / "trips.csv"
        rows = trips.read_text().splitlines()[1:]
        with trips.open("a") as fh:
            fh.write("V999,wizard,2019-08-12,07:31,,Z01,Z02,R01_02,14\n")
        individuals = {row.split(",")[0] for row in rows}
        caplog.set_level(logging.INFO)
        assert main(["ingest", "-c", cfg]) == 0
        assert (
            f"ingest: {len(rows)} trips from {len(individuals)} individuals "
            "(1 rows rejected)"
        ) in caplog.text

    def test_window_shorter_than_trip_dates_fails_ingest(self, tmp_path, caplog):
        cfg = write_config(
            tmp_path, PATHS + "corpus: {seed: 7, days: 14, individuals: {passby: 2}}\n"
        )
        assert main(["corpus", "-c", cfg]) == 0
        assert main(["ingest", "-c", cfg]) == 1
        assert "span 14 days" in caplog.text and "window_days = 7" in caplog.text
        assert not (tmp_path / "build" / "store.json").exists()

    def test_quarantine_fails_generate(self, cfg, tmp_path, caplog):
        main(["corpus", "-c", cfg])
        main(["ingest", "-c", cfg])
        store = tmp_path / "build" / "store.json"
        doc = json.loads(store.read_text())
        # The OD pair that makes up the largest share of one individual's
        # trips and that nobody else travels: that individual draws it.
        users = {}
        for tid, raw in doc["profiles"].items():
            total = sum(n for row in raw["od"].values() for n in row.values())
            for o, row in raw["od"].items():
                for d, n in row.items():
                    users.setdefault((o, d), []).append((n / total, tid))
        (_, victim), od = max(
            (found[0], od) for od, found in users.items() if len(found) == 1
        )
        doc["catalog"] = [e for e in doc["catalog"] if tuple(e[:2]) != od]
        store.write_text(json.dumps(doc))

        caplog.clear()
        assert main(["generate", "-c", cfg]) == 1
        assert victim in caplog.text
        generated = (tmp_path / "out" / "generated.csv").read_text()
        assert generated.startswith("traveller_ID") and victim not in generated

    def test_version_1_store_fails_generate(self, cfg, tmp_path, caplog):
        main(["corpus", "-c", cfg])
        main(["ingest", "-c", cfg])
        store = tmp_path / "build" / "store.json"
        doc = json.loads(store.read_text())
        doc["version"] = 1
        store.write_text(json.dumps(doc))
        assert main(["generate", "-c", cfg]) == 1
        assert "unsupported store version" in caplog.text

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: "[]",
            lambda doc: json.dumps({"version": 2}),
            lambda doc: json.dumps(_with_profile_type(doc, "wizard")),
            lambda doc: "store: not JSON\n",
            # 0 used to end in ZeroDivisionError, "7" and 2.5 in TypeError,
            # and -1 in exit 0 with no trips.
            lambda doc: json.dumps(_with_window_days(doc, 0)),
            lambda doc: json.dumps(_with_window_days(doc, "7")),
            lambda doc: json.dumps(_with_window_days(doc, 2.5)),
            lambda doc: json.dumps(_with_window_days(doc, -1)),
            lambda doc: json.dumps(_with_window_days(doc, True)),
        ],
        ids=["list", "version-only", "wizard-type", "not-json", "window-days-0",
             "window-days-text", "window-days-fraction", "window-days-negative",
             "window-days-bool"],
    )
    def test_malformed_store_fails_generate(self, cfg, tmp_path, caplog, damage):
        assert main(["corpus", "-c", cfg]) == 0
        assert main(["ingest", "-c", cfg]) == 0
        store = tmp_path / "build" / "store.json"
        store.write_text(damage(json.loads(store.read_text())))
        caplog.clear()
        assert main(["generate", "-c", cfg]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and str(store) in errors[0]

    @pytest.mark.parametrize(
        "epoch,holidays",
        [("2019-08-12", [5, 6]), ("2019-08-14", [3, 4])],  # a Monday, a Wednesday
    )
    def test_holiday_weekdays_are_calendar_weekdays(
        self, tmp_path, monkeypatch, epoch, holidays
    ):
        cfg = write_config(tmp_path, PATHS + SMALL_CORPUS + f"epoch: {epoch}\n")
        assert main(["corpus", "-c", cfg]) == 0
        seen = {}
        build_report = cli.build_report

        def record(*args, **kwargs):
            seen.update(kwargs)
            return build_report(*args, **kwargs)

        monkeypatch.setattr(cli, "build_report", record)
        trips = str(tmp_path / "data" / "trips.csv")
        assert main(["validate", "-c", cfg, "--generated", trips]) == 0
        rule = seen["day_class"]
        assert [d for d in range(14) if rule(d) == "holiday"] == holidays + [
            d + 7 for d in holidays
        ]

    def test_commands_call_wrapped_names_through_cli(self, cfg, monkeypatch):
        # A caller that wraps these names on the cli module sees every call.
        wrapped = (
            "parse_trips", "parse_zones", "parse_network", "build_profiles",
            "build_path_catalog", "build_duration_pools", "build_reference_aggregates",
            "save_store", "load_store", "write_trips_csv", "build_report", "generate_all",
        )
        called = set()
        for name in wrapped:
            def record(*args, _name=name, _original=getattr(cli, name), **kwargs):
                called.add(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, record)
        for command in ("corpus", "ingest", "generate", "validate"):
            assert main([command, "-c", cfg]) == 0
        assert called == set(wrapped)

    def test_seconds_input_validates_every_generated_row(self, tmp_path, caplog):
        cfg = write_config(tmp_path, PATHS + SMALL_CORPUS + "duration_unit: seconds\n")
        assert main(["corpus", "-c", cfg]) == 0
        trips = tmp_path / "data" / "trips.csv"
        lines = trips.read_text().splitlines()
        rows = [lines[0]]
        for line in lines[1:]:
            head, _, minutes = line.rpartition(",")
            rows.append(f"{head},{int(minutes) * 60}")
        trips.write_text("\n".join(rows) + "\n")
        assert main(["ingest", "-c", cfg]) == 0
        assert main(["generate", "-c", cfg]) == 0
        caplog.clear()
        assert main(["validate", "-c", cfg]) == 0
        assert "rejected" not in caplog.text
        generated = (tmp_path / "out" / "generated.csv").read_text().splitlines()
        report = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert f"trips,,generated,{len(generated) - 1}" in report
        assert f"trips,,reference,{len(lines) - 1}" in report

    def test_missing_network_file_fails_ingest(self, cfg, tmp_path, caplog):
        assert main(["corpus", "-c", cfg]) == 0
        network = tmp_path / "data" / "network.csv"
        network.unlink()
        assert main(["ingest", "-c", cfg]) == 1
        assert str(network) in caplog.text
        assert not (tmp_path / "build" / "store.json").exists()
        # Without the key there is no network check.
        no_network = write_config(
            tmp_path, PATHS.replace("  network: data/network.csv\n", ""), name="nn.yaml"
        )
        assert main(["ingest", "-c", no_network]) == 0

    def test_trip_zone_missing_from_zone_table_warns(self, tmp_path, caplog):
        cfg = write_config(tmp_path, PATHS + "corpus: {seed: 7}\n")
        assert main(["corpus", "-c", cfg]) == 0
        assert main(["ingest", "-c", cfg]) == 0
        assert "missing from zone table" not in caplog.text
        zones = tmp_path / "data" / "zones.csv"
        lines = zones.read_text().splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith("Z01,")]
        assert len(kept) == len(lines) - 1
        zones.write_text("".join(kept))
        caplog.clear()
        assert main(["ingest", "-c", cfg]) == 0
        assert "1 trip zones missing from zone table" in caplog.text
        assert (tmp_path / "build" / "store.json").is_file()

    @pytest.mark.parametrize("command", ["ingest", "validate"])
    def test_oversized_csv_field_fails_command(self, cfg, tmp_path, caplog, command):
        # A field beyond the csv module's 131,072-character limit is a
        # logged runtime failure, not a traceback.
        assert main(["corpus", "-c", cfg]) == 0
        if command == "validate":
            assert main(["ingest", "-c", cfg]) == 0
            assert main(["generate", "-c", cfg]) == 0
        trips = tmp_path / "data" / "trips.csv"
        header, first, rest = trips.read_text().split("\n", 2)
        names = header.split(",")
        cells = first.split(",")
        cells[names.index("Path")] = "r" * 200_000
        trips.write_text("\n".join([header, ",".join(cells), rest]))
        caplog.clear()
        assert main([command, "-c", cfg]) == 1
        # The oversized field is on line 2 of the trip table.
        assert f"{trips}: line 2: field larger than field limit" in caplog.text

    def test_bad_zone_or_network_row_fails_ingest(self, cfg, tmp_path, caplog):
        assert main(["corpus", "-c", cfg]) == 0
        zones = tmp_path / "data" / "zones.csv"
        network = tmp_path / "data" / "network.csv"
        zone_text, network_text = zones.read_text(), network.read_text()
        header, first = zone_text.splitlines()[:2]
        end = len(zone_text.splitlines()) + 1  # line number of an appended row
        first_id, _, rest = first.partition(",")
        cases = [
            (zones, zone_text + "Z9\n", f"line {end}: short row, 1 fields"),
            (zones, zone_text + first + "\n", f"line {end}: duplicate zone id {first_id!r}"),
            (zones, zone_text.replace(first, f"{first_id},abc,{rest.partition(',')[2]}"),
             "line 2: could not convert string to float: 'abc'"),
            (network, network_text + "R1,R2,R3\n",
             f"line {len(network_text.splitlines()) + 1}: expected 'road_id,neighbor_id'"),
        ]
        for path, text, message in cases:
            zones.write_text(zone_text)
            network.write_text(network_text)
            path.write_text(text)
            caplog.clear()
            assert main(["ingest", "-c", cfg]) == 1
            assert f"{path}: {message}" in caplog.text
        assert not (tmp_path / "build" / "store.json").exists()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tripsynth.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "corpus" in proc.stdout and "validate" in proc.stdout
