import csv
import datetime as dt
import io
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tripsynth import cli, generator
from tripsynth.cli import ConfigError, load_config, main
from tripsynth.corpus import CorpusSpec, synth_corpus
from tripsynth.ingest import (
    TRIP_HEADER,
    ZONE_HEADER,
    DurationPool,
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
    CorruptInputError,
    TimeSlotPartition,
    TravellerType,
    TripRecord,
    Zone,
)

from oracles import first_typed

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
        assert config.report["granularity"] == 15
        assert config.report["topk_zone_fractions"] == (0.1,)
        assert config.report["topk_od_fractions"] == (0.5,)
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
        assert config.report["topk_zone_fractions"] == (0.1, 0.2)
        assert config.corpus_spec.grid_side == 5
        assert config.corpus_spec.days == 3
        assert config.corpus_spec.individuals == ((TravellerType.COMMUTER, 2),)
        # The epoch is a Monday, so calendar weekday 6 is day index 6.
        rule = config.report["day_class"]
        assert rule(2) == "holiday"   # listed day
        assert rule(6) == "holiday"   # weekday rule
        assert rule(5) == "weekday"

    def test_quoted_epoch_reads_as_the_date_column_does(self, tmp_path):
        config = load_config(write_config(tmp_path, PATHS + 'epoch: "2019-08-12"\n'))
        assert config.epoch == dt.date(2019, 8, 12)

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("bogus: 1\n", "unknown key"),
            # keys of mixed types, which cannot be sorted together
            ("bogus: 1\n1: 2\n", "unknown key 'bogus' in config root"),
            ("paths: {nowhere: x}\n", "unknown key"),
            ("epoch: not-a-date\n", "bad epoch"),
            # a quoted epoch takes the Date column's YYYY-MM-DD only, as
            # date.fromisoformat does on Python 3.10 but not on 3.11+
            ('epoch: "20190812"\n', "bad epoch date: '20190812'"),
            ('epoch: "2019-W33-1"\n', "bad epoch date: '2019-W33-1'"),
            ('epoch: " 2019-08-12"\n', "bad epoch date"),
            # an unquoted timestamp is a datetime, not a date
            ("epoch: 2019-08-12 00:00:00\n", "epoch must be an ISO date"),
            ("duration_unit: hours\n", "duration_unit"),
            ("partition: [2, 100]\n", "minute 1"),
            ("partition: [1, 481, 241, 241]\n", "ascending"),
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
            # a line break would end the row it separates
            ('csv_delimiter: "\\n"\n', "line break"),
            ('csv_delimiter: "\\r"\n', "line break"),
            # the quote character cannot also separate the fields it quotes
            ("csv_delimiter: '\"'\n", "quote character"),
            # a day the trip writers could not render as a date
            ("generation: {start_day: 3000000}\n", "'start_day' and 'horizon_days' in generation"),
            ("generation: {start_day: -800000}\n", "'start_day' and 'horizon_days' in generation"),
            ("epoch: 9999-12-28\n", "from epoch 9999-12-28"),
            ("epoch: 9999-12-28\ngeneration: {horizon_days: 0}\n", "'days' in corpus"),
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
            # str() would read the integer 1 as the delimiter "1"
            ("csv_delimiter: 1\n", "single character"),
            ("window_days: 0\n", "window_days must be >= 1"),
            ("generation: {min_gap: -1}\n", "min_gap must be >= 0"),
            ("validation: [1]\n", "section 'validation' must be a mapping"),
            ("paths: [unclosed\n", "not valid YAML"),
            ("- 1\n", "config root must be a mapping"),
            ("corpus: {individuals: [commuter]}\n", "individuals must map type name to count"),
            # a path is a non-empty string: str() would name the files "1"
            # and "['a']", and a falsy value would drop the key
            ("paths: {trips: 1}\n", "bad value for 'trips' in paths: 1"),
            ("paths: {store: [a]}\n", "bad value for 'store' in paths"),
            ("paths: {report: 0}\n", "bad value for 'report' in paths: 0"),
            ("paths: {report: false}\n", "bad value for 'report' in paths: False"),
            ("paths: {report: null}\n", "bad value for 'report' in paths: None"),
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

    def test_readme_config_reference_names_each_key_row(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("### Config reference\n\n", 1)[1].split("\n\n", 1)[0]
        documented = {}
        for line in table.splitlines()[2:]:  # below the header and its rule
            section, keys = (cell.strip() for cell in line.split("|")[1:3])
            documented.setdefault(section.strip("`"), set()).update(re.findall(r"`(\w+)`", keys))
        sections = {"paths", "generation", "validation", "corpus"}
        assert documented == {
            "(root)": {key for key, _, _ in cli.ROOT_ROWS} - sections,
            "generation": {key for key, _, _ in cli.GENERATION_ROWS},
            "validation": {key for key, _, _ in cli.VALIDATION_ROWS},
            "corpus": {key for key, _, _ in cli.CORPUS_ROWS},
        }
        example = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
        config = load_config(write_config(tmp_path, example))
        assert config.path("generated") == tmp_path / "out" / "generated.csv"


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
    assert list(parsed.records) == small.trips


def written_zones(text, delimiter=","):
    """Each zone as write_zones_csv wrote it, all four fields read back."""
    header, *rows = csv.reader(io.StringIO(text), delimiter=delimiter)
    assert tuple(header) == ZONE_HEADER
    return [
        Zone(zone_id, float(lon), float(lat), frozenset(r for r in roads.split(";") if r))
        for zone_id, lon, lat, roads in rows
    ]


def test_zone_and_network_round_trip(small):
    buf = io.StringIO()
    write_zones_csv(small.zones, buf)
    assert written_zones(buf.getvalue()) == small.zones
    assert parse_zones(io.StringIO(buf.getvalue())) == {z.zone_id for z in small.zones}

    buf = io.StringIO()
    write_network_csv(small.network, buf)
    assert buf.getvalue().splitlines()[1:] == [f"{a},{b}" for a, b in small.network]
    roads = parse_network(io.StringIO(buf.getvalue()))
    assert roads == {road for edge in small.network for road in edge}


def reference_counts(reference) -> dict:
    """{type: (minute counts, slot counts, total)} of a reference."""
    return {t: (c.minute, c.slot, c.total) for t, c in reference.items()}


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
        assert {p.observed_days for p in store.profiles.values()} == {small.spec.days}
        assert store.profiles == profiles
        assert store.catalog.entries == catalog.entries
        assert store.pools == pools
        assert reference_counts(store.reference) == reference_counts(reference)

    def test_generate_all_leaves_the_loaded_catalog_as_loaded(self, small, tmp_path):
        # A run draws routes from its own table, so the store it reads
        # stays as loaded.
        path = tmp_path / "store.json"
        self.build(small, path)
        store = load_store(path)
        loaded = {name: dict(value) for name, value in vars(store.catalog).items()}
        trips = generator.generate_all(store.profiles, store.reference, store.catalog,
                                       store.pools, generator.GenParams(), store.partition)
        assert list(trips)
        assert vars(store.catalog) == loaded

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

    def test_load_shares_one_str_per_path_id_and_road(self, small, tmp_path):
        path = tmp_path / "store.json"
        self.build(small, path)
        store = load_store(path)
        ids, roads = {}, {}
        for entries in store.catalog.entries.values():
            for e in entries:
                assert ids.setdefault(e.path_id, e.path_id) is e.path_id
                assert all(roads.setdefault(r, r) is r for r in e.path)
        assert all(pid is ids[pid] for pid, _ in store.pools.samples)

    def test_path_only_pool_is_built_on_first_use(self, small, tmp_path):
        pools = self.build(small, tmp_path / "store.json")[2]
        assert pools._fallback == {}
        pools = load_store(tmp_path / "store.json").pools
        assert pools._fallback == {}
        pid = min(pid for pid, _ in pools.samples)
        assert pools.fallback(pid) == tuple(sorted(
            d for (p, _), values in pools.samples.items() if p == pid for d in values))
        assert pools._fallback == {pid: pools.fallback(pid)}

    def test_pool_off_catalog_refused_without_path_only_pool(
        self, small, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.json"
        self.build(small, path)
        doc = json.loads(path.read_text())
        doc["pools"][0][2] += [500] * 50
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(DurationPool, "fallback",
                            lambda pools, pid: pytest.fail("a path-only pool was built"))
        with pytest.raises(ValueError, match="pooled durations differ"):
            load_store(path)

    def test_profile_without_trips_refused_by_name(self, small, tmp_path):
        path = tmp_path / "store.json"
        self.build(small, path)
        doc = json.loads(path.read_text())
        doc["profiles"]["ZZ-no-trips"] = {"type": "commuter", "od": {},
                                          "slot_origin": {}}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match="malformed store: profile 'ZZ-no-trips' has no trips"):
            load_store(path)

    def test_version_guard(self, small, tmp_path):
        path = tmp_path / "store.json"
        self.build(small, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_store(path)


HOURLY_PARTITION = TimeSlotPartition.hourly()
FOUR_HOUR_PARTITION = TimeSlotPartition([1, 241, 481, 721, 961, 1201])


# Legal ids: non-empty; delimiters and non-ASCII allowed, except that a
# road id may not contain the path separator "-". A padded road is drawn
# too: the store refuses it.
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


def _one_shot_store(partition, profiles, catalog, pools, reference) -> str:
    """The store document of these aggregates, encoded in one json.dumps
    call."""
    doc = {
        "version": 2,
        "window_days": 7,
        "partition": partition.boundaries(),
        "profiles": {
            tid: {
                "type": p.traveller_type.value,
                "od": p.od_counts,
                "slot_origin": {str(s): by_o for s, by_o in p.slot_origin_counts.items()},
            }
            for tid, p in profiles.items()
        },
        "catalog": [
            [o, d, [[e.path_id, e.crowd_count] for e in catalog.get(o, d)]]
            for o, d in catalog.od_pairs()
        ],
        "pools": [[pid, slot, list(v)] for (pid, slot), v in sorted(pools.samples.items())],
        "reference": {
            ttype.value: {str(m): n for m, n in enumerate(counts.minute) if n}
            for ttype, counts in reference.items()
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@settings(max_examples=150, deadline=None)
@given(table=trip_tables())
@example(table=(FOUR_HOUR_PARTITION, [
    TripRecord("V|1", TravellerType.COMMUTER, 0, 400, "A|1", "B", ("r|1", "é"), 9),
    TripRecord("V|1", TravellerType.COMMUTER, 1, 900, "A", "1|B", ("r:2",), 5),
]))
@example(table=(FOUR_HOUR_PARTITION, [
    TripRecord("V1", TravellerType.COMMUTER, 0, 400, "A", "B", ("r1", " r2"), 9),
]))
def test_store_round_trips_any_legal_ids(table, tmp_path_factory):
    partition, trips = table
    path = tmp_path_factory.mktemp("store") / "store.json"
    profiles = build_profiles(trips, partition, 7)
    if any(r != r.strip() for t in trips for r in t.path):
        # load_store would refuse its route id, so the catalog refuses it.
        with pytest.raises(ValueError, match="empty or padded road|has no roads"):
            build_path_catalog(trips)
        return
    catalog = build_path_catalog(trips)
    pools = build_duration_pools(trips, partition)
    reference = build_reference_aggregates(trips, partition)
    save_store(path, partition=partition, window_days=7, profiles=profiles,
               catalog=catalog, pools=pools, reference=reference)
    assert path.read_text() == _one_shot_store(
        partition, profiles, catalog, pools, reference
    )
    store = load_store(path)
    assert store.partition == partition
    assert store.profiles == profiles
    assert store.catalog.entries == catalog.entries
    assert store.pools == pools
    assert reference_counts(store.reference) == reference_counts(reference)


@st.composite
def corpus_stores(draw):
    """(corpus spec, partition): a small corpus, and hourly slots, a
    one-slot day or random slot starts to build its store under."""
    side = draw(st.integers(2, 4))
    # A random traveller visits five zones, more than a 2x2 grid has.
    counts = {t: draw(st.integers(0, 0 if side < 3 and t is TravellerType.RANDOM else 3))
              for t in TravellerType}
    assume(any(counts.values()))
    spec = CorpusSpec(
        grid_side=side,
        days=draw(st.integers(1, 7)),
        rng_seed=draw(st.integers(0, 2**16)),
        individuals=tuple(counts.items()),
    )
    partition = draw(st.one_of(
        st.just(HOURLY_PARTITION),
        st.just(TimeSlotPartition([1])),
        st.lists(st.integers(2, 1440), max_size=8).map(
            lambda starts: TimeSlotPartition([1, *sorted(set(starts))])
        ),
    ))
    return spec, partition


@settings(max_examples=100, deadline=None)
@given(state=corpus_stores())
def test_corpus_store_round_trips_and_loads_clean(state, tmp_path_factory):
    # Every store the four builders make passes every load check, and
    # loads back equal.
    spec, partition = state
    trips = synth_corpus(spec).trips
    path = tmp_path_factory.mktemp("store") / "store.json"
    profiles = build_profiles(trips, partition, spec.days)
    catalog = build_path_catalog(trips)
    pools = build_duration_pools(trips, partition)
    reference = build_reference_aggregates(trips, partition)
    save_store(path, partition=partition, window_days=spec.days, profiles=profiles,
               catalog=catalog, pools=pools, reference=reference)
    store = load_store(path)
    assert store.partition == partition
    assert {p.observed_days for p in store.profiles.values()} == {spec.days}
    assert store.profiles == profiles
    assert store.catalog.entries == catalog.entries
    assert store.pools.samples == pools.samples
    assert reference_counts(store.reference) == reference_counts(reference)


# Python 3.10's csv module can neither write nor read a NUL character.
CSV_ID_CHARS = ID_CHARS if sys.version_info >= (3, 11) else ID_CHARS.filter(
    lambda c: c != "\x00"
)
# Traveller, zone and road ids are stripped on parse, so legal ones are stripped.
stripped_ids = st.text(CSV_ID_CHARS, min_size=1, max_size=6).filter(
    lambda s: s == s.strip()
)
csv_road_ids = st.text(CSV_ID_CHARS, min_size=1, max_size=4).filter(
    lambda r: "-" not in r and r == r.strip()
)


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
        TripRecord("V2", TravellerType.HIGH_FREQ, 9, 1440, "A|1", "1|B", ("r\r1", "r\n1"), 600),
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
    # A traveller keeps the type of its first written row.
    assert list(parsed.records) == first_typed(trips)


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
    assert written_zones(buf.getvalue(), delimiter) == zones
    ids = parse_zones(io.StringIO(buf.getvalue()), delimiter=delimiter)
    assert ids == {z.zone_id for z in zones}


def _with_profile_type(doc, name):
    next(iter(doc["profiles"].values()))["type"] = name
    return doc


def _with_window_days(doc, value):
    doc["window_days"] = value
    return doc


def _with_entry(doc, steps, value):
    """Set the entry of `doc` at `steps` to `value`; a None step stands for
    the first key of a dict."""
    *parents, last = steps
    for step in parents:
        doc = doc[next(iter(doc)) if step is None else step]
    doc[next(iter(doc)) if last is None else last] = value


def _with_key_respelled(doc, steps, respell):
    """Respell the first key of the dict at `steps` as respell(key), keeping
    its value; a None step stands for the first key of a dict."""
    for step in steps:
        doc = doc[next(iter(doc)) if step is None else step]
    key = next(iter(doc))
    doc[respell(key)] = doc.pop(key)


# Spellings that int() reads back as the key's int but that str() never
# writes.
KEY_RESPELLINGS = {
    "padded": lambda key: f" {key} ",
    "zero-led": lambda key: "0" + key,
    "underscore": lambda key: "0_" + key,
    "arabic-indic": lambda key: key.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
}


def _with_route_renamed(doc, rename):
    """Rename the first route of several roads to rename(its id), in the
    catalog and in the pools."""
    old = next(pid for _, _, rows in doc["catalog"] for pid, _ in rows if "-" in pid)
    for row in [row for _, _, rows in doc["catalog"] for row in rows] + doc["pools"]:
        if row[0] == old:
            row[0] = rename(old)


def _with_traveller_renamed(doc, new):
    """Rename the first profile's traveller id to `new`."""
    tid = next(iter(doc["profiles"]))
    doc["profiles"][new] = doc["profiles"].pop(tid)


def _with_zone_renamed(doc, new):
    """Rename the first profile's first origin to `new`, in every profile
    and in the catalog."""
    old = next(iter(next(iter(doc["profiles"].values()))["od"]))
    name = {old: new}.get
    for p in doc["profiles"].values():
        p["od"] = {name(o, o): {name(d, d): n for d, n in row.items()}
                   for o, row in p["od"].items()}
        p["slot_origin"] = {s: {name(o, o): n for o, n in row.items()}
                            for s, row in p["slot_origin"].items()}
    for row in doc["catalog"]:
        row[0], row[1] = name(row[0], row[0]), name(row[1], row[1])


# A traveller typed commuter, then random twice; the parser keeps commuter.
MIXED_ROWS = (
    "X,commuter,2019-08-12,07:00,,Z01,Z02,R01_02,10\n"
    "X,random,2019-08-12,09:00,,Z02,Z01,R01_02,10\n"
    "X,random,2019-08-13,07:00,,Z03,Z02,R01_02,10\n"
)


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

    def test_corpus_makes_the_directory_of_every_file(self, tmp_path):
        cfg = write_config(tmp_path, PATHS.replace("data/zones.csv", "geo/zones.csv")
                           .replace("data/network.csv", "roads/network.csv") + SMALL_CORPUS)
        assert main(["corpus", "-c", cfg]) == 0
        assert (tmp_path / "geo" / "zones.csv").is_file()
        assert (tmp_path / "roads" / "network.csv").is_file()

    def test_invalid_params_leave_generated_csv_untouched(self, cfg, tmp_path, monkeypatch):
        assert main(["corpus", "-c", cfg]) == 0
        assert main(["ingest", "-c", cfg]) == 0
        assert main(["generate", "-c", cfg]) == 0
        out = tmp_path / "out" / "generated.csv"
        before = out.read_bytes()
        # The busiest individual's trips make EPSILON rival a preference.
        monkeypatch.setattr(generator, "EPSILON", 0.5)
        assert main(["generate", "-c", cfg]) == 2
        assert out.read_bytes() == before

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

    def test_byte_order_mark_is_skipped(self, cfg, tmp_path):
        # Spreadsheets export "CSV UTF-8" with a leading EF BB BF.
        assert main(["corpus", "-c", cfg]) == 0
        assert main(["ingest", "-c", cfg]) == 0
        assert main(["generate", "-c", cfg]) == 0
        assert main(["validate", "-c", cfg]) == 0
        outputs = [tmp_path / "build" / "store.json", tmp_path / "out" / "report.csv"]
        before = [path.read_bytes() for path in outputs]
        for name in ("trips", "zones", "network"):
            table = tmp_path / "data" / f"{name}.csv"
            table.write_bytes(b"\xef\xbb\xbf" + table.read_bytes())
        assert main(["ingest", "-c", cfg]) == 0
        assert main(["validate", "-c", cfg]) == 0
        assert [path.read_bytes() for path in outputs] == before

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
        unsorted = write_config(tmp_path, "partition: [1, 481, 241, 241]\n", name="unsorted.yaml")
        assert main(["corpus", "-c", unsorted]) == 2
        stamp = write_config(tmp_path, "epoch: 2019-08-12 00:00:00\n", name="stamp.yaml")
        assert main(["corpus", "-c", stamp]) == 2
        fraction = write_config(tmp_path, "window_days: 7.9\n", name="fraction.yaml")
        assert main(["corpus", "-c", fraction]) == 2
        boolean = write_config(tmp_path, "generation: {seed: true}\n", name="boolean.yaml")
        assert main(["corpus", "-c", boolean]) == 2
        numbered = write_config(tmp_path, PATHS.replace("data/trips.csv", "1") + SMALL_CORPUS,
                                name="numbered.yaml")
        assert main(["corpus", "-c", numbered]) == 2
        assert not (tmp_path / "1").exists()
        # With paths, so only the float entry can fail the run.
        for name, body in (("flag.yaml", "validation: {topk_zones: [true]}\n"),
                           ("text.yaml", 'validation: {topk_od: ["0.5"]}\n')):
            full = write_config(tmp_path, PATHS + SMALL_CORPUS + body, name=name)
            assert main(["corpus", "-c", full]) == 2
        # Read without complaint, but refused by synth_corpus.
        for name, body in (("negative.yaml", "corpus: {individuals: {commuter: -3, passby: 2}}\n"),
                           ("no-days.yaml", "corpus: {days: 0}\n"),
                           ("no-one.yaml", "corpus: {individuals: {commuter: 0}}\n"),
                           ("no-types.yaml", "corpus: {individuals: {}}\n")):
            refused = write_config(tmp_path, PATHS + body, name=name)
            assert main(["corpus", "-c", refused]) == 2
            assert not (tmp_path / "data" / "trips.csv").exists()
        # Refused by load_config: a day off the calendar, an epoch not
        # spelled YYYY-MM-DD, a line-break or quote-character delimiter.
        for name, body in (("late.yaml", "epoch: 9999-12-28\n"),
                           ("basic.yaml", 'epoch: "20190812"\n'),
                           ("week.yaml", 'epoch: "2019-W33-1"\n'),
                           ("far.yaml", "generation: {start_day: 3000000}\n"),
                           ("newline.yaml", 'csv_delimiter: "\\n"\n'),
                           ("quote.yaml", "csv_delimiter: '\"'\n")):
            refused = write_config(tmp_path, PATHS + body, name=name)
            assert main(["corpus", "-c", refused]) == 2
            assert main(["generate", "-c", refused]) == 2
            assert not (tmp_path / "data" / "trips.csv").exists()
            assert not (tmp_path / "out" / "generated.csv").exists()
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

    def test_quarantine_fails_generate(self, cfg, tmp_path, caplog, monkeypatch):
        main(["corpus", "-c", cfg])
        main(["ingest", "-c", cfg])
        store = tmp_path / "build" / "store.json"
        # The load checks refuse the store edits that used to reach the
        # quarantine path, so the first individual's start is made to fail.
        victim = min(json.loads(store.read_text())["profiles"])
        start = generator.initial_location

        def corrupt(profile):
            if profile.traveller_id == victim:
                raise CorruptInputError(f"profile {victim!r} is corrupt")
            return start(profile)

        monkeypatch.setattr(generator, "initial_location", corrupt)
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
        "steps,value",
        [
            (("reference", "commuter", None), -1_000_000),
            (("profiles", None, "od", None, None), -50),
            (("profiles", None, "od", None, None), True),
            (("profiles", None, "od", None, None), 2.5),
            (("profiles", None, "slot_origin", None, None), -3),
            (("profiles", None, "slot_origin", "99"), {"Z01": 1}),
            (("catalog", 0, 2, 0, 1), -4),
            (("pools", 0, 2, 0), 2.5),
            (("pools", 0, 2, 0), -5),
            (("pools", 0, 1), 99),
            (("pools", 0, 1), True),
            # Legal values that break a derived total: a profile's slot x
            # origin counts no longer sum to its OD row, and a type's
            # reference slot totals no longer sum its profiles' slot counts.
            (("profiles", None, "slot_origin", None, None), 1_000),
            (("reference", "commuter", None), 1_000),
            # An OD pair's catalog counts no longer sum its profiles' OD
            # counts, a catalog pair no profile travels replaces one they
            # do, and a route's pooled durations outnumber its catalog
            # counts.
            (("catalog", 0, 2, 0, 1), 1_000),
            (("catalog", 0, 0), "Z99"),
            (("pools", 0, 2), [500] * 1_000),
            # A profile with no trips adds to no total.
            (("profiles", "ZZ-no-trips"), {"type": "commuter", "od": {},
                                           "slot_origin": {}}),
            # Partition starts that read back as the hourly partition, but
            # that save_store never writes.
            (("partition", 1), "61"),
            (("partition", 1), 61.9),
            (("partition", 0), True),
            (("partition",), [61, 1, *range(121, 1441, 60)]),
        ],
        ids=["reference-count-negative", "od-count-negative", "od-count-bool",
             "od-count-fraction", "slot-origin-count-negative", "slot-origin-slot-99",
             "catalog-count-negative", "pooled-duration-fraction",
             "pooled-duration-negative", "pool-slot-99", "pool-slot-bool",
             "slot-origin-off-od", "reference-off-profiles", "catalog-off-profiles",
             "catalog-pair-unknown", "pool-off-catalog", "profile-without-trips",
             "partition-start-text", "partition-start-fraction", "partition-start-bool",
             "partition-unsorted"],
    )
    def test_bad_store_value_fails_generate(self, cfg, tmp_path, caplog, steps, value):
        self.assert_refused_on_load(cfg, tmp_path, caplog,
                                    lambda doc: _with_entry(doc, steps, value))

    @pytest.mark.parametrize("spelling", sorted(KEY_RESPELLINGS))
    @pytest.mark.parametrize(
        "steps",
        [("profiles", None, "slot_origin"), ("reference", "commuter")],
        ids=["slot-key", "minute-key"],
    )
    def test_bad_store_key_fails_generate(self, cfg, tmp_path, caplog, steps, spelling):
        respell = KEY_RESPELLINGS[spelling]
        self.assert_refused_on_load(cfg, tmp_path, caplog,
                                    lambda doc: _with_key_respelled(doc, steps, respell))

    @pytest.mark.parametrize(
        "rename",
        [lambda pid: "", lambda pid: pid.replace("-", "--", 1),
         lambda pid: pid.replace("-", " - ", 1)],
        ids=["route-empty", "route-empty-road", "route-padded-road"],
    )
    def test_bad_route_id_fails_generate(self, cfg, tmp_path, caplog, rename):
        # Renamed everywhere, so every count and total still agrees; the
        # trip parser would not give the id back.
        self.assert_refused_on_load(cfg, tmp_path, caplog,
                                    lambda doc: _with_route_renamed(doc, rename))

    @pytest.mark.parametrize(
        "rename", [_with_traveller_renamed, _with_zone_renamed],
        ids=["traveller-empty", "zone-empty"],
    )
    def test_bad_store_id_fails_generate(self, cfg, tmp_path, caplog, rename):
        # Renamed everywhere, so every count and total still agrees; the
        # trip parser never gives an empty id.
        self.assert_refused_on_load(cfg, tmp_path, caplog, lambda doc: rename(doc, ""))

    @staticmethod
    def assert_refused_on_load(cfg, tmp_path, caplog, edit):
        # Refused on load, before any row is written, in one line naming
        # the store.
        assert main(["corpus", "-c", cfg]) == 0
        assert main(["ingest", "-c", cfg]) == 0
        store = tmp_path / "build" / "store.json"
        doc = json.loads(store.read_text())
        edit(doc)
        store.write_text(json.dumps(doc))
        caplog.clear()
        assert main(["generate", "-c", cfg]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and f"{store}: malformed store" in errors[0]
        assert not (tmp_path / "out" / "generated.csv").exists()

    def test_mixed_types_reference_matches_profiles(self, cfg, tmp_path, caplog):
        # Per type, the reference's slot totals are the profiles' slot
        # counts summed: both come from the same rows under one type each.
        assert main(["corpus", "-c", cfg]) == 0
        with (tmp_path / "data" / "trips.csv").open("a") as fh:
            fh.write(MIXED_ROWS)
        assert main(["ingest", "-c", cfg]) == 0
        assert "retyped 1 travellers" in caplog.text
        store = load_store(tmp_path / "build" / "store.json")
        assert store.profiles["X"].traveller_type is TravellerType.COMMUTER
        assert store.profiles["X"].total_trips == 3
        for ttype, counts in store.reference.items():
            slots = [0] * len(counts.slot)
            for profile in store.profiles.values():
                if profile.traveller_type is ttype:
                    for slot_id, by_origin in profile.slot_origin_counts.items():
                        slots[slot_id] += sum(by_origin.values())
            assert counts.slot == slots, ttype

    def test_validate_counts_retyped_rows_under_first_type(self, cfg, tmp_path):
        mixed = tmp_path / "mixed.csv"
        mixed.write_text(",".join(TRIP_HEADER) + "\n" + MIXED_ROWS)
        assert main(["validate", "-c", cfg, "--reference", str(mixed),
                     "--generated", str(mixed)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "out" / "report.csv").read_text().splitlines()[3:]]
        assert {row[1] for row in rows} == {"", "commuter"}
        # X's three trips form two pairs; the Z03 origin breaks the second.
        assert ["continuity", "commuter", "reference", "0.5"] in rows
        assert ["entropy_mean", "commuter", "reference", "0.6365141683"] in rows

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

    def test_generate_calls_wrapped_names_through_generator(self, cfg, monkeypatch):
        # A caller that wraps these names on the generator module, or the
        # ledger's record method, sees every one of them called.
        wrapped = (
            "generate_trip", "daily_quota", "slot_weights", "subsequent_slots",
            "select_time_slot", "select_time_period", "period_weights",
            "select_destination", "select_path", "sample_duration",
        )
        assert main(["corpus", "-c", cfg]) == 0
        assert main(["ingest", "-c", cfg]) == 0
        called = set()
        for owner, name in [(generator, n) for n in wrapped] + [
            (generator.AggregationLedger, "record")
        ]:
            def record(*args, _name=name, _original=getattr(owner, name), **kwargs):
                called.add(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, record)
        assert main(["generate", "-c", cfg]) == 0
        assert called == {*wrapped, "record"}

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

    def test_path_road_missing_from_network_warns(self, cfg, tmp_path, caplog):
        assert main(["corpus", "-c", cfg]) == 0
        trips = tmp_path / "data" / "trips.csv"
        header, first, rest = trips.read_text().split("\n", 2)
        trips.write_text("\n".join([header, first.replace(",R", ",RNOWHERE-R", 1), rest]))
        caplog.clear()
        assert main(["ingest", "-c", cfg]) == 0
        assert "1 roads in paths missing from network" in caplog.text

    def test_no_usable_trip_rows_fails_ingest(self, cfg, tmp_path, caplog):
        assert main(["corpus", "-c", cfg]) == 0
        trips = tmp_path / "data" / "trips.csv"
        header, first = trips.read_text().splitlines()[:2]
        trips.write_text(f"{header}\n{first.replace(',commuter,', ',wizard,')}\n")
        caplog.clear()
        assert main(["ingest", "-c", cfg]) == 1
        assert "no usable trip rows (rejected: 1)" in caplog.text
        assert not (tmp_path / "build" / "store.json").exists()

    def test_validate_without_report_path_writes_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PATHS.replace("  report: out/report.csv\n", "")
                           + SMALL_CORPUS)
        for command in ("corpus", "ingest", "generate"):
            assert main([command, "-c", cfg]) == 0
        capsys.readouterr()
        assert main(["validate", "-c", cfg]) == 0
        assert capsys.readouterr().out.startswith("# trip table validation report")
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_non_ascii_ids_run_under_an_ascii_locale(self, cfg, tmp_path):
        # Every file is read and written as UTF-8, whatever the locale's
        # preferred encoding; here it is ASCII.
        env = dict(os.environ, LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")

        def run(command):
            proc = subprocess.run([sys.executable, "-m", "tripsynth.cli", command, "-c", cfg],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr

        run("corpus")
        trips = tmp_path / "data" / "trips.csv"
        text = trips.read_text(encoding="utf-8")
        tid = text.splitlines()[1].split(",")[0]
        trips.write_text(text.replace(f"\n{tid},", "\nÜnï0001,"), encoding="utf-8")
        for command in ("ingest", "generate", "validate"):
            run(command)
        generated = (tmp_path / "out" / "generated.csv").read_text(encoding="utf-8")
        assert "\nÜnï0001," in generated

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
            (zones, zone_text.replace(first, f",{rest}"), "line 2: missing zone id"),
            (network, network_text + "R1,R2,R3\n",
             f"line {len(network_text.splitlines()) + 1}: expected 'road_id,neighbor_id'"),
            (zones, "", "zone table is empty"),
        ]
        for path, text, message in cases:
            zones.write_text(zone_text)
            network.write_text(network_text)
            path.write_text(text)
            caplog.clear()
            assert main(["ingest", "-c", cfg]) == 1
            assert f"{path}: {message}" in caplog.text
        assert not (tmp_path / "build" / "store.json").exists()
        # Only Zone_ID is read: a coordinate that is not a number passes.
        zones.write_text(zone_text.replace(first, f"{first_id},abc,{rest.partition(',')[2]}"))
        network.write_text(network_text)
        assert main(["ingest", "-c", cfg]) == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tripsynth.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "corpus" in proc.stdout and "validate" in proc.stdout

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # Each command is a fresh process, so it pays for every module the
        # import pulls in; `inspect` alone brings `ast` and `dis`.
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, tripsynth.cli; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
