import csv
import datetime as dt
import io
import logging
import tracemalloc

import pytest

from tripsynth.generator import initial_location
from tripsynth.ingest import (
    DurationPool,
    PathCatalog,
    PathEntry,
    build_duration_pools,
    build_path_catalog,
    build_profiles,
    build_reference_aggregates,
    parse_network,
    parse_trips,
    parse_zones,
    path_id_of,
    write_network_csv,
)
from tripsynth.model import (
    AggregationLedger,
    CorruptInputError,
    TimeSlotPartition,
    TravellerType,
    TripRecord,
    TypeCounts,
)

EPOCH = dt.date(2019, 8, 12)
HOURLY = TimeSlotPartition.hourly()

HEADER = "traveller_ID,traveller_type,Date,Departure_time,Time_slot,O_zone,D_zone,Path,Duration"


def parse(rows, **kw):
    text = HEADER + "\n" + "\n".join(rows) + "\n"
    return parse_trips(io.StringIO(text), EPOCH, **kw)


def test_parse_single_row():
    result = parse(["V1,commuter,2019-08-12,07:31,07:00-08:00,Z3,Z9,r1-r4-r7,14"])
    assert not result.errors
    (trip,) = result.records
    assert trip.traveller_id == "V1"
    assert trip.traveller_type is TravellerType.COMMUTER
    assert trip.date == 0
    assert trip.departure == 452
    assert trip.o_zone == "Z3" and trip.d_zone == "Z9"
    assert trip.path == ("r1", "r4", "r7")
    assert trip.duration == 14


def test_slot_comes_from_departure_not_the_column():
    # mislabelled slot text must not leak into the record
    result = parse(["V1,commuter,2019-08-12,07:31,23:00-24:00,Z3,Z9,r1,14"])
    labelled = parse(["V1,commuter,2019-08-12,07:31,07:00-08:00,Z3,Z9,r1,14"])
    assert list(result.records) == list(labelled.records)


def test_date_accepts_bare_day_index():
    result = parse(["V1,commuter,3,07:31,,Z3,Z9,r1,14"])
    assert list(result.records)[0].date == 3


def test_bad_rows_become_errors():
    result = parse(
        [
            "V1,commuter,2019-08-12,07:31,,Z3,Z9,r1,14",
            "V2,wizard,2019-08-12,07:31,,Z3,Z9,r1,14",
            "V3,commuter,teatime,07:31,,Z3,Z9,r1,14",
            "V4,commuter,2019-08-12,25:99,,Z3,Z9,r1,14",
            "V5,commuter,2019-08-12,07:31,,Z3,Z9,r1,soon",
            "V6,commuter,2019-08-12,07:31,,Z3,Z9,r1,0",
            "V7,commuter,2019-08-12,07:31,,Z3,Z9,,14",
            "V8,commuter,2019-08-12,07:31,,,Z9,r1,14",
            "V9,commuter",
            # non-finite: float() accepts these, round() cannot take them
            "V10,commuter,2019-08-12,07:31,,Z3,Z9,r1,inf",
            "V11,commuter,2019-08-12,07:31,,Z3,Z9,r1,-inf",
            "V12,commuter,2019-08-12,07:31,,Z3,Z9,r1,1e400",
            "V13,commuter,2019-08-12,07:31,,Z3,Z9,r1,nan",
        ]
    )
    assert len(result.records) == 1
    assert result.error_counts == {
        "unknown traveller type": 1,
        "bad date": 1,
        "bad departure time": 1,
        "bad duration": 6,
        "empty path": 1,
        "missing zone": 1,
        "short row": 1,
    }


def test_repeated_texts_keep_their_row_errors():
    # Every reject reason twice with the same bad text, so the second hit is
    # answered from the per-call parse of that text; good rows share texts
    # with the bad ones.
    result = parse(
        [
            "V1,commuter,2019-08-12,07:31,,Z3,Z9,r1-r4,14",
            "V2,wizard,2019-08-12,07:31,,Z3,Z9,r1-r4,14",
            "V3,commuter,teatime,07:31,,Z3,Z9,r1-r4,14",
            "V4,commuter,2019-08-12,25:99,,Z3,Z9,r1-r4,14",
            "V5,commuter,2019-08-12,07:31,,Z3,Z9,r1-r4,soon",
            "V6,commuter,2019-08-12,07:31,,Z3,Z9,r1-r4,0",
            "V7,commuter,2019-08-12,07:31,,Z3,Z9,--,14",
            "V8,commuter,2019-08-12,07:31,,,Z9,r1-r4,14",
            "V9,commuter",
            "V1,commuter,1,07:31,,Z9,Z3,r1-r4,14",
            "V2,wizard,teatime,25:99,,Z3,Z9,--,soon",
            "V3,Commuter,teatime,07:31,,Z3,Z9,r1-r4,14",
            "V4,passby,1,25:99,,Z3,Z9,r1-r4,14",
            "V5,passby,1,07:31,,Z3,Z9,r1-r4,soon",
            "V6,commuter,2019-08-12,08:00,,Z3,Z9,r1-r4,0",
            "V7,passby,1,08:00,,Z3,Z9,--,14",
            "V8,commuter,1,07:31,,Z3, ,r1-r4,14",
            "V9,passby",
            "V2,passby,2019-08-12,08:00,,Z3,Z9,r1-r4,0.6",
        ]
    )
    assert [(e.line, e.reason, e.detail) for e in result.errors] == [
        (3, "unknown traveller type", "wizard"),
        (4, "bad date", "teatime"),
        (5, "bad departure time", "25:99"),
        (6, "bad duration", "soon"),
        (7, "bad duration", "0"),
        (8, "empty path", ""),
        (9, "missing zone", ""),
        (10, "short row", "2 fields"),
        (12, "unknown traveller type", "wizard"),
        (13, "bad date", "teatime"),
        (14, "bad departure time", "25:99"),
        (15, "bad duration", "soon"),
        (16, "bad duration", "0"),
        (17, "empty path", ""),
        (18, "missing zone", ""),
        (19, "short row", "2 fields"),
    ]
    records = list(result.records)
    assert records == [
        TripRecord("V1", TravellerType.COMMUTER, 0, 452, "Z3", "Z9", ("r1", "r4"), 14),
        TripRecord("V1", TravellerType.COMMUTER, 1, 452, "Z9", "Z3", ("r1", "r4"), 14),
        TripRecord("V2", TravellerType.PASSBY, 0, 481, "Z3", "Z9", ("r1", "r4"), 1),
    ]
    assert records[0].path is records[1].path


def test_blank_lines_skipped():
    # " , , " is short; the last row is full width but whitespace only.
    result = parse(["", "V1,commuter,0,07:31,,Z3,Z9,r1,14", " , , ", " , \t, , , , , , , "])
    assert len(result.records) == 1 and not result.errors


def test_traveller_keeps_its_first_accepted_type(caplog):
    result = parse(
        [
            "X,commuter,0,07:00,,Z1,Z2,r1,10",
            "X,random,0,09:00,,Z2,Z1,r1,10",
            "W,stable,bad,07:00,,Z1,Z2,r1,10",  # rejected: fixes no type
            "W,high_freq,0,08:00,,Z1,Z2,r1,10",
            "X,random,1,07:00,,Z1,Z2,r1,10",
            "W,passby,1,08:00,,Z2,Z1,r1,10",
            "Y,random,0,10:00,,Z1,Z2,r1,10",
        ]
    )
    assert [(t.traveller_id, t.traveller_type.value) for t in result.records] == [
        ("X", "commuter"),
        ("X", "commuter"),
        ("W", "high_freq"),
        ("X", "commuter"),
        ("W", "high_freq"),
        ("Y", "random"),
    ]
    assert [e.reason for e in result.errors] == ["bad date"]
    assert "retyped 2 travellers seen under several types" in caplog.text


def test_same_id_and_zone_texts_share_one_string():
    a, b, c = parse(
        [
            "V1,commuter,0,07:31,,Z3,Z9,r1,14",
            "V1,commuter,1,08:31,,Z3,Z9,r2,15",
            "V1,commuter,1,09:31,,Z9,Z3,r2,15",
        ]
    ).records
    assert a.traveller_id is b.traveller_id is c.traveller_id
    assert a.o_zone is b.o_zone is c.d_zone
    assert a.d_zone is b.d_zone is c.o_zone


def test_padded_zone_text_parses_to_the_bare_id():
    a, b = parse(
        [
            "V1,commuter,0,07:31,, Z01,Z02 ,r1,14",
            "V1,commuter,0,08:31,,Z01,Z02,r1,14",
        ]
    ).records
    assert (a.o_zone, a.d_zone) == (b.o_zone, b.d_zone) == ("Z01", "Z02")


def test_padded_path_text_parses_to_the_bare_roads():
    a, b = parse(
        [
            "V1,commuter,0,07:31,,Z01,Z02, r1 - r2 ,14",
            "V1,commuter,0,08:31,,Z01,Z02,r1-r2,14",
        ]
    ).records
    assert a.path == b.path == ("r1", "r2")
    # One route, not a padded twin beside it.
    catalog = build_path_catalog([a, b])
    assert [(e.path_id, e.crowd_count) for e in catalog.get("Z01", "Z02")] == [("r1-r2", 2)]


def test_padded_departure_time_parses():
    result = parse(["V1, commuter, 2019-08-12, 07:31, x, Z1, Z2, r1-r2, 14"])
    assert not result.errors
    (trip,) = result.records
    assert trip.departure == 452


def test_blank_traveller_id_rejected(caplog):
    result = parse(
        [
            " ,commuter,2019-08-12,07:52,x,Z02,Z01,R01_02,19",
            "V1,commuter,2019-08-12,07:52,x,Z02,Z01,R01_02,19",
            ",commuter,2019-08-12,07:52,x,Z02,Z01,R01_02,19",
        ]
    )
    assert [(e.line, e.reason) for e in result.errors] == [
        (2, "missing traveller id"),
        (4, "missing traveller id"),
    ]
    assert [t.traveller_id for t in result.records] == ["V1"]
    assert "rejected 2 trip rows" in caplog.text
    assert "retyped" not in caplog.text


def test_rejection_warning_names_the_first_line_of_each_reason(caplog):
    parse(
        [
            "V1,commuter,2019-08-12,07:52,x,Z02,Z01,R01_02,19",
            "V2,commuter,2019-13-01,07:52,x,Z02,Z01,R01_02,19",
            "V3,commuter,2019-08-12,07:52,x,Z02,Z01,,19",
            "V4,commuter,2019-08-32,07:52,x,Z02,Z01,R01_02,19",
        ]
    )
    assert ("rejected 3 trip rows: bad date x2 (first at line 3: '2019-13-01'), "
            "empty path x1 (first at line 4)") in caplog.text


def test_parsed_records_hold_under_48_bytes_per_row():
    # 20,000 rows of 50 ids over 9 zones: a row's column entries, not a
    # record or fresh copies of its id and zone texts, are what the result
    # holds.
    rows = []
    for i in range(20_000):
        o, d = i % 9, (i // 9) % 9
        hhmm = f"{(i // 7) % 24:02d}:{i % 60:02d}"
        rows.append(f"V{i % 50},commuter,{i % 7},{hhmm},,Z{o},Z{d},r{o}-r{d},{i % 30 + 1}")
    stream = io.StringIO(HEADER + "\n" + "\n".join(rows) + "\n")
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = parse_trips(stream, EPOCH)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result.records) == 20_000 and not result.errors
    assert held / len(result.records) < 48


def test_wide_dates_and_durations_parse_intact():
    # Dates and durations have no fixed width: none of these wraps around.
    result = parse(
        [
            f"V1,commuter,{10**12},07:31,,Z3,Z9,r1,14",
            "V1,commuter,-3,07:32,,Z3,Z9,r1,14",
            f"V1,commuter,0,07:33,,Z3,Z9,r1,{10**10}",
        ]
    )
    assert not result.errors
    assert [(t.date, t.duration) for t in list(result.records)] == [
        (10**12, 14),
        (-3, 14),
        (0, 10**10),
    ]


@pytest.mark.parametrize("row, reason", [
    # int(), float() and str.isdigit() read any Unicode decimal digit.
    ("V1,commuter,٣,07:31,,Z1,Z2,r1,14", "bad date"),
    ("V1,commuter,0,٠٧:٣١,,Z1,Z2,r1,14", "bad departure time"),
    ("V1,commuter,0,07:31,,Z1,Z2,r1,١٤", "bad duration"),
    # int() and float() read "_" between digits.
    ("V1,commuter,1_0,07:31,,Z1,Z2,r1,14", "bad date"),
    ("V1,commuter,0,07:31,,Z1,Z2,r1,1_4", "bad duration"),
    # date.fromisoformat reads ISO week dates on Python 3.11+ only.
    ("V1,commuter,2019-W33-1,07:31,,Z1,Z2,r1,14", "bad date"),
    ("V1,commuter,2019W331,07:31,,Z1,Z2,r1,14", "bad date"),
    # An hour takes two digits, as minute_to_hhmm writes it.
    ("V1,commuter,0,7:31,,Z1,Z2,r1,14", "bad departure time"),
])
def test_date_time_and_duration_take_ascii_spellings_only(row, reason):
    result = parse([row])
    assert [e.reason for e in result.errors] == [reason]
    assert len(result.records) == 0


def test_signed_day_index_iso_date_and_decimal_duration_parse():
    result = parse([
        "V1,commuter,+3,07:31,,Z1,Z2,r1,14",
        "V1,commuter, -3 ,07:31,,Z1,Z2,r1,14",
        "V1,commuter,20190812,07:31,,Z1,Z2,r1,14",
        "V1,commuter,2019-08-13,07:31,,Z1,Z2,r1,1.4e1",
    ])
    assert not result.errors
    assert [(t.date, t.duration) for t in result.records] == [
        (3, 14), (-3, 14), (20190812, 14), (1, 14),
    ]


def test_paths_sharing_a_road_hold_one_str_for_it():
    a, b = parse(
        [
            "V1,commuter,0,07:31,,Z1,Z2,r1-r22,14",
            "V1,commuter,0,08:31,,Z2,Z3,r22 - r3,14",
        ]
    ).records
    assert a.path[1] == b.path[0] == "r22"
    assert a.path[1] is b.path[0]


def test_holders_have_no_instance_dict():
    result = parse(["V1,commuter,0,07:31,,Z1,Z2,r1,14", "V2,commuter,0,07:31,,Z1,Z2,,14"])
    (error,) = result.errors
    profile = build_profiles(result.records, HOURLY, 1)["V1"]
    (entry,) = build_path_catalog(result.records).get("Z1", "Z2")
    for holder in (error, profile, entry):
        assert not hasattr(holder, "__dict__"), type(holder).__name__


def test_reference_counts_rows_under_the_travellers_first_type():
    # The type build_profiles keeps, so a record list that bypasses the
    # parser still gives a reference that agrees with the profiles.
    trips = [
        TripRecord("X", TravellerType.COMMUTER, 0, 420, "Z1", "Z2", ("r1",), 10),
        TripRecord("X", TravellerType.RANDOM, 0, 540, "Z2", "Z1", ("r1",), 10),
    ]
    reference = build_reference_aggregates(trips, HOURLY)
    assert list(reference) == [TravellerType.COMMUTER]
    assert reference[TravellerType.COMMUTER].total == 2
    assert build_profiles(trips, HOURLY, 1)["X"].traveller_type is TravellerType.COMMUTER


def test_missing_column_is_fatal():
    text = "traveller_ID,traveller_type,Date,O_zone,D_zone,Path,Duration\nV1,commuter,0,Z3,Z9,r1,14\n"
    with pytest.raises(ValueError, match="departure_time"):
        parse_trips(io.StringIO(text), EPOCH)


def test_empty_stream_is_fatal():
    with pytest.raises(ValueError, match="empty"):
        parse_trips(io.StringIO(""), EPOCH)


def test_duration_divisor_converts_seconds():
    result = parse(
        ["V1,commuter,0,07:31,,Z3,Z9,r1,870"],
        duration_divisor=60.0,
    )
    assert list(result.records)[0].duration == 14  # 870 s -> 14.5 min, banker's round


def test_parse_zones():
    # Only Zone_ID is read: a coordinate that is not a number and a padded
    # road pass, and each id comes back stripped.
    text = "Zone_ID,Longitude,Latitude,Roads\nZ1,116.3,39.9,r1;r2\n Z2 ,abc,, r3 ;\n"
    assert parse_zones(io.StringIO(text)) == frozenset({"Z1", "Z2"})


def test_parse_zones_duplicate_id_is_fatal():
    text = "Zone_ID,Longitude,Latitude,Roads\nZ1,0,0,\nZ1,1,1,\n"
    with pytest.raises(ValueError, match="duplicate"):
        parse_zones(io.StringIO(text))


@pytest.mark.parametrize(
    "row,message",
    [
        ("Z2", "line 3: short row, 1 fields"),
        (",0,0,", "line 3: missing zone id"),
        (" Z1 ,0,0,", "line 3: duplicate zone id 'Z1'"),
    ],
)
def test_parse_zones_bad_row_names_line(row, message):
    text = "Zone_ID,Longitude,Latitude,Roads\nZ1,0,0,\n" + row + "\n"
    with pytest.raises(ValueError) as raised:
        parse_zones(io.StringIO(text))
    assert str(raised.value) == message


def test_csv_error_names_line():
    big = "r" * 200_000
    zones = "Zone_ID,Longitude,Latitude,Roads\nZ1,0,0,\nZ2,0,0," + big + "\n"
    with pytest.raises(csv.Error, match="^line 3: field larger than field limit"):
        parse_zones(io.StringIO(zones))
    with pytest.raises(csv.Error, match="^line 1: field larger than field limit"):
        parse_trips(io.StringIO(big + "\n"), EPOCH)
    with pytest.raises(csv.Error, match="^line 2: field larger than field limit"):
        parse([f"V1,commuter,2019-08-12,07:31,07:00-08:00,Z3,Z9,{big},14"])


def test_parse_network_tolerates_header():
    roads = parse_network(io.StringIO("road_id,neighbor_id\nr1,r2\nr2,r3\n"))
    assert roads == {"r1", "r2", "r3"}
    with pytest.raises(ValueError):
        parse_network(io.StringIO("r1,r2,r3\n"))


def test_parse_network_reads_quoted_fields():
    roads = parse_network(io.StringIO('"road_id","neighbor_id"\n"R1","R2"\n'))
    assert roads == {"R1", "R2"}


def test_network_road_with_separator_or_quote_round_trips():
    edges = [("R1,2", 'R"3'), ('R"3', "R4")]
    buf = io.StringIO()
    write_network_csv(edges, buf)
    assert parse_network(io.StringIO(buf.getvalue())) == {"R1,2", 'R"3', "R4"}


def trip(tid, ttype, day, dep, o, d, path=("r1",), dur=10):
    return TripRecord(
        traveller_id=tid,
        traveller_type=ttype,
        date=day,
        departure=dep,
        o_zone=o,
        d_zone=d,
        path=path,
        duration=dur,
    )


@pytest.fixture
def history():
    t = TravellerType.COMMUTER
    return [
        trip("V1", t, 0, 452, "Z3", "Z9", ("r1", "r4")),
        trip("V1", t, 0, 1052, "Z9", "Z3", ("r4", "r1")),
        trip("V1", t, 1, 455, "Z3", "Z9", ("r1", "r4"), dur=12),
        trip("V2", TravellerType.RANDOM, 0, 600, "Z1", "Z2"),
    ]


class TestBuildProfiles:
    def test_counts(self, history):
        profiles = build_profiles(history, HOURLY, window_days=7)
        assert sorted(profiles) == ["V1", "V2"]
        p = profiles["V1"]
        assert p.traveller_type is TravellerType.COMMUTER
        assert p.total_trips == 3
        assert p.per_origin == {"Z3": 2, "Z9": 1}
        assert initial_location(p) == "Z3"  # touched 3 times, as is Z9
        assert p.od_counts == {"Z3": {"Z9": 2}, "Z9": {"Z3": 1}}
        assert p.slot_origin_counts == {8: {"Z3": 2}, 18: {"Z9": 1}}
        assert p.observed_days == 7

    def test_marginals_agree(self, history):
        for p in build_profiles(history, HOURLY, window_days=7).values():
            assert sum(p.per_origin.values()) == p.total_trips
            assert set(p.per_origin) == {o for o, row in p.od_counts.items() if row}
            od_total = sum(n for dst in p.od_counts.values() for n in dst.values())
            assert od_total == p.total_trips

    def test_slot_origin_consistency(self, history):
        # departures in a slot, summed over origins, must match the
        # individual's trips departing inside that slot
        p = build_profiles(history, HOURLY, window_days=7)["V1"]
        for slot in HOURLY:
            in_slot = sum(
                1 for t in history if t.traveller_id == "V1" and t.departure in slot
            )
            assert sum(p.slot_origin_counts.get(slot.slot_id, {}).values()) == in_slot
        assert p.slot_origin_counts[8] == {"Z3": 2}

    def test_first_seen_type_wins(self, history):
        flipped = history + [trip("V1", TravellerType.PASSBY, 2, 700, "Z3", "Z9")]
        profiles = build_profiles(flipped, HOURLY, window_days=7)
        assert profiles["V1"].traveller_type is TravellerType.COMMUTER
        assert profiles["V1"].total_trips == 4

    def test_window_days_validated(self, history):
        with pytest.raises(ValueError):
            build_profiles(history, HOURLY, window_days=0)

    def test_window_shorter_than_trip_dates_rejected(self, history):
        late = history + [trip("V2", TravellerType.RANDOM, 13, 600, "Z1", "Z2")]
        with pytest.raises(ValueError, match=r"span 14 days.*window_days = 7"):
            build_profiles(late, HOURLY, window_days=7)
        # a window longer than the span is fine: edge days may have no trips
        assert build_profiles(late, HOURLY, window_days=14)["V2"].observed_days == 14
        assert build_profiles(history, HOURLY, window_days=2)["V1"].total_trips == 3

    def test_window_longer_than_trip_dates_warns(self, history, caplog):
        # Every daily rate is the trips over window_days, so 3 days of trips
        # under a 7-day window draw 3/7 of the observed rate.
        three_days = history + [trip("V2", TravellerType.RANDOM, 2, 600, "Z1", "Z2")]
        build_profiles(three_days, HOURLY, window_days=7)
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            "trip dates span 3 days, fewer than window_days = 7: every daily rate is "
            "deflated by the ratio"
        ]

    def test_window_equal_to_trip_dates_is_silent(self, history, caplog):
        three_days = history + [trip("V2", TravellerType.RANDOM, 2, 600, "Z1", "Z2")]
        build_profiles(three_days, HOURLY, window_days=3)
        assert caplog.records == []


class TestPathCatalog:
    def test_pooling(self, history):
        catalog = build_path_catalog(history)
        entries = catalog.get("Z3", "Z9")
        assert len(entries) == 1
        assert entries[0].path_id == "r1-r4"
        assert entries[0].path == ("r1", "r4")
        assert entries[0].crowd_count == 2
        assert ("Z3", "Z9") in catalog.entries
        assert catalog.get("Z9", "Z1") == ()
        assert catalog.od_pairs() == [("Z1", "Z2"), ("Z3", "Z9"), ("Z9", "Z3")]
        assert len(catalog.entries) == 3

    def test_path_id_of(self):
        assert path_id_of(("r1", "r4", "r7")) == "r1-r4-r7"

    @pytest.mark.parametrize("path, message", [
        ((" r1", "r2"), "empty or padded road"),
        (("r1", "r2 "), "empty or padded road"),
        (("r1", ""), "empty or padded road"),
        (("r1-r2",), "empty or padded road"),
        ((" ",), "has no roads"),
    ])
    def test_refuses_a_route_its_id_would_not_split_back_into(self, path, message):
        # load_store splits a stored route id into its roads again.
        trip = TripRecord("V1", TravellerType.COMMUTER, 0, 400, "Z1", "Z2", path, 9)
        with pytest.raises(ValueError, match=message):
            build_path_catalog([trip])

    @pytest.mark.parametrize("counts", [(-1, 2), (0,), (0, 0), (True,), (2.5,)])
    def test_refuses_a_crowd_count_below_one_or_not_int(self, counts):
        # A bool is refused though it sums as an int.
        good = (PathEntry("r9", ("r9",), 4),)
        bad = tuple(PathEntry(f"r{i}", (f"r{i}",), n) for i, n in enumerate(counts))
        with pytest.raises(ValueError, match=r"^crowd count is not an integer >= 1: "):
            PathCatalog({("B", "A"): good, ("A", "B"): bad})


def test_duration_pools(history):
    pools = build_duration_pools(history, HOURLY)
    assert isinstance(pools, DurationPool)
    assert pools.samples[("r1-r4", 8)] == (10, 12)
    assert pools.samples[("r4-r1", 18)] == (10,)
    assert pools.fallback("r1-r4") == (10, 12)
    # the path-only fallback pools every slot of the path, and of no other
    pools = DurationPool({("p", 2): (4, 9), ("p", 7): (3,), ("q", 2): (5,)})
    assert (pools.fallback("p"), pools.fallback("q")) == ((3, 4, 9), (5,))
    assert pools.fallback("r") == ()


class TestReferenceAggregates:
    def test_shares(self, history):
        ref = build_reference_aggregates(history, HOURLY)
        counts = ref[TravellerType.COMMUTER]
        assert counts.total == 3
        assert {s: n for s, n in enumerate(counts.slot) if n} == {8: 2, 18: 1}
        assert counts.slot[8] / counts.total == pytest.approx(2 / 3)
        assert counts.minute[452] / counts.total == pytest.approx(1 / 3)
        assert sum(
            counts.slot[s.slot_id] / counts.total for s in HOURLY
        ) == pytest.approx(1.0)
        assert sum(
            counts.minute[m] / counts.total for m in range(1, 1441)
        ) == pytest.approx(1.0)

    def test_missing_type(self, history):
        ref = build_reference_aggregates(history, HOURLY)
        assert TravellerType.PASSBY not in ref
        with pytest.raises(CorruptInputError):
            AggregationLedger(ref, TravellerType.PASSBY)
        assert TravellerType.PASSBY not in ref
        assert AggregationLedger(ref, TravellerType.COMMUTER).ref.total == 3

    def test_zero_total_share(self):
        ref = {TravellerType.PASSBY: TypeCounts({}, HOURLY)}
        counts = ref[TravellerType.PASSBY]
        assert counts.total == 0
        assert not any(counts.slot) and not any(counts.minute)
        with pytest.raises(CorruptInputError):
            AggregationLedger(ref, TravellerType.PASSBY)
