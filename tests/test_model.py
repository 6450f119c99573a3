import pytest
from hypothesis import given, strategies as st

import tripsynth
from tripsynth.model import (
    MINUTES_PER_DAY,
    CorruptInputError,
    IndividualProfile,
    TimeSlot,
    TimeSlotPartition,
    TravellerType,
    TripRecord,
    TripTable,
    TypeCounts,
    hhmm_to_minute,
    minute_to_hhmm,
)


def test_every_export_resolves():
    # `from tripsynth import *` fails on the first name that is gone.
    missing = [name for name in tripsynth.__all__ if not hasattr(tripsynth, name)]
    assert missing == []


def test_hhmm_round_trip():
    assert hhmm_to_minute("00:00") == 1
    assert hhmm_to_minute("07:31") == 452
    assert hhmm_to_minute("23:59") == 1440
    assert minute_to_hhmm(1) == "00:00"
    assert minute_to_hhmm(452) == "07:31"
    assert minute_to_hhmm(1440) == "23:59"
    for minute in (1, 60, 61, 720, 1440):
        assert hhmm_to_minute(minute_to_hhmm(minute)) == minute


@pytest.mark.parametrize("bad", ["24:00", "7:5", "x", "", "12:60", "-1:10"])
def test_hhmm_rejects(bad):
    with pytest.raises(ValueError):
        hhmm_to_minute(bad)


def test_minute_to_hhmm_rejects_out_of_range():
    for minute in (0, 1441, -5):
        with pytest.raises(ValueError):
            minute_to_hhmm(minute)


def test_traveller_type_parse():
    assert TravellerType.parse("commuter") is TravellerType.COMMUTER
    assert TravellerType.parse("Commuter") is TravellerType.COMMUTER
    assert TravellerType.parse("High-freq traveller") is TravellerType.HIGH_FREQ
    assert TravellerType.parse(" stable_traveler ") is TravellerType.STABLE
    assert TravellerType.parse("PASSBY") is TravellerType.PASSBY
    with pytest.raises(ValueError):
        TravellerType.parse("pedestrian")


def test_traveller_type_has_five_values():
    assert len(TravellerType) == 5


@pytest.mark.parametrize("od", [{}, {"A": {}}, {"A": {"B": 0}}])
def test_profile_without_trips_is_refused(od):
    with pytest.raises(CorruptInputError, match="^profile 'V1' has no trips$"):
        IndividualProfile("V1", TravellerType.COMMUTER, od, {})


@pytest.mark.parametrize("row", [{"B": -1, "C": 2}, {"B": 0}, {"B": 0, "C": 0}])
def test_profile_refuses_bad_od_row(row):
    od = {"A": row, "B": {"A": 1}}
    slot_origin = {1: {"A": sum(row.values()), "B": 1}}
    with pytest.raises(ValueError, match="^profile 'V1': OD or slot x origin count is not "
                                         "an integer >= 1: (-1|0)$"):
        IndividualProfile("V1", TravellerType.COMMUTER, od, slot_origin)


BAD_COUNT = ": OD or slot x origin count is not an integer >= 1: "
OFF_OD = ": slot x origin counts differ from its OD counts per origin"
EMPTY_ID = " has an empty traveller or zone id"
# daily_quota divides the trip count by observed_days.
BAD_DAYS = ": observed_days is not an integer >= 1: "
ONE_TRIP = {"A": {"B": 1}}, {1: {"A": 1}}


@pytest.mark.parametrize(
    "tid,od,slot_origin,days,message",
    [
        ("V1", {"A": {"B": True}}, {1: {"A": 1}}, 1, BAD_COUNT + "True"),
        ("V1", {"A": {"B": 2.5}}, {1: {"A": 2.5}}, 1, BAD_COUNT + "2.5"),
        ("V1", {"A": {"B": 2}}, {1: {"A": 3, "B": -1}}, 1, BAD_COUNT + "-1"),
        ("V1", {"A": {"B": 2}}, {1: {"A": 1}}, 1, OFF_OD),
        ("V1", {"A": {"B": 2}}, {1: {"A": 2}, 3: {"C": 1}}, 1, OFF_OD),
        ("V1", {"A": {"B": 2}}, {}, 1, OFF_OD),
        ("", {"A": {"B": 1}}, {1: {"A": 1}}, 1, EMPTY_ID),
        ("V1", {"": {"B": 1}}, {1: {"": 1}}, 1, EMPTY_ID),
        ("V1", {"A": {"": 1}}, {1: {"A": 1}}, 1, EMPTY_ID),
        ("V1", *ONE_TRIP, 0, BAD_DAYS + "0"),
        ("V1", *ONE_TRIP, -3, BAD_DAYS + "-3"),
        ("V1", *ONE_TRIP, True, BAD_DAYS + "True"),
        ("V1", *ONE_TRIP, 2.5, BAD_DAYS + "2.5"),
    ],
    ids=["od-bool", "fraction", "slot-origin-negative", "slot-origin-short",
         "slot-origin-off-origin", "slot-origin-empty", "traveller-empty", "origin-empty",
         "destination-empty", "days-zero", "days-negative", "days-bool", "days-fraction"],
)
def test_profile_refuses_counts_and_ids_by_name(tid, od, slot_origin, days, message):
    with pytest.raises(ValueError) as refused:
        IndividualProfile(tid, TravellerType.COMMUTER, od, slot_origin, observed_days=days)
    assert str(refused.value) == f"profile {tid!r}{message}"


@pytest.mark.parametrize("n", [0, -1, True, 2.5])
def test_type_counts_refuse_a_count_below_one_or_not_int(n):
    with pytest.raises(ValueError, match=f"^departure count is not an integer >= 1: {n!r}$"):
        TypeCounts({30: 1, 90: n}, TimeSlotPartition.hourly())


class TestTimeSlot:
    def test_contains_and_width(self):
        # The minutes a slot holds are [start, end], both inclusive.
        part = TimeSlotPartition.hourly()
        slot = part.by_id(8)
        assert (slot.start, slot.end) == (421, 480)
        assert [part.slot_of(m).slot_id for m in (420, 421, 450, 480, 481)] == [7, 8, 8, 8, 9]
        assert slot.width() == 60

    def test_label(self):
        assert TimeSlot(7, 421, 480).label() == "07:00-08:00"
        assert TimeSlot(1, 1, 240).label() == "00:00-04:00"
        assert TimeSlot(24, 1381, 1440).label() == "23:00-24:00"

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            TimeSlot(1, 0, 60)
        with pytest.raises(ValueError):
            TimeSlot(1, 61, 60)
        with pytest.raises(ValueError):
            TimeSlot(1, 1, 1441)


class TestTimeSlotPartition:
    def test_hourly_slot_of(self):
        part = TimeSlotPartition.hourly()
        assert len(part) == 24
        assert part.slot_of(1) == TimeSlot(1, 1, 60)
        assert part.slot_of(60) == TimeSlot(1, 1, 60)
        assert part.slot_of(61) == TimeSlot(2, 61, 120)
        assert part.slot_of(1440).slot_id == 24

    def test_from_boundaries_requires_minute_one(self):
        with pytest.raises(ValueError):
            TimeSlotPartition([61, 121])
        with pytest.raises(ValueError):
            TimeSlotPartition([])
        with pytest.raises(ValueError):
            TimeSlotPartition([1, 2000])

    @pytest.mark.parametrize(
        "starts,error,fragment",
        [
            ([1, 481, 241], ValueError, "ascending"),
            ([1, 241, 241], ValueError, "ascending"),
            ([True, 241], TypeError, "True"),
            ([1, "241"], TypeError, "'241'"),
            ([1, 241.0], TypeError, "241.0"),
        ],
    )
    def test_from_boundaries_reads_starts_as_given(self, starts, error, fragment):
        # Out of order or repeated is refused, not sorted and deduplicated,
        # and an entry that is not an int is refused, not converted.
        with pytest.raises(error, match=fragment):
            TimeSlotPartition(starts)

    def test_round_trips_boundaries(self):
        starts = [1, 241, 481, 721, 961, 1201]
        part = TimeSlotPartition(starts)
        assert part.boundaries() == starts
        assert part == TimeSlotPartition(starts)

    def test_by_id(self):
        part = TimeSlotPartition.hourly()
        assert part.by_id(7).label() == "06:00-07:00"
        with pytest.raises(ValueError):
            part.by_id(0)
        with pytest.raises(ValueError):
            part.by_id(25)

    @given(
        starts=st.lists(
            st.integers(min_value=2, max_value=MINUTES_PER_DAY),
            min_size=0,
            max_size=30,
        ),
        minute=st.integers(min_value=1, max_value=MINUTES_PER_DAY),
    )
    def test_each_minute_in_exactly_one_slot(self, starts, minute):
        part = TimeSlotPartition([1] + sorted(set(starts)))
        holders = [s for s in part if s.start <= minute <= s.end]
        assert len(holders) == 1
        assert part.slot_of(minute) == holders[0]

    @given(
        starts=st.lists(
            st.integers(min_value=2, max_value=MINUTES_PER_DAY),
            min_size=0,
            max_size=30,
        )
    )
    def test_slots_tile_the_day(self, starts):
        part = TimeSlotPartition([1] + sorted(set(starts)))
        assert part.slots[0].start == 1
        assert part.slots[-1].end == MINUTES_PER_DAY
        assert sum(s.width() for s in part) == MINUTES_PER_DAY
        assert [s.slot_id for s in part] == list(range(1, len(part) + 1))


class TestTripRecord:
    def make(self, **kw):
        base = dict(
            traveller_id="V1",
            traveller_type=TravellerType.COMMUTER,
            date=0,
            departure=452,
            o_zone="Z3",
            d_zone="Z9",
            path="r1-r4-r7",
            duration=14,
        )
        base.update(kw)
        return TripRecord(**base)

    def test_valid(self):
        trip = self.make()
        assert trip.departure == 452
        assert trip.path == "r1-r4-r7"

    def test_rejects(self):
        with pytest.raises(ValueError):
            self.make(departure=0)
        with pytest.raises(ValueError):
            self.make(departure=1441)
        with pytest.raises(ValueError):
            self.make(duration=0)
        with pytest.raises(ValueError):
            self.make(path="")
        with pytest.raises(ValueError):
            self.make(o_zone="")


def test_trip_record_refuses_a_route_that_is_not_a_str():
    # A road tuple would otherwise be written as the text "('r1', 'r4')".
    with pytest.raises(TypeError, match=r"^route is not a str: \('r1', 'r4'\)$"):
        TestTripRecord().make(path=("r1", "r4"))


def test_trip_table_reads_a_traveller_under_its_first_type():
    make = TestTripRecord().make
    rows = [make(), make(traveller_id="V2", traveller_type=TravellerType.PASSBY),
            make(traveller_type=TravellerType.RANDOM, departure=500)]
    table = TripTable.of(rows)
    assert [(t.traveller_id, t.traveller_type) for t in table] == [
        ("V1", TravellerType.COMMUTER), ("V2", TravellerType.PASSBY),
        ("V1", TravellerType.COMMUTER),
    ]
    assert [t.departure for t in table] == [452, 452, 500]
