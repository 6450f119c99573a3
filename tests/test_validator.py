import datetime as dt
import functools
import io
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from tripsynth.ingest import parse_trips, write_trips_csv
from tripsynth.model import TYPE_ORDER, TimeSlotPartition, TravellerType, TripRecord
from tripsynth.validator import (
    ValidationReport,
    build_report,
    day_class,
    js_divergence,
    overlap_ratio,
)

from oracles import (
    continuity_ratio,
    daily_frequency_by_individual,
    destination_entropy,
    entropy_by_individual,
    first_typed,
    od_pair_counts,
    road_access_counts,
    temporal_distribution,
    topk_od,
    topk_zones,
    zone_visit_counts,
)

HOURLY = TimeSlotPartition.hourly()


def dist(*counts):
    """A count mapping over the bins 0, 1, ..."""
    return dict(enumerate(counts))


class TestDistribution:
    """What js_divergence refuses in a count mapping or in its bins, one
    test per refusal, `p_counts` checked before `q_counts`."""

    def test_counts_outside_bins_rejected(self):
        with pytest.raises(ValueError, match=r"counts outside the bin set: \['z'\]"):
            js_divergence({"z": 1}, {"y": 1}, ("a",))
        with pytest.raises(ValueError, match=r"counts outside the bin set: \['y'\]"):
            js_divergence({"a": 1}, {"a": 1, "y": 2}, ("a",))

    def test_empty_rejected(self):
        for p, q in (({}, {"z": 1}), ({"a": 0}, {"a": 1}), ({"a": 1}, {"a": 2, "b": -2})):
            with pytest.raises(ValueError, match="empty distribution"):
                js_divergence(p, q, ("a", "b"))

    def test_repeated_bin_rejected(self):
        for bins in (("a", "a"), ("a", "b", "b")):
            with pytest.raises(ValueError, match="repeated bin"):
                js_divergence({"a": 1}, {"a": 1}, bins)

    def test_negative_count_rejected(self):
        for p, q in (({"a": 2, "b": -1}, {"a": 1}), ({"a": 1}, {"a": 2, "b": -1})):
            with pytest.raises(ValueError, match="negative count"):
                js_divergence(p, q, ("a", "b"))

    def test_forced_bins_pad_with_zero(self):
        assert js_divergence({"b": 2}, {"b": 5}, ("a", "b", "c")) == 0.0


class TestJS:
    def test_self_is_exactly_zero(self):
        for p in (dist(1), dist(1, 1, 2), dist(1, 9)):
            assert js_divergence(p, p, range(len(p))) == 0.0

    def test_disjoint_support_is_ln2(self):
        got = js_divergence(dist(1, 0), dist(0, 1), range(2))
        assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_point_against_uniform(self):
        got = js_divergence(dist(1, 0), dist(1, 1), range(2))
        assert got == pytest.approx(0.75 * math.log(4 / 3), abs=1e-12)
        assert got == pytest.approx(0.2158, abs=1e-4)

    @given(
        st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=2, max_size=8),
        st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=2, max_size=8),
    )
    def test_symmetric_and_bounded(self, a, b):
        n = min(len(a), len(b))
        p, q = dist(*a[:n]), dist(*b[:n])
        left = js_divergence(p, q, range(n))
        assert left == pytest.approx(js_divergence(q, p, range(n)), abs=1e-12)
        assert 0.0 <= left <= math.log(2) + 1e-12


class TestOverlapRatio:
    def test_values(self):
        assert overlap_ratio({"a", "b"}, {"a", "b"}) == 1.0
        assert overlap_ratio({"a", "b"}, {"c", "d"}) == 0.0
        assert overlap_ratio({"a", "b", "c", "d"}, {"a", "b", "x", "y"}) == 0.5

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="differ in size"):
            overlap_ratio({"a"}, {"a", "b"})
        with pytest.raises(ValueError, match="empty"):
            overlap_ratio(set(), set())


def trip(tid="V1", ttype=TravellerType.COMMUTER, day=0, dep=452, o="Z1", d="Z2",
         path="r1", dur=10):
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


class TestTemporalDistribution:
    def test_bin_assignment(self):
        # minute 452 sits in window 31
        assert temporal_distribution([trip(dep=452)], granularity=15) == {31: 1}

    def test_minute_edges(self):
        counts = temporal_distribution([trip(dep=15), trip(dep=16)], granularity=15)
        assert counts == {1: 1, 2: 1}

    def test_granularity_must_divide_day(self):
        with pytest.raises(ValueError):
            temporal_distribution([trip()], granularity=17)

    def test_type_and_day_filters(self):
        trips = [
            trip("V1", TravellerType.COMMUTER, day=0, dep=100),
            trip("V2", TravellerType.PASSBY, day=5, dep=700),
        ]
        counts = temporal_distribution(trips, ttype=TravellerType.PASSBY)
        assert counts == {(700 - 1) // 15 + 1: 1}
        counts = temporal_distribution(trips, day_filter=lambda day: day < 5)
        assert counts == {(100 - 1) // 15 + 1: 1}


def test_zone_visit_counts_touch_both_ends():
    counts = zone_visit_counts([trip(o="Z1", d="Z2"), trip(o="Z2", d="Z3")])
    assert counts == {"Z1": 1, "Z2": 2, "Z3": 1}


def test_od_pair_counts():
    counts = od_pair_counts([trip(), trip(), trip(o="Z9")])
    assert counts == {("Z1", "Z2"): 2, ("Z9", "Z2"): 1}


class TestTopK:
    trips = [
        trip(o="Z1", d="Z2"),
        trip(o="Z1", d="Z2"),
        trip(o="Z2", d="Z3"),
        trip(o="Z3", d="Z4"),
    ]

    def test_ceil_of_fraction(self):
        # 4 zones visited, top 50% -> 2 zones; Z1 and Z2 lead
        assert topk_zones(self.trips, 0.5) == {"Z1", "Z2"}
        # top 10% of 4 -> ceil(0.4) = 1
        assert topk_zones(self.trips, 0.1) == {"Z2"}

    def test_ties_resolve_lexicographically(self):
        # Z3 and Z4 both visited twice... craft equal counts
        tied = [trip(o="Za", d="Zb"), trip(o="Zb", d="Za")]
        assert topk_zones(tied, 0.5) == {"Za"}

    def test_universe_overrides_base(self):
        assert topk_zones(self.trips, 0.5, universe=2) == {"Z2"}

    def test_topk_od(self):
        # 3 distinct pairs, top 30% -> ceil(0.9) = 1
        assert topk_od(self.trips, 0.3) == {("Z1", "Z2")}

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            topk_zones(self.trips, 0.0)
        with pytest.raises(ValueError):
            topk_zones(self.trips, 1.5)
        with pytest.raises(ValueError):
            topk_zones([], 0.5)

    def test_universe_larger_than_ranked(self):
        with pytest.raises(ValueError, match="ranked"):
            topk_zones(self.trips, 1.0, universe=10)


def test_road_access_counts_distinct_per_trip():
    trips = [
        trip(path="r1-r2-r1"),  # r1 twice in one path counts once
        trip(path="r2"),
    ]
    assert road_access_counts(trips) == {"r1": 1, "r2": 2}


class TestContinuity:
    def test_perfect_chain(self):
        trips = [
            trip(dep=100, o="A", d="B"),
            trip(dep=300, o="B", d="C"),
            trip(dep=500, o="C", d="A"),
        ]
        assert continuity_ratio(trips) == {TravellerType.COMMUTER: 1.0}

    def test_break_counted(self):
        trips = [
            trip(dep=100, o="A", d="B"),
            trip(dep=300, o="X", d="C"),  # break
            trip(dep=500, o="C", d="A"),
        ]
        assert continuity_ratio(trips)[TravellerType.COMMUTER] == pytest.approx(0.5)

    def test_singletons_contribute_nothing(self):
        trips = [trip("V1"), trip("V2", ttype=TravellerType.PASSBY)]
        assert continuity_ratio(trips) == {}

    def test_pairs_follow_time_order_not_input_order(self):
        trips = [
            trip(dep=500, o="C", d="A"),
            trip(dep=100, o="A", d="B"),
            trip(dep=300, o="B", d="C"),
        ]
        assert continuity_ratio(trips) == {TravellerType.COMMUTER: 1.0}


class TestEntropy:
    def test_uniform_is_ln_k(self):
        for k in (2, 3, 5, 8):
            trips = [trip(d=f"Z{i}") for i in range(k)]
            assert destination_entropy(trips) == pytest.approx(
                math.log(k), abs=1e-12
            )

    def test_single_destination_is_zero(self):
        assert destination_entropy([trip(), trip()]) == 0.0

    def test_by_individual(self):
        trips = [trip("V1", d="Z1"), trip("V1", d="Z2"), trip("V2", d="Z1")]
        ent = entropy_by_individual(trips)
        assert ent["V1"] == pytest.approx(math.log(2))
        assert ent["V2"] == 0.0


def test_daily_frequency_uses_observed_days():
    trips = [
        trip("V1", day=0), trip("V1", day=0), trip("V1", day=1),
        trip("V2", day=1),
    ]
    freq = daily_frequency_by_individual(trips)
    assert freq == {"V1": 1.5, "V2": 0.5}
    assert daily_frequency_by_individual([]) == {}


def test_default_day_class():
    assert [day_class(d) for d in range(7)] == [
        "weekday"] * 5 + ["holiday"] * 2
    assert day_class(12) == "holiday"
    assert day_class(14) == "weekday"
    assert day_class(2, holiday_days=(2,)) == "holiday"
    assert day_class(6, holiday_weekdays=(0,)) == "weekday"


class TestValidationReport:
    def test_cells_and_text(self):
        report = ValidationReport()
        report.add("js_time", "commuter", "all", 0.00123456789)
        report.add("note", "", "", "empty distribution")
        assert report.get("js_time", "commuter", "all") == 0.00123456789
        assert report.numeric("js_time", "commuter", "all") == 0.00123456789
        with pytest.raises(ValueError):
            report.numeric("note")
        text = report.to_text()
        lines = text.splitlines()
        assert lines[0].startswith("# trip table validation report")
        assert lines[2] == "metric,type,param,value"
        assert "js_time,commuter,all,0.00123456789" in lines
        assert "note,,,empty distribution" in lines
        assert text.endswith("\n")

    def test_missing_cell_raises(self):
        with pytest.raises(KeyError):
            ValidationReport().get("js_time")


class TestBuildReport:
    def sample(self):
        trips = []
        for day in range(7):
            trips.append(trip("V1", day=day, dep=452, o="A", d="B", path="r1-r2"))
            trips.append(trip("V1", day=day, dep=1052, o="B", d="A", path="r2-r1"))
            # one passby trip per individual: the type never forms pairs
            trips.append(
                trip(f"P{day}", TravellerType.PASSBY, day, 700, "W", "E", "r3")
            )
        return trips

    def test_identity_comparison(self):
        trips = self.sample()
        report = build_report(trips, trips)
        assert report.numeric("trips", "", "reference") == len(trips)
        assert report.numeric("js_time", "", "all") == 0.0
        assert report.numeric("js_time", "commuter", "all") == 0.0
        assert report.numeric("js_time", "commuter", "weekday") == 0.0
        assert report.numeric("js_time", "commuter", "holiday") == 0.0
        assert report.numeric("hotzone_overlap", "commuter", "0.1") == 1.0
        assert report.numeric("od_overlap", "commuter", "0.5") == 1.0
        assert report.numeric("js_road", "", "") == 0.0
        assert report.numeric("continuity", "commuter", "reference") == 1.0
        assert report.numeric("continuity", "commuter", "generated") == 1.0
        assert report.numeric("js_frequency", "commuter", "") == 0.0
        assert report.numeric("js_entropy", "passby", "") == 0.0

    def test_absent_type_carries_error_text(self):
        trips = self.sample()
        only_commuter = [
            t for t in trips if t.traveller_type is TravellerType.COMMUTER
        ]
        report = build_report(trips, only_commuter)
        cell = report.get("js_time", "passby", "all")
        assert isinstance(cell, str) and "empty" in cell

    @pytest.mark.parametrize("fractions", [
        {"topk_zone_fractions": (1.5,)},
        {"topk_od_fractions": (0.5, 0.0)},
    ])
    def test_refuses_a_topk_fraction_outside_unit_interval_before_counting(self, fractions):
        # Refused as a bad granularity is, not written as an error cell.
        def uncounted():
            pytest.fail("a table was counted")
            yield

        with pytest.raises(ValueError, match=r"^k fraction out of \(0, 1\]: "):
            build_report(uncounted(), uncounted(), **fractions)

    def test_passby_has_no_continuity_pairs(self):
        trips = self.sample()
        report = build_report(trips, trips)
        cell = report.get("continuity", "passby", "reference")
        assert isinstance(cell, str) and "pairs" in cell


def oracle_report(ref, gen, granularity, day_class_of, zone_ks, od_ks) -> list:
    """build_report's cells, computed from the public per-metric functions
    over explicitly filtered lists, with the cell order and error texts of
    the report."""
    cells = []

    def cell(metric, ttype, param, fn):
        try:
            cells.append((metric, ttype, param, fn()))
        except ValueError as exc:
            cells.append((metric, ttype, param, str(exc)))

    def only(trips, ttype):
        return [t for t in trips if t.traveller_type is ttype]

    def js_time(ttype=None, day_filter=None):
        return js_divergence(
            temporal_distribution(ref, granularity, ttype, day_filter),
            temporal_distribution(gen, granularity, ttype, day_filter),
            range(1, 1440 // granularity + 1),
        )

    def js_road(ttype=None):
        ref_counts = road_access_counts(ref, ttype)
        gen_counts = road_access_counts(gen, ttype)
        return js_divergence(ref_counts, gen_counts, sorted(set(ref_counts) | set(gen_counts)))

    def overlap(topk, counts, ttype, k):
        universe = len(set(counts(ref, ttype)) | set(counts(gen, ttype)))
        return overlap_ratio(topk(ref, k, ttype, universe), topk(gen, k, ttype, universe))

    def continuity(trips, ttype):
        ratios = continuity_ratio(trips)
        if ttype not in ratios:
            raise ValueError("no consecutive trip pairs")
        return ratios[ttype]

    def mean_entropy(trips, ttype):
        mine = only(trips, ttype)
        values = [
            destination_entropy(
                sorted((t for t in mine if t.traveller_id == tid),
                       key=lambda t: (t.date, t.departure))
            )
            for tid in dict.fromkeys(t.traveller_id for t in mine)
        ]
        if not values:
            raise ValueError("empty distribution")
        return sum(values) / len(values)

    def js_histogram(per_individual, ttype, width, top):
        ref_values = per_individual(only(ref, ttype)).values()
        gen_values = per_individual(only(gen, ttype)).values()
        if not ref_values or not gen_values:
            raise ValueError("empty distribution")
        ref_counts, gen_counts = (
            Counter(min(int(v / width), int(top / width)) for v in values)
            for values in (ref_values, gen_values)
        )
        return js_divergence(ref_counts, gen_counts, range(int(top / width) + 1))

    cell("trips", "", "reference", lambda: float(len(ref)))
    cell("trips", "", "generated", lambda: float(len(gen)))
    cell("js_time", "", "all", js_time)
    cell("js_road", "", "", js_road)
    for ttype in TYPE_ORDER:
        if not only(ref, ttype) and not only(gen, ttype):
            continue
        name = ttype.value
        cell("js_time", name, "all", lambda: js_time(ttype))
        for cls in ("weekday", "holiday"):
            cell("js_time", name, cls, lambda: js_time(ttype, lambda d: day_class_of(d) == cls))
        for k in zone_ks:
            cell("hotzone_overlap", name, f"{k:g}",
                 lambda: overlap(topk_zones, zone_visit_counts, ttype, k))
        for k in od_ks:
            cell("od_overlap", name, f"{k:g}", lambda: overlap(topk_od, od_pair_counts, ttype, k))
        cell("js_road", name, "", lambda: js_road(ttype))
        cell("continuity", name, "reference", lambda: continuity(ref, ttype))
        cell("continuity", name, "generated", lambda: continuity(gen, ttype))
        cell("entropy_mean", name, "reference", lambda: mean_entropy(ref, ttype))
        cell("entropy_mean", name, "generated", lambda: mean_entropy(gen, ttype))
        cell("js_frequency", name, "",
             lambda: js_histogram(daily_frequency_by_individual, ttype, 0.5, 10.0))
        cell("js_entropy", name, "",
             lambda: js_histogram(entropy_by_individual, ttype, 0.25, 4.0))
    return cells


@st.composite
def report_tables(draw):
    """Two small tables over a few ids, zones and roads, so that types,
    individuals, departures and paths repeat. Some individuals appear under
    more than one type, which a table reads as their first, and one type
    never appears in the generated table."""
    tids = [f"V{i}" for i in range(draw(st.integers(1, 6)))]
    home_type = {tid: draw(st.sampled_from(TYPE_ORDER)) for tid in tids}
    absent = draw(st.sampled_from(TYPE_ORDER))

    def table(size):
        trips = []
        for _ in range(size):
            tid = draw(st.sampled_from(tids))
            ttype = draw(st.one_of(st.just(home_type[tid]), st.sampled_from(TYPE_ORDER)))
            trips.append(trip(
                tid, ttype,
                day=draw(st.integers(0, 13)),
                dep=draw(st.one_of(st.sampled_from([1, 452, 453, 1440]), st.integers(1, 1440))),
                o=draw(st.sampled_from(["Z1", "Z2", "Z3", "Z4"])),
                d=draw(st.sampled_from(["Z1", "Z2", "Z3", "Z4"])),
                path="-".join(draw(st.lists(st.sampled_from(["r1", "r2", "r3", "r4"]),
                                            min_size=1, max_size=4))),
            ))
        return trips

    ref = table(draw(st.integers(0, 30)))
    gen = [t for t in table(draw(st.integers(0, 30))) if t.traveller_type is not absent]
    return ref, gen


@settings(max_examples=150, deadline=None)
@given(
    tables=report_tables(),
    granularity=st.sampled_from([15, 60, 240, 1440]),
    holiday_weekdays=st.sets(st.integers(0, 6), max_size=3),
    holiday_days=st.sets(st.integers(0, 13), max_size=4),
    zone_ks=st.lists(st.sampled_from([0.1, 0.5, 1.0]), min_size=1, max_size=2, unique=True),
    od_ks=st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=1, max_size=2, unique=True),
)
@example(tables=([], []), granularity=15, holiday_weekdays={5, 6}, holiday_days=set(),
         zone_ks=[0.1], od_ks=[0.5])
# Every day a weekday, so no holiday departure is counted on either side.
@example(tables=([trip("V1", day=5), trip("V1", day=6, dep=900, o="Z2", d="Z1"),
                  trip("V2", TravellerType.STABLE, day=13)],
                 [trip("V1", day=5, dep=500), trip("V2", TravellerType.STABLE, day=0)]),
         granularity=60, holiday_weekdays=set(), holiday_days=set(), zone_ks=[0.5], od_ks=[1.0])
def test_report_cells_equal_the_per_metric_oracle(
    tables, granularity, holiday_weekdays, holiday_days, zone_ks, od_ks
):
    ref, gen = tables
    day_class_of = functools.partial(
        day_class, holiday_weekdays=tuple(holiday_weekdays), holiday_days=tuple(holiday_days)
    )
    report = build_report(
        ref, gen, granularity=granularity, day_class=day_class_of,
        topk_zone_fractions=zone_ks, topk_od_fractions=od_ks,
    )
    assert list(report.rows()) == oracle_report(
        first_typed(ref), first_typed(gen), granularity, day_class_of, zone_ks, od_ks
    )


@settings(max_examples=100, deadline=None)
@given(tables=report_tables(), granularity=st.sampled_from([15, 60, 240, 1440]))
def test_report_on_records_equals_report_on_the_parsed_csv(tables, granularity):
    # The library call on records and the CLI's written-then-parsed tables
    # read each traveller under the same type, so their reports agree.
    epoch = dt.date(2019, 8, 12)

    def reparsed(trips):
        buf = io.StringIO()
        write_trips_csv(trips, buf, epoch, HOURLY)
        parsed = parse_trips(io.StringIO(buf.getvalue()), epoch)
        assert not parsed.errors
        return parsed.records

    ref, gen = tables
    assert (build_report(ref, gen, granularity=granularity).to_text()
            == build_report(reparsed(ref), reparsed(gen), granularity=granularity).to_text())
