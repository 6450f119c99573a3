import random
import tracemalloc
from collections import Counter, defaultdict

import pytest

from tripsynth.corpus import CorpusSpec, synth_corpus
from tripsynth.generator import AggregationLedger
from tripsynth.ingest import (
    build_duration_pools,
    build_path_catalog,
    build_profiles,
    build_reference_aggregates,
    save_store,
)
from tripsynth.model import (
    IndividualProfile,
    TimeSlot,
    TimeSlotPartition,
    TravellerType,
    TripRecord,
    TypeCounts,
)

from oracles import (
    oracle_destination_probabilities,
    oracle_path_probabilities,
    oracle_period_probabilities,
    oracle_slot_probabilities,
    planted_slot_shares,
)

LEGS_PER_DAY = {
    TravellerType.COMMUTER: 2,
    TravellerType.STABLE: 2,
    TravellerType.RANDOM: 3,
    TravellerType.HIGH_FREQ: 4,
    TravellerType.PASSBY: 1,
}


def small_spec():
    return CorpusSpec(
        individuals=(
            (TravellerType.COMMUTER, 6),
            (TravellerType.STABLE, 5),
            (TravellerType.RANDOM, 6),
            (TravellerType.HIGH_FREQ, 5),
            (TravellerType.PASSBY, 4),
        )
    )


@pytest.fixture(scope="module")
def small():
    return synth_corpus(small_spec())


@pytest.fixture(scope="module")
def desk():
    return synth_corpus(CorpusSpec())


def test_rebuild_is_identical(small):
    again = synth_corpus(small_spec())
    assert again.trips == small.trips
    assert again.planted == small.planted
    assert again.zones == small.zones


def test_spec_validation():
    with pytest.raises(ValueError):
        synth_corpus(CorpusSpec(grid_side=1))
    # A random traveller's home and four anchors are distinct zones, more
    # than a 2x2 grid has; other types fit on it.
    with pytest.raises(ValueError, match="grid_side must be >= 3"):
        synth_corpus(CorpusSpec(grid_side=2))
    assert synth_corpus(CorpusSpec(grid_side=2, individuals=(
        (TravellerType.HIGH_FREQ, 2), (TravellerType.PASSBY, 2),
        (TravellerType.RANDOM, 0)))).trips
    with pytest.raises(ValueError):
        synth_corpus(CorpusSpec(days=0))


def test_trips_share_route_tuples():
    # Trips of one (origin, destination, route) share one path tuple, so
    # the corpus holds about one TripRecord per trip. The bound is on the
    # memory each further trip holds: the held bytes of a 28-day corpus
    # less those of its 7-day prefix, over the trips the 21 days add. A
    # fresh tuple per trip held about 420 bytes per trip, sharing about 140
    # (Python 3.11).
    population = tuple((t, 20) for t in TravellerType)

    def held(days):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            corpus = synth_corpus(CorpusSpec(days=days, individuals=population))
            return tracemalloc.get_traced_memory()[0] - before, len(corpus.trips)
        finally:
            tracemalloc.stop()

    (held_7, trips_7), (held_28, trips_28) = held(7), held(28)
    assert (held_28 - held_7) / (trips_28 - trips_7) < 250


def test_grid_zones(small):
    assert len(small.zones) == 49
    ids = [z.zone_id for z in small.zones]
    assert ids == sorted(ids)
    for zone in small.zones:
        assert zone.roads
        assert zone.roads <= {road for edge in small.network for road in edge}


def test_network_adjacency_is_mutual(small):
    edges = set(small.network)
    assert list(small.network) == sorted(edges)
    for road, peer in small.network:
        assert road != peer and (peer, road) in edges


def test_routes_are_walkable(small):
    zones = {z.zone_id: z for z in small.zones}
    edges = set(small.network)
    roads = {road for edge in edges for road in edge}
    for trip in small.trips:
        path = trip.path.split("-")
        assert path and set(path) <= roads
        assert all(pair in edges for pair in zip(path, path[1:]))
        assert path[0] in zones[trip.o_zone].roads
        assert path[-1] in zones[trip.d_zone].roads


def test_trips_stay_on_planted_od_support(small):
    for trip in small.trips:
        support = small.planted[trip.traveller_id].od_support
        assert (trip.o_zone, trip.d_zone) in support
        assert trip.o_zone != trip.d_zone


def test_day_structure(small):
    by_ind_day = defaultdict(list)
    for trip in small.trips:
        by_ind_day[(trip.traveller_id, trip.date)].append(trip)
    for (tid, _), day_trips in by_ind_day.items():
        ttype = small.planted[tid].ttype
        assert len(day_trips) == LEGS_PER_DAY[ttype]
        minutes = [t.departure for t in day_trips]
        assert minutes == sorted(minutes)
        assert len(set(minutes)) == len(minutes)
        # each day chains: trip n departs where trip n-1 arrived
        for prev, cur in zip(day_trips, day_trips[1:]):
            assert cur.o_zone == prev.d_zone


def test_durations_scale_with_route_length(small):
    for trip in small.trips:
        roads = len(trip.path.split("-"))
        assert 9 * roads <= trip.duration <= 9 * roads + 14


def test_desk_corpus_shape(desk):
    spec = desk.spec
    assert sum(n for _, n in spec.individuals) == 1000
    per_type = Counter(t.traveller_type for t in desk.trips)
    for ttype, count in spec.individuals:
        assert per_type[ttype] == count * LEGS_PER_DAY[ttype] * spec.days
    assert len(desk.trips) == 19250


def test_save_store_peak_stays_under_twice_its_bytes(desk, tmp_path):
    # The document is written one element at a time, so neither its text
    # nor a copy of the aggregates is ever held whole.
    aggregates = dict(
        partition=desk.partition,
        window_days=desk.spec.days,
        profiles=build_profiles(desk.trips, desk.partition, desk.spec.days),
        catalog=build_path_catalog(desk.trips),
        pools=build_duration_pools(desk.trips, desk.partition),
        reference=build_reference_aggregates(desk.trips, desk.partition),
    )
    path = tmp_path / "store.json"
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        save_store(path, **aggregates)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size


def test_planted_shares_recovered(desk):
    reference = build_reference_aggregates(desk.trips, desk.partition)
    for ttype, _ in desk.spec.individuals:
        expected = planted_slot_shares(ttype)
        assert sum(expected.values()) == pytest.approx(1.0)
        counts = reference[ttype]
        for slot in desk.partition:
            got = counts.slot[slot.slot_id] / counts.total
            assert got == pytest.approx(expected.get(slot.slot_id, 0.0), abs=0.02)


class TestOracles:
    def hand_state(self):
        """Two-slot world small enough to verify every factor by hand."""
        halves = TimeSlotPartition([1, 721])
        p = IndividualProfile(
            traveller_id="V1",
            traveller_type=TravellerType.COMMUTER,
            od_counts={"A": {"B": 3}, "B": {"A": 1}},
            slot_origin_counts={1: {"A": 3}, 2: {"B": 1}},
            observed_days=7,
        )
        trips = [
            TripRecord("V1", p.traveller_type, 0, 400, "A", "B", "r1", 10)
        ] * 3 + [TripRecord("V1", p.traveller_type, 0, 1000, "B", "A", "r1", 10)]
        reference = build_reference_aggregates(trips, halves)
        return halves, p, reference

    def test_slot_probabilities_match_hand_arithmetic(self):
        halves, p, reference = self.hand_state()
        probs = oracle_slot_probabilities(
            halves, p, "A", AggregationLedger(reference, p.traveller_type), reference, 1, 2
        )
        # kappa 1e-9, blowup 1e9, epsilon 1e-6
        w1 = 1e9 ** 0.75 * (0.75 * 2.0 + 1e-6)
        w2 = 1e-9 * 1e9 ** 0.25 * (0.25 + 1e-6)
        assert probs[1] == pytest.approx(w1 / (w1 + w2))
        assert probs[2] == pytest.approx(w2 / (w1 + w2))
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_slot_probabilities_empty_reference(self):
        halves, p, reference = self.hand_state()
        empty = {TravellerType.COMMUTER: TypeCounts({}, halves)}
        with pytest.raises(ValueError):
            oracle_slot_probabilities(
                halves, p, "A", AggregationLedger(reference, p.traveller_type), empty, 1, 1
            )

    def test_period_probabilities_deficit(self):
        _, _, reference = self.hand_state()
        # nothing generated yet: all mass sits on the two reference minutes
        probs = oracle_period_probabilities(
            TimeSlot(1, 1, 720), 1, AggregationLedger(reference, TravellerType.COMMUTER),
            reference, TravellerType.COMMUTER,
        )
        assert probs[400] == pytest.approx(1.0)
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_period_probabilities_overshoot(self):
        _, _, reference = self.hand_state()
        t = TravellerType.COMMUTER
        ledger = AggregationLedger(reference, t)
        # overshoot minute 400 beyond its 0.75 reference share
        for _ in range(9):
            ledger.record(1, 400)
        ledger.record(2, 1000)
        probs = oracle_period_probabilities(
            TimeSlot(1, 399, 400), 399, ledger, reference, t
        )
        # deltas: minute 399 level at 0, minute 400 at 0.75 - 0.9
        assert probs[399] / probs[400] == pytest.approx(0.15 / 1e-12, rel=1e-6)

    def test_destination_probabilities(self):
        _, p, _ = self.hand_state()
        origin, probs, relocated = oracle_destination_probabilities(p, "A")
        assert (origin, relocated) == ("A", False)
        assert probs == {"B": 1.0}
        origin, probs, relocated = oracle_destination_probabilities(p, "Z99")
        assert (origin, relocated) == ("A", True)

    def test_path_probabilities(self, small):
        catalog = build_path_catalog(small.trips)
        o, d = catalog.od_pairs()[0]
        probs = oracle_path_probabilities(catalog, o, d)
        assert sum(probs.values()) == pytest.approx(1.0)
        assert all(v > 0 for v in probs.values())
        with pytest.raises(ValueError):
            oracle_path_probabilities(catalog, "nowhere", "noplace")

    def test_slot_oracle_on_corpus_state(self, small):
        profiles = build_profiles(small.trips, small.partition, small.spec.days)
        reference = build_reference_aggregates(small.trips, small.partition)
        tid = sorted(profiles)[0]
        p = profiles[tid]
        rng = random.Random(0)
        ledger = AggregationLedger(reference, p.traveller_type)
        for _ in range(30):
            slot = rng.randrange(1, len(small.partition) + 1)
            ledger.record(slot, small.partition.by_id(slot).start)
        probs = oracle_slot_probabilities(
            small.partition, p, small.planted[tid].home, ledger, reference,
            300, 2,
        )
        # only the slot under the clock and later ones are reachable
        assert set(probs) == {s.slot_id for s in small.partition if s.end >= 300}
        assert sum(probs.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in probs.values())


def test_planted_profiles_recoverable(small):
    profiles = build_profiles(small.trips, small.partition, small.spec.days)
    assert set(profiles) == set(small.planted)
    for tid, profile in profiles.items():
        planted = small.planted[tid]
        assert profile.traveller_type is planted.ttype
        od_seen = {
            (o, d) for o, row in profile.od_counts.items() for d in row
        }
        assert od_seen <= planted.od_support
        assert profile.total_trips == LEGS_PER_DAY[planted.ttype] * small.spec.days
