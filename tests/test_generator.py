import random
from collections import Counter
from itertools import accumulate
from math import isfinite

import pytest
from hypothesis import example, given, strategies as st

from tripsynth import generator
from tripsynth.generator import (
    BLOWUP,
    DELTA_FLOOR,
    EPSILON,
    KAPPA,
    AggregationLedger,
    GenCursor,
    GenParams,
    GenStats,
    InvalidParams,
    balance_weight,
    daily_quota,
    generate_all,
    generate_trip,
    initial_location,
    most_frequent_origin,
    period_weights,
    preference_terms,
    route_draws,
    sample_duration,
    select_destination,
    select_path,
    select_time_period,
    select_time_slot,
    slot_weights,
    subsequent_slots,
)
from tripsynth.ingest import (
    PathCatalog,
    PathEntry,
    build_duration_pools,
    build_path_catalog,
    build_profiles,
    build_reference_aggregates,
)
from tripsynth.model import (
    CorruptInputError,
    IndividualProfile,
    TimeSlot,
    TimeSlotPartition,
    TravellerType,
    TripRecord,
    TypeCounts,
)

HOURLY = TimeSlotPartition.hourly()
FOUR_HOUR = TimeSlotPartition([1, 241, 481, 721, 961, 1201])


class TopRandom(random.Random):
    """An RNG whose random() always returns the largest float below 1."""

    def random(self):
        return 1.0 - 2.0**-53


class ZeroRandom(random.Random):
    """An RNG whose random() always returns 0.0."""

    def random(self):
        return 0.0


def profile(od=None, slot_origin=None, ttype=TravellerType.COMMUTER, days=7):
    """V1's profile of `od`; without `slot_origin`, every trip departs in
    slot 1."""
    od = od or {}
    if slot_origin is None:
        slot_origin = {1: {o: sum(row.values()) for o, row in od.items() if row}}
    return IndividualProfile(
        traveller_id="V1",
        traveller_type=ttype,
        od_counts=od,
        slot_origin_counts=slot_origin,
        observed_days=days,
    )


class TestInitialLocation:
    def test_argmax_of_touch_counts(self):
        p = profile(od={"Z2": {"Z5": 3}, "Z5": {"Z1": 1}})
        # Z5 touched 4 times, Z2 only 3, Z1 once
        assert initial_location(p) == "Z5"

    def test_tie_goes_lexicographically_smallest(self):
        p = profile(od={"Z9": {"Z9": 1, "Z10": 1}, "Z10": {"Z9": 1, "Z10": 1}})
        assert initial_location(p) == "Z10"  # string order, not numeric


def test_most_frequent_origin():
    p = profile(od={"Z3": {"A": 5}, "Z1": {"A": 5}, "Z2": {"A": 9}})
    assert most_frequent_origin(p) == "Z2"
    p = profile(od={"Z3": {"A": 5}, "Z1": {"A": 5}})
    assert most_frequent_origin(p) == "Z1"


class TestDailyQuota:
    def test_integer_rate_is_deterministic(self):
        p = profile(od={"A": {"B": 14}}, days=7)
        rng = random.Random(0)
        assert {daily_quota(p, rng) for _ in range(50)} == {2}

    def test_fractional_rate_mean(self):
        # 5 trips over 2 days: 2 plus a fair coin
        p = profile(od={"A": {"B": 5}}, days=2)
        rng = random.Random(123)
        n = 100_000
        draws = [daily_quota(p, rng) for _ in range(n)]
        assert set(draws) == {2, 3}
        assert sum(draws) / n == pytest.approx(2.5, abs=0.01)


class TestSubsequentSlots:
    def test_mid_day_with_reservation(self):
        # clock in slot 10 of 24, three trips left today: 23 and 24 reserved
        assert subsequent_slots(HOURLY, 9 * 60 + 30, remaining=3) == (10, 22)

    def test_last_slot_single_trip(self):
        assert subsequent_slots(HOURLY, 1400, remaining=1) == (24, 24)

    def test_reservation_capped_by_reachable(self):
        # more trips left than slots: active still keeps one slot
        assert subsequent_slots(HOURLY, 1400, remaining=99) == (24, 24)

    def test_four_hour_partition(self):
        # minute 300 lies in slot 2 of 6
        assert subsequent_slots(FOUR_HOUR, 300, remaining=2) == (2, 5)
        assert subsequent_slots(FOUR_HOUR, 300, remaining=6) == (2, 2)

    def test_remaining_must_be_positive(self):
        with pytest.raises(ValueError):
            subsequent_slots(HOURLY, 1, remaining=0)

    @given(
        minute=st.integers(min_value=1, max_value=1440),
        remaining=st.integers(min_value=1, max_value=40),
    )
    def test_partition_invariants(self, minute, remaining):
        first, last_active = subsequent_slots(HOURLY, minute, remaining)
        assert HOURLY.by_id(first).start <= minute <= HOURLY.by_id(first).end
        # slots first..last_active are active, the rest of first..n reserved
        reachable = len(HOURLY) - first + 1
        assert first <= last_active <= len(HOURLY)
        assert len(HOURLY) - last_active == min(remaining - 1, reachable - 1)


class TestBalanceWeight:
    def test_anchor_points(self):
        assert balance_weight(0.0) == 1.0
        assert balance_weight(1.0) == 0.0
        assert balance_weight(-1.0) == 1e9
        assert balance_weight(0.25) == 0.75
        assert balance_weight(-0.5) == pytest.approx(1e9 ** 0.5)

    def test_clamps_outside_unit_range(self):
        assert balance_weight(1.5) == 0.0
        assert balance_weight(-2.0) == 1e9

    @given(
        x=st.floats(min_value=-1.0, max_value=1.0),
        y=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_decreasing(self, x, y):
        lo, hi = sorted((x, y))
        assert balance_weight(lo) >= balance_weight(hi)


class TestGenParams:
    def test_defaults_pass(self):
        GenParams().check(max_trip_frequency=100)

    @pytest.mark.parametrize(
        "kw",
        [
            pytest.param({"min_gap": -(10**9)}, id="kw0"),
            pytest.param({"min_gap": -1}, id="kw4"),
        ],
    )
    def test_rejections(self, kw):
        with pytest.raises(InvalidParams):
            GenParams(**kw).check()

    def test_epsilon_vs_trip_frequency(self):
        GenParams().check(max_trip_frequency=999_999)
        with pytest.raises(InvalidParams):
            GenParams().check(max_trip_frequency=1_000_000)

    def test_weight_constants_keep_priorities(self):
        # A slot behind on its share draws at best level with an active one,
        # and a full overshoot stays above an unpreferred slot's floor.
        assert KAPPA * BLOWUP == 1
        assert 1 / BLOWUP < EPSILON


def nonzero(counts: list) -> dict:
    return {i: n for i, n in enumerate(counts) if n}


def test_aggregation_ledger_shares():
    t = TravellerType.STABLE
    counts = AggregationLedger(
        {t: TypeCounts({30: 1}, HOURLY), TravellerType.COMMUTER: TypeCounts({30: 1}, HOURLY)}, t
    )
    assert counts.total == 0 and not any(counts.slot) and not any(counts.minute)
    counts.record(1, 30)
    counts.record(1, 30)
    counts.record(2, 100)
    assert counts.total == 3
    assert counts.slot[1] / counts.total == pytest.approx(2 / 3)
    assert counts.minute[30] / counts.total == pytest.approx(2 / 3)
    assert nonzero(counts.slot) == {1: 2, 2: 1}
    assert nonzero(counts.minute) == {30: 2, 100: 1}
    assert len(counts.slot) == len(counts.minute) == 1441
    # out-of-range keys would alias other list entries
    for slot_id, minute in ((1, 0), (1, 1441), (0, 30), (-1, 30)):
        with pytest.raises(ValueError):
            counts.record(slot_id, minute)
    assert counts.total == 3
    assert nonzero(counts.slot) == {1: 2, 2: 1}
    assert nonzero(counts.minute) == {30: 2, 100: 1}


def test_deficit_list_follows_add():
    ref = TypeCounts({10: 3, 20: 1, 30: 1}, HOURLY)
    counts = AggregationLedger({TravellerType.COMMUTER: ref}, TravellerType.COMMUTER)
    listed = counts.deficit
    # the empty ledger trails every reference minute
    assert counts.ref is ref and listed == [10, 20, 30]
    shares = counts.shares
    assert shares[10] == 3 / 5 and shares[20] == 1 / 5 and shares[40] == 0.0
    counts.record(1, 10)  # 1/1 against 3/5: past its share
    assert counts.deficit is listed == [20, 30]
    counts.record(1, 20)  # 1/2 against 1/5; 10 is at 1/2 < 3/5 again
    assert listed == [10, 30]
    counts.record(1, 40)  # a minute the reference never saw is never listed
    assert listed == [10, 30]
    counts.record(1, 30)  # 1/4 against 1/5: 30 waits, as 20 does, for total 6
    assert listed == [10]
    counts.record(1, 10)
    counts.record(1, 10)  # at total 6, 1/6 trails 1/5 again
    assert listed == [10, 20, 30]


def test_feedback_counts_take_one_nonempty_reference():
    ref = TypeCounts({10: 1}, HOURLY)
    counts = AggregationLedger({TravellerType.COMMUTER: ref}, TravellerType.COMMUTER)
    # generated departures are recorded one at a time
    with pytest.raises(TypeError):
        counts.record(1, 10, 2)
    assert counts.total == 0 and counts.deficit == [10]


def _deficit_filter(counts, ref):
    """Every minute whose reference share exceeds its generated share, as
    the integer test r * T > n * R, from scratch."""
    total = counts.total or 1
    return [
        m for m in range(1, 1441)
        if ref.minute[m] * total > counts.minute[m] * ref.total
    ]


def test_deficit_weights_stay_exact_past_float_precision():
    # A reference scaled by 2**45, recorded against until R * T >= 2**52,
    # where two distinct float shares r / R and n / T may round together:
    # the int weights r * T - n * R still list exactly the minutes in
    # deficit, their int running sums are exact, and the draw stays on them.
    ref = TypeCounts({m: n * 2**45 for m, n in {10: 3, 20: 1, 30: 1}.items()}, HOURLY)
    counts = AggregationLedger({TravellerType.COMMUTER: ref}, TravellerType.COMMUTER)
    recorded = iter([10, 20, 30, 10, 40] * 10)
    while ref.total * counts.total < 2**52:
        counts.record(1, next(recorded))
    slot = TimeSlot(1, 1, 60)
    rng = random.Random(3)
    minutes, cum = period_weights(slot, 1, counts)
    assert minutes == _deficit_filter(counts, ref)
    weights = [ref.minute[m] * counts.total - counts.minute[m] * ref.total for m in minutes]
    assert all(type(w) is int and w >= 1 for w in weights)
    assert cum == list(accumulate(weights))
    assert all(type(c) is int for c in cum)
    for _ in range(50):
        assert select_time_period(slot, 1, counts, rng) in minutes


@given(st.data())
def test_deficit_list_matches_filter(data):
    # Random record() sequences against the bound reference: after every step
    # the kept list must equal the filter built from scratch, at every
    # scale, the largest able to take R * T past 2**52 within a run.
    near = st.integers(1, 12)
    scale = data.draw(st.sampled_from([1, 2**20, 2**45]))
    drawn = data.draw(st.dictionaries(near, st.integers(1, 60), min_size=1))
    ref = TypeCounts({m: n * scale for m, n in drawn.items()}, HOURLY)
    counts = AggregationLedger({TravellerType.COMMUTER: ref}, TravellerType.COMMUTER)
    minute = 1
    for _ in range(data.draw(st.integers(1, 60))):
        listed = set(_deficit_filter(counts, ref))
        past = [m for m in range(1, 13) if ref.minute[m] and m not in listed]
        unseen = [m for m in range(1, 13) if not ref.minute[m]]
        # "again" records the last minute once more, so a minute that just
        # left the list waits for a later total than the one it was due at.
        step = data.draw(st.sampled_from(["deficit", "past", "unseen", "again", "any"]))
        pool = {"deficit": sorted(listed), "past": past, "unseen": unseen,
                "again": [minute]}.get(step)
        minute = data.draw(st.sampled_from(pool) if pool else st.integers(1, 1440))
        counts.record(1, minute)
        assert counts.deficit == _deficit_filter(counts, ref)
        assert all(counts.scaled[m] == counts.minute[m] * ref.total
                   for m in range(1, 1441) if ref.minute[m])
        assert counts.shares == [r / ref.total for r in ref.minute]


def test_aggregation_factor_full_deficit():
    trips = [
        TripRecord("V1", TravellerType.COMMUTER, 0, 400, "A", "B", "r1", 10)
        for _ in range(3)
    ] + [TripRecord("V1", TravellerType.COMMUTER, 0, 1000, "B", "A", "r1", 10)]
    ref = build_reference_aggregates(trips, HOURLY)
    # logic and preference factors of 1 leave the feedback factor alone
    ones = [1.0] * len(HOURLY)
    n = len(HOURLY)
    w = slot_weights(HOURLY, ones, AggregationLedger(ref, TravellerType.COMMUTER), 1, n)
    assert len(w) == n
    assert w[7 - 1] == pytest.approx(BLOWUP ** 0.75)
    # a type without reference departures, absent or present but empty, is
    # corrupt input; asking for a generation ledger does not add it to the
    # reference
    ref[TravellerType.STABLE] = TypeCounts({}, HOURLY)
    for ttype in (TravellerType.PASSBY, TravellerType.STABLE):
        with pytest.raises(CorruptInputError):
            AggregationLedger(ref, ttype)
    assert set(ref) == {TravellerType.COMMUTER, TravellerType.STABLE}


def test_preference_factors():
    p = profile(
        od={"A": {"B": 3}, "B": {"A": 1}},
        slot_origin={7: {"A": 3}, 17: {"B": 1}},
    )
    eps = EPSILON
    # slot 7 holds 3 of 4 trips and all 3 departures from A
    terms = preference_terms(p, "A", HOURLY)
    assert len(terms) == len(HOURLY)
    assert terms[7 - 1] == pytest.approx(0.75 * 2.0 + eps)
    assert terms[17 - 1] == pytest.approx(0.25 + eps)
    assert terms[1 - 1] == eps
    # never departed from C: the origin term is 0
    assert preference_terms(p, "C", HOURLY)[7 - 1] == pytest.approx(0.75 + eps)


def test_slot_weights_multiplicative_structure():
    halves = TimeSlotPartition([1, 721])
    p = profile(
        od={"A": {"B": 3}, "B": {"A": 1}},
        slot_origin={1: {"A": 3}, 2: {"B": 1}},
    )
    ref = build_reference_aggregates(
        [
            TripRecord("V1", p.traveller_type, 0, 400, "A", "B", "r1", 10),
            TripRecord("V1", p.traveller_type, 0, 400, "A", "B", "r1", 10),
            TripRecord("V1", p.traveller_type, 0, 400, "A", "B", "r1", 10),
            TripRecord("V1", p.traveller_type, 0, 1000, "B", "A", "r1", 10),
        ],
        halves,
    )
    first, last_active = subsequent_slots(halves, 1, 2)
    terms = preference_terms(p, "A", halves)
    w = slot_weights(
        halves, terms, AggregationLedger(ref, p.traveller_type), first,
        last_active,
    )
    assert len(w) == 2
    # slot 1: active, full deficit of 0.75, own share 0.75, all departures
    # from A in this slot
    assert w[0] == pytest.approx(BLOWUP ** 0.75 * (0.75 * 2.0 + EPSILON))
    # slot 2: reserved for the second trip, kappa-scaled
    assert w[1] == pytest.approx(KAPPA * BLOWUP ** 0.25 * (0.25 + EPSILON))


def slot_draws(weights, rng, k):
    """k slot ids drawn from 1, 2, ... by `weights`, one checked draw each."""
    return [select_time_slot(weights, 1, rng) for _ in range(k)]


class TestWeightedDraw:
    def test_proportions(self):
        drawn = slot_draws([3.0, 1.0], random.Random(7), 100_000)
        assert drawn.count(1) / len(drawn) == pytest.approx(0.75, abs=0.01)

    def test_zero_weight_never_drawn(self):
        assert set(slot_draws([0.0, 1.0], random.Random(7), 1000)) == {2}

    def test_deterministic_for_seed(self):
        a = slot_draws([1, 1, 1], random.Random(42), 50)
        assert a == slot_draws([1, 1, 1], random.Random(42), 50)

    @example([1.0], None, random.Random, 0)
    @example([1.0], 3, random.Random, 0)
    @example([0.0, 0.0, 2.5, 0.0], None, ZeroRandom, 1)
    @example([0, 3, 0, 1], 5, TopRandom, 2)
    @given(
        st.lists(
            st.integers(0, 50) | st.floats(0.0, 1e3) | st.just(0.0),
            min_size=1, max_size=30,
        ).filter(lambda ws: any(w > 0 for w in ws)),
        st.none() | st.integers(2, 40),
        st.sampled_from([random.Random, TopRandom, ZeroRandom]),
        st.integers(0, 2**32),
    )
    def test_matches_random_choices(self, weights, k, make, seed):
        # Same labels and same RNG state as random.choices over the same
        # weights, zero weights and single labels included; the stub RNGs
        # pin both ends of the unit interval.
        labels = range(1, len(weights) + 1)
        ours, theirs = make(seed), make(seed)
        if k is None:
            assert select_time_slot(weights, 1, ours) == theirs.choices(labels, weights)[0]
        else:
            assert slot_draws(weights, ours, k) == theirs.choices(labels, weights, k=k)
        assert ours.getstate() == theirs.getstate()


def test_select_time_slot_conditioning():
    # weights of slots 2 and 3 only: slot 1 can never be drawn
    rng = random.Random(3)
    picks = [select_time_slot([1.0, 3.0], 2, rng) for _ in range(100_000)]
    assert set(picks) == {2, 3}
    assert picks.count(3) / len(picks) == pytest.approx(0.75, abs=0.01)


class TestPeriodWeights:
    def ref(self, counts):
        trips = [
            TripRecord("V1", TravellerType.COMMUTER, 0, m, "A", "B", "r1", 10)
            for m, n in counts.items()
            for _ in range(n)
        ]
        return build_reference_aggregates(trips, HOURLY)

    def test_deficit_branch_targets_shortfall(self):
        counts = AggregationLedger(self.ref({10: 1, 20: 3}), TravellerType.COMMUTER)
        counts.record(1, 10)
        slot = TimeSlot(1, 1, 60)
        minutes, weights = period_weights(slot, 1, counts)
        # minute 10 overshot (1.0 generated vs 0.25 reference), minute 20
        # still owed 0.75; everything else level at zero and left out
        assert minutes == [20]
        assert weights == [3 * 1 - 0 * 4]  # r * T - n * R
        rng = random.Random(0)
        assert select_time_period(slot, 1, counts, rng) == 20

    def test_overshoot_branch_inverts_excess(self):
        ledger = AggregationLedger(self.ref({1: 2, 2: 3, 100: 5}), TravellerType.COMMUTER)
        for minute, n in {1: 3, 2: 5, 100: 2}.items():
            for _ in range(n):
                ledger.record(HOURLY.slot_of(minute).slot_id, minute)
        minutes, cum = period_weights(TimeSlot(1, 1, 2), 1, ledger)
        assert list(minutes) == [1, 2]
        # running sums of the inverses of |-0.1| and |-0.2|
        assert cum == pytest.approx([10.0, 15.0])
        assert cum == list(accumulate(1.0 / abs(n / 10 - r / 10) for r, n in [(2, 3), (3, 5)]))

    def test_all_level_is_uniform(self):
        ledger = AggregationLedger(self.ref({1: 1, 2: 1}), TravellerType.COMMUTER)
        ledger.record(1, 1)
        ledger.record(1, 2)
        minutes, cum = period_weights(TimeSlot(1, 1, 2), 1, ledger)
        # generated shares match the reference exactly: floored inverses, equal
        assert list(minutes) == [1, 2]
        assert cum == list(accumulate([1.0 / DELTA_FLOOR] * 2))
        assert cum[1] - cum[0] == cum[0] > 0

    def test_clock_trims_candidates(self):
        ledger = AggregationLedger(self.ref({10: 1}), TravellerType.COMMUTER)
        minutes, cum = period_weights(TimeSlot(1, 1, 60), 30, ledger)
        assert list(minutes) == list(range(30, 61))
        # nothing generated: every candidate's overshoot 0 - 0 is floored
        assert cum == list(accumulate([1.0 / DELTA_FLOOR] * 31))

    def test_clock_past_slot_end(self):
        ledger = AggregationLedger(self.ref({10: 1}), TravellerType.COMMUTER)
        with pytest.raises(ValueError):
            period_weights(TimeSlot(1, 1, 60), 61, ledger)


# Exact-float properties: the weights must equal, float for float, the
# formulas as first written against the per-minute share lookups. Those
# formulas are repeated inline below over plain Counters, so they do not
# share the ledgers' dense layout.

def _reference_of(counts, partition):
    ttype = TravellerType.COMMUTER
    return TypeCounts(counts, partition)


def _ledger_of(minutes, ref, partition):
    """Feedback counts of `minutes` against the reference counts `ref`."""
    ttype = TravellerType.COMMUTER
    counts = AggregationLedger({ttype: _reference_of(ref, partition)}, ttype)
    for m in minutes:
        counts.record(partition.slot_of(m).slot_id, m)
    return counts


@st.composite
def period_states(draw):
    """(partition, slot, clock minute, reference counts, generated minutes).

    The ledger is empty, random, or an overshoot of the slot's reference
    minutes, which leaves no deficit and takes the inverse branch.
    """
    partition = draw(st.sampled_from([HOURLY, FOUR_HOUR]))
    slot = draw(st.sampled_from(partition.slots))
    clock = draw(st.integers(slot.start, slot.end))
    inside = st.integers(slot.start, slot.end)
    ref = draw(
        st.dictionaries(inside | st.integers(1, 1440), st.integers(1, 60),
                        min_size=1, max_size=30)
    )
    mode = draw(st.sampled_from(["empty", "random", "overshoot"]))
    if mode == "empty":
        generated = []
    elif mode == "random":
        generated = draw(st.lists(inside | st.integers(1, 1440), max_size=200))
    else:
        k = draw(st.integers(1, 4))
        generated = [m for m, n in ref.items()
                     if slot.start <= m <= slot.end for _ in range(k * n)]
    return partition, slot, clock, ref, generated


@st.composite
def slot_states(draw):
    """(partition, profile, zone, clock minute, remaining, reference counts,
    generated minutes) with a random individual history over zones A-C."""
    partition = draw(st.sampled_from([HOURLY, FOUR_HOUR]))
    slot_ids = st.integers(1, len(partition))
    by_slot = draw(
        st.dictionaries(
            slot_ids,
            st.dictionaries(st.sampled_from("ABC"), st.integers(1, 9), min_size=1),
            min_size=1,
            max_size=len(partition),
        )
    )
    per_origin = Counter()
    for row in by_slot.values():
        per_origin.update(row)
    prof = profile(od={o: {"D": n} for o, n in per_origin.items()},
                   slot_origin=by_slot)
    zone = draw(st.sampled_from("ABCZ"))
    minute = draw(st.integers(1, 1440))
    remaining = draw(st.integers(1, 5))
    ref = draw(st.dictionaries(st.integers(1, 1440), st.integers(1, 60),
                               min_size=1, max_size=30))
    generated = draw(st.lists(st.integers(1, 1440), max_size=200))
    return partition, prof, zone, minute, remaining, ref, generated


def _full_period_weights(slot, minute, ref, generated):
    """The minute weights over every candidate minute, zero weights included:
    the int deficits max(r * T - n * R, 0) where any is positive, else
    floored inverse overshoots."""
    ref_total = sum(ref.values())
    gen = Counter(generated)
    total = len(generated) or 1
    candidates = list(range(max(slot.start, minute), slot.end + 1))
    deficits = [ref.get(m, 0) * total - gen[m] * ref_total for m in candidates]
    if any(d > 0 for d in deficits):
        return candidates, [max(d, 0) for d in deficits]
    deltas = [
        ref.get(m, 0) / ref_total - (gen[m] / len(generated) if generated else 0.0)
        for m in candidates
    ]
    return candidates, [1.0 / max(abs(d), 1e-12) for d in deltas]


class TestExactFloats:
    @given(period_states())
    def test_period_weights(self, state):
        partition, slot, minute, ref, generated = state
        minutes, cum = period_weights(slot, minute, _ledger_of(generated, ref, partition))

        candidates, full = _full_period_weights(slot, minute, ref, generated)
        if any(w > 0.0 for w in full):
            # only the minutes in deficit are listed
            expect = [(m, w) for m, w in zip(candidates, full) if w > 0.0]
        else:
            expect = list(zip(candidates, full))
        assert list(minutes) == [m for m, _ in expect]
        assert cum == list(accumulate(w for _, w in expect))

    @given(period_states())
    def test_period_sums_are_drawable(self, state):
        # Why select_time_period can draw from these sums: int sums
        # strictly ascend over the minutes in deficit, float sums are
        # positive, finite and never fall. The listed count is the one
        # bench/run.py's count_minutes reads.
        partition, slot, minute, ref, generated = state
        minutes, cum = period_weights(slot, minute, _ledger_of(generated, ref, partition))
        _, full = _full_period_weights(slot, minute, ref, generated)
        # every weight is positive in the overshoot branch, so both branches
        # list the candidates with a positive weight
        assert len(minutes) == len(cum) == sum(w > 0 for w in full)
        if type(full[0]) is int:  # the deficit branch
            assert all(type(c) is int for c in cum)
            assert all(a < b for a, b in zip([0] + cum, cum))
        else:
            assert all(type(c) is float and isfinite(c) for c in cum)
            assert cum[0] > 0 and all(a <= b for a, b in zip(cum, cum[1:]))

    @given(period_states())
    def test_slot_shares(self, state):
        # slot_weights reads each slot's reference share e / R from the
        # ledger: the same division, so the same float, and no record
        # moves it.
        partition, _, _, ref, generated = state
        ledger = _ledger_of([], ref, partition)
        expect = [e / ledger.ref.total for e in ledger.ref.slot]
        assert ledger.slot_shares == expect and len(expect) == 1441
        for m in generated:
            ledger.record(partition.slot_of(m).slot_id, m)
            assert ledger.slot_shares == expect

    # Hour 2 is minutes 61-120; the reference has departures at 70 and 95
    # in it and at 200 outside it.
    @example((HOURLY, HOURLY.by_id(2), 61, {70: 2, 95: 1, 200: 3}, []), "seeded", 1)
    @example((HOURLY, HOURLY.by_id(2), 90, {70: 2, 95: 1, 200: 3}, [200]), "seeded", 2)
    @example((HOURLY, HOURLY.by_id(2), 61, {70: 2, 95: 1, 200: 3}, [70, 95]), "top", 0)
    @example((HOURLY, HOURLY.by_id(2), 80, {70: 2, 95: 1, 200: 3}, []), "top", 0)
    @given(period_states(), st.sampled_from(["seeded", "top"]), st.integers(0, 2**32))
    def test_minute_draw_matches_full_list(self, state, kind, seed):
        # The draw over the listed minutes picks the same minute and leaves
        # the same RNG state as a draw over every candidate minute with the
        # zero weights kept in.
        partition, slot, minute, ref, generated = state
        candidates, full = _full_period_weights(slot, minute, ref, generated)
        make = TopRandom if kind == "top" else random.Random
        old_rng, new_rng = make(seed), make(seed)
        expect = old_rng.choices(candidates, weights=full)[0]
        got = select_time_period(
            slot, minute, _ledger_of(generated, ref, partition), new_rng
        )
        assert got == expect
        assert new_rng.getstate() == old_rng.getstate()

    @given(slot_states(), st.integers(0, 2**32))
    def test_slot_weights(self, state, seed):
        partition, prof, zone, minute, remaining, ref, generated = state
        first, last_active = subsequent_slots(partition, minute, remaining)
        weights = slot_weights(
            partition, preference_terms(prof, zone, partition),
            _ledger_of(generated, ref, partition), first, last_active,
        )

        ref_slots = Counter()
        for m, n in ref.items():
            ref_slots[partition.slot_of(m).slot_id] += n
        gen_slots = Counter(partition.slot_of(m).slot_id for m in generated)
        first = partition.slot_of(minute).slot_id
        reachable = list(range(first, len(partition) + 1))
        held = min(remaining - 1, len(reachable) - 1)
        expect_active = reachable[: len(reachable) - held] if held > 0 else reachable
        from_zone = prof.per_origin.get(zone, 0)
        expect = []
        for sid in reachable:
            cs = 1.0 if sid in expect_active else KAPPA
            x = (gen_slots[sid] / len(generated) if generated else 0.0) - (
                ref_slots[sid] / sum(ref.values())
            )
            if x >= 0.0:
                cr = max(0.0, 1.0 - x)
            else:
                cr = BLOWUP ** min(-x, 1.0)
            by_origin = prof.slot_origin_counts.get(sid, {})
            cp = sum(by_origin.values()) / prof.total_trips
            cop = by_origin.get(zone, 0) / from_zone if from_zone else 0.0
            expect.append(cs * cr * (cp * (1.0 + cop) + EPSILON))
        assert weights == expect
        # the draw never goes back to a slot the clock has passed
        if any(w > 0.0 for w in weights):
            slot_id = select_time_slot(weights, first, random.Random(seed))
            assert partition.by_id(slot_id).end >= minute


class TestDestination:
    def test_weights_follow_history(self):
        p = profile(od={"A": {"B": 3, "C": 1}})
        cursor = GenCursor(profile=p, day=0, minute=1, location="A", daily_quota=1)
        select_destination(cursor, random.Random(0))
        # the cached running sums of the counts 3 and 1
        assert cursor.destinations["A"] == ("A", ["B", "C"], [3, 4], False)
        rng = random.Random(5)
        picks = [select_destination(cursor, rng)[1] for _ in range(100_000)]
        assert picks.count("B") / len(picks) == pytest.approx(0.75, abs=0.01)

    def test_relocates_when_origin_unseen(self):
        p = profile(od={"A": {"B": 3}, "B": {"A": 1}})
        cursor = GenCursor(
            profile=p, day=0, minute=1, location="Z99", daily_quota=1
        )
        select_destination(cursor, random.Random(0))
        origin, dests, _, relocated = cursor.destinations["Z99"]
        assert relocated and origin == "A" and dests == ["B"]
        used, dest, flagged = select_destination(cursor, random.Random(1))
        assert used == "A" and dest == "B" and flagged
        # cached with the cumulative weights, here the single count 3
        assert cursor.destinations == {"Z99": ("A", ["B"], [3], True)}


def small_world():
    """Two-zone shuttle history: V1 commutes A->B mornings, B->A evenings."""
    t = TravellerType.COMMUTER
    trips = []
    for day in range(7):
        trips.append(TripRecord("V1", t, day, 452, "A", "B", "r1-r2", 14))
        trips.append(TripRecord("V1", t, day, 1052, "B", "A", "r2-r1", 16))
    profiles = build_profiles(trips, HOURLY, window_days=7)
    return (
        profiles,
        build_reference_aggregates(trips, HOURLY),
        build_path_catalog(trips),
        build_duration_pools(trips, HOURLY),
    )


def test_select_path_and_duration():
    profiles, ref, catalog, pools = small_world()
    rng = random.Random(0)
    draws = route_draws(catalog)
    entry = select_path(draws, "A", "B", rng)
    assert entry.path_id == "r1-r2"
    with pytest.raises(CorruptInputError):
        select_path(draws, "A", "Z99", rng)
    assert sample_duration(pools, "r1-r2", 8, rng) == (14, False)
    # unseen slot falls back to the path pool
    assert sample_duration(pools, "r1-r2", 3, rng) == (14, True)
    with pytest.raises(CorruptInputError):
        sample_duration(pools, "r9", 8, rng)


def test_select_path_prefers_crowd_counts():
    t = TravellerType.COMMUTER
    trips = [TripRecord("V1", t, 0, 452, "A", "B", "r1-r2", 10)] * 9
    trips += [TripRecord("V2", t, 0, 452, "A", "B", "r3", 10)]
    catalog = build_path_catalog(trips)
    rng = random.Random(11)
    draws = route_draws(catalog)
    picks = [select_path(draws, "A", "B", rng).path_id for _ in range(100_000)]
    assert picks.count("r1-r2") / len(picks) == pytest.approx(0.9, abs=0.01)


def test_route_draws_leave_out_a_pair_without_entries():
    # A library-built catalog may list a pair with no route: the table
    # leaves it out, so a draw for it is refused.
    routes = [PathEntry("r1", 3), PathEntry("r2", 2)]
    catalog = PathCatalog({("A", "B"): (), ("B", "A"): routes})
    draws = route_draws(catalog)
    assert draws == {("B", "A"): (tuple(routes), [3, 5])}
    with pytest.raises(CorruptInputError, match=r"no pooled path for OD pair \(A, B\)"):
        select_path(draws, "A", "B", random.Random(0))


class TestGenerateTrip:
    def test_advances_cursor_and_records(self):
        profiles, ref, catalog, pools = small_world()
        params = GenParams(rng_seed=3)
        ledger = AggregationLedger(ref, TravellerType.COMMUTER)
        cursor = GenCursor(
            profile=profiles["V1"],
            day=0,
            minute=1,
            location=initial_location(profiles["V1"]),
            daily_quota=2,
        )
        rng, draws = random.Random(3), route_draws(catalog)
        trip = generate_trip(cursor, HOURLY, ledger, draws, pools, params, rng)
        assert trip.o_zone == "A" and trip.d_zone == "B"
        assert cursor.location == "B"
        assert cursor.generated_today == 1
        assert (cursor.day, cursor.minute) == (0, trip.departure + trip.duration + 1)
        assert ledger.total == ledger.slot[HOURLY.slot_of(trip.departure).slot_id] == 1
        second = generate_trip(cursor, HOURLY, ledger, draws, pools, params, rng)
        assert second.o_zone == "B" and second.d_zone == "A"
        assert second.departure >= trip.departure + trip.duration + 1

    def test_midnight_rollover(self):
        profiles, ref, catalog, pools = small_world()
        ledger = AggregationLedger(ref, TravellerType.COMMUTER)
        cursor = GenCursor(
            profile=profiles["V1"],
            day=0,
            minute=1435,
            location="A",
            daily_quota=2,
            generated_today=1,
        )
        trip = generate_trip(
            cursor, HOURLY, ledger, route_draws(catalog), pools, GenParams(), random.Random(0)
        )
        assert trip.date == 0 and trip.departure >= 1435
        assert cursor.day == 1

    def test_wide_duration_advances_clock_in_one_step(self):
        # A parsed duration may have any width. A day-at-a-time clock would
        # take about 6.9e8 steps to carry this one.
        t = TravellerType.COMMUTER
        trips = [TripRecord("V1", t, 0, 452, "A", "B", "r1", 10**12)]
        profiles = build_profiles(trips, HOURLY, window_days=1)
        ledger = AggregationLedger(build_reference_aggregates(trips, HOURLY), t)
        cursor = GenCursor(
            profile=profiles["V1"], day=3, minute=1, location="A", daily_quota=1,
        )
        trip = generate_trip(
            cursor, HOURLY, ledger, route_draws(build_path_catalog(trips)),
            build_duration_pools(trips, HOURLY), GenParams(), random.Random(0),
        )
        assert (trip.date, trip.departure, trip.duration) == (3, 452, 10**12)
        # 452 + 10**12 + 1 minutes after day 3 began
        assert (cursor.day, cursor.minute) == (3 + 694_444_444, 1_093)

    @example(
        history=[(1430, 3000), (100, 30)], min_gap=0, start=1440, quota=4,
        four_hour=False, seed=0,
    )
    @given(
        history=st.lists(
            st.tuples(st.integers(1, 1440), st.integers(1, 4000)), min_size=1,
            max_size=6,
        ),
        min_gap=st.integers(0, 90),
        start=st.integers(1, 1440),
        quota=st.integers(1, 12),
        four_hour=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    def test_cursor_clock_stays_in_day(
        self, history, min_gap, start, quota, four_hour, seed
    ):
        # After every trip the clock minute is a minute of day and the day
        # never falls; the clock sits exactly departure + duration + min_gap
        # minutes after the trip's day began, so durations over 1,440 minutes
        # roll over more than one day.
        partition = FOUR_HOUR if four_hour else HOURLY
        t = TravellerType.COMMUTER
        trips = [
            TripRecord("V1", t, day, departure, *zones, "r1", duration)
            for day in range(7)
            for i, (departure, duration) in enumerate(history)
            for zones in [("A", "B") if i % 2 == 0 else ("B", "A")]
        ]
        profiles = build_profiles(trips, partition, window_days=7)
        reference = build_reference_aggregates(trips, partition)
        draws = route_draws(build_path_catalog(trips))
        pools = build_duration_pools(trips, partition)
        ledger, params = AggregationLedger(reference, t), GenParams(min_gap=min_gap)
        cursor = GenCursor(
            profile=profiles["V1"], day=0, minute=start, location="A",
            daily_quota=quota,
        )
        rng = random.Random(seed)
        for _ in range(quota):
            day, minute = cursor.day, cursor.minute
            trip = generate_trip(cursor, partition, ledger, draws, pools, params, rng)
            assert trip.date == day and trip.departure >= minute
            assert 1 <= cursor.minute <= 1440
            assert cursor.day >= day
            assert (cursor.day - day) * 1440 + cursor.minute == (
                trip.departure + trip.duration + min_gap
            )

    def test_degenerate_slot_draw(self, monkeypatch):
        # The clock is in the last slot, every generated commuter departure
        # sits there and the reference has none there: full overshoot zeroes
        # the only reachable weight, so that slot is taken without a draw
        # instead of through select_time_slot.
        profiles, ref, catalog, pools = small_world()
        ledger = AggregationLedger(ref, TravellerType.COMMUTER)
        ledger.record(24, 1420)
        cursor = GenCursor(
            profile=profiles["V1"], day=0, minute=1400, location="A",
            daily_quota=1,
        )
        terms = preference_terms(profiles["V1"], "A", HOURLY)
        weights = slot_weights(HOURLY, terms, ledger, 24, 24)
        assert weights == [0.0]

        def refuse(*args):
            raise AssertionError("select_time_slot called on the degenerate path")

        states = []
        draw_minute = generator.select_time_period

        def spy(slot, minute, counts, rng):
            states.append(rng.getstate())
            return draw_minute(slot, minute, counts, rng)

        monkeypatch.setattr(generator, "select_time_slot", refuse)
        monkeypatch.setattr(generator, "select_time_period", spy)
        trip = generate_trip(
            cursor, HOURLY, ledger, route_draws(catalog), pools, GenParams(), random.Random(5)
        )
        # nothing was drawn before the minute
        assert states == [random.Random(5).getstate()]
        assert trip == TripRecord(
            "V1", TravellerType.COMMUTER, 0, 1425, "A", "B", "r1-r2", 14
        )
        assert ledger.slot[24] == 2
        assert cursor.stats.degenerate_slot_draws == 1

    def test_requires_quota(self):
        profiles, ref, catalog, pools = small_world()
        ledger = AggregationLedger(ref, TravellerType.COMMUTER)
        cursor = GenCursor(
            profile=profiles["V1"], day=0, minute=1, location="A",
            daily_quota=1, generated_today=1,
        )
        with pytest.raises(ValueError):
            generate_trip(
                cursor, HOURLY, ledger, route_draws(catalog), pools, GenParams(), random.Random(0)
            )


class TestGenerateAll:
    def test_integer_rate_yields_exact_count(self):
        profiles, ref, catalog, pools = small_world()
        stats = GenStats()
        trips = list(
            generate_all(
                profiles, ref, catalog, pools, GenParams(rng_seed=5), HOURLY,
                stats=stats,
            )
        )
        # 14 trips over 7 observed days: quota is exactly 2 every day
        assert len(trips) == 14
        assert stats.trips == 14 and not stats.quarantined

    def test_params_are_checked_on_call(self, monkeypatch):
        # Before any record is asked for, so no caller has opened its output.
        profiles, ref, catalog, pools = small_world()
        monkeypatch.setattr(generator, "EPSILON", 0.5)
        with pytest.raises(InvalidParams, match="epsilon"):
            generate_all(profiles, ref, catalog, pools, GenParams(), HOURLY)

    def test_negative_horizon_is_refused_on_call(self):
        profiles, ref, catalog, pools = small_world()
        with pytest.raises(InvalidParams, match="horizon_days must be >= 0"):
            generate_all(profiles, ref, catalog, pools, GenParams(horizon_days=-1), HOURLY)

    def test_horizon_runs_from_start_day(self):
        profiles, ref, catalog, pools = small_world()
        params = GenParams(rng_seed=5, start_day=3, horizon_days=2)
        trips = list(generate_all(profiles, ref, catalog, pools, params, HOURLY))
        assert Counter(t.date for t in trips) == {3: 2, 4: 2}

    def test_chronological_and_alternating(self):
        profiles, ref, catalog, pools = small_world()
        trips = list(
            generate_all(profiles, ref, catalog, pools, GenParams(rng_seed=5), HOURLY)
        )
        keys = [(t.date, t.departure) for t in trips]
        assert keys == sorted(keys)
        assert [t.o_zone for t in trips] == ["A", "B"] * 7
        assert all(t.o_zone != t.d_zone for t in trips)

    def test_support_containment(self):
        profiles, ref, catalog, pools = small_world()
        trips = list(
            generate_all(profiles, ref, catalog, pools, GenParams(rng_seed=5), HOURLY)
        )
        for t in trips:
            assert (t.o_zone, t.d_zone) in catalog.entries
            assert any(
                e.path_id == t.path for e in catalog.get(t.o_zone, t.d_zone)
            )

    def test_fractional_rate_within_bounds(self):
        t = TravellerType.RANDOM
        trips = []
        for day in range(7):
            trips.append(TripRecord("V9", t, day, 600, "A", "B", "r1", 10))
        trips.append(TripRecord("V9", t, 0, 700, "B", "A", "r2", 10))
        # 8 trips over 7 days: daily quota is 1 or 2
        profiles = build_profiles(trips, HOURLY, window_days=7)
        catalog = build_path_catalog(trips)
        pools = build_duration_pools(trips, HOURLY)
        ref = build_reference_aggregates(trips, HOURLY)
        out = list(
            generate_all(profiles, ref, catalog, pools, GenParams(rng_seed=2), HOURLY)
        )
        assert 7 <= len(out) <= 14

    def test_quarantine_skips_broken_individual(self, caplog):
        profiles, ref, catalog, pools = small_world()
        t = TravellerType.COMMUTER
        orphan = [
            TripRecord("V0", t, day, 452, "X", "Y", "q1", 9) for day in range(7)
        ] + [
            TripRecord("V0", t, day, 1052, "Y", "X", "q1", 9) for day in range(7)
        ]
        # V0's OD pairs are absent from the shared catalog: path choice fails
        profiles.update(build_profiles(orphan, HOURLY, window_days=7))
        stats = GenStats()
        trips = list(
            generate_all(
                profiles, ref, catalog, pools, GenParams(rng_seed=5), HOURLY,
                stats=stats,
            )
        )
        assert stats.quarantined == ["V0"]
        assert {t.traveller_id for t in trips} == {"V1"}
        assert len(trips) == stats.trips == 14

    def test_quarantine_mid_run_folds_none_of_its_counts(self, monkeypatch):
        # V2 fails on its third duration draw, after two of its trips were
        # drawn; the run's stats hold V1's and V3's counts only.
        profiles, ref, catalog, pools = small_world()
        v1 = profiles["V1"]
        for tid in ("V2", "V3"):
            profiles[tid] = IndividualProfile(
                tid, v1.traveller_type, v1.od_counts, v1.slot_origin_counts, v1.observed_days
            )
        current, draws = [], Counter()
        start, draw = generator.initial_location, generator.sample_duration

        def enter(profile):
            current.append(profile.traveller_id)
            return start(profile)

        def failing(pools, path_id, slot_id, rng):
            draws[current[-1]] += 1
            if (current[-1], draws[current[-1]]) == ("V2", 3):
                raise CorruptInputError("durations lost")
            return draw(pools, path_id, slot_id, rng)

        monkeypatch.setattr(generator, "initial_location", enter)
        monkeypatch.setattr(generator, "sample_duration", failing)
        stats = GenStats()
        trips = list(
            generate_all(profiles, ref, catalog, pools, GenParams(rng_seed=5), HOURLY,
                         stats=stats)
        )
        yielded = {t.traveller_id for t in trips}
        assert current == ["V1", "V2", "V3"] and draws["V2"] == 3
        assert yielded == {"V1", "V3"}
        assert stats.quarantined == ["V2"]
        assert stats.trips == len(trips)
        assert stats.continuity_pairs == len(trips) - len(yielded)

    def test_type_without_reference_is_quarantined(self, monkeypatch, caplog):
        # The reference holds commuters only. Every stable individual is
        # refused before its first daily quota is drawn, also S2, whose
        # one trip in a million days gives it a quota of 0 on every day,
        # and each refusal logs one warning.
        profiles, ref, catalog, pools = small_world()
        t = TravellerType.STABLE
        for tid, n, days in (("S1", 7, 7), ("S2", 1, 10**6)):
            profiles[tid] = IndividualProfile(tid, t, {"A": {"B": n}}, {8: {"A": n}}, days)
        drawn = []
        quota = generator.daily_quota

        def spy(profile, rng):
            drawn.append(profile.traveller_id)
            return quota(profile, rng)

        monkeypatch.setattr(generator, "daily_quota", spy)
        stats = GenStats()
        params = GenParams(rng_seed=5, horizon_days=1)
        trips = list(
            generate_all(profiles, ref, catalog, pools, params, HOURLY, stats=stats)
        )
        assert stats.quarantined == ["S1", "S2"]
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "quarantined individual S1", "quarantined individual S2"
        ]
        assert set(drawn) == {"V1"}
        assert {t.traveller_id for t in trips} == {"V1"}

    def test_programming_error_propagates(self, monkeypatch):
        profiles, ref, catalog, pools = small_world()

        def broken(*args):
            raise IndexError("list index out of range")

        monkeypatch.setattr(generator, "select_path", broken)
        with pytest.raises(IndexError):
            list(
                generate_all(
                    profiles, ref, catalog, pools, GenParams(rng_seed=5), HOURLY
                )
            )

    def test_types_are_independent_and_ordered(self):
        t1 = TravellerType.COMMUTER
        t2 = TravellerType.STABLE
        trips = []
        for day in range(7):
            trips.append(TripRecord("C1", t1, day, 452, "A", "B", "r1", 10))
            trips.append(TripRecord("C1", t1, day, 1052, "B", "A", "r2", 10))
            trips.append(TripRecord("S1", t2, day, 600, "A", "B", "r1", 10))
        profiles = build_profiles(trips, HOURLY, window_days=7)
        catalog = build_path_catalog(trips)
        pools = build_duration_pools(trips, HOURLY)
        ref = build_reference_aggregates(trips, HOURLY)
        params = GenParams(rng_seed=4)
        both = list(generate_all(profiles, ref, catalog, pools, params, HOURLY))
        # grouped by type in fixed order
        assert [t.traveller_id for t in both] == ["C1"] * 14 + ["S1"] * 7
        # each type has its own RNG stream and ledger
        alone = list(
            generate_all({"S1": profiles["S1"]}, ref, catalog, pools, params, HOURLY)
        )
        assert alone == both[14:]


def test_tally_separates_breaks_from_first_trip_relocation():
    t = TravellerType.PASSBY

    def run(departures):
        # One day of trips from B to A only. The initial location is A (A and
        # B tie on touches; the smaller id wins), which has no departures, so
        # every trip relocates to B; only the first breaks no pair.
        history = [
            TripRecord("V1", t, day, minute, "B", "A", "r1", 10)
            for day in range(7)
            for minute in departures
        ]
        stats = GenStats()
        trips = list(
            generate_all(
                build_profiles(history, HOURLY, window_days=7),
                build_reference_aggregates(history, HOURLY),
                build_path_catalog(history),
                build_duration_pools(history, HOURLY),
                GenParams(rng_seed=1, horizon_days=1),
                HOURLY,
                stats=stats,
            )
        )
        assert [(trip.o_zone, trip.d_zone) for trip in trips] == [("B", "A")] * len(trips)
        assert stats.trips == len(trips)
        return stats.relocations, stats.chain_breaks, stats.continuity_pairs

    assert run([700]) == (1, 0, 0)
    assert run([700, 800]) == (2, 1, 1)


def test_midnight_spill_drops_unmet_quota():
    # Two late trips a day: the first one drawn already ends past midnight,
    # so the day's second trip is dropped with the spill.
    t = TravellerType.STABLE
    history = [
        TripRecord("V1", t, day, minute, o, d, "r1", 20)
        for day in range(7)
        for minute, o, d in ((1430, "A", "B"), (1432, "B", "A"))
    ]
    stats = GenStats()
    trips = list(
        generate_all(
            build_profiles(history, HOURLY, window_days=7),
            build_reference_aggregates(history, HOURLY),
            build_path_catalog(history),
            build_duration_pools(history, HOURLY),
            GenParams(rng_seed=1, horizon_days=1),
            HOURLY,
            stats=stats,
        )
    )
    assert len(trips) == 1 and trips[0].departure >= 1430
    assert (stats.midnight_spills, stats.spill_dropped_quota) == (1, 1)
