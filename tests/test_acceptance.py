"""Acceptance gate: ten checks over the desk-scale corpus, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Thresholds are asserted exactly as stated; every expected value is either
computed in closed form here or measured through an independent route.
"""
import hashlib
import io
import math
import random
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import pytest

from tripsynth.cli import load_config, main
from tripsynth.corpus import CorpusSpec, synth_corpus
from tripsynth.generator import (
    AggregationLedger,
    GenParams,
    GenStats,
    destination_weights,
    generate_all,
    preference_terms,
    slot_weights,
    subsequent_slots,
    weighted_draw,
)
from tripsynth.ingest import (
    build_duration_pools,
    build_path_catalog,
    build_profiles,
    build_reference_aggregates,
    load_store,
    reference_from_minutes,
    write_trips_csv,
)
from tripsynth.model import TYPE_ORDER, TravellerType
from tripsynth.validator import (
    Distribution,
    build_report,
    destination_entropy,
    js_divergence,
)

from oracles import (
    continuity_ratio,
    oracle_destination_probabilities,
    oracle_path_probabilities,
    oracle_period_probabilities,
    oracle_slot_probabilities,
)

GEN_SEED = 11
DRAWS = 100_000
N_STATES = 100
# Every table of the CLI run below (corpus seed 7, generation seed 11).
DESK_SHA256 = {
    "data/network.csv": "616587c921b76be94dd80c8d9bcee10688b3284678a08986c9bce4f021145e4e",
    "data/zones.csv": "0f9f4ef936e1499cbcfda76e0327c563c4bf2f4f61375139d7bbbae36cd5d64f",
    "data/trips.csv": "afd4214b3d96a20dc6c5399b6e9164ae1aa3b36ecbce3b49f5921eb394ca43cb",
    "build/store.json": "c6ee6e53262b0aac3181812a6b1d08765ac26f01f37ebc2af0ad23c97c85ce88",
    "out/generated.csv": "5a4d720946358351d32c369fffe24ca5a309a8565d82343fa5f1eb161a611b63",
    "out/report.csv": "26744e743549d97e581dbf093bda8ee393b3d220b7ad0e6b33d1de3bad30ca9b",
}

CONFIG = """\
paths:
  trips: data/trips.csv
  zones: data/zones.csv
  network: data/network.csv
  store: build/store.json
  generated: out/generated.csv
  report: out/report.csv
partition: [1, 241, 481, 721, 961, 1201]
generation:
  seed: 11
validation:
  granularity: 15
corpus:
  seed: 7
"""


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@dataclass
class World:
    built: object
    profiles: dict
    reference: object
    catalog: object
    pools: object
    params: GenParams
    generated: list
    stats: GenStats
    report: object


@pytest.fixture(scope="module")
def world():
    built = synth_corpus(CorpusSpec())
    profiles = build_profiles(built.trips, built.partition, built.spec.days)
    catalog = build_path_catalog(built.trips)
    pools = build_duration_pools(built.trips, built.partition)
    reference = build_reference_aggregates(built.trips, built.partition)
    params = GenParams(rng_seed=GEN_SEED)
    stats = GenStats()
    generated = list(
        generate_all(
            profiles, reference, catalog, pools, params, built.partition,
            stats=stats,
        )
    )
    report = build_report(built.trips, generated, granularity=15)
    return World(
        built=built,
        profiles=profiles,
        reference=reference,
        catalog=catalog,
        pools=pools,
        params=params,
        generated=generated,
        stats=stats,
        report=report,
    )


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """The same desk pipeline twice through the command line, fresh dirs."""
    runs = []
    for name in ("run_a", "run_b"):
        base = tmp_path_factory.mktemp(name)
        cfg = base / "run.yaml"
        cfg.write_text(CONFIG)
        t0 = time.time()
        for command in ("corpus", "ingest", "generate", "validate"):
            assert main([command, "-c", str(cfg)]) == 0, command
        runs.append({"base": base, "elapsed": time.time() - t0})
    return runs


# ---------------------------------------------------------------------------
# Criterion 1: each selection stage, sampled through the production draw
# code, must match its enumeration oracle within total variation 0.01 on
# 100 randomized frozen states at 100000 seeded draws per state.


def _tv(oracle: dict, draws) -> float:
    freq = Counter(draws)
    n = len(draws)
    return 0.5 * sum(abs(freq.get(label, 0) / n - p) for label, p in oracle.items())


def _slot_state(meta, world, rng):
    partition = world.built.partition
    profile = meta.choice(world.profile_pool)
    if meta.random() < 0.8:
        zone = meta.choice(sorted(profile.per_origin))
    else:
        zone = meta.choice(world.zone_ids)
    ledger = AggregationLedger(world.reference)
    if meta.random() < 0.7:
        slot_ids = [s.slot_id for s in partition]
        skew = [meta.random() + 0.05 for _ in slot_ids]
        for sid in meta.choices(slot_ids, weights=skew, k=meta.randint(20, 4000)):
            slot = partition.by_id(sid)
            ledger.record(profile.traveller_type, sid, meta.randint(slot.start, slot.end))
    minute = meta.randint(1, 1440)
    remaining = meta.randint(1, 4)

    oracle = oracle_slot_probabilities(
        partition, profile, zone, ledger, world.reference, minute, remaining
    )
    first, last_active = subsequent_slots(partition, minute, remaining)
    terms = preference_terms(profile, zone, partition)
    ttype = profile.traveller_type
    weights = slot_weights(partition, terms, ledger.counts(ttype), first, last_active)
    draws = weighted_draw(range(first, first + len(weights)), weights, rng, k=DRAWS)
    return _tv(oracle, draws)


def _period_state(meta, world, rng, shape):
    """Frozen minute-selection states, one per feedback regime.

    shape 0: nothing generated yet, mass follows the reference deficits;
    shape 1: part of the reference support overshot, the rest still owed;
    shape 2: generated exactly level, inverse weighting floors to uniform.
    """
    partition = world.built.partition
    ttype = meta.choice(list(TYPE_ORDER))
    slot = meta.choice(partition.slots)
    width = meta.randint(8, 30 if shape == 2 else 40)
    start = max(slot.start, slot.end - width)
    k_ref = meta.randint(4, 12)
    supported = sorted(meta.sample(range(start, slot.end + 1), k_ref))
    if shape == 2:
        counts = {m: 7 for m in supported}
    else:
        counts = {m: meta.randint(5, 120) for m in supported}
    reference = reference_from_minutes({ttype: counts}, partition)
    ledger = AggregationLedger(reference)
    if shape == 1:
        for m in supported[: k_ref // 2]:
            for _ in range(3 * counts[m]):
                ledger.record(ttype, slot.slot_id, m)
    elif shape == 2:
        for m in supported:
            for _ in range(counts[m]):
                ledger.record(ttype, slot.slot_id, m)

    oracle = oracle_period_probabilities(slot, start, ledger, reference, ttype)
    from tripsynth.generator import period_weights

    minutes, weights = period_weights(slot, start, ledger.counts(ttype))
    draws = weighted_draw(minutes, weights, rng, k=DRAWS)
    return _tv(oracle, draws)


def _destination_state(meta, world, rng):
    profile = meta.choice(world.profile_pool)
    if meta.random() < 0.7:
        origin = meta.choice(sorted(profile.od_counts))
    else:
        origin = "ZZ-nowhere"
    origin_used, oracle, relocated = oracle_destination_probabilities(
        profile, origin
    )
    used, dests, weights, flagged = destination_weights(profile, origin)
    assert (used, flagged) == (origin_used, relocated)
    draws = weighted_draw(dests, weights, rng, k=DRAWS)
    return _tv(oracle, draws)


def _path_state(meta, world, rng):
    o, d = meta.choice(world.catalog.od_pairs())
    oracle = oracle_path_probabilities(world.catalog, o, d)
    entries = world.catalog.get(o, d)
    picks = weighted_draw(
        range(len(entries)), [e.crowd_count for e in entries], rng, k=DRAWS
    )
    return _tv(oracle, [entries[i].path_id for i in picks])


def test_criterion_01_samplers_match_oracles(world):
    meta = random.Random(20250822)
    world.profile_pool = [world.profiles[tid] for tid in sorted(world.profiles)]
    world.zone_ids = [z.zone_id for z in world.built.zones]
    worst = 0.0
    for ix in range(N_STATES):
        rng = random.Random(f"acceptance-1:{ix}")
        kind = ix % 4
        if kind == 0:
            tv = _slot_state(meta, world, rng)
        elif kind == 1:
            tv = _period_state(meta, world, rng, shape=ix // 4 % 3)
        elif kind == 2:
            tv = _destination_state(meta, world, rng)
        else:
            tv = _path_state(meta, world, rng)
        worst = max(worst, tv)
    verdict(
        1,
        worst <= 0.01,
        f"max sampler-oracle TV {worst:.4f} over {N_STATES} states "
        f"x {DRAWS} draws, limit 0.01",
    )


def test_criterion_02_temporal_divergence(world):
    values = {
        t.value: world.report.numeric("js_time", t.value, "all") for t in TYPE_ORDER
    }
    worst = max(values, key=values.get)
    verdict(
        2,
        all(v <= 0.01 for v in values.values()),
        f"15-minute temporal JS per type <= 0.01, worst {values[worst]:.4f} "
        f"({worst})",
    )


def test_criterion_03_hot_zone_overlap(world):
    values = {
        t.value: world.report.numeric("hotzone_overlap", t.value, "0.1")
        for t in TYPE_ORDER
    }
    worst = min(values, key=values.get)
    verdict(
        3,
        all(v >= 0.9 for v in values.values()),
        f"top-10% zone overlap >= 0.9 per type, worst {values[worst]:.3f} ({worst})",
    )


def test_criterion_04_od_overlap(world):
    values = {
        t.value: world.report.numeric("od_overlap", t.value, "0.5") for t in TYPE_ORDER
    }
    worst = min(values, key=values.get)
    verdict(
        4,
        all(v >= 0.75 for v in values.values()),
        f"top-50% OD overlap >= 0.75 per type, worst {values[worst]:.3f} ({worst})",
    )


def test_criterion_05_road_access(world):
    overall = world.report.numeric("js_road", "", "")
    per_type = {
        t.value: world.report.numeric("js_road", t.value, "") for t in TYPE_ORDER
    }
    worst = max(per_type, key=per_type.get)
    verdict(
        5,
        overall <= 0.01 and all(v <= 0.01 for v in per_type.values()),
        f"road-access JS {overall:.5f} overall, worst type "
        f"{per_type[worst]:.5f} ({worst}), limit 0.01",
    )


def test_criterion_06_trip_frequency(world):
    days = world.built.spec.days
    counts = Counter(t.traveller_id for t in world.generated)
    expected_total = 0.0
    out_of_bounds = []
    for tid, profile in world.profiles.items():
        lo = days * (profile.total_trips // profile.observed_days)
        hi = days * math.ceil(profile.total_trips / profile.observed_days)
        expected_total += days * profile.total_trips / profile.observed_days
        if not lo <= counts.get(tid, 0) <= hi:
            out_of_bounds.append(tid)
    mean_got = sum(counts.values()) / len(world.profiles)
    mean_want = expected_total / len(world.profiles)
    drift = abs(mean_got - mean_want) / mean_want
    verdict(
        6,
        not out_of_bounds and drift <= 0.03,
        f"{len(world.profiles) - len(out_of_bounds)}/{len(world.profiles)} "
        f"individuals within weekly bounds, mean {mean_got:.3f} vs {mean_want:.3f} "
        f"(drift {drift:.4f}, limit 0.03)",
    )


def test_criterion_07_continuity_identity(world):
    # independent recount from the output table, per type and overall
    by_ind = defaultdict(list)
    for t in world.generated:
        by_ind[t.traveller_id].append(t)
    pairs = Counter()
    matches = Counter()
    for seq in by_ind.values():
        seq.sort(key=lambda t: (t.date, t.departure))
        for prev, cur in zip(seq, seq[1:]):
            pairs[cur.traveller_type] += 1
            if cur.o_zone == prev.d_zone:
                matches[cur.traveller_type] += 1

    validator_side = continuity_ratio(world.generated)
    ok = sum(pairs.values()) == world.stats.continuity_pairs
    ok &= sum(pairs.values()) - sum(matches.values()) == world.stats.chain_breaks
    for ttype, n_pairs in pairs.items():
        ok &= validator_side[ttype] == matches[ttype] / n_pairs

    total_pairs = world.stats.continuity_pairs
    breaks = world.stats.chain_breaks
    overall = sum(matches.values()) / sum(pairs.values())
    if breaks == 0:
        ok &= overall == 1.0
    else:
        ok &= abs(overall - (1.0 - breaks / total_pairs)) < 1e-15
    verdict(
        7,
        ok,
        f"continuity {overall:.6f} == 1 - {breaks}/{total_pairs}, "
        f"validator and generator counts agree",
    )


def test_criterion_08_support_containment(world):
    bad = 0
    for t in world.generated:
        profile = world.profiles[t.traveller_id]
        row = profile.od_counts.get(t.o_zone, {})
        entries = world.catalog.get(t.o_zone, t.d_zone)
        if t.d_zone not in row or all(e.path != t.path for e in entries):
            bad += 1
    verdict(
        8,
        bad == 0,
        f"{len(world.generated) - bad}/{len(world.generated)} trips on "
        f"historical OD support with pooled paths",
    )


def test_criterion_09_metric_self_checks():
    p = Distribution(bins=(1, 2), mass=(1.0, 0.0))
    q = Distribution(bins=(1, 2), mass=(0.0, 1.0))
    u = Distribution(bins=(1, 2), mass=(0.5, 0.5))
    checks = [
        js_divergence(u, u) == 0.0,
        abs(js_divergence(p, q) - math.log(2)) <= 1e-12,
        abs(js_divergence(p, u) - 0.2158) <= 1e-4,
        abs(js_divergence(p, u) - 0.75 * math.log(4 / 3)) <= 1e-12,
    ]
    for k in (2, 5, 24):

        class FakeTrip:
            def __init__(self, d):
                self.d_zone = d

        uniform = [FakeTrip(f"Z{i}") for i in range(k)]
        checks.append(abs(destination_entropy(uniform) - math.log(k)) <= 1e-12)
    verdict(
        9,
        all(checks),
        "JS self 0, disjoint ln 2 +/- 1e-12, point-vs-uniform 0.2158 +/- 1e-4, "
        "uniform entropy ln k +/- 1e-12",
    )


def test_criterion_10_byte_identical_reruns(cli_runs):
    a, b = cli_runs
    gen_a = (a["base"] / "out" / "generated.csv").read_bytes()
    gen_b = (b["base"] / "out" / "generated.csv").read_bytes()
    rep_a = (a["base"] / "out" / "report.csv").read_bytes()
    rep_b = (b["base"] / "out" / "report.csv").read_bytes()
    verdict(
        10,
        gen_a == gen_b and rep_a == rep_b,
        f"two seeded runs: trip tables {len(gen_a)} bytes and reports "
        f"{len(rep_a)} bytes identical",
    )


@pytest.mark.parametrize("table", sorted(DESK_SHA256))
def test_desk_bytes_pinned(cli_runs, table):
    digest = hashlib.sha256((cli_runs[0]["base"] / table).read_bytes()).hexdigest()
    assert digest == DESK_SHA256[table]


# generated.csv of the same CLI run under the product's default hourly
# partition, whose 24 slots cut the day in more places than desk's six.
HOURLY_GENERATED_SHA256 = (
    "74694bef79979bac4a5c36e60f67ec46c83912444f0b322611cba184ae90f5da"
)


def test_hourly_generated_bytes_pinned(tmp_path):
    cfg = tmp_path / "run.yaml"
    desk_partition = "partition: [1, 241, 481, 721, 961, 1201]\n"
    assert desk_partition in CONFIG
    cfg.write_text(CONFIG.replace(desk_partition, "partition: hourly\n"))
    for command in ("corpus", "ingest", "generate"):
        assert main([command, "-c", str(cfg)]) == 0, command
    generated = (tmp_path / "out" / "generated.csv").read_bytes()
    assert hashlib.sha256(generated).hexdigest() == HOURLY_GENERATED_SHA256


def test_midnight_spills_counted(world):
    # bench/run.py's traced desk run counts the same 2 trips ending past
    # midnight; each was the last of its day's quota.
    assert (world.stats.midnight_spills, world.stats.spill_dropped_quota) == (2, 0)


def test_sampler_fallbacks_counted(world):
    # bench/run.py's traced desk run counts the same fallbacks: no all-zero
    # slot draw, and 1,982 durations drawn from the path-only pool.
    assert (world.stats.degenerate_slot_draws, world.stats.duration_fallbacks) == (0, 1982)


def _generate_fresh(base, config_text):
    """`generate` in a new process; returns the bytes it wrote."""
    cfg = base / "fresh.yaml"
    cfg.write_text(config_text.replace("out/generated.csv", "out/fresh.csv"))
    subprocess.run(
        [sys.executable, "-m", "tripsynth.cli", "generate", "-c", str(cfg)], check=True
    )
    return (base / "out" / "fresh.csv").read_bytes()


def _generate_here(base, store):
    config = load_config(base / "run.yaml")
    records = generate_all(
        store.profiles, store.reference, store.catalog, store.pools, config.params,
        store.partition,
    )
    buf = io.StringIO()
    write_trips_csv(records, buf, config.epoch, store.partition, config.csv_delimiter)
    return buf.getvalue().encode()


def test_generator_caches_do_not_leak_between_runs(cli_runs, tmp_path):
    # The desk store twice, then a second store (hourly slots, other corpus
    # seed and size), all in this process: each output must equal the one a
    # fresh process writes from the same store.
    desk = cli_runs[0]["base"]
    other_config = CONFIG.replace("partition: [1, 241, 481, 721, 961, 1201]\n", "").replace(
        "  seed: 7\n", "  seed: 3\n  individuals: {commuter: 8, random: 6, passby: 4}\n"
    )
    (tmp_path / "run.yaml").write_text(other_config)
    for command in ("corpus", "ingest"):
        assert main([command, "-c", str(tmp_path / "run.yaml")]) == 0
    desk_fresh = _generate_fresh(desk, CONFIG)
    other_fresh = _generate_fresh(tmp_path, other_config)
    assert desk_fresh != other_fresh

    store = load_store(desk / "build" / "store.json")
    assert _generate_here(desk, store) == desk_fresh
    assert _generate_here(desk, store) == desk_fresh
    other = load_store(tmp_path / "build" / "store.json")
    assert _generate_here(tmp_path, other) == other_fresh


def test_pipeline_time_budget(cli_runs):
    slowest = max(run["elapsed"] for run in cli_runs)
    assert slowest < 60.0, f"pipeline took {slowest:.1f}s"
