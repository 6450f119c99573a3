"""Pipeline benchmark for tripsynth: ingest -> generate -> validate.

Run from the repository root:

    python3 bench/run.py --workload desk --seed 7 --seconds 30 --trace 0

`tripsynth corpus` writes the workload's input CSVs from `--seed`. With
`--trace 0` every command runs as a fresh subprocess, untraced, in rounds
of `ingest`, `generate`, `validate` (a command shorter than SAMPLE_S runs
several times a round); rounds start while less than `--seconds` have
passed, and there are at least two, so same-seed repeats are compared. With `--trace 1` one untraced round is the reference, and the
pipeline is then rerun in this process with spans around the public calls
the CLI makes into `ingest`, `cli`, `generator` and `validator`; its
`generated.csv` must match the reference byte for byte.

Every command's outputs are checked (see checks.py). Human-readable
lines come first; the last line of standard output is one JSON object.
Exit code 0 when every check passed, 1 when one failed, 2 when the program
cannot be found under ./src.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from checks import SourceIndex, check_generated, fidelity, read_rows, report_cells  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MIN_GAP, WORKLOADS, Workload  # noqa: E402

MIN_ROUNDS = 2
SAMPLE_S = 2.0
MAX_REPEATS = 4
COMMAND_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "generate_trips_per_s": "trips/s",
    "validate_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "js_time_max": "nats",
    "od_overlap_min": "share",
    "trip_count_drift": "share",
    "source_copy_share": "share",
}
# These are printed with the end-to-end set but reported in JSON with the
# per-layer set, which carries no bound. trip_count_drift and
# source_copy_share are exactly 0 on some workloads; across corpus seeds
# js_time_max spreads by about 14% of its median on desk and od_overlap_min
# by about 12% on long_window, so the acceptance tests pin fidelity instead.
# validate_s is parse-bound and on a shared 2-core host drifts by 20-35%
# over minutes: over ten runs its quartile spread reached 0.27-0.37 of the
# median on desk, beyond the largest bound allowed; pipeline_s includes it.
UNBOUNDED = ("validate_s", "js_time_max", "od_overlap_min", "trip_count_drift",
             "source_copy_share")


class ProgramMissing(RuntimeError):
    """The checkout holds no tripsynth sources to benchmark."""


def source_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / "tripsynth" / "cli.py").is_file():
        raise ProgramMissing(f"no src/tripsynth/cli.py under {root}; run from the repository root")
    return src


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Pipeline:
    """One workload's inputs, its CLI invocations, and the checks on them."""

    def __init__(self, root: Path, workload: Workload, seed: int, workdir: Path):
        self.src = source_dir(root)
        self.workload = workload
        shutil.rmtree(workdir, ignore_errors=True)
        self.workdir = workdir
        self.config = workload.write_config(workdir, seed)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.source = None
        self.generated_digest = None
        self.report_digest = None
        self.rows = []
        self.fidelity = None
        self.trips = 0

    def path(self, key: str) -> Path:
        return self.workdir / self.workload.config(0)["paths"][key]

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)
        print(f"CHECK FAILED: {message}", file=sys.stderr, flush=True)

    def command(self, name: str):
        """Run one CLI command as a fresh process, through hwm.py.

        Returns (wall seconds, peak RSS in MB, stderr text)."""
        log_path = self.workdir / f"{name}.log"
        argv = [sys.executable, str(BENCH_DIR / "hwm.py"), name, "-c", str(self.config)]
        with open(log_path, "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=log, stderr=log)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        text = log_path.read_text()
        self.attempted += 1
        if code != 0:
            tail = " | ".join(text.strip().splitlines()[-3:])
            self.fail(1, f"{name} exited {code}: {tail}")
        peak = re.search(r"^VmHWM:\s+(\d+) kB", text, re.MULTILINE)
        if peak is None:
            self.fail(1, f"{name} reported no peak RSS")
        return wall, int(peak.group(1)) / 1024.0 if peak else 0.0, text

    def make_inputs(self) -> None:
        self.command("corpus")
        self.source = SourceIndex(read_rows(self.path("trips")))

    def check_generated(self, quarantined: int) -> None:
        """Check the generated.csv one `generate` just wrote."""
        self.attempted += self.source.individuals
        if quarantined:
            self.fail(quarantined, f"{quarantined} individuals quarantined")
        path = self.path("generated")
        if not path.is_file():
            self.fail(self.source.individuals, "generated.csv missing")
            return
        digest = sha256(path)
        if self.generated_digest is None:
            self.generated_digest = digest
            self.rows = read_rows(path)
            self.trips = len(self.rows)
            if not self.rows:
                self.fail(1, "generated.csv has no trips")
            for tid, reasons in sorted(check_generated(self.source, self.rows, MIN_GAP).items()):
                self.fail(1, f"{tid}: {reasons[0]}")
        elif digest != self.generated_digest:
            self.fail(self.source.individuals, "same-seed repeat changed generated.csv")

    def check_report(self) -> None:
        """Check the report.csv one `validate` just wrote."""
        path = self.path("report")
        if not path.is_file():
            self.fail(1, "report.csv missing")
            return
        digest = sha256(path)
        if self.report_digest is None:
            self.report_digest = digest
            if self.rows:
                self.fidelity = fidelity(
                    self.source, self.rows, report_cells(path),
                    self.workload.horizon_days, self.workload.window_days,
                )
        elif digest != self.report_digest:
            self.fail(1, "same-seed repeat changed report.csv")


def _quarantined(stderr_text: str) -> int:
    return stderr_text.count("quarantined individual")


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def measure(pipe: Pipeline, seconds: float) -> dict:
    """Untraced runs: the end-to-end metrics."""
    pipe.make_inputs()
    repeats = {}

    def sample(name, check=None):
        # A command shorter than SAMPLE_S runs several times a round, so its
        # median does not rest on a few short samples.
        runs = []
        while not runs or len(runs) < repeats[name]:
            runs.append(pipe.command(name))
            repeats.setdefault(name, min(MAX_REPEATS, math.ceil(SAMPLE_S / runs[0][0])))
            if check is not None:
                check(runs[-1])
        return runs

    setup, gen, val = [], [], []
    rounds = 0
    start = time.perf_counter()
    # Whole rounds, so every command samples the same stretch of machine
    # time; at least two, so same-seed repeats are compared.
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        setup += sample("ingest")
        gen += sample("generate", lambda run: pipe.check_generated(_quarantined(run[2])))
        val += sample("validate", lambda run: pipe.check_report())
        rounds += 1

    setup_s = [w for w, _, _ in setup]
    gen_s = [w for w, _, _ in gen]
    val_s = [w for w, _, _ in val]
    rates = [pipe.trips / w for w in gen_s]
    timings = {
        "setup_s": setup_s,
        "generate_trips_per_s": rates,
        "validate_s": val_s,
    }
    for name, values in timings.items():
        print(f"  {name:<22} median {statistics.median(values):.4f} {END_TO_END_UNITS[name]}"
              f" ({_spread(values)})")
    rss = {
        name: statistics.median(r for _, r, _ in runs)
        for name, runs in (("ingest", setup), ("generate", gen), ("validate", val))
    }
    metrics = {
        "setup_s": statistics.median(setup_s),
        "generate_trips_per_s": statistics.median(rates),
        "validate_s": statistics.median(val_s),
        "pipeline_s": statistics.median(setup_s) + statistics.median(gen_s)
        + statistics.median(val_s),
        "peak_rss_mb": max(rss.values()),
    }
    metrics.update(pipe.fidelity or {})
    return metrics


# ---------------------------------------------------------------------------
# Traced run.

TYPE_NAMES = ("commuter", "stable", "random", "high_freq", "passby")


def _install(tracer: Tracer, cli, generator, model) -> None:
    """Wrap the public calls the CLI makes; counts go to tracer.counts."""
    counts = tracer.counts

    def count_parse(args, kwargs, result):
        if tracer.spans[tracer.current_root()][0] == "cli.ingest":
            counts["ingest.rows"] += len(result.records)
            counts["ingest.rows_rejected"] += len(result.errors)

    for name in ("parse_trips", "parse_zones", "parse_network", "build_profiles",
                 "build_path_catalog", "build_duration_pools",
                 "build_reference_aggregates", "save_store", "load_store",
                 "write_trips_csv", "build_report"):
        tracer.patch(cli, name, name, after=count_parse if name == "parse_trips" else None)

    def split_by_type(original):
        # One call per traveller type: each type has its own RNG stream and
        # feedback ledger, so the concatenation is the single call's output.
        def generate_all(profiles, *args, **kwargs):
            records = []
            for ttype in model.TYPE_ORDER:
                subset = {t: p for t, p in profiles.items() if p.traveller_type is ttype}
                if subset:
                    run_type = tracer.span(f"generate_all.{ttype.value}",
                                           lambda s: list(original(s, *args, **kwargs)))
                    records.extend(run_type(subset))
            return records
        return generate_all

    def gen_stats(args, kwargs, result):
        stats = kwargs.get("stats")
        if stats is None:
            tracer.missing.add("GenStats")
            return
        counts["generator.trips"] += stats.trips
        counts["generator.relocations"] += stats.relocations
        counts["generator.quarantined"] += len(stats.quarantined)

    tracer.patch(cli, "generate_all", "generate_all", after=gen_stats, wrapper=split_by_type)

    def count_slots(args, kwargs, result):
        counts["generator.slot_weights.slots"] += len(result)

    def count_minutes(args, kwargs, result):
        counts["generator.period_weights.minutes"] += len(result[0])

    def count_fallback(args, kwargs, result):
        pools, path_id, slot_id = args[:3]
        samples = getattr(pools, "samples", None)
        if samples is None:
            tracer.missing.add("DurationPool.samples")
        elif not samples.get((path_id, slot_id)):
            counts["generator.duration_fallbacks"] += 1

    def count_spill(args, kwargs, result):
        if result.departure + result.duration + MIN_GAP > 1440:
            counts["generator.midnight_spills"] += 1

    for name, after in (
        ("generate_trip", count_spill), ("daily_quota", None),
        ("slot_weights", count_slots), ("subsequent_slots", None),
        ("select_time_slot", None), ("select_time_period", None),
        ("period_weights", count_minutes), ("select_destination", None),
        ("select_path", None), ("sample_duration", count_fallback),
    ):
        tracer.patch(generator, name, name, after=after)
    ledger = getattr(generator, "AggregationLedger", None)
    if ledger is None:
        tracer.missing.add("ledger_record")
    else:
        tracer.patch(ledger, "record", "ledger_record")


def traced_pipeline(pipe: Pipeline) -> tuple:
    """One in-process pipeline under the tracer; returns (tracer, wall s)."""
    if str(pipe.src) not in sys.path:
        sys.path.insert(0, str(pipe.src))
    import tripsynth.cli as cli
    import tripsynth.generator as generator
    import tripsynth.model as model

    if Path(cli.__file__).resolve().parent.parent != pipe.src.resolve():
        raise ProgramMissing(f"imported tripsynth from {cli.__file__}, not from {pipe.src}")
    tracer = Tracer()
    _install(tracer, cli, generator, model)
    start = time.perf_counter()
    try:
        for command in ("ingest", "generate", "validate"):
            code = tracer.span(f"cli.{command}", cli.main)([command, "-c", str(pipe.config)])
            pipe.attempted += 1
            if code != 0:
                pipe.fail(1, f"traced {command} returned {code}")
    finally:
        tracer.restore()
    return tracer, time.perf_counter() - start


def layer_metrics(tracer: Tracer, pipe: Pipeline) -> tuple:
    """({metric: (value, unit)}, [absent metric names]) for one traced run."""
    total, own, calls, durations = tracer.totals()
    counts = tracer.counts
    metrics, absent = {}, []

    def put(name, unit, needs, value):
        if any(n in tracer.missing for n in needs):
            absent.append(name)
        else:
            metrics[name] = (value(), unit)

    def by_root(span_name, root):
        return sum(end - start for i, (n, _, start, end) in enumerate(tracer.spans)
                   if n == span_name and tracer.root_of(i) == root)

    put("ingest.parse_trips_s", "s", ["parse_trips"], lambda: by_root("parse_trips", "cli.ingest"))
    put("ingest.rows", "count", ["parse_trips"], lambda: counts["ingest.rows"])
    put("ingest.rows_rejected", "count", ["parse_trips"], lambda: counts["ingest.rows_rejected"])
    put("ingest.parse_aux_s", "s", ["parse_zones"],
        lambda: total["parse_zones"] + total["parse_network"])
    for name in ("build_profiles", "build_path_catalog", "build_duration_pools",
                 "build_reference_aggregates"):
        put(f"ingest.{name}_s", "s", [name], lambda n=name: total[n])
    put("cli.save_store_s", "s", ["save_store"], lambda: total["save_store"])
    put("cli.store_bytes", "bytes", [], lambda: pipe.path("store").stat().st_size)
    put("cli.load_store_s", "s", ["load_store"], lambda: total["load_store"])
    put("cli.write_trips_csv_s", "s", ["write_trips_csv"], lambda: total["write_trips_csv"])
    put("cli.generated_bytes", "bytes", [], lambda: pipe.path("generated").stat().st_size)

    put("generator.generate_all_s", "s", ["generate_all"], lambda: total["generate_all"])
    for ttype in TYPE_NAMES:
        put(f"generator.generate_all_s.{ttype}", "s", ["generate_all"],
            lambda t=ttype: total[f"generate_all.{t}"])
    put("generator.self_s", "s", ["generate_all"],
        lambda: sum(own[f"generate_all.{t}"] for t in TYPE_NAMES))
    trip_us = sorted(d * 1e6 for d in durations["generate_trip"])
    put("generator.trip_us.p50", "us", ["generate_trip"], lambda: statistics.median(trip_us))
    put("generator.trip_us.p99", "us", ["generate_trip"],
        lambda: trip_us[min(len(trip_us) - 1, int(0.99 * len(trip_us)))])
    for name in ("period_weights", "slot_weights", "select_time_slot", "select_destination",
                 "select_path", "sample_duration", "ledger_record"):
        put(f"generator.{name}_s", "s", [name], lambda n=name: total[n])
    put("generator.select_time_period.self_s", "s", ["select_time_period"],
        lambda: own["select_time_period"])
    put("generator.period_weights.minutes", "count", ["period_weights"],
        lambda: counts["generator.period_weights.minutes"])
    put("generator.slot_weights.slots", "count", ["slot_weights"],
        lambda: counts["generator.slot_weights.slots"])
    put("generator.subsequent_slots.calls", "count", ["subsequent_slots"],
        lambda: calls["subsequent_slots"])
    put("generator.daily_quota.calls", "count", ["daily_quota"], lambda: calls["daily_quota"])
    put("generator.degenerate_slot_draws", "count", ["generate_trip", "select_time_slot"],
        lambda: calls["generate_trip"] - calls["select_time_slot"])
    put("generator.duration_fallbacks", "count", ["sample_duration", "DurationPool.samples"],
        lambda: counts["generator.duration_fallbacks"])
    put("generator.midnight_spills", "count", ["generate_trip"],
        lambda: counts["generator.midnight_spills"])
    for name in ("trips", "relocations", "quarantined"):
        put(f"generator.{name}", "count", ["generate_all", "GenStats"],
            lambda n=name: counts[f"generator.{n}"])

    put("validator.parse_trips_s", "s", ["parse_trips"],
        lambda: by_root("parse_trips", "cli.validate"))
    put("validator.build_report_s", "s", ["build_report"], lambda: total["build_report"])
    cells = list(report_cells(pipe.path("report")).values())
    put("validator.report_cells", "count", [], lambda: len(cells))
    put("validator.report_cells_failed", "count", [],
        lambda: sum(1 for v in cells if not isinstance(v, float)))
    put("trace.spans", "count", [], lambda: len(tracer.spans))
    return metrics, absent


def span_cost(calls: int = 100_000) -> float:
    """Seconds a span adds to one call, measured on an empty function.

    The traced pipeline runs in one process and the untraced one in three
    fresh ones, so their wall times differ by interpreter start-up too;
    span count times this cost is the overhead estimate reported instead."""
    def empty():
        return None

    traced = Tracer().span("empty", empty)
    start = time.perf_counter()
    for _ in range(calls):
        empty()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, time.perf_counter() - start - bare) / calls


def trace(pipe: Pipeline, seconds: float) -> dict:
    """Traced runs: the per-layer metrics."""
    pipe.make_inputs()
    start = time.perf_counter()
    reference = {name: pipe.command(name) for name in ("ingest", "generate", "validate")}
    pipe.check_generated(_quarantined(reference["generate"][2]))
    pipe.check_report()
    untraced_s = sum(w for w, _, _ in reference.values())
    cost = span_cost()
    runs, absent = [], []
    last = 0.0
    while not runs or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        tracer, wall = traced_pipeline(pipe)
        pipe.check_generated(tracer.counts["generator.quarantined"])
        pipe.check_report()
        metrics, absent = layer_metrics(tracer, pipe)
        metrics["trace.overhead_share"] = (len(tracer.spans) * cost / wall, "share")
        runs.append(metrics)
        last = time.perf_counter() - round_start
    result = {name: (statistics.median(r[name][0] for r in runs), unit)
              for name, (_, unit) in runs[0].items()}
    for name, (_, rss, _) in reference.items():
        result[f"cli.{name}.peak_rss_mb"] = (rss, "MB")
    result["validate_s"] = (reference["validate"][0], "s")
    for name, value in (pipe.fidelity or {}).items():
        result[name] = (value, END_TO_END_UNITS[name])
    print(f"  traced pipelines: {len(runs)}, in-process, {wall:.3f} s the last;"
          f" untraced reference {untraced_s:.3f} s as three processes;"
          f" {cost * 1e6:.3f} us per span")
    if absent:
        print(f"  absent (wrapped name missing from the program): {', '.join(absent)}")
    return result


def run_workload(root: Path, workload: Workload, seed: int, seconds: float,
                 traced: bool) -> dict:
    """Run one workload and return the result object printed as JSON."""
    workdir = BENCH_DIR / ".work" / f"{workload.name}-{seed}-{int(traced)}"
    pipe = Pipeline(root, workload, seed, workdir)
    print(f"workload {workload.name}, seed {seed}, {'traced' if traced else 'untraced'}",
          flush=True)
    if traced:
        metrics = trace(pipe, seconds)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in measure(pipe, seconds).items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    if not traced:
        metrics = {k: v for k, v in metrics.items() if k not in UNBOUNDED}
    correct = not pipe.problems
    print(f"  checks: {'passed' if correct else 'FAILED'}; "
          f"{pipe.failed} of {pipe.attempted} operations failed")
    return {
        "correct": correct,
        "attempted": pipe.attempted,
        "failed": pipe.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="corpus seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the repeated part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running command is killed and
    # reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run_workload(Path.cwd(), WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
