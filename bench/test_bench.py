"""Tests for the benchmark itself.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""
import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from checks import SourceIndex, check_generated, read_rows  # noqa: E402
from workloads import MIN_GAP, WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = Workload(
    name="tiny",
    why="test corpus",
    window_days=2,
    horizon_days=2,
    corpus={
        "grid_side": 3,
        "individuals": {t: 4 for t in run.TYPE_NAMES},
    },
)

# generated.csv of the acceptance gate's CLI run (corpus seed 7, seed 11).
DESK_SEED7_SHA256 = "5a4d720946358351d32c369fffe24ca5a309a8565d82343fa5f1eb161a611b63"


def _run(traced, monkeypatch, capsys):
    """run.py's main on the tiny workload; returns (last-line JSON, stdout)."""
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", TINY.name, "--seed", "3", "--seconds", "0",
                     "--trace", str(int(traced))])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1]), out


def _assert_metrics(result, out, declared):
    assert result["correct"], out
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} " in out and f" {m['unit']}" in out


def test_untraced_run_prints_every_end_to_end_metric(monkeypatch, capsys):
    result, out = _run(False, monkeypatch, capsys)
    _assert_metrics(result, out, SPEC["end_to_end"])
    for name, unit in run.END_TO_END_UNITS.items():
        assert f"{name} " in out and f" {unit}" in out


def test_traced_run_prints_every_per_layer_metric(monkeypatch, capsys):
    result, out = _run(True, monkeypatch, capsys)
    _assert_metrics(result, out, SPEC["per_layer"])
    assert "absent" not in out


def _corrupt(path: Path, source: SourceIndex) -> None:
    """Give the first trip an origin its individual may not start from, and
    duplicate the middle row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    tid, o_col = header.index("traveller_ID"), header.index("O_zone")
    first = body[0]
    allowed = {source.start_zone[first[tid]], source.relocation_origin[first[tid]]}
    first[o_col] = min(set(source.start_zone.values()) - allowed)
    body.insert(len(body) // 2, list(body[len(body) // 2]))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + body)


def test_corrupted_output_fails_the_checks(capsys):
    run.run_workload(ROOT, TINY, seed=3, seconds=0, traced=False)
    workdir = BENCH_DIR / ".work" / "tiny-3-0"
    generated = workdir / "out" / "generated.csv"
    source = SourceIndex(read_rows(workdir / "data" / "trips.csv"))
    assert check_generated(source, read_rows(generated), MIN_GAP) == {}
    _corrupt(generated, source)
    rows = read_rows(generated)
    broken = check_generated(source, rows, MIN_GAP)
    assert rows[0]["traveller_ID"] in broken
    assert rows[len(rows) // 2]["traveller_ID"] in broken


def test_corrupted_output_fails_the_run(monkeypatch, capsys):
    command = run.Pipeline.command

    def corrupting(self, name):
        outcome = command(self, name)
        if name == "generate":
            _corrupt(self.path("generated"), self.source)
        return outcome

    monkeypatch.setattr(run.Pipeline, "command", corrupting)
    result = run.run_workload(ROOT, TINY, seed=3, seconds=0, traced=False)
    assert not result["correct"]
    assert result["failed"] >= 2


def test_desk_seed_7_reproduces_the_acceptance_bytes():
    pipe = run.Pipeline(ROOT, WORKLOADS["desk"], 7, BENCH_DIR / ".work" / "desk-crosscheck")
    pipe.make_inputs()
    pipe.command("ingest")
    pipe.command("generate")
    assert pipe.failed == 0, pipe.problems
    assert run.sha256(pipe.path("generated")) == DESK_SEED7_SHA256


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_workloads():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
