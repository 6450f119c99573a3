"""Output checks and fidelity figures, computed from the CSVs alone.

Nothing here imports tripsynth: the checks restate the generator's
invariants from the source table, so a defect in the program's own parsing
or folding cannot hide itself.
"""
from __future__ import annotations

import csv
import datetime as dt
from collections import Counter, defaultdict
from pathlib import Path

# Columns that make a generated row a copy of a source row.
COPY_KEY = ("traveller_ID", "Date", "Departure_time", "O_zone", "D_zone", "Path", "Duration")


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _absolute_minute(row) -> int:
    day = dt.date.fromisoformat(row["Date"]).toordinal()
    hh, _, mm = row["Departure_time"].partition(":")
    return day * 1440 + int(hh) * 60 + int(mm)


def _most_frequent(counts: Counter) -> str:
    """Highest count; the lexicographically smallest zone wins ties."""
    return max(sorted(counts), key=counts.__getitem__)


class SourceIndex:
    """What each individual, and the crowd, did in the source table."""

    def __init__(self, rows):
        self.od = defaultdict(set)
        self.paths = defaultdict(set)
        origins = defaultdict(Counter)
        touched = defaultdict(Counter)
        for r in rows:
            tid, o, d = r["traveller_ID"], r["O_zone"], r["D_zone"]
            self.od[tid].add((o, d))
            self.paths[(o, d)].add(r["Path"])
            origins[tid][o] += 1
            touched[tid][o] += 1
            touched[tid][d] += 1
        self.individuals = len(origins)
        self.trips = len(rows)
        self.relocation_origin = {t: _most_frequent(c) for t, c in origins.items()}
        self.start_zone = {t: _most_frequent(c) for t, c in touched.items()}
        self.copy_keys = {tuple(r[k] for k in COPY_KEY) for r in rows}


def check_generated(source: SourceIndex, rows, min_gap: int) -> dict:
    """Return {traveller id: [reasons]} for every individual that breaks an
    invariant; an empty dict means the table passed."""
    failures = defaultdict(list)
    by_individual = defaultdict(list)
    for r in rows:
        by_individual[r["traveller_ID"]].append(r)
    for tid, trips in by_individual.items():
        if tid not in source.relocation_origin:
            failures[tid].append("individual absent from the source")
            continue
        expected = source.start_zone[tid]
        ready = None
        for r in trips:
            o, d = r["O_zone"], r["D_zone"]
            start = _absolute_minute(r)
            if ready is not None and start < ready:
                failures[tid].append(f"departs {r['Date']} {r['Departure_time']} before the previous trip allows")
            if o not in (expected, source.relocation_origin[tid]):
                failures[tid].append(f"origin {o} is neither {expected} nor the relocation origin")
            if (o, d) not in source.od[tid]:
                failures[tid].append(f"OD pair ({o}, {d}) not in the individual's source rows")
            elif r["Path"] not in source.paths[(o, d)]:
                failures[tid].append(f"path {r['Path']} not in the source pool for ({o}, {d})")
            ready = start + int(r["Duration"]) + min_gap
            expected = d
    return dict(failures)


def copy_share(source: SourceIndex, rows) -> float:
    """Share of generated rows equal to some source row on COPY_KEY."""
    copies = sum(1 for r in rows if tuple(r[k] for k in COPY_KEY) in source.copy_keys)
    return copies / len(rows)


def report_cells(path: Path) -> dict:
    """{(metric, type, param): value} from report.csv; a cell the validator
    could not compute keeps its text."""
    cells = {}
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    for metric, ttype, param, value in csv.reader(lines[1:]):
        try:
            cells[(metric, ttype, param)] = float(value)
        except ValueError:
            cells[(metric, ttype, param)] = value
    return cells


def fidelity(source: SourceIndex, rows, report: dict, horizon_days: int,
             window_days: int) -> dict:
    """The four fidelity figures of the end-to-end set."""
    js = [v for (m, t, p), v in report.items()
          if m == "js_time" and t and p == "all" and isinstance(v, float)]
    od = [v for (m, _, _), v in report.items()
          if m == "od_overlap" and isinstance(v, float)]
    expected = source.trips * horizon_days / window_days
    return {
        "js_time_max": max(js),
        "od_overlap_min": min(od),
        "trip_count_drift": abs(len(rows) / expected - 1.0),
        "source_copy_share": copy_share(source, rows),
    }
