"""Aggregate and individual-level comparison metrics for trip tables.

All divergences use the natural logarithm. A divergence reads two count
mappings and normalizes each over one bin set that its caller passes.
"""
from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from operator import eq

from .model import MINUTES_PER_DAY, TYPE_ORDER, TripTable, split_path


def js_divergence(p_counts, q_counts, bins) -> float:
    """Jensen-Shannon divergence in nats of two count mappings, each
    normalized over the shared `bins`: the mean KL of each side against
    the midpoint mixture. Symmetric, finite, bounded by ln 2.

    ValueError refuses a repeated bin and then, `p_counts` before
    `q_counts`, a key outside `bins`, counts summing to 0 or less, and a
    negative count."""
    bins = tuple(bins)
    bin_set = set(bins)
    if len(bin_set) != len(bins):
        raise ValueError("repeated bin")
    masses = []
    for counts in (p_counts, q_counts):
        unknown = set(counts) - bin_set
        if unknown:
            raise ValueError(f"counts outside the bin set: {sorted(unknown)[:5]}")
        total = sum(counts.values())
        if total <= 0:
            raise ValueError("empty distribution")
        if any(n < 0 for n in counts.values()):
            raise ValueError("negative count")
        masses.append([counts.get(b, 0) / total for b in bins])
    js = 0.0
    for pi, qi in zip(*masses):
        mi = 0.5 * (pi + qi)
        if pi > 0.0:
            js += 0.5 * pi * math.log(pi / mi)
        if qi > 0.0:
            js += 0.5 * qi * math.log(qi / mi)
    return max(0.0, js)


def overlap_ratio(observed: set, generated: set) -> float:
    """Shared fraction of two equally sized label sets."""
    if len(observed) != len(generated):
        raise ValueError(
            f"sets differ in size: {len(observed)} vs {len(generated)}"
        )
    if not observed:
        raise ValueError("empty set")
    return len(observed & generated) / len(observed)


def _window_count(granularity: int) -> int:
    if granularity < 1 or MINUTES_PER_DAY % granularity:
        raise ValueError(f"granularity must divide {MINUTES_PER_DAY}")
    return MINUTES_PER_DAY // granularity


def _topk(counts: Counter, k_fraction: float, universe: int) -> set:
    if not counts:
        raise ValueError("empty distribution")
    n = math.ceil(k_fraction * universe)
    ranked = sorted(counts, key=lambda key: (-counts[key], key))
    if n > len(ranked):
        raise ValueError(f"only {len(ranked)} ranked labels for top-{n} request")
    return set(ranked[:n])


def _entropy(counts: Counter) -> float:
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty distribution")
    return -sum((n / total) * math.log(n / total) for n in counts.values())


def _histogram(values, bin_width: float, top: float) -> Counter:
    counts: Counter = Counter()
    top_bin = int(top / bin_width)
    for v in values:
        counts[min(int(v / bin_width), top_bin)] += 1
    return counts


def day_class(day: int, holiday_weekdays=(5, 6), holiday_days=()) -> str:
    """Weekly rule: a day is a holiday when its position in the 7-day cycle
    is in `holiday_weekdays` or the day index itself is in `holiday_days`."""
    if day in holiday_days or day % 7 in holiday_weekdays:
        return "holiday"
    return "weekday"


class ValidationReport:
    """Ordered metric cells keyed (metric, traveller type, parameter).

    Values are floats, or a textual marker when a metric could not be
    computed for that cell.
    """

    HEADER = "metric,type,param,value"

    def __init__(self):
        self._cells: dict = {}

    def add(self, metric: str, ttype: str = "", param: str = "", value=None) -> None:
        self._cells[(metric, ttype, param)] = value

    def get(self, metric: str, ttype: str = "", param: str = ""):
        return self._cells[(metric, ttype, param)]

    def rows(self):
        for (metric, ttype, param), value in self._cells.items():
            yield metric, ttype, param, value

    def numeric(self, metric: str, ttype: str = "", param: str = "") -> float:
        value = self.get(metric, ttype, param)
        if not isinstance(value, (int, float)):
            raise ValueError(f"cell {(metric, ttype, param)} is not numeric: {value!r}")
        return float(value)

    def to_text(self) -> str:
        lines = [
            "# trip table validation report v1",
            "# divergences and entropies use the natural logarithm",
            self.HEADER,
        ]
        for metric, ttype, param, value in self.rows():
            if isinstance(value, float):
                rendered = f"{value:.10g}"
            else:
                rendered = str(value)
            lines.append(f"{metric},{ttype},{param},{rendered}")
        return "\n".join(lines) + "\n"


def _cell(report, metric, ttype, param, fn) -> None:
    try:
        report.add(metric, ttype, param, fn())
    except ValueError as exc:
        report.add(metric, ttype, param, str(exc))


class _TypeCounts:
    """One traveller type's trips in one table, reduced to what the report
    cells read."""

    __slots__ = ("windows", "roads", "visits", "ods", "days", "entropies", "frequencies",
                 "pairs", "continuous")

    def __init__(self):
        self.windows = defaultdict(Counter)  # day class -> {window: departures}
        self.roads = Counter()  # road -> trips touching it
        self.visits = Counter()  # zone -> trip ends
        self.ods = Counter()  # (origin, destination) -> trips
        self.days = set()  # days with a trip
        # traveller -> destination entropy, and trips per day in `days`
        self.entropies = {}
        self.frequencies = {}
        self.pairs = 0  # consecutive trip pairs within an individual's sequence
        self.continuous = 0  # pairs whose next origin is the previous destination

    def continuity(self) -> float:
        if not self.pairs:
            raise ValueError("no consecutive trip pairs")
        return self.continuous / self.pairs


def _count_types(table: TripTable, granularity: int, day_class) -> dict:
    """{traveller type: _TypeCounts} of one table, each row under its
    traveller's type and each departure under `day_class` of its day.
    Each traveller's sequence is taken in (date, departure) order, ties in
    row order, with travellers in first-seen order; roads count once per
    distinct path, and zone visits come from the OD counts."""
    names, types, date, departure = table.names, table.types, table.date, table.departure
    o_zone, d_zone = table.o_zone, table.d_zone
    ttype = array("b", map(types.__getitem__, table.traveller))
    window_of = [0] + [(m - 1) // granularity + 1 for m in range(1, MINUTES_PER_DAY + 1)]
    classes = {day: day_class(day) for day in set(date)}
    by_type: dict = defaultdict(_TypeCounts)
    windows = zip(ttype, date, map(window_of.__getitem__, departure))
    for (t, day, window), n in Counter(windows).items():
        counts = by_type[TYPE_ORDER[t]]
        counts.windows[classes[day]][window] += n
        counts.days.add(day)
    for (t, p), n in Counter(zip(ttype, table.path)).items():
        roads = by_type[TYPE_ORDER[t]].roads
        for road in set(split_path(table.paths[p])):
            roads[road] += n
    for (t, o, d), n in Counter(zip(ttype, o_zone, d_zone)).items():
        counts = by_type[TYPE_ORDER[t]]
        o, d = names[o], names[d]
        counts.ods[(o, d)] = n
        counts.visits[o] += n
        counts.visits[d] += n
    rows: dict = defaultdict(lambda: array("i"))  # traveller -> rows
    for i, tid in enumerate(table.traveller):
        rows[tid].append(i)
    for tid, seq in rows.items():
        seq = sorted(seq, key=lambda i: date[i] * MINUTES_PER_DAY + departure[i])
        counts = by_type[TYPE_ORDER[types[tid]]]
        counts.entropies[tid] = _entropy(Counter(map(d_zone.__getitem__, seq)))
        counts.frequencies[tid] = len(seq) / len(counts.days)
        counts.pairs += len(seq) - 1
        counts.continuous += sum(map(eq, map(o_zone.__getitem__, seq[1:]),
                                     map(d_zone.__getitem__, seq)))
    return by_type


def build_report(
    reference_trips,
    generated_trips,
    *,
    granularity: int = 15,
    day_class=day_class,
    topk_zone_fractions=(0.10,),
    topk_od_fractions=(0.50,),
) -> ValidationReport:
    """Compare a generated trip table against its reference.

    Emits, per traveller type present in either table: temporal divergences
    (overall and per day class), hot-zone and OD top-k overlaps, road-access
    divergence, continuity ratios, destination-entropy and daily-frequency
    summaries. Cells that cannot be computed carry the error text instead of
    a number. A granularity that does not divide the day and a top-k
    fraction outside (0, 1] are ValueErrors, raised before any counting.

    Each table is a TripTable, or TripRecords packed into one; a row
    counts under its traveller's type in the table, and continuity runs
    within each traveller's sequence. Each table's columns are counted
    once; every cell reads those integer counts, and the all-type cells
    sum the per-type counts.
    """
    n_windows = _window_count(granularity)
    for k in (*topk_zone_fractions, *topk_od_fractions):
        if not 0.0 < k <= 1.0:
            raise ValueError(f"k fraction out of (0, 1]: {k}")
    reference = TripTable.of(reference_trips)
    generated = TripTable.of(generated_trips)
    report = ValidationReport()

    report.add("trips", "", "reference", float(len(reference)))
    report.add("trips", "", "generated", float(len(generated)))

    # Both map each type to its counts, empty ones made on first lookup.
    ref = _count_types(reference, granularity, day_class)
    gen = _count_types(generated, granularity, day_class)
    types = [t for t in TYPE_ORDER if t in ref or t in gen]

    def total(counters) -> Counter:
        counts: Counter = Counter()
        for c in counters:
            counts.update(c)
        return counts

    def all_windows(*type_counts) -> Counter:
        return total(w for c in type_counts for w in c.windows.values())

    def js_time(ref_windows, gen_windows):
        return js_divergence(ref_windows, gen_windows, range(1, n_windows + 1))

    def js_road(ref_counts, gen_counts):
        return js_divergence(ref_counts, gen_counts, sorted(set(ref_counts) | set(gen_counts)))

    _cell(report, "js_time", "", "all",
          lambda: js_time(all_windows(*ref.values()), all_windows(*gen.values())))
    _cell(report, "js_road", "", "",
          lambda: js_road(total(c.roads for c in ref.values()),
                          total(c.roads for c in gen.values())))

    for ttype in types:
        name = ttype.value
        r, g = ref[ttype], gen[ttype]
        _cell(report, "js_time", name, "all", lambda: js_time(all_windows(r), all_windows(g)))
        for cls in ("weekday", "holiday"):
            _cell(report, "js_time", name, cls, lambda: js_time(r.windows[cls], g.windows[cls]))
        for k in topk_zone_fractions:
            _cell(report, "hotzone_overlap", name, f"{k:g}",
                  lambda: _overlap_cell(r.visits, g.visits, k))
        for k in topk_od_fractions:
            _cell(report, "od_overlap", name, f"{k:g}",
                  lambda: _overlap_cell(r.ods, g.ods, k))
        _cell(report, "js_road", name, "", lambda: js_road(r.roads, g.roads))
        _cell(report, "continuity", name, "reference", r.continuity)
        _cell(report, "continuity", name, "generated", g.continuity)
        _cell(report, "entropy_mean", name, "reference", lambda: _mean(r.entropies))
        _cell(report, "entropy_mean", name, "generated", lambda: _mean(g.entropies))
        _cell(report, "js_frequency", name, "",
              lambda: _js_histograms(r.frequencies, g.frequencies, 0.5, 10.0))
        _cell(report, "js_entropy", name, "",
              lambda: _js_histograms(r.entropies, g.entropies, 0.25, 4.0))
    return report


def _overlap_cell(ref_counts: Counter, gen_counts: Counter, k: float) -> float:
    universe = len(set(ref_counts) | set(gen_counts))
    return overlap_ratio(
        _topk(ref_counts, k, universe), _topk(gen_counts, k, universe)
    )


def _mean(per_individual: dict) -> float:
    """Mean over individuals, summed in their first-seen order."""
    values = list(per_individual.values())
    if not values:
        raise ValueError("empty distribution")
    return sum(values) / len(values)


def _js_histograms(ref: dict, gen: dict, width: float, top: float) -> float:
    """JS divergence of two per-individual value histograms with bins of
    `width`, everything at or above `top` pooled in the last bin."""
    return js_divergence(_histogram(ref.values(), width, top),
                         _histogram(gen.values(), width, top), range(int(top / width) + 1))
