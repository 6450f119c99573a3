"""Aggregate and individual-level comparison metrics for trip tables.

All divergences use the natural logarithm. Distributions compared against
each other must be built over an identical, explicitly shared bin set.
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import attrgetter

from .model import MINUTES_PER_DAY, TYPE_ORDER


@dataclass(frozen=True)
class Distribution:
    """A discrete probability distribution over labelled bins."""

    bins: tuple
    mass: tuple

    def __post_init__(self):
        if len(self.bins) != len(self.mass):
            raise ValueError("bins and mass differ in length")
        if any(m < 0 for m in self.mass):
            raise ValueError("negative mass")
        total = sum(self.mass)
        if self.mass and abs(total - 1.0) > 1e-9:
            raise ValueError(f"mass sums to {total}, not 1")

    @classmethod
    def from_counts(cls, counts, bins=None) -> "Distribution":
        """Normalize a count mapping. `bins` forces a common support (counts
        outside it are rejected); defaults to the sorted observed keys."""
        if bins is None:
            bins = tuple(sorted(counts))
        else:
            bins = tuple(bins)
            unknown = set(counts) - set(bins)
            if unknown:
                raise ValueError(f"counts outside the bin set: {sorted(unknown)[:5]}")
        total = sum(counts.values())
        if total <= 0:
            raise ValueError("empty distribution")
        return cls(bins=bins, mass=tuple(counts.get(b, 0) / total for b in bins))

    def as_dict(self) -> dict:
        return dict(zip(self.bins, self.mass))


def js_divergence(p: Distribution, q: Distribution) -> float:
    """Jensen-Shannon divergence in nats: the mean KL of each side against
    the midpoint mixture. Symmetric, finite, bounded by ln 2."""
    if p.bins != q.bins:
        raise ValueError("bin-set mismatch")
    total = 0.0
    for pi, qi in zip(p.mass, q.mass):
        mi = 0.5 * (pi + qi)
        if pi > 0.0:
            total += 0.5 * pi * math.log(pi / mi)
        if qi > 0.0:
            total += 0.5 * qi * math.log(qi / mi)
    return max(0.0, total)


def overlap_ratio(observed: set, generated: set) -> float:
    """Shared fraction of two equally sized label sets."""
    if len(observed) != len(generated):
        raise ValueError(
            f"sets differ in size: {len(observed)} vs {len(generated)}"
        )
    if not observed:
        raise ValueError("empty set")
    return len(observed & generated) / len(observed)


_TIME_ORDER = attrgetter("date", "departure")


def _window_count(granularity: int) -> int:
    if granularity < 1 or MINUTES_PER_DAY % granularity:
        raise ValueError(f"granularity must divide {MINUTES_PER_DAY}")
    return MINUTES_PER_DAY // granularity


def _topk(counts: Counter, k_fraction: float, universe=None) -> set:
    if not 0.0 < k_fraction <= 1.0:
        raise ValueError(f"k fraction out of (0, 1]: {k_fraction}")
    if not counts:
        raise ValueError("empty distribution")
    base = len(counts) if universe is None else universe
    n = math.ceil(k_fraction * base)
    ranked = sorted(counts, key=lambda key: (-counts[key], key))
    if n > len(ranked):
        raise ValueError(f"only {len(ranked)} ranked labels for top-{n} request")
    return set(ranked[:n])


def _by_type_and_individual(trips) -> dict:
    """{traveller type: {traveller id: trips}} from one scan. Each sequence
    is in (date, departure) order, and individuals keep their first-seen
    order within a type."""
    grouped: dict = defaultdict(lambda: defaultdict(list))
    for t in trips:
        grouped[t.traveller_type][t.traveller_id].append(t)
    for by_id in grouped.values():
        for seq in by_id.values():
            seq.sort(key=_TIME_ORDER)
    return grouped


def destination_entropy(trips) -> float:
    """Shannon entropy (nats) of one individual's destination distribution."""
    counts = Counter(t.d_zone for t in trips)
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


@dataclass
class _TypeCounts:
    """One traveller type's trips in one table, reduced to what the report
    cells read."""

    windows: Counter  # (day, window of the day) -> departures
    roads: Counter  # road -> trips touching it
    visits: Counter  # zone -> trip ends
    ods: Counter  # (origin, destination) -> trips
    days: set  # days with a trip
    entropies: dict  # traveller id -> destination entropy
    frequencies: dict  # traveller id -> trips per day in `days`
    pairs: int  # consecutive trip pairs within an individual's sequence
    continuous: int  # pairs whose next origin is the previous destination

    def continuity(self) -> float:
        if not self.pairs:
            raise ValueError("no consecutive trip pairs")
        return self.continuous / self.pairs


def _count_type(individuals: dict, granularity: int) -> _TypeCounts:
    """Count one type's per-individual sequences. Roads are counted once per
    distinct path, and zone visits come from the OD counts."""
    trips = [t for seq in individuals.values() for t in seq]
    windows = Counter([(t.date, (t.departure - 1) // granularity + 1) for t in trips])
    paths = Counter([t.path for t in trips])
    ods = Counter([(t.o_zone, t.d_zone) for t in trips])
    days = {day for day, _ in windows}
    roads: Counter = Counter()
    for path, n in paths.items():
        for road in set(path):
            roads[road] += n
    visits: Counter = Counter()
    for (o, d), n in ods.items():
        visits[o] += n
        visits[d] += n
    return _TypeCounts(
        windows=windows,
        roads=roads,
        visits=visits,
        ods=ods,
        days=days,
        entropies={tid: destination_entropy(seq) for tid, seq in individuals.items()},
        frequencies={tid: len(seq) / len(days) for tid, seq in individuals.items()},
        pairs=len(trips) - len(individuals),
        continuous=sum(
            cur.o_zone == prev.d_zone
            for seq in individuals.values()
            for prev, cur in zip(seq, seq[1:])
        ),
    )


def _window_distribution(windows: Counter, n_windows: int, days=None) -> Distribution:
    counts: Counter = Counter()
    for (day, window), n in windows.items():
        if days is None or day in days:
            counts[window] += n
    return Distribution.from_counts(counts, bins=range(1, n_windows + 1))


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
    a number. A granularity that does not divide the day is a ValueError.

    A row counts under its own type, and continuity runs within each (type,
    traveller) sequence: pass records with one type per traveller, as
    parse_trips returns them, for per-traveller figures. Each table is
    grouped by type and individual once; every cell reads the integer
    counts of that one scan, and the all-type cells sum the per-type
    counts.
    """
    n_windows = _window_count(granularity)
    reference_trips = list(reference_trips)
    generated_trips = list(generated_trips)
    report = ValidationReport()

    report.add("trips", "", "reference", float(len(reference_trips)))
    report.add("trips", "", "generated", float(len(generated_trips)))

    ref_groups = _by_type_and_individual(reference_trips)
    gen_groups = _by_type_and_individual(generated_trips)
    types = [t for t in TYPE_ORDER if t in ref_groups or t in gen_groups]
    ref = {t: _count_type(ref_groups.get(t, {}), granularity) for t in types}
    gen = {t: _count_type(gen_groups.get(t, {}), granularity) for t in types}

    def total(side, field) -> Counter:
        counts: Counter = Counter()
        for type_counts in side.values():
            counts.update(getattr(type_counts, field))
        return counts

    day_classes = ("weekday", "holiday") if day_class is not None else ()
    class_days: dict = defaultdict(set)
    if day_class is not None:
        for day in set().union(*(c.days for side in (ref, gen) for c in side.values())):
            class_days[day_class(day)].add(day)

    def js_time(ref_windows, gen_windows, days=None):
        p = _window_distribution(ref_windows, n_windows, days)
        q = _window_distribution(gen_windows, n_windows, days)
        return js_divergence(p, q)

    def js_road(ref_counts, gen_counts):
        bins = tuple(sorted(set(ref_counts) | set(gen_counts)))
        return js_divergence(
            Distribution.from_counts(ref_counts, bins=bins),
            Distribution.from_counts(gen_counts, bins=bins),
        )

    _cell(report, "js_time", "", "all",
          lambda: js_time(total(ref, "windows"), total(gen, "windows")))
    _cell(report, "js_road", "", "",
          lambda: js_road(total(ref, "roads"), total(gen, "roads")))

    for ttype in types:
        name = ttype.value
        r, g = ref[ttype], gen[ttype]
        _cell(report, "js_time", name, "all", lambda: js_time(r.windows, g.windows))
        for cls in day_classes:
            _cell(
                report,
                "js_time",
                name,
                cls,
                lambda: js_time(r.windows, g.windows, class_days[cls]),
            )
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
    if not ref or not gen:
        raise ValueError("empty distribution")
    bins = range(int(top / width) + 1)
    return js_divergence(
        Distribution.from_counts(_histogram(ref.values(), width, top), bins=bins),
        Distribution.from_counts(_histogram(gen.values(), width, top), bins=bins),
    )
