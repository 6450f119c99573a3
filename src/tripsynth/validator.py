"""Aggregate and individual-level comparison metrics for trip tables.

All divergences use the natural logarithm. Distributions compared against
each other must be built over an identical, explicitly shared bin set.
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

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


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Kullback-Leibler divergence KL(p||q) in nats; zero-mass p bins
    contribute nothing."""
    if p.bins != q.bins:
        raise ValueError("bin-set mismatch")
    total = 0.0
    for pi, qi in zip(p.mass, q.mass):
        if pi > 0.0:
            if qi <= 0.0:
                return math.inf
            total += pi * math.log(pi / qi)
    return max(0.0, total)


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


def _filtered(trips, ttype=None, day_filter=None):
    for trip in trips:
        if ttype is not None and trip.traveller_type is not ttype:
            continue
        if day_filter is not None and not day_filter(trip.date):
            continue
        yield trip


def temporal_distribution(
    trips, granularity: int = 15, ttype=None, day_filter=None
) -> Distribution:
    """Departure-time distribution over fixed windows of `granularity`
    minutes (which must divide the day). Bin labels are 1-based window
    indices and always cover the whole day."""
    if granularity < 1 or MINUTES_PER_DAY % granularity:
        raise ValueError(f"granularity must divide {MINUTES_PER_DAY}")
    n_bins = MINUTES_PER_DAY // granularity
    counts = Counter(
        (t.departure - 1) // granularity + 1
        for t in _filtered(trips, ttype, day_filter)
    )
    return Distribution.from_counts(counts, bins=range(1, n_bins + 1))


def zone_visit_counts(trips, ttype=None) -> Counter:
    """Visits per zone: each trip touches its origin and its destination."""
    visits: Counter = Counter()
    for t in _filtered(trips, ttype):
        visits[t.o_zone] += 1
        visits[t.d_zone] += 1
    return visits


def od_pair_counts(trips, ttype=None) -> Counter:
    return Counter((t.o_zone, t.d_zone) for t in _filtered(trips, ttype))


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


def topk_zones(trips, k_fraction: float, ttype=None, universe=None) -> set:
    """The ceil(k * base) most visited zones; base defaults to the number of
    zones visited in `trips`, or pass `universe` to fix a shared base size.
    Ties resolve to lexicographically smaller zone ids."""
    return _topk(zone_visit_counts(trips, ttype), k_fraction, universe)


def topk_od(trips, k_fraction: float, ttype=None, universe=None) -> set:
    """The ceil(k * base) most frequent OD pairs, analogous to topk_zones."""
    return _topk(od_pair_counts(trips, ttype), k_fraction, universe)


def road_access_counts(trips, ttype=None) -> Counter:
    """Trips touching each road: one count per trip per distinct road in its
    path, both travel directions pooled under the road id."""
    counts: Counter = Counter()
    for t in _filtered(trips, ttype):
        for road in set(t.path):
            counts[road] += 1
    return counts


def road_access_distribution(trips, ttype=None, bins=None) -> Distribution:
    return Distribution.from_counts(road_access_counts(trips, ttype), bins=bins)


def _by_individual(trips) -> dict:
    grouped: dict = defaultdict(list)
    for t in trips:
        grouped[t.traveller_id].append(t)
    for tid in grouped:
        grouped[tid].sort(key=lambda t: (t.date, t.departure))
    return grouped


def continuity_ratio(trips) -> dict:
    """Per-type share of consecutive same-individual trip pairs whose next
    origin equals the previous destination. Individuals with fewer than two
    trips contribute no pairs; types without pairs are omitted."""
    pairs: Counter = Counter()
    continuous: Counter = Counter()
    for seq in _by_individual(trips).values():
        ttype = seq[0].traveller_type
        for prev, cur in zip(seq, seq[1:]):
            pairs[ttype] += 1
            if cur.o_zone == prev.d_zone:
                continuous[ttype] += 1
    return {t: continuous[t] / pairs[t] for t in pairs}


def destination_entropy(trips) -> float:
    """Shannon entropy (nats) of one individual's destination distribution."""
    counts = Counter(t.d_zone for t in trips)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty distribution")
    return -sum((n / total) * math.log(n / total) for n in counts.values())


def entropy_by_individual(trips) -> dict:
    return {
        tid: destination_entropy(seq) for tid, seq in sorted(_by_individual(trips).items())
    }


def daily_frequency_by_individual(trips) -> dict:
    """Mean trips per observed day for each individual, using the number of
    distinct days present in the dataset as the denominator."""
    days = {t.date for t in trips}
    if not days:
        return {}
    grouped = _by_individual(trips)
    return {tid: len(seq) / len(days) for tid, seq in sorted(grouped.items())}


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
    a number.
    """
    reference_trips = list(reference_trips)
    generated_trips = list(generated_trips)
    report = ValidationReport()

    report.add("trips", "", "reference", float(len(reference_trips)))
    report.add("trips", "", "generated", float(len(generated_trips)))

    types = [
        t
        for t in TYPE_ORDER
        if any(x.traveller_type is t for x in reference_trips)
        or any(x.traveller_type is t for x in generated_trips)
    ]

    def js_time(ttype, day_filter=None):
        p = temporal_distribution(reference_trips, granularity, ttype, day_filter)
        q = temporal_distribution(generated_trips, granularity, ttype, day_filter)
        return js_divergence(p, q)

    def js_road(ttype):
        ref_counts = road_access_counts(reference_trips, ttype)
        gen_counts = road_access_counts(generated_trips, ttype)
        bins = tuple(sorted(set(ref_counts) | set(gen_counts)))
        return js_divergence(
            Distribution.from_counts(ref_counts, bins=bins),
            Distribution.from_counts(gen_counts, bins=bins),
        )

    day_classes = ("weekday", "holiday") if day_class is not None else ()

    _cell(report, "js_time", "", "all", lambda: js_time(None))
    _cell(report, "js_road", "", "", lambda: js_road(None))

    cont_ref = continuity_ratio(reference_trips)
    cont_gen = continuity_ratio(generated_trips)

    for ttype in types:
        name = ttype.value
        _cell(report, "js_time", name, "all", lambda t=ttype: js_time(t))
        for cls in day_classes:
            _cell(
                report,
                "js_time",
                name,
                cls,
                lambda t=ttype, c=cls: js_time(t, lambda d: day_class(d) == c),
            )
        for k in topk_zone_fractions:
            _cell(
                report,
                "hotzone_overlap",
                name,
                f"{k:g}",
                lambda t=ttype, k=k: _overlap_cell(
                    zone_visit_counts(reference_trips, t),
                    zone_visit_counts(generated_trips, t),
                    k,
                ),
            )
        for k in topk_od_fractions:
            _cell(
                report,
                "od_overlap",
                name,
                f"{k:g}",
                lambda t=ttype, k=k: _overlap_cell(
                    od_pair_counts(reference_trips, t),
                    od_pair_counts(generated_trips, t),
                    k,
                ),
            )
        _cell(report, "js_road", name, "", lambda t=ttype: js_road(t))
        _cell(
            report,
            "continuity",
            name,
            "reference",
            lambda t=ttype: _require(cont_ref, t),
        )
        _cell(
            report,
            "continuity",
            name,
            "generated",
            lambda t=ttype: _require(cont_gen, t),
        )
        _cell(
            report,
            "entropy_mean",
            name,
            "reference",
            lambda t=ttype: _mean_entropy(reference_trips, t),
        )
        _cell(
            report,
            "entropy_mean",
            name,
            "generated",
            lambda t=ttype: _mean_entropy(generated_trips, t),
        )
        _cell(
            report,
            "js_frequency",
            name,
            "",
            lambda t=ttype: _js_frequency(reference_trips, generated_trips, t),
        )
        _cell(
            report,
            "js_entropy",
            name,
            "",
            lambda t=ttype: _js_entropy(reference_trips, generated_trips, t),
        )
    return report


def _require(mapping, ttype):
    if ttype not in mapping:
        raise ValueError("no consecutive trip pairs")
    return mapping[ttype]


def _overlap_cell(ref_counts: Counter, gen_counts: Counter, k: float) -> float:
    universe = len(set(ref_counts) | set(gen_counts))
    return overlap_ratio(
        _topk(ref_counts, k, universe), _topk(gen_counts, k, universe)
    )


def _mean_entropy(trips, ttype) -> float:
    values = [
        destination_entropy(seq)
        for seq in _by_individual(_filtered(trips, ttype)).values()
    ]
    if not values:
        raise ValueError("empty distribution")
    return sum(values) / len(values)


def _js_frequency(ref_trips, gen_trips, ttype) -> float:
    ref = daily_frequency_by_individual(list(_filtered(ref_trips, ttype)))
    gen = daily_frequency_by_individual(list(_filtered(gen_trips, ttype)))
    if not ref or not gen:
        raise ValueError("empty distribution")
    width, top = 0.5, 10.0
    bins = range(int(top / width) + 1)
    return js_divergence(
        Distribution.from_counts(_histogram(ref.values(), width, top), bins=bins),
        Distribution.from_counts(_histogram(gen.values(), width, top), bins=bins),
    )


def _js_entropy(ref_trips, gen_trips, ttype) -> float:
    ref = entropy_by_individual(list(_filtered(ref_trips, ttype)))
    gen = entropy_by_individual(list(_filtered(gen_trips, ttype)))
    if not ref or not gen:
        raise ValueError("empty distribution")
    width, top = 0.25, 4.0
    bins = range(int(top / width) + 1)
    return js_divergence(
        Distribution.from_counts(_histogram(ref.values(), width, top), bins=bins),
        Distribution.from_counts(_histogram(gen.values(), width, top), bins=bins),
    )
