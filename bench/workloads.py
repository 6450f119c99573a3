"""Benchmark workloads: a corpus spec and a run config per workload.

The program sees only the CSVs that `tripsynth corpus` writes and the YAML
config. The corpus seed is the benchmark's `--seed`; the generation seed is
fixed at the README's 11, so `--seed 7` on `desk` reproduces the acceptance
gate's CLI run byte for byte.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

GENERATION_SEED = 11
MIN_GAP = 1

# Four-hour slots, the grid the desk corpus is planted on.
DESK_PARTITION = [1, 241, 481, 721, 961, 1201]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    partition: object = field(default_factory=lambda: list(DESK_PARTITION))
    window_days: int = 7
    horizon_days: int = 7
    # Extra keys for the config's `corpus` section (grid_side, days,
    # individuals); empty means the desk-scale CorpusSpec defaults.
    corpus: dict = field(default_factory=dict)

    def config(self, seed: int) -> dict:
        return {
            "paths": {
                "trips": "data/trips.csv",
                "zones": "data/zones.csv",
                "network": "data/network.csv",
                "store": "build/store.json",
                "generated": "out/generated.csv",
                "report": "out/report.csv",
            },
            "window_days": self.window_days,
            "partition": self.partition,
            "generation": {
                "seed": GENERATION_SEED,
                "horizon_days": self.horizon_days,
                "min_gap": MIN_GAP,
            },
            "validation": {"granularity": 15},
            "corpus": {"seed": seed, "days": self.window_days, **self.corpus},
        }

    def write_config(self, workdir: Path, seed: int) -> Path:
        """Write the run config (JSON is valid YAML) and return its path."""
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "run.yaml"
        path.write_text(json.dumps(self.config(seed), indent=1) + "\n")
        return path


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            why="paper-scale reference: 1,000 individuals, 7 days, 4-hour slots; "
                "the 240-minute draw in generator.period_weights dominates",
        ),
        Workload(
            name="hourly",
            why="desk corpus under the default hourly partition; slot weighting "
                "is about 45% of generate, so slot-factor changes show here",
            partition="hourly",
        ),
        Workload(
            name="long_window",
            why="28 source days and a 1-day horizon; ingest and validate dominate, "
                "so generator-only changes should show no change",
            window_days=28,
            horizon_days=1,
        ),
    )
}
