"""Synthesis of individual-level trip tables from aggregates of a source table.

The package reads a historical trip table, folds it into per-individual
histories plus crowd-level aggregates, then regenerates a synthetic table
trip by trip: each individual's next departure slot, minute, destination,
route, and duration are drawn from weights that blend personal habit with
population-level balance feedback. Trips are drawn, not copied, but
traveller ids carry over and a drawn row can coincide with a source row,
so the output is not private by construction. A validation module compares
generated output against the source data on aggregate and individual-level
metrics.
"""
from .generator import (
    AggregationLedger,
    GenParams,
    GenStats,
    InvalidParams,
    generate_all,
)
from .ingest import (
    ParseResult,
    build_duration_pools,
    build_path_catalog,
    build_profiles,
    build_reference_aggregates,
    parse_network,
    parse_trips,
    parse_zones,
)
from .model import (
    IndividualProfile,
    TimeSlot,
    TimeSlotPartition,
    TravellerType,
    TripRecord,
    Zone,
)
from .validator import ValidationReport, build_report, js_divergence, overlap_ratio

__version__ = "0.1.0"

__all__ = [
    "AggregationLedger",
    "GenParams",
    "GenStats",
    "IndividualProfile",
    "InvalidParams",
    "ParseResult",
    "TimeSlot",
    "TimeSlotPartition",
    "TravellerType",
    "TripRecord",
    "ValidationReport",
    "Zone",
    "build_duration_pools",
    "build_path_catalog",
    "build_profiles",
    "build_reference_aggregates",
    "build_report",
    "generate_all",
    "js_divergence",
    "overlap_ratio",
    "parse_network",
    "parse_trips",
    "parse_zones",
    "__version__",
]
