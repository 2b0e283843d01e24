"""Acceptance bookkeeping: cumulative, per-phase, and per-class ratios.

Every arrival produces one record. The cumulative ratio (accepted over
arrived) is defined for any prefix; the per-phase ratio partitions the
record stream into fixed-size phases and is only defined for phases that
have fully elapsed. Incomplete phases and classes with no arrivals
yield None rather than a silently wrong number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigurationError

DEFAULT_PHASE_SIZE = 10_000


@dataclass(frozen=True)
class AcceptanceRecord:
    index: int          # dense arrival index, 1-based
    uid: int
    class_id: int
    accepted: bool
    time: float


def gar(records: list[AcceptanceRecord], upto: int | None = None) -> float:
    """Accepted / arrived over the first `upto` records (all by default)."""
    n = len(records) if upto is None else upto
    if n < 1:
        raise ConfigurationError("cumulative ratio needs at least one arrival")
    if n > len(records):
        raise ConfigurationError(f"only {len(records)} records, asked for {n}")
    return sum(r.accepted for r in records[:n]) / n


def gar_series(records: list[AcceptanceRecord]) -> list[float]:
    """Running cumulative ratio after each arrival."""
    out = []
    accepted = 0
    for i, r in enumerate(records, start=1):
        accepted += r.accepted
        out.append(accepted / i)
    return out


def phase_table(records: list[AcceptanceRecord], phase_size: int,
                class_ids: Iterable[int] = ()
                ) -> list[tuple[float, list[float | None]]]:
    """One row per complete phase: (acceptance, [each listed class's
    acceptance, None for a class with no arrival in the phase])."""
    if phase_size < 1:
        raise ConfigurationError(f"phase_size must be >= 1, got {phase_size}")
    class_ids = list(class_ids)
    rows = []
    for start in range(0, len(records) - phase_size + 1, phase_size):
        window = records[start:start + phase_size]
        per_class = []
        for c in class_ids:
            mine = [r.accepted for r in window if r.class_id == c]
            per_class.append(sum(mine) / len(mine) if mine else None)
        rows.append((sum(r.accepted for r in window) / phase_size, per_class))
    return rows


def phase_reaching(tars, level) -> int | None:
    """The first phase (1-based) whose acceptance reaches level, or None
    if none does. A run that collapses reaches nothing, and so does a
    run with no complete phase."""
    return next((p + 1 for p, t in enumerate(tars) if t >= level), None)


# -- export -------------------------------------------------------------

def _fmt(x: float) -> str:
    # repr round-trips float64 exactly, keeping regenerated CSVs bit-identical
    return repr(float(x))


def write_records_csv(records: list[AcceptanceRecord], path) -> None:
    series = gar_series(records)
    with open(path, "w") as fh:
        fh.write("arrival_index,time,class,accepted,gar_running\n")
        for r, g in zip(records, series):
            fh.write(f"{r.index},{_fmt(r.time)},{r.class_id},"
                     f"{int(r.accepted)},{_fmt(g)}\n")


def write_phase_csv(records: list[AcceptanceRecord], path, phase_size: int,
                    class_ids: Iterable[int] = ()) -> None:
    class_ids = list(class_ids)
    with open(path, "w") as fh:
        cols = "".join(f",tar_class_{c}" for c in class_ids)
        fh.write(f"phase,tar{cols}\n")
        for phase, (tar, per_class) in enumerate(
                phase_table(records, phase_size, class_ids)):
            row = [str(phase), _fmt(tar)]
            row += ["" if v is None else _fmt(v) for v in per_class]
            fh.write(",".join(row) + "\n")


def plot_data(records: list[AcceptanceRecord], phase_size: int,
              class_ids: Iterable[int] = ()) -> dict:
    """Plot-ready series: {name: [[x, y], ...]}."""
    class_ids = list(class_ids)
    table = phase_table(records, phase_size, class_ids)
    series = {"gar": [[r.index, g] for r, g
                      in zip(records, gar_series(records))],
              "tar": [[p, tar] for p, (tar, _) in enumerate(table)]}
    for i, c in enumerate(class_ids):
        series[f"tar_class_{c}"] = [[p, per_class[i]] for p, (_, per_class)
                                    in enumerate(table)
                                    if per_class[i] is not None]
    return series


def write_plot_json(records: list[AcceptanceRecord], path, phase_size: int,
                    class_ids: Iterable[int] = ()) -> None:
    with open(path, "w") as fh:
        json.dump(plot_data(records, phase_size, class_ids), fh, indent=2)
        fh.write("\n")
