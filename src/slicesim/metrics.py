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


def tar(records: list[AcceptanceRecord], phase: int,
        phase_size: int = DEFAULT_PHASE_SIZE) -> float | None:
    """Acceptance ratio within one phase; None while the phase is partial."""
    _check_phase(phase, phase_size)
    start, end = phase * phase_size, (phase + 1) * phase_size
    if len(records) < end:
        return None
    return sum(r.accepted for r in records[start:end]) / phase_size


def _check_phase(phase: int, phase_size: int) -> None:
    if phase < 0 or phase_size < 1:
        raise ConfigurationError("phase must be >= 0 and phase_size >= 1")


def complete_phases(records: list[AcceptanceRecord],
                    phase_size: int = DEFAULT_PHASE_SIZE) -> int:
    _check_phase(0, phase_size)
    return len(records) // phase_size


def phase_reaching(tars, level) -> int | None:
    """The first phase (1-based) whose acceptance reaches level, or None
    if none does. A run that collapses reaches nothing, and so does a
    run with no complete phase."""
    return next((p + 1 for p, t in enumerate(tars) if t >= level), None)


def per_class_tar(records: list[AcceptanceRecord], class_id: int, phase: int,
                  phase_size: int = DEFAULT_PHASE_SIZE) -> float | None:
    """Class-filtered ratio within one phase; None for partial phases and
    for classes with no arrival in the phase."""
    _check_phase(phase, phase_size)
    if len(records) < (phase + 1) * phase_size:
        return None
    window = records[phase * phase_size:(phase + 1) * phase_size]
    mine = [r for r in window if r.class_id == class_id]
    if not mine:
        return None
    return sum(r.accepted for r in mine) / len(mine)


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


def write_phase_csv(records: list[AcceptanceRecord], path,
                    phase_size: int = DEFAULT_PHASE_SIZE,
                    class_ids: Iterable[int] = ()) -> None:
    class_ids = list(class_ids)
    with open(path, "w") as fh:
        cols = "".join(f",tar_class_{c}" for c in class_ids)
        fh.write(f"phase,tar{cols}\n")
        for phase in range(complete_phases(records, phase_size)):
            row = [str(phase), _fmt(tar(records, phase, phase_size))]
            for c in class_ids:
                value = per_class_tar(records, c, phase, phase_size)
                row.append("" if value is None else _fmt(value))
            fh.write(",".join(row) + "\n")


def plot_data(records: list[AcceptanceRecord],
              phase_size: int = DEFAULT_PHASE_SIZE,
              class_ids: Iterable[int] = ()) -> dict:
    """Plot-ready series: {name: [[x, y], ...]}."""
    series = {"gar": [[r.index, g] for r, g
                      in zip(records, gar_series(records))]}
    phases = complete_phases(records, phase_size)
    series["tar"] = [[p, tar(records, p, phase_size)] for p in range(phases)]
    for c in class_ids:
        pts = []
        for p in range(phases):
            value = per_class_tar(records, c, p, phase_size)
            if value is not None:
                pts.append([p, value])
        series[f"tar_class_{c}"] = pts
    return series


def write_plot_json(records: list[AcceptanceRecord], path,
                    phase_size: int = DEFAULT_PHASE_SIZE,
                    class_ids: Iterable[int] = ()) -> None:
    with open(path, "w") as fh:
        json.dump(plot_data(records, phase_size, class_ids), fh, indent=2)
        fh.write("\n")
