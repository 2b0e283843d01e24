"""Slice request classes, the time-varying load model, and event generation.

Two arrival regimes exist per class: a constant rate (static classes) and a
sinusoidal-squared rate

    rate(t) = amplitude * sin^2(pi * t / period)

for dynamic classes. The per-class offered load on resource j is

    load_j(t) = (1 / C_j) * (rate(t) / mu) * units_j

where C_j is the substrate's total capacity of j, 1/mu the mean lifetime
and units_j the resource units one request of the class occupies. The
global load is the sum over classes and stays within [0, 1] as long as
every dynamic amplitude respects  amplitude <= C_j * mu / units_j.

Arrival streams are sampled by thinning a homogeneous Poisson process at
the rate bound; each class owns an independent RNG substream derived from
the master seed, so adding or removing a class never perturbs the others.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .errors import (ConfigurationError, FieldError, ScenarioError,
                     check_fields, finite_number, whole_number)

RESOURCES = ("cpu", "ram", "bw")

FORECAST_POINTS = 100


@dataclass(frozen=True)
class StaticArrival:
    rate: float

    def __post_init__(self):
        check_fields(self)
        if self.rate < 0:
            raise FieldError(self, "rate", "must be >= 0")


@dataclass(frozen=True)
class DynamicArrival:
    amplitude: float
    period: float

    def __post_init__(self):
        check_fields(self)
        if self.amplitude < 0:
            raise FieldError(self, "amplitude", "must be >= 0")
        if self.period <= 0:
            raise FieldError(self, "period", "must be > 0")


@dataclass(frozen=True)
class SliceClass:
    """A slice request template: chain length, per-unit demands, traffic law."""
    id: int
    vnf_count: int
    req_cpu: float
    req_ram: float
    req_bw: float
    mean_lifetime: float
    arrival: StaticArrival | DynamicArrival
    name: str = ""

    def __post_init__(self):
        check_fields(self)
        # the id keys the class's random substream and an int64 column
        if self.id >= 2 ** 63:
            raise FieldError(self, "id", "int too large: must be < 2**63")
        if self.vnf_count < 1:
            raise FieldError(self, "vnf_count", "must be >= 1")
        for name in ("req_cpu", "req_ram", "req_bw", "mean_lifetime"):
            if getattr(self, name) <= 0:
                raise FieldError(self, name, "must be > 0")

    @property
    def is_dynamic(self) -> bool:
        return isinstance(self.arrival, DynamicArrival)

    def resource_units(self, resource: str) -> float:
        """Total units of a resource one request of this class occupies."""
        if resource == "cpu":
            return self.vnf_count * self.req_cpu
        if resource == "ram":
            return self.vnf_count * self.req_ram
        if resource == "bw":
            return (self.vnf_count - 1) * self.req_bw
        raise KeyError(f"unknown resource {resource!r}")

    def rate_bound(self) -> float:
        return self.arrival.amplitude if self.is_dynamic else self.arrival.rate


def arrival_rate(cls: SliceClass, t):
    """Arrival intensity of one class at time t (scalar or array)."""
    if cls.is_dynamic:
        return cls.arrival.amplitude * np.sin(np.pi * np.asarray(t, dtype=np.float64)
                                              / cls.arrival.period) ** 2
    return np.full_like(np.asarray(t, dtype=np.float64), cls.arrival.rate) \
        if np.ndim(t) else cls.arrival.rate


@dataclass(frozen=True)
class SliceRequest:
    """One arrival event: a VNF chain, with demands copied from its class,
    that arrives at `time`. The matching Departure is the only record of
    how long it holds its resources."""
    uid: int
    class_id: int
    time: float
    vnfs: tuple[tuple[float, float], ...]  # (req_cpu, req_ram) per VNF
    vls: tuple[float, ...]                 # req_bw of VL (v-1, v), v = 2..|V|

    def __post_init__(self):
        if len(self.vls) != len(self.vnfs) - 1:
            raise ConfigurationError("need exactly |V| - 1 virtual links")

    @property
    def vnf_count(self) -> int:
        return len(self.vnfs)


def request_from_class(cls: SliceClass, uid: int, time: float) -> SliceRequest:
    return SliceRequest(
        uid=uid, class_id=cls.id, time=time,
        vnfs=((cls.req_cpu, cls.req_ram),) * cls.vnf_count,
        vls=(cls.req_bw,) * (cls.vnf_count - 1),
    )


class LoadModel:
    """Offered-load bookkeeping for a set of classes on a given capacity."""

    def __init__(self, classes: Iterable[SliceClass], total_capacity: dict[str, float]):
        self.classes = list(classes)
        self.total_capacity = dict(total_capacity)
        ids = [c.id for c in self.classes]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("class ids must be unique")
        for j in RESOURCES:
            if self.total_capacity.get(j, 0.0) <= 0:
                raise ConfigurationError(f"total capacity of {j!r} must be > 0")
        for cls in self.classes:
            self.check_amplitude_bound(cls)

    @classmethod
    def from_network(cls, classes: Iterable[SliceClass], net) -> "LoadModel":
        caps = {j: net.total_capacity(j) for j in RESOURCES}
        return cls(classes, caps)

    def check_amplitude_bound(self, cls: SliceClass) -> None:
        """Reject dynamic amplitudes that would push a per-class load above
        1. A resource the class holds none of (bw, for one VNF) sets no
        bound."""
        if not cls.is_dynamic:
            return
        mu = 1.0 / cls.mean_lifetime
        for j in RESOURCES:
            units = cls.resource_units(j)
            if units == 0:
                continue
            bound = self.total_capacity[j] * mu / units
            if cls.arrival.amplitude > bound + 1e-12:
                raise FieldError(
                    cls.arrival, "amplitude", f"{cls.arrival.amplitude} "
                    f"exceeds load bound {bound:.6g} for resource {j!r}")

    def class_load(self, cls: SliceClass, resource: str, t):
        """Offered load fraction of one class on one resource at time t."""
        units = cls.resource_units(resource)
        mean_in_system = arrival_rate(cls, t) * cls.mean_lifetime
        return mean_in_system * units / self.total_capacity[resource]

    def global_load(self, resource: str, t):
        """Sum of class loads on one resource at time t (scalar or array)."""
        total = 0.0 if np.ndim(t) == 0 else np.zeros(np.shape(t), dtype=np.float64)
        for cls in self.classes:
            total = total + self.class_load(cls, resource, t)
        return total

    def load_forecast(self, resource: str, t_a: float) -> np.ndarray:
        """Load at the 100 unit-spaced instants starting at the arrival time."""
        ts = t_a + np.arange(FORECAST_POINTS, dtype=np.float64)
        return np.asarray(self.global_load(resource, ts), dtype=np.float64)

    def forecast_features(self, t_a: float) -> np.ndarray:
        """Concatenated cpu|ram|bw forecasts (300 values) for the load state."""
        return np.concatenate([self.load_forecast(j, t_a) for j in RESOURCES])


# -- event generation ---------------------------------------------------


@dataclass(frozen=True)
class Departure:
    time: float
    uid: int
    class_id: int


Event = SliceRequest | Departure


def sample_arrivals(rate_fn: Callable[[np.ndarray], np.ndarray],
                    rate_bound: float, horizon: float,
                    rng: np.random.Generator) -> list[float]:
    """Sample a non-homogeneous Poisson process on [0, horizon) by thinning.

    Candidate points come from a homogeneous process at rate_bound; each
    candidate at time t survives with probability rate_fn(t) / rate_bound.
    rate_fn takes an array of times and must never exceed rate_bound.

    Draw order: every candidate draws one exponential gap and then one
    uniform, whatever its fate, and the gap that passes the horizon draws
    no uniform. So the generator's stream does not depend on which
    candidates survive: the loop only collects the (t, u) pairs, and the
    survivors are picked in one array pass. The draws stay scalar and
    interleaved, because bulk draws would consume the stream in another
    order.
    """
    if rate_bound <= 0:
        return []
    gap = 1.0 / rate_bound
    times, draws = [], []
    t = rng.exponential(gap)
    while t < horizon:
        times.append(t)
        draws.append(rng.random())
        t += rng.exponential(gap)
    t, u = np.array(times), np.array(draws)
    return t[u * rate_bound <= rate_fn(t)].tolist()


def class_rng(seed: int, class_id: int) -> np.random.Generator:
    """Independent per-class substream of the master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(class_id,)))


def check_horizon(horizon: float) -> None:
    """A traffic horizon must be finite and positive: an infinite one never
    ends the thinning loop, and a replay cut at 0 holds no arrivals."""
    if not (finite_number(horizon) and horizon > 0):
        raise ConfigurationError("horizon must be a finite number > 0")


# Thinning draws about horizon × Σ rate_bound candidates, and the stream
# costs about 0.4 KB and 5 µs per candidate (the reference scenario's
# 152,000 take about 55 MB and 0.8 s). The bound, 13 times that, keeps a
# scenario's rate or a --horizon from asking for memory without limit.
MAX_CANDIDATES = 2_000_000


def generate_events(model: LoadModel, horizon: float, seed: int) -> list[Event]:
    """Generate the merged arrival/departure stream over [0, horizon).

    Lifetimes are exponential with the class mean. Departures of all
    arrivals are included, even past the horizon. uids are dense in
    arrival order (time, then class id). The stream is sorted by
    event_sort_key: time, departures first at equal times, then class
    id, then uid. Every such key is unique, so one lexsort over the four
    columns gives that order. The requests of one class share one pair
    of demand tuples. A stream that would draw more than MAX_CANDIDATES
    candidates is refused before the first draw.
    """
    check_horizon(horizon)
    candidates = horizon * sum(cls.rate_bound() for cls in model.classes)
    if candidates > MAX_CANDIDATES:
        raise ConfigurationError(
            f"horizon: {horizon!r} at the classes' summed rate bound asks "
            f"for about {candidates:.3g} candidate arrivals, more than the "
            f"{MAX_CANDIDATES} a stream may draw")

    times: list[float] = []
    lifetimes: list[float] = []
    class_ids: list[int] = []
    vnfs, vls = {}, {}
    for cls in model.classes:
        rng = class_rng(seed, cls.id)
        arrivals = sample_arrivals(partial(arrival_rate, cls),
                                   cls.rate_bound(), horizon, rng)
        times += arrivals
        lifetimes += rng.exponential(cls.mean_lifetime,
                                     size=len(arrivals)).tolist()
        class_ids += [cls.id] * len(arrivals)
        vnfs[cls.id] = ((cls.req_cpu, cls.req_ram),) * cls.vnf_count
        vls[cls.id] = (cls.req_bw,) * (cls.vnf_count - 1)

    time, lifetime, class_id = (np.array(times), np.array(lifetimes),
                                np.array(class_ids, dtype=np.int64))
    by_uid = np.lexsort((class_id, time))
    time, lifetime, class_id = time[by_uid], lifetime[by_uid], class_id[by_uid]
    departure = time + lifetime

    n = len(time)
    c = class_id.tolist()
    both = [*map(SliceRequest, range(n), c, time.tolist(),
                 [vnfs[k] for k in c], [vls[k] for k in c]),
            *map(Departure, departure.tolist(), range(n), c)]

    uid = np.arange(n)
    order = np.lexsort((np.concatenate((uid, uid)),
                        np.concatenate((class_id, class_id)),
                        np.repeat(np.array([1, 0]), n),
                        np.concatenate((time, departure))))
    # Reordered in place: the list was made before its items, so the
    # collector has already moved it to its oldest generation, where young
    # collections do not traverse its 2n entries again.
    both[:] = [both[i] for i in order.tolist()]
    return both


def event_sort_key(ev: Event):
    # departures before arrivals at equal times, freeing capacity first
    kind = 0 if isinstance(ev, Departure) else 1
    return (ev.time, kind, ev.class_id, ev.uid)


# -- event stream files ----------------------------------------------------


def export_events(events: Iterable[Event], path) -> None:
    """Write the stream as line-delimited JSON records."""
    with open(path, "w") as fh:
        for ev in events:
            kind = "departure" if isinstance(ev, Departure) else "arrival"
            fh.write(json.dumps({"time": ev.time, "kind": kind,
                                 "uid": ev.uid, "class": ev.class_id}) + "\n")


def load_events(path, classes: Iterable[SliceClass]) -> list[Event]:
    """Rebuild an event stream from an exported file.

    Request demands are reconstructed from the class definitions. An
    arrival without a departure record keeps its resources to the end of
    the run; a departure must come after its arrival. A malformed line
    raises a ScenarioError naming the file, the line and the field.
    """
    by_id = {c.id: c for c in classes}
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if line:
                    where = f"{path}, line {number}"
                    rows.append((where, _event_record(line, where)))
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc})") from exc
    departures = {r["uid"]: (r["time"], where) for where, r in rows
                  if r["kind"] == "departure"}
    events: list[Event] = []
    for where, r in rows:
        if r["kind"] != "arrival":
            continue
        cls = by_id.get(r["class"])
        if cls is None:
            raise ScenarioError(
                f"{where}: field 'class': event stream references unknown "
                f"class {r['class']}")
        events.append(request_from_class(cls, r["uid"], r["time"]))
        if r["uid"] in departures:
            dep, dep_where = departures[r["uid"]]
            if dep <= r["time"]:
                raise ScenarioError(
                    f"{dep_where}: field 'time': departure at {dep!r} is not "
                    f"after the arrival of uid {r['uid']} at {r['time']!r}")
            events.append(Departure(dep, r["uid"], cls.id))
    events.sort(key=event_sort_key)
    return events


def _event_record(line: str, where: str) -> dict:
    """One exported event line, its four fields checked."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{where}: not a JSON event record ({exc})") from exc
    if not isinstance(record, dict):
        raise ScenarioError(f"{where}: not a JSON event record")
    for name in ("time", "kind", "uid", "class"):
        if name not in record:
            raise ScenarioError(f"{where}: field {name!r}: missing")
        value = record[name]
        if name == "kind":
            ok = value in ("arrival", "departure")
        else:
            ok = (finite_number if name == "time" else whole_number)(value)
        if not ok:
            raise ScenarioError(f"{where}: field {name!r}: invalid value "
                                f"{value!r}")
    return record

