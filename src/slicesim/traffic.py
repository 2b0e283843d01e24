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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from operator import eq
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
        # the id keys the class's random substream and an int64 column,
        # and the load bound turns vnf_count into a float
        for name in ("id", "vnf_count"):
            if getattr(self, name) >= 2 ** 63:
                raise FieldError(self, name, "int too large: must be < 2**63")
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
    t = np.asarray(t, dtype=np.float64)
    if cls.is_dynamic:
        return cls.arrival.amplitude * np.square(np.sin(np.pi * t / cls.arrival.period))
    return np.full_like(t, cls.arrival.rate)


@dataclass(frozen=True)
class SliceRequest:
    """One arrival event: a chain of vnf_count VNFs that arrives at `time`.
    Each VNF demands cpu and ram, and each virtual link between
    consecutive VNFs demands bw, as its class does. The matching
    Departure is the only record of how long it holds its resources."""
    uid: int
    class_id: int
    time: float
    vnf_count: int
    cpu: float
    ram: float
    bw: float

    def __post_init__(self):
        if self.vnf_count < 1:
            raise ConfigurationError("a request needs at least one VNF")


def request_from_class(cls: SliceClass, uid: int, time: float) -> SliceRequest:
    return SliceRequest(uid, cls.id, time, cls.vnf_count, cls.req_cpu,
                        cls.req_ram, cls.req_bw)


class LoadModel:
    """Offered-load bookkeeping for a set of classes on a given capacity."""

    def __init__(self, classes: Iterable[SliceClass], total_capacity: dict[str, float]):
        self.classes = list(classes)
        self.total_capacity = dict(total_capacity)
        for j in RESOURCES:
            if self.total_capacity.get(j, 0.0) <= 0:
                raise ConfigurationError(f"total capacity of {j!r} must be > 0")
        for cls in self.classes:
            self.check_amplitude_bound(cls)

    @classmethod
    def from_network(cls, classes: Iterable[SliceClass], net) -> "LoadModel":
        return cls(classes, {j: net.total_capacity(j) for j in RESOURCES})

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
        t = np.asarray(t, dtype=np.float64)
        return sum((self.class_load(cls, resource, t) for cls in self.classes),
                   np.zeros(t.shape))

    def load_forecast(self, resource: str, t_a: float) -> np.ndarray:
        """Load at the 100 unit-spaced instants starting at the arrival time."""
        ts = t_a + np.arange(FORECAST_POINTS, dtype=np.float64)
        return self.global_load(resource, ts)

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
# costs about 0.15 KB of peak RSS and 1.4 µs per candidate (the reference
# scenario's 152,000 take about 22 MB and 0.21 s on a 2-vCPU VM). The
# bound, 13 times that, keeps a scenario's rate or a --horizon from asking
# for memory without limit.
MAX_CANDIDATES = 2_000_000


class EventStream(Sequence):
    """The merged arrival/departure stream, held as sorted columns.

    Row i is time[i], departure[i] (True for a Departure, False for a
    SliceRequest), uid[i] and class_id[i]. The columns are read-only
    memoryviews of float64, bool and int64 arrays: reading one gives a
    Python float, bool or int, and the cyclic collector has no element of
    them to traverse. Rows are ordered by (time, kind, class id, uid),
    departures first at equal times so that they free capacity before an
    arrival takes it; rows with equal keys keep the order they were given
    in. stream[i] builds row i's SliceRequest, from its class, or its
    Departure only when it is read; stream[a:b:c] builds the list of
    those rows' events. A stream equals any sequence of the same events
    in the same order. Two classes with one id are refused.
    """

    __slots__ = ("time", "departure", "uid", "class_id", "_classes")

    def __init__(self, time, departure, uid, class_id,
                 classes: Sequence[SliceClass]):
        self._classes = {cls.id: cls for cls in classes}
        if len(self._classes) < len(classes):
            raise ConfigurationError("class ids must be unique")
        time = np.asarray(time, dtype=np.float64)
        departure = np.asarray(departure, dtype=bool)
        uid = np.asarray(uid, dtype=np.int64)
        class_id = np.asarray(class_id, dtype=np.int64)
        # one stable sort: the last key is the first criterion
        order = np.lexsort((uid, class_id, ~departure, time))
        self.time, self.departure, self.uid, self.class_id = (
            memoryview(column[order]).toreadonly()
            for column in (time, departure, uid, class_id))

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, i: int | slice) -> Event | list[Event]:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        time, class_id = self.time[i], self.class_id[i]
        if self.departure[i]:
            return Departure(time, self.uid[i], class_id)
        return request_from_class(self._classes[class_id], self.uid[i], time)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    @property
    def arrivals(self) -> int:
        """The number of arrivals, counted without building an event."""
        return len(self) - int(np.count_nonzero(self.departure))


def generate_events(classes: Sequence[SliceClass], horizon: float,
                    seed: int) -> EventStream:
    """Generate the merged arrival/departure stream over [0, horizon).

    Lifetimes are exponential with the class mean. Departures of all
    arrivals are included, even past the horizon. uids are dense in
    arrival order (time, then class id). Every row's (time, kind, class
    id, uid) key is unique, so the stream's one sort fixes the order. A
    stream that would draw more than MAX_CANDIDATES candidates is refused
    before the first draw.
    """
    check_horizon(horizon)
    candidates = horizon * sum(cls.rate_bound() for cls in classes)
    if candidates > MAX_CANDIDATES:
        raise ConfigurationError(
            f"horizon: {horizon!r} at the classes' summed rate bound asks "
            f"for about {candidates:.3g} candidate arrivals, more than the "
            f"{MAX_CANDIDATES} a stream may draw")

    times: list[float] = []
    lifetimes: list[float] = []
    class_ids: list[int] = []
    for cls in classes:
        rng = class_rng(seed, cls.id)
        arrivals = sample_arrivals(partial(arrival_rate, cls),
                                   cls.rate_bound(), horizon, rng)
        times += arrivals
        lifetimes += rng.exponential(cls.mean_lifetime,
                                     size=len(arrivals)).tolist()
        class_ids += [cls.id] * len(arrivals)

    time, lifetime, class_id = (np.array(times), np.array(lifetimes),
                                np.array(class_ids, dtype=np.int64))
    by_uid = np.lexsort((class_id, time))
    time, lifetime, class_id = time[by_uid], lifetime[by_uid], class_id[by_uid]
    uid = np.arange(len(time))
    return EventStream(np.concatenate((time, time + lifetime)),
                       np.repeat([False, True], len(time)),
                       np.concatenate((uid, uid)),
                       np.concatenate((class_id, class_id)), classes)


# -- event stream files ----------------------------------------------------


def export_events(stream: EventStream, path) -> None:
    """Write the stream as line-delimited JSON records, straight from its
    columns."""
    with open(path, "w") as fh:
        for time, departure, uid, class_id in zip(
                stream.time, stream.departure, stream.uid, stream.class_id):
            kind = "departure" if departure else "arrival"
            fh.write(json.dumps({"time": time, "kind": kind,
                                 "uid": uid, "class": class_id}) + "\n")


def load_events(path, classes: Sequence[SliceClass]) -> EventStream:
    """Rebuild an event stream from an exported file.

    Request demands are reconstructed from the class definitions, and a
    time is read as a float. A uid arrives once and departs at most once.
    An arrival without a departure record keeps its resources to the end
    of the run; a departure must come after its arrival. A malformed line
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
    seen = set()
    for where, r in rows:
        if (r["kind"], r["uid"]) in seen:
            raise ScenarioError(f"{where}: field 'uid': a second {r['kind']} "
                                f"of uid {r['uid']}")
        seen.add((r["kind"], r["uid"]))
    departures = {r["uid"]: (r["time"], where) for where, r in rows
                  if r["kind"] == "departure"}
    # each arrival's row, then its departure's: the order of equal keys
    events = []
    for where, r in rows:
        if r["kind"] != "arrival":
            continue
        if r["class"] not in by_id:
            raise ScenarioError(
                f"{where}: field 'class': event stream references unknown "
                f"class {r['class']}")
        events.append((r["time"], False, r["uid"], r["class"]))
        if r["uid"] in departures:
            dep, dep_where = departures[r["uid"]]
            if dep <= r["time"]:
                raise ScenarioError(
                    f"{dep_where}: field 'time': departure at {dep!r} is not "
                    f"after the arrival of uid {r['uid']} at {r['time']!r}")
            events.append((dep, True, r["uid"], r["class"]))
    columns = zip(*events) if events else [()] * 4
    return EventStream(*columns, classes)


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
    # uids share the generator's int64 column
    if record["uid"] >= 2 ** 63:
        raise ScenarioError(f"{where}: field 'uid': int too large: must be "
                            f"< 2**63, got {record['uid']}")
    return record

