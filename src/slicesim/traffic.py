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
from array import array
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
                    rng: np.random.Generator) -> np.ndarray:
    """Sample a non-homogeneous Poisson process on [0, horizon) by thinning,
    and return the surviving times as a float64 array, in time order.

    Candidate points come from a homogeneous process at rate_bound; each
    candidate at time t survives with probability rate_fn(t) / rate_bound.
    rate_fn takes an array of times and must never exceed rate_bound.

    Draw order: every candidate draws one exponential gap and then one
    uniform, whatever its fate, and the gap that passes the horizon draws
    no uniform. So the generator's stream does not depend on which
    candidates survive: the loop only appends the (t, u) pairs to one
    buffer of doubles, and the survivors are picked in one array pass
    over it. The draws stay scalar and interleaved, because bulk draws
    would consume the stream in another order.
    """
    if rate_bound <= 0:
        return np.empty(0)
    gap = 1.0 / rate_bound
    pairs = array("d")
    t = rng.exponential(gap)
    while t < horizon:
        pairs.append(t)
        pairs.append(rng.random())
        t += rng.exponential(gap)
    t, u = np.frombuffer(pairs).reshape(-1, 2).T
    return t[u * rate_bound <= rate_fn(t)]


def class_rng(seed: int, class_id: int) -> np.random.Generator:
    """Independent per-class substream of the master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(class_id,)))


def check_horizon(horizon: float) -> None:
    """A traffic horizon must be finite and positive: an infinite one never
    ends the thinning loop, and a replay cut at 0 holds no arrivals."""
    if not (finite_number(horizon) and horizon > 0):
        raise ConfigurationError("horizon must be a finite number > 0")


# Thinning draws about horizon × Σ rate_bound candidates, and the stream
# costs about 0.10 KB of peak RSS and 1.1-2.5 µs per candidate (the
# reference scenario's 152,000 take about 15 MB and 0.17-0.37 s on a
# 2-vCPU VM whose speed drifts by up to 2x). The bound, 13 times that,
# keeps a scenario's rate or a --horizon from asking for memory without
# limit.
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

    # an empty array each, so that no classes give no rows
    times, lifetimes = [np.empty(0)], [np.empty(0)]
    class_ids = [np.empty(0, dtype=np.int64)]
    for cls in classes:
        rng = class_rng(seed, cls.id)
        arrivals = sample_arrivals(partial(arrival_rate, cls),
                                   cls.rate_bound(), horizon, rng)
        times.append(arrivals)
        lifetimes.append(rng.exponential(cls.mean_lifetime,
                                         size=len(arrivals)))
        class_ids.append(np.full(len(arrivals), cls.id, dtype=np.int64))

    time, lifetime, class_id = map(np.concatenate,
                                   (times, lifetimes, class_ids))
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
    of the run; a departure must come after its arrival, in its class. A
    malformed line raises a ScenarioError naming the file, the line and
    the field.

    Each line's fields go to typed columns, with its line number; the
    checks across lines then run over the columns: a repeated uid first,
    then a departure that never arrives, then, per arrival in file order,
    an unknown class, its departure's time and its departure's class.
    """
    known = {c.id for c in classes}
    time, departure = array("d"), array("b")
    uid, class_id, line = array("q"), array("q"), array("q")
    unknown = {}            # row -> its class id, which no class has
    try:
        with open(path, encoding="utf-8") as fh:
            for number, text in enumerate(fh, 1):
                text = text.strip()
                if not text:
                    continue
                record = _event_record(text, path, number)
                cls = record["class"]
                if cls not in known:
                    # it may not fit the int64 column; class ids are
                    # >= 0, so -1 marks it there
                    unknown[len(line)] = cls
                    cls = -1
                time.append(record["time"])
                departure.append(record["kind"] == "departure")
                uid.append(record["uid"])
                class_id.append(cls)
                line.append(number)
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc})") from exc

    def refuse(row: int, what: str) -> ScenarioError:
        return _line_error(path, line[row], what)

    t, dep, u, c = (np.frombuffer(time), np.frombuffer(departure, dtype=bool),
                    np.frombuffer(uid, dtype=np.int64),
                    np.frombuffer(class_id, dtype=np.int64))
    # rows by (uid, kind), each key's rows in file order: a row that
    # follows one of its own key repeats it
    by_uid = np.lexsort((dep, u))
    same_uid = u[by_uid[1:]] == u[by_uid[:-1]]
    repeats = by_uid[1:][same_uid & (dep[by_uid[1:]] == dep[by_uid[:-1]])]
    if repeats.size:
        row = int(repeats.min())
        kind = "departure" if departure[row] else "arrival"
        raise refuse(row, f"field 'uid': a second {kind} of uid {uid[row]}")
    # with no repeat, a uid's arrival row sorts just before its departure's
    arrived, departed = by_uid[:-1][same_uid], by_uid[1:][same_uid]
    orphans = dep.copy()
    orphans[departed] = False
    if orphans.any():
        row = int(np.argmax(orphans))
        raise refuse(row, f"field 'uid': a departure of uid {uid[row]}, "
                          f"which never arrives")
    bad = ~dep & (c < 0)
    bad[arrived] |= (t[departed] <= t[arrived]) | (c[departed] != c[arrived])
    if bad.any():
        row = int(np.argmax(bad))
        if row in unknown:
            raise refuse(row, f"field 'class': event stream references "
                              f"unknown class {unknown[row]}")
        gone = int(departed[arrived == row][0])
        if time[gone] <= time[row]:
            raise refuse(gone, f"field 'time': departure at {time[gone]!r} "
                               f"is not after the arrival of uid {uid[row]} "
                               f"at {time[row]!r}")
        raise refuse(gone, f"field 'class': a departure of uid {uid[row]} in "
                           f"class {unknown.get(gone, class_id[gone])}, which "
                           f"arrived in class {class_id[row]}")
    return EventStream(t, dep, u, c, classes)


def _event_record(text: str, path, number: int) -> dict:
    """One exported event line, its four fields checked."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _line_error(path, number,
                          f"not a JSON event record ({exc})") from exc
    if not isinstance(record, dict):
        raise _line_error(path, number, "not a JSON event record")
    for name in ("time", "kind", "uid", "class"):
        if name not in record:
            raise _line_error(path, number, f"field {name!r}: missing")
        value = record[name]
        if name == "kind":
            ok = value in ("arrival", "departure")
        else:
            ok = (finite_number if name == "time" else whole_number)(value)
        if not ok:
            raise _line_error(path, number,
                              f"field {name!r}: invalid value {value!r}")
    # uids share the generator's int64 column
    if record["uid"] >= 2 ** 63:
        raise _line_error(path, number, f"field 'uid': int too large: must "
                                        f"be < 2**63, got {record['uid']}")
    return record


def _line_error(path, number: int, what: str) -> ScenarioError:
    """The refusal of one line of an event file; its text is built only
    when a line is refused."""
    return ScenarioError(f"{path}, line {number}: {what}")
