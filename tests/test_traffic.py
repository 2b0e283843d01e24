"""Traffic: slice classes, offered load, Poisson thinning, event streams."""

import hashlib
import math
import time

import numpy as np
import pytest
import scipy.stats

from oracles import generate_events_scalar, sample_arrivals_scalar
from slicesim import (
    ConfigurationError,
    Departure,
    DynamicArrival,
    LoadModel,
    ScenarioError,
    SliceClass,
    SliceRequest,
    StaticArrival,
    arrival_rate,
    build_reference_topology,
    event_sort_key,
    export_events,
    generate_events,
    load_events,
    load_scenario,
    request_from_class,
    sample_arrivals,
)
from slicesim.traffic import MAX_CANDIDATES

LONGTERM_CPU_LOAD = 2500.0 / 6300.0


def volatile():
    return SliceClass(id=0, name="volatile", vnf_count=5, req_cpu=25.0,
                      req_ram=150.0, req_bw=2.0, mean_lifetime=20.0,
                      arrival=DynamicArrival(amplitude=1.5, period=96.0))


def longterm():
    return SliceClass(id=1, name="longterm", vnf_count=10, req_cpu=25.0,
                      req_ram=150.0, req_bw=2.0, mean_lifetime=500.0,
                      arrival=StaticArrival(rate=0.02))


def reference_model():
    net = build_reference_topology("full")
    return LoadModel.from_network([volatile(), longterm()], net)


# -- class validation and basics ---------------------------------------------

def test_class_validation():
    with pytest.raises(ConfigurationError):
        SliceClass(id=0, vnf_count=0, req_cpu=1, req_ram=1, req_bw=1,
                   mean_lifetime=1, arrival=StaticArrival(0.1))
    with pytest.raises(ConfigurationError):
        SliceClass(id=0, vnf_count=2, req_cpu=0, req_ram=1, req_bw=1,
                   mean_lifetime=1, arrival=StaticArrival(0.1))
    with pytest.raises(ConfigurationError):
        SliceClass(id=0, vnf_count=2, req_cpu=1, req_ram=1, req_bw=1,
                   mean_lifetime=0, arrival=StaticArrival(0.1))
    with pytest.raises(ConfigurationError):
        SliceClass(id=0, vnf_count=2, req_cpu=1, req_ram=1, req_bw=1,
                   mean_lifetime=1, arrival=DynamicArrival(1.0, 0.0))
    with pytest.raises(ConfigurationError):
        SliceClass(id=0, vnf_count=2, req_cpu=1, req_ram=1, req_bw=1,
                   mean_lifetime=1, arrival=StaticArrival(-0.1))
    nan, inf = float("nan"), float("inf")
    for demands, lifetime in [((nan, 1, 1), 1), ((1, inf, 1), 1),
                              ((1, 1, nan), 1), ((1, 1, 1), inf)]:
        with pytest.raises(ConfigurationError, match="must be finite"):
            SliceClass(id=0, vnf_count=2, req_cpu=demands[0],
                       req_ram=demands[1], req_bw=demands[2],
                       mean_lifetime=lifetime, arrival=StaticArrival(0.1))
    # an arrival law checks its own fields, before a class holds it
    for law, args in [(StaticArrival, (nan,)), (StaticArrival, (inf,)),
                      (DynamicArrival, (nan, 10.0)),
                      (DynamicArrival, (1.0, inf))]:
        with pytest.raises(ConfigurationError, match="must be finite"):
            law(*args)


def test_resource_units():
    v = volatile()
    assert v.resource_units("cpu") == 125.0
    assert v.resource_units("ram") == 750.0
    assert v.resource_units("bw") == 8.0  # one VL fewer than VNFs
    with pytest.raises(KeyError):
        v.resource_units("gpu")


def test_arrival_rate_shapes():
    v = volatile()
    assert arrival_rate(v, 0.0) == 0.0
    assert arrival_rate(v, 48.0) == pytest.approx(1.5, abs=1e-15)
    ts = np.array([0.0, 24.0, 48.0])
    rates = arrival_rate(v, ts)
    assert rates.shape == (3,)
    assert rates[1] == pytest.approx(0.75, abs=1e-15)
    lt = longterm()
    assert arrival_rate(lt, 123.0) == 0.02
    assert np.all(arrival_rate(lt, ts) == 0.02)


def test_request_from_class():
    req = request_from_class(volatile(), uid=3, time=1.5)
    assert req.time == 1.5
    assert req.vnf_count == 5
    assert req.vnfs == ((25.0, 150.0),) * 5
    assert req.vls == (2.0,) * 4
    assert req.class_id == 0


def test_reference_classes_round_numbers():
    classes = {c.name: c for c in load_scenario("reference").classes}
    v, lt = classes["volatile"], classes["longterm"]
    assert (v.vnf_count, v.mean_lifetime) == (5, 20.0)
    assert (v.arrival.amplitude, v.arrival.period) == (1.5, 96.0)
    assert (lt.vnf_count, lt.mean_lifetime) == (10, 500.0)
    assert lt.arrival.rate == 0.02


# -- offered load -------------------------------------------------------------

def test_static_class_load_exact():
    model = reference_model()
    for t in (0.0, 48.0, 1234.5):
        assert model.class_load(longterm(), "cpu", t) == pytest.approx(
            LONGTERM_CPU_LOAD, abs=1e-12)


def test_dynamic_class_load_at_peak():
    model = reference_model()
    got = model.class_load(volatile(), "cpu", 48.0)
    assert got == pytest.approx(1.5 * LONGTERM_CPU_LOAD, abs=1e-12)
    assert model.class_load(volatile(), "cpu", 0.0) == pytest.approx(0.0, abs=1e-12)


def test_global_load_oscillation():
    model = reference_model()
    ts = np.linspace(0.0, 192.0, 1921)
    loads = np.array([model.global_load("cpu", t) for t in ts])
    assert loads.min() == pytest.approx(0.3968, abs=1e-4)
    assert loads.max() == pytest.approx(0.9921, abs=1e-4)
    # period 96: one day of simulated time
    for t in (0.0, 13.25, 48.0, 71.5):
        assert model.global_load("cpu", t) == pytest.approx(
            model.global_load("cpu", t + 96.0), abs=1e-12)


def test_amplitude_bound():
    model = reference_model()
    model.check_amplitude_bound(volatile())  # 1.5 is fine at full scale
    greedy = SliceClass(id=2, vnf_count=5, req_cpu=25.0, req_ram=150.0,
                        req_bw=2.0, mean_lifetime=20.0,
                        arrival=DynamicArrival(amplitude=3.0, period=96.0))
    with pytest.raises(ConfigurationError):
        model_with = LoadModel(model.classes + [greedy],
                               {"cpu": 6300.0, "ram": 37800.0, "bw": 8350.0})
        model_with.check_amplitude_bound(greedy)


def test_load_forecast_window():
    model = reference_model()
    fc = model.load_forecast("cpu", 10.0)
    assert fc.shape == (100,)
    assert fc[0] == pytest.approx(model.global_load("cpu", 10.0), abs=1e-15)
    assert fc[99] == pytest.approx(model.global_load("cpu", 109.0), abs=1e-15)
    feats = model.forecast_features(10.0)
    assert feats.shape == (300,)
    assert np.array_equal(feats[:100], fc)
    assert np.array_equal(feats[100:200], model.load_forecast("ram", 10.0))
    assert np.array_equal(feats[200:], model.load_forecast("bw", 10.0))


# -- event generation ----------------------------------------------------------

def one_class_model(cls):
    return LoadModel([cls], {"cpu": 6300.0, "ram": 37800.0, "bw": 8350.0})


def test_every_arrival_has_one_departure():
    events = generate_events(reference_model(), horizon=500.0, seed=3)
    arrivals = {e.uid: e for e in events if isinstance(e, SliceRequest)}
    departures = {e.uid: e for e in events if isinstance(e, Departure)}
    assert set(arrivals) == set(departures)
    for uid, arr in arrivals.items():
        assert departures[uid].time > arr.time


def test_uids_dense_in_time_class_order():
    events = generate_events(reference_model(), horizon=500.0, seed=3)
    arrivals = [e for e in events if isinstance(e, SliceRequest)]
    assert sorted(a.uid for a in arrivals) == list(range(len(arrivals)))
    by_uid = sorted(arrivals, key=lambda a: a.uid)
    keys = [(a.time, a.class_id) for a in by_uid]
    assert keys == sorted(keys)


def test_event_stream_sorted_departures_first():
    events = generate_events(reference_model(), horizon=500.0, seed=3)
    keys = [event_sort_key(e) for e in events]
    assert keys == sorted(keys)
    dep = Departure(time=5.0, uid=9, class_id=1)
    arr = request_from_class(volatile(), uid=10, time=5.0)
    assert event_sort_key(dep) < event_sort_key(arr)


def test_generate_events_needs_a_positive_horizon():
    # inf and nan used to loop for ever: no candidate time reaches them
    for horizon in (0.0, -5.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError,
                           match="horizon must be a finite number > 0"):
            generate_events(one_class_model(longterm()), horizon=horizon,
                            seed=1)


@pytest.mark.parametrize("horizon, rate", [
    (1.01 * MAX_CANDIDATES / 0.02, 0.02), (1e12, 1e9), (1.0, 1e308)])
def test_generate_events_refuses_a_stream_past_the_candidate_bound(horizon,
                                                                   rate):
    cls = SliceClass(id=1, vnf_count=2, req_cpu=1.0, req_ram=1.0, req_bw=1.0,
                     mean_lifetime=5.0, arrival=StaticArrival(rate=rate))
    start = time.perf_counter()
    with pytest.raises(ConfigurationError,
                       match=f"horizon: .* more than the {MAX_CANDIDATES} "
                             "a stream may draw"):
        generate_events(one_class_model(cls), horizon=horizon, seed=1)
    assert time.perf_counter() - start < 1.0


def test_scenario_horizon_override_is_not_dropped():
    """--horizon 0 used to fall back to the scenario's full horizon."""
    tiny = load_scenario("tiny")
    with pytest.raises(ConfigurationError):
        tiny.generate_events(horizon=0.0)
    assert tiny.generate_events() == tiny.generate_events(horizon=tiny.horizon)


def test_adding_a_class_leaves_other_streams_alone():
    """Per-class substreams: class sets can grow without reshuffling."""
    solo = generate_events(one_class_model(volatile()), horizon=300.0, seed=5)
    both = generate_events(reference_model(), horizon=300.0, seed=5)
    solo_times = [e.time for e in solo if isinstance(e, SliceRequest)]
    both_times = [e.time for e in both
                  if isinstance(e, SliceRequest) and e.class_id == 0]
    assert solo_times == both_times


def test_same_seed_same_stream():
    a = generate_events(reference_model(), horizon=300.0, seed=11)
    b = generate_events(reference_model(), horizon=300.0, seed=11)
    assert [(e.time, e.uid, type(e).__name__) for e in a] == \
        [(e.time, e.uid, type(e).__name__) for e in b]
    c = generate_events(reference_model(), horizon=300.0, seed=12)
    assert [e.time for e in a] != [e.time for e in c]


def test_static_interarrivals_are_exponential():
    """KS test of inter-arrival times against Exp(0.02)."""
    events = generate_events(one_class_model(longterm()), horizon=200_000.0,
                             seed=42)
    times = np.array([e.time for e in events if isinstance(e, SliceRequest)])
    gaps = np.diff(times)
    stat = scipy.stats.kstest(gaps, "expon", args=(0.0, 1.0 / 0.02))
    assert stat.pvalue > 0.001, stat


def test_dynamic_arrivals_follow_the_intensity():
    """Counts per time bin track amplitude * sin^2(pi t / period)."""
    cls = volatile()
    counts = np.zeros(8)
    n_seeds = 60
    edges = np.linspace(0.0, 96.0, 9)
    for seed in range(n_seeds):
        events = generate_events(one_class_model(cls), horizon=96.0, seed=seed)
        times = [e.time for e in events if isinstance(e, SliceRequest)]
        counts += np.histogram(times, bins=edges)[0]
    # expected mass per bin: integral of the rate over the bin
    def mass(a, b):
        return 1.5 * ((b - a) / 2.0 - 96.0 / (4 * math.pi)
                      * (math.sin(2 * math.pi * b / 96.0)
                         - math.sin(2 * math.pi * a / 96.0)))
    expected = np.array([mass(edges[i], edges[i + 1]) for i in range(8)])
    expected *= counts.sum() / expected.sum()
    stat = scipy.stats.chisquare(counts, expected)
    assert stat.pvalue > 0.001, (counts, expected)


def test_dynamic_mean_arrivals_per_period():
    """Mean count over seeds approaches amplitude * period / 2."""
    cls = volatile()
    n = []
    for seed in range(40):
        events = generate_events(one_class_model(cls), horizon=96.0, seed=seed)
        n.append(sum(1 for e in events if isinstance(e, SliceRequest)))
    mean = np.mean(n)
    # 4 sigma of the seed-mean for a Poisson(72) count
    assert abs(mean - 72.0) < 4.0 * math.sqrt(72.0 / 40.0)


# -- export / replay ------------------------------------------------------------

def test_export_load_round_trip(tmp_path):
    classes = [volatile(), longterm()]
    events = generate_events(LoadModel(classes, {"cpu": 6300.0,
                                                 "ram": 37800.0,
                                                 "bw": 8350.0}),
                             horizon=300.0, seed=9)
    path = tmp_path / "events.jsonl"
    export_events(events, path)
    back = load_events(path, classes)
    assert len(back) == len(events)
    for orig, copy in zip(events, back):
        assert type(orig) is type(copy)
        assert orig.time == copy.time  # repr round-trip, bit exact
        assert orig.uid == copy.uid
        assert orig.class_id == copy.class_id


def test_load_events_without_departure_adds_none(tmp_path):
    """No departure in the file: the stream gets no synthetic departure
    event, so the request holds its resources to the end of the run."""
    path = tmp_path / "partial.jsonl"
    path.write_text('{"time": 1.5, "kind": "arrival", "uid": 0, "class": 1}\n')
    events = load_events(path, [volatile(), longterm()])
    assert [type(e).__name__ for e in events] == ["SliceRequest"]
    assert events[0].time == 1.5


def test_load_events_unknown_class(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"time": 1.0, "kind": "arrival", "uid": 0, "class": 7}\n')
    with pytest.raises(ConfigurationError):
        load_events(path, [volatile()])


@pytest.mark.parametrize("line, fragment", [
    ('{"time": 1.0, "kind": "arrival", "uid": 0}', "field 'class': missing"),
    ('{"time": 1.0, "kind": "arrival", "class": 0}', "field 'uid': missing"),
    ('{"kind": "arrival", "uid": 0, "class": 0}', "field 'time': missing"),
    ('{"time": 1.0, "uid": 0, "class": 0}', "field 'kind': missing"),
    ('{"time": 1.0, "kind": "arrival", "uid": 0, "class": 0',
     "not a JSON event record"),
    ('[1.0, "arrival", 0, 0]', "not a JSON event record"),
    ('{"time": "soon", "kind": "arrival", "uid": 0, "class": 0}',
     "field 'time': invalid value 'soon'"),
    ('{"time": NaN, "kind": "arrival", "uid": 0, "class": 0}',
     "field 'time': invalid value nan"),
    ('{"time": 1.0, "kind": "arrival", "uid": 0.5, "class": 0}',
     "field 'uid': invalid value 0.5"),
    ('{"time": 1.0, "kind": "leave", "uid": 0, "class": 0}',
     "field 'kind': invalid value 'leave'"),
    ('{"time": 1.0, "kind": "arrival", "uid": 0, "class": 7}',
     "field 'class': event stream references unknown class 7"),
    ('{"time": 1%s, "kind": "arrival", "uid": 0, "class": 0}' % ("0" * 400),
     "field 'time': invalid value 1000"),
    ('{"time": 0.25, "kind": "departure", "uid": 9, "class": 0}',
     "field 'time': departure at 0.25 is not after the arrival of uid 9 "
     "at 0.5"),
])
def test_load_events_names_the_file_line_and_field(tmp_path, line, fragment):
    path = tmp_path / "events.jsonl"
    good = '{"time": 0.5, "kind": "arrival", "uid": 9, "class": 0}'
    path.write_text(good + "\n\n" + line + "\n")
    with pytest.raises(ScenarioError) as info:
        load_events(path, [volatile()])
    assert str(info.value).startswith(f"{path}, line 3: ")
    assert fragment in str(info.value)


def test_load_events_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_bytes(b"\xff\xfe{}\n")
    with pytest.raises(ScenarioError, match="not UTF-8 text"):
        load_events(path, [volatile()])


# -- the array generator against the scalar one ---------------------------------

# The seeds that a benchmark run adds, 1000 apart, to its own seed.
BENCH_SEEDS = [1000 * k for k in range(1, 8)]


def assert_same_stream(events, expected):
    assert events == expected
    for ev in events:
        assert type(ev.time) is float


@pytest.mark.parametrize("name", ["tiny", "desk"])
@pytest.mark.parametrize("seed", list(range(8)) + BENCH_SEEDS)
def test_generate_events_matches_the_scalar_generator(name, seed):
    scenario = load_scenario(name)
    model = scenario.build_load_model()
    assert_same_stream(generate_events(model, scenario.horizon, seed),
                       generate_events_scalar(model, scenario.horizon, seed))


@pytest.mark.parametrize("seed", [1, 1001, 7])
def test_generate_events_matches_the_scalar_generator_on_reference(seed):
    model = load_scenario("reference").build_load_model()
    assert_same_stream(generate_events(model, 5000.0, seed),
                       generate_events_scalar(model, 5000.0, seed))


def test_requests_of_a_class_share_their_demand_tuples():
    events = generate_events(reference_model(), horizon=500.0, seed=3)
    requests = [e for e in events if isinstance(e, SliceRequest)]
    for class_id in (0, 1):
        own = [r for r in requests if r.class_id == class_id]
        assert len({id(r.vnfs) for r in own}) == 1
        assert len({id(r.vls) for r in own}) == 1


@pytest.mark.parametrize("name, seed, digest", [
    ("desk", 0,
     "a3e059be2d8c8876383ef13556ecbfc24e459af0a8cf73e56dcc93d5c8301add"),
    ("reference", 1,
     "7e06a801cc501b6d3f208b7410718e0f2bb67e8b5375e24936e6b32fd2935160"),
])
def test_exported_stream_bytes_are_pinned(tmp_path, name, seed, digest):
    """Full-horizon streams, byte for byte as the scalar generator wrote
    them: rate_fn's sin over an array gives the bits it gave per value."""
    path = tmp_path / "events.jsonl"
    export_events(load_scenario(name).generate_events(seed=seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_a_zero_amplitude_class_draws_nothing():
    silent = SliceClass(id=2, vnf_count=2, req_cpu=1.0, req_ram=1.0,
                        req_bw=1.0, mean_lifetime=5.0,
                        arrival=DynamicArrival(amplitude=0.0, period=96.0))
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    assert sample_arrivals(lambda t: arrival_rate(silent, t),
                           silent.rate_bound(), 100.0, rng) == []
    assert rng.bit_generator.state == state
    model = one_class_model(silent)
    assert generate_events(model, 100.0, 4) == []
    model = LoadModel([silent, volatile()], model.total_capacity)
    assert_same_stream(generate_events(model, 300.0, 4),
                       generate_events_scalar(model, 300.0, 4))


def test_sample_arrivals_takes_the_constant_rate_of_criterion_2():
    """A rate_fn that returns one scalar broadcasts over the array."""
    got = sample_arrivals(lambda t: 0.02, 0.02, 5000.0,
                          np.random.default_rng(8))
    assert got == sample_arrivals_scalar(lambda t: 0.02, 0.02, 5000.0,
                                         np.random.default_rng(8))
    assert len(got) > 50
