"""Graph encoder and FC branches: shapes, symmetry, persistence."""

import json
import re
import struct

import numpy as np
import pytest

from slicesim import CheckpointError, ConfigurationError
from slicesim import networks
from slicesim.networks import (
    DENSE_GRADIENT_BYTES,
    GCN_LAYERS,
    GCN_WIDTH,
    LOAD_FC_WIDTH,
    LOAD_INPUT_WIDTH,
    NSPR_FC_WIDTH,
    NSPR_INPUT_WIDTH,
    PSN_FEATURES,
    SGD_BLOCK_ROWS,
    ParameterSet,
    SliceNet,
    glorot,
    load_checkpoint,
    normalized_propagation,
    save_checkpoint,
    softmax,
    stack_activations,
)

from oracles import gcn_forward


def random_adjacency(rng, n):
    m = np.zeros((n, n))
    for i in range(1, n):
        j = int(rng.integers(0, i))
        m[i, j] = m[j, i] = 1.0
    for _ in range(n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            m[i, j] = m[j, i] = 1.0
    return m


def make_net(rng_seed=0, n=4, n_actions=3, use_load=False, width=GCN_WIDTH,
             activation="tanh", dtype=np.float64):
    rng = np.random.default_rng(rng_seed)
    adj = random_adjacency(rng, n)
    prop = normalized_propagation(adj)
    return SliceNet(prop, n_actions, use_load, activation,
                    np.random.default_rng(rng_seed), gcn_width=width,
                    dtype=dtype)


# -- propagation operator ------------------------------------------------------

def test_normalized_propagation_two_node_path():
    got = normalized_propagation(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(got, np.full((2, 2), 0.5), atol=1e-15)


def test_normalized_propagation_is_symmetric():
    rng = np.random.default_rng(5)
    adj = random_adjacency(rng, 7)
    prop = normalized_propagation(adj)
    np.testing.assert_allclose(prop, prop.T, atol=1e-15)
    # self-loops keep isolated nodes finite
    solo = normalized_propagation(np.zeros((1, 1)))
    np.testing.assert_allclose(solo, [[1.0]])


def test_glorot_bounds():
    rng = np.random.default_rng(11)
    w = glorot(rng, 300, 100)
    limit = np.sqrt(6.0 / 400.0)
    assert w.shape == (300, 100)
    assert np.abs(w).max() <= limit
    assert abs(w.mean()) < limit / 10.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fan_in, fan_out", [
    (SGD_BLOCK_ROWS - 1, 7), (SGD_BLOCK_ROWS, 7), (SGD_BLOCK_ROWS + 1, 7),
    (2 * SGD_BLOCK_ROWS + 37, 1), (8924, 126)])
def test_glorot_draws_block_by_block_the_bits_of_one_draw(dtype, fan_in,
                                                          fan_out):
    """Row blocks drawn into the result give one whole-shape draw's
    doubles, each rounded once to dtype, and leave the generator where
    the whole draw leaves it; 8924 x 126 is the reference actor's out.w."""
    rng, whole = np.random.default_rng(17), np.random.default_rng(17)
    w = glorot(rng, fan_in, fan_out, dtype)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    want = whole.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)
    assert w.dtype == dtype and w.shape == (fan_in, fan_out)
    assert w.tobytes() == want.tobytes()
    assert rng.bit_generator.state == whole.bit_generator.state


# -- parameter bookkeeping -------------------------------------------------------

def test_parameter_count_actor_no_load():
    net = make_net(n=4, n_actions=3)
    gcn = (PSN_FEATURES * GCN_WIDTH + GCN_WIDTH) \
        + (GCN_LAYERS - 1) * (GCN_WIDTH * GCN_WIDTH + GCN_WIDTH)
    nspr = NSPR_INPUT_WIDTH * NSPR_FC_WIDTH + NSPR_FC_WIDTH
    out = (GCN_WIDTH * 4 + NSPR_FC_WIDTH) * 3 + 3
    assert sum(v.size for v in net.params.arrays().values()) \
        == gcn + nspr + out
    assert net.combined_width == GCN_WIDTH * 4 + NSPR_FC_WIDTH


@pytest.mark.parametrize("n,n_actions,use_load,width", [
    (4, 3, False, GCN_WIDTH), (4, 1, True, GCN_WIDTH), (7, 5, True, 2)])
def test_parameter_count_is_what_the_net_allocates(n, n_actions, use_load,
                                                   width):
    net = make_net(n=n, n_actions=n_actions, use_load=use_load, width=width)
    assert networks.parameter_count(n, n_actions, use_load, width) == \
        sum(v.size for v in net.params.arrays().values())


def test_parameter_count_with_load_branch():
    net = make_net(n=4, n_actions=3, use_load=True)
    assert net.combined_width == GCN_WIDTH * 4 + NSPR_FC_WIDTH + LOAD_FC_WIDTH
    names = set(net.params.arrays())
    assert {"load.w", "load.b"} <= names
    assert net.params.arrays()["load.w"].shape == (LOAD_INPUT_WIDTH,
                                                   LOAD_FC_WIDTH)


def test_same_seed_same_init():
    a = make_net(rng_seed=9).params.arrays()
    b = make_net(rng_seed=9).params.arrays()
    assert set(a) == set(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


def test_sgd_step_and_zero_grad():
    params = ParameterSet()
    w = params.add("w", np.array([1.0, 2.0]))
    params.grads["w"] = np.array([0.5, -1.0])
    params.sgd_step(0.1)
    np.testing.assert_allclose(w, [0.95, 2.1])     # stepped in place
    assert not params.grads                        # a step uses them up
    params.grads["w"] = np.array([1.0, 1.0])
    params.grads.clear()
    assert not params.grads


def test_factored_gradient_steps_like_the_dense_product():
    """A (C, G) gradient moves every element as W -= lr * (C^T G) does,
    across several row blocks and a partial last one."""
    rng = np.random.default_rng(3)
    rows = 2 * SGD_BLOCK_ROWS + 37
    c = rng.standard_normal((4, rows))
    g_out = rng.standard_normal((4, 7))
    start = rng.standard_normal((rows, 7))
    params = ParameterSet()
    w = params.add("w", start)
    params.grads["w"] = (c, g_out)
    params.sgd_step(0.05)
    dense = c.T @ g_out
    dense *= 0.05
    assert np.array_equal(w, start - dense)
    assert not params.grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_factored_gradient_of_one_row_steps_like_the_matmul(dtype):
    """A one-step episode's (C, G) factors are one row each: the step's
    broadcast products give the bits of numpy's C^T G, across row
    blocks, at the reference actor's shape."""
    rng = np.random.default_rng(5)
    rows, cols = 8924, 126
    c = rng.standard_normal((1, rows)).astype(dtype)
    g_out = rng.standard_normal((1, cols)).astype(dtype)
    start = rng.standard_normal((rows, cols)).astype(dtype)
    params = ParameterSet(dtype)
    w = params.add("w", start)
    params.grads["w"] = (c, g_out)
    params.sgd_step(0.05)
    dense = c.T @ g_out
    dense *= 0.05
    assert np.array_equal(w, start - dense)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t,n_actions,activation", [
    (1, 4, "tanh"), (1, 1, "relu"), (3, 1, "relu")])
def test_backward_broadcasts_an_inner_dimension_of_1_bit_for_bit(
        monkeypatch, dtype, t, n_actions, activation):
    """A one-row batch's x^T g and a one-output net's G W^T are broadcast
    products in backward, bit for bit numpy's matmul."""
    net = make_net(n=5, n_actions=n_actions, use_load=True,
                   activation=activation, dtype=dtype)
    rng = np.random.default_rng(6)
    out, acts = net.forward_batch(rng.random((t, 5, PSN_FEATURES)),
                                  rng.random((t, NSPR_INPUT_WIDTH)),
                                  rng.random((t, LOAD_INPUT_WIDTH)))
    grad_out = rng.standard_normal(out.shape)
    net.backward(acts, grad_out)
    broadcast = net.params.grads
    monkeypatch.setattr(networks, "matmul", lambda a, b: a @ b)
    net.backward(acts, grad_out)
    assert set(broadcast) == set(net.params.grads)
    for name, g in net.params.grads.items():
        assert np.array_equal(broadcast[name], g), name


def test_backward_factors_the_output_gradient_when_smaller(monkeypatch):
    """Four scores over 304 inputs: 3 x (304 + 4) factor values beat the
    304 x 4 product. One relu value: the 304 x 1 product is smaller.
    The size floor is lifted here so that the value-count rule decides."""
    monkeypatch.setattr(networks, "DENSE_GRADIENT_BYTES", 0)
    rng = np.random.default_rng(2)
    psn = rng.random((3, 5, PSN_FEATURES))
    nspr = rng.random((3, NSPR_INPUT_WIDTH))
    actor = make_net(n=5, n_actions=4)
    _, acts = actor.forward_batch(psn, nspr)
    grad_out = rng.standard_normal((3, 4))
    actor.backward(acts, grad_out)
    c, g = actor.params.grads["out.w"]
    assert c is acts.combined
    np.testing.assert_array_equal(g, grad_out)

    critic = make_net(n=5, n_actions=1, activation="relu")
    out, acts = critic.forward_batch(psn, nspr)
    grad_out = rng.standard_normal((3, 1))
    critic.backward(acts, grad_out)
    dense = critic.params.grads["out.w"]
    assert isinstance(dense, np.ndarray)
    np.testing.assert_array_equal(dense,
                                  acts.combined.T @ ((out > 0.0) * grad_out))


def test_backward_keeps_a_small_output_gradient_dense():
    """Below DENSE_GRADIENT_BYTES the product is stored dense even where
    its factors hold fewer values; above it the factors are kept."""
    rng = np.random.default_rng(2)
    psn = rng.random((3, 5, PSN_FEATURES))
    nspr = rng.random((3, NSPR_INPUT_WIDTH))
    for n_actions in (4, 500):
        actor = make_net(n=5, n_actions=n_actions)
        _, acts = actor.forward_batch(psn, nspr)
        grad_out = rng.standard_normal((3, n_actions))
        actor.backward(acts, grad_out)
        stored = actor.params.grads["out.w"]
        large = acts.combined.shape[1] * n_actions * 8 > DENSE_GRADIENT_BYTES
        assert isinstance(stored, tuple) == large == (n_actions == 500)
        if not large:
            np.testing.assert_array_equal(stored, acts.combined.T @ grad_out)


# -- forward semantics -------------------------------------------------------------

@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12),
                                        (np.float32, 1e-5)],
                         ids=["float64", "float32"])
def test_forward_saves_activations_for_the_batch(dtype, rtol):
    """One-observation passes, stacked, are the activations of a batched
    pass: the graph convolutions bit for bit, the dense layers and the
    scores within rounding (a one-row product may round otherwise)."""
    net = make_net(n=5, n_actions=4, use_load=True, dtype=dtype)
    rng = np.random.default_rng(4)
    psn = rng.random((3, 5, PSN_FEATURES))
    nspr = rng.random((3, NSPR_INPUT_WIDTH))
    load = rng.random((3, LOAD_INPUT_WIDTH))
    saved = []
    for i in range(3):
        z = net.forward(psn[i], nspr[i], load[i], saved=saved)
        assert len(saved) == i + 1
        assert saved[i].out.shape == (1, 4)
        assert np.array_equal(saved[i].out[0], z)
    acts = stack_activations(saved)
    full, full_acts = net.forward_batch(psn, nspr, load)
    assert len(acts.gcn) == GCN_LAYERS
    for (ax, h), (fax, fh) in zip(acts.gcn, full_acts.gcn):
        assert h.shape == (3, 5, GCN_WIDTH)
        assert np.array_equal(ax, fax) and np.array_equal(h, fh)
    for name in ("nspr", "load"):
        assert np.array_equal(getattr(acts, name), getattr(full_acts, name))
    for name in ("nspr_out", "load_out", "combined", "out"):
        np.testing.assert_allclose(getattr(acts, name),
                                   getattr(full_acts, name), rtol=rtol,
                                   atol=rtol)
    assert stack_activations(saved[:1]) is saved[0]

def test_forward_shapes_and_validation():
    net = make_net(n=5, n_actions=4)
    psn = np.random.default_rng(0).random((5, PSN_FEATURES))
    nspr = np.random.default_rng(1).random(NSPR_INPUT_WIDTH)
    z = net.forward(psn, nspr)
    assert z.shape == (4,)
    with pytest.raises(ConfigurationError):
        net.forward(psn[:3], nspr)
    with pytest.raises(ConfigurationError):
        net.forward(psn, nspr[:2])
    with pytest.raises(ConfigurationError):
        net.forward(psn, nspr, load=np.zeros(LOAD_INPUT_WIDTH))


def test_load_branch_requires_load():
    net = make_net(n=4, n_actions=2, use_load=True)
    psn = np.zeros((4, PSN_FEATURES))
    nspr = np.zeros(NSPR_INPUT_WIDTH)
    with pytest.raises(ConfigurationError):
        net.forward(psn, nspr)
    z = net.forward(psn, nspr, load=np.zeros(LOAD_INPUT_WIDTH))
    assert z.shape == (2,)


def test_zeroed_actor_gives_uniform_policy():
    net = make_net(n=4, n_actions=6)
    for arr in net.params.arrays().values():
        arr[:] = 0.0
    z = net.forward(np.ones((4, PSN_FEATURES)), np.ones(NSPR_INPUT_WIDTH))
    np.testing.assert_allclose(softmax(z), np.full(6, 1 / 6), atol=1e-15)


def test_critic_output_is_clamped_nonnegative():
    rng = np.random.default_rng(2)
    for seed in range(10):
        net = make_net(rng_seed=seed, n=4, n_actions=1, activation="relu")
        v = net.forward(rng.random((4, PSN_FEATURES)),
                        rng.random(NSPR_INPUT_WIDTH))
        assert v.shape == (1,)
        assert v[0] >= 0.0


def test_isolated_node_matches_hand_computation():
    """On a single node the propagation is identity, so the whole GCN is a
    plain MLP that can be recomputed with numpy directly."""
    net = make_net(n=1, n_actions=2, width=5)
    x = np.array([[0.2, 0.4, 0.6, 0.8]])
    arrs = net.params.arrays()
    h = x.copy()
    for layer in range(GCN_LAYERS):
        h = np.tanh(h @ arrs[f"gcn.{layer}.w"] + arrs[f"gcn.{layer}.b"])
    got = gcn_forward(net, x)
    np.testing.assert_allclose(got, h, atol=1e-12)


def test_gcn_permutation_equivariance_once():
    rng = np.random.default_rng(21)
    adj = random_adjacency(rng, 6)
    x = rng.normal(size=(6, PSN_FEATURES))
    perm = rng.permutation(6)
    p = np.eye(6)[perm]

    base = SliceNet(normalized_propagation(adj), 3, False, "tanh",
                    np.random.default_rng(0))
    shuffled = SliceNet(normalized_propagation(p @ adj @ p.T), 3, False,
                        "tanh", np.random.default_rng(0))
    shuffled.params.load_arrays(base.params.arrays())
    np.testing.assert_allclose(gcn_forward(shuffled, p @ x),
                               p @ gcn_forward(base, x), atol=1e-12)


# -- checkpoint container ---------------------------------------------------------

def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    net = make_net(rng_seed=3, n=4, n_actions=3, use_load=True)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net.manifest(), net.params.arrays())
    manifest, arrays = load_checkpoint(path)
    assert manifest["n_actions"] == 3
    assert manifest["use_load"] is True
    for name, arr in net.params.arrays().items():
        np.testing.assert_array_equal(arrays[name], arr)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    net = make_net(rng_seed=4)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net.manifest(), net.params.arrays())
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    net = make_net(rng_seed=4)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net.manifest(), net.params.arrays())
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_short_header(tmp_path):
    path = tmp_path / "short.ckpt"
    path.write_bytes(b"SLNC\x01\x00\x00\x00")
    with pytest.raises(CheckpointError, match="'manifest_length'"):
        load_checkpoint(path)


def test_checkpoint_rejects_manifest_without_tensors(tmp_path):
    blob = b'{"n_actions": 3}'
    path = tmp_path / "notensors.ckpt"
    path.write_bytes(b"SLNC" + struct.pack("<II", 2, len(blob)) + blob)
    with pytest.raises(CheckpointError, match="'tensors'"):
        load_checkpoint(path)


def test_checkpoint_refuses_format_version_1(tmp_path):
    """Version 1 stored every tensor as float64 without naming a dtype;
    it is refused, not converted."""
    blob = json.dumps({"tensors": [{"name": "w", "shape": [1]}]})
    path = tmp_path / "v1.ckpt"
    path.write_bytes(b"SLNC" + struct.pack("<II", 1, len(blob)) + blob.encode()
                     + np.zeros(1).tobytes())
    with pytest.raises(CheckpointError,
                       match="unsupported checkpoint version 1"):
        load_checkpoint(path)


@pytest.mark.parametrize("key,value,field", [
    ("name", None, "'tensors[0].name'"), ("name", [], "'tensors[0].name'"),
    ("shape", [True], "'tensors[0].shape'"),
    ("dtype", "<i8", "'tensors[0].dtype'"),
    ("dtype", ["<f8"], "'tensors[0].dtype'"),
    ("dtype", None, "'tensors[0].dtype'")])
def test_checkpoint_names_a_bad_tensor_entry(tmp_path, key, value, field):
    blob = json.dumps({"tensors": [{"name": "w", "shape": [1], "dtype": "<f8",
                                    key: value}]})
    path = tmp_path / "badtensor.ckpt"
    path.write_bytes(b"SLNC" + struct.pack("<II", 2, len(blob)) + blob.encode()
                     + np.zeros(1).tobytes())
    with pytest.raises(CheckpointError, match=re.escape(field)):
        load_checkpoint(path)


def test_load_arrays_shape_and_name_guard():
    net = make_net(rng_seed=5)
    good = net.params.arrays()
    bad = dict(good)
    bad["out.b"] = np.zeros(99)
    with pytest.raises(CheckpointError):
        net.params.load_arrays(bad)
    missing = dict(good)
    del missing["out.b"]
    with pytest.raises(CheckpointError):
        net.params.load_arrays(missing)
    extra = dict(good)
    extra["mystery"] = np.zeros(1)
    with pytest.raises(CheckpointError):
        net.params.load_arrays(extra)


def test_load_arrays_refuses_another_dtype():
    net = make_net(rng_seed=5)
    narrow = {k: v.astype(np.float32) for k, v in net.params.arrays().items()}
    before = {k: v.copy() for k, v in net.params.arrays().items()}
    with pytest.raises(CheckpointError, match="dtype mismatch"):
        net.params.load_arrays(narrow)
    for k, v in net.params.arrays().items():
        assert v.dtype == np.float64
        np.testing.assert_array_equal(v, before[k])


def test_parameter_set_holds_float32_or_float64_only():
    with pytest.raises(ConfigurationError, match="float32 or float64"):
        ParameterSet(np.int64)
    with pytest.raises(ConfigurationError, match="float32 or float64"):
        ParameterSet(np.float16)


def make_float32_net(rng_seed=0, n=4, n_actions=3, use_load=False,
                     activation="tanh"):
    return make_net(rng_seed, n, n_actions, use_load, activation=activation,
                    dtype=np.float32)


def test_float32_init_rounds_the_float64_draws_once():
    wide = make_net(rng_seed=2, use_load=True)
    narrow = make_float32_net(rng_seed=2, use_load=True)
    assert narrow.propagation.dtype == np.float32
    np.testing.assert_array_equal(narrow.propagation,
                                  wide.propagation.astype(np.float32))
    for k, v in wide.params.arrays().items():
        assert narrow.params[k].dtype == np.float32
        np.testing.assert_array_equal(narrow.params[k], v.astype(np.float32))


@pytest.mark.parametrize("n,n_actions,activation", [
    (4, 3, "tanh"), (4, 1, "relu"),
    # an out.w large enough that its gradient is kept as factors
    (150, 60, "tanh")])
def test_float32_net_stays_float32_from_forward_to_sgd(n, n_actions,
                                                       activation):
    """float64 observations in, float32 outputs, activations, gradients
    and parameters after a step."""
    net = make_float32_net(rng_seed=3, n=n, n_actions=n_actions,
                           use_load=True, activation=activation)
    rng = np.random.default_rng(4)
    t = 3
    psn = rng.uniform(size=(t, n, PSN_FEATURES))
    nspr = rng.uniform(size=(t, NSPR_INPUT_WIDTH))
    load = rng.uniform(size=(t, LOAD_INPUT_WIDTH))
    out, acts = net.forward_batch(psn, nspr, load)
    assert out.dtype == np.float32 and acts.combined.dtype == np.float32
    assert all(ax.dtype == h.dtype == np.float32 for ax, h in acts.gcn)
    net.backward(acts, rng.normal(size=out.shape))
    for g in net.params.grads.values():
        for part in (g if isinstance(g, tuple) else (g,)):
            assert part.dtype == np.float32
    net.params.sgd_step(1e-3)
    assert all(v.dtype == np.float32 for v in net.params.arrays().values())


def test_float32_checkpoint_round_trip_is_bit_exact(tmp_path):
    net = make_float32_net(rng_seed=3, use_load=True)
    path = tmp_path / "net32.ckpt"
    save_checkpoint(path, net.manifest(), net.params.arrays())
    manifest, arrays = load_checkpoint(path)
    assert {e["dtype"] for e in manifest["tensors"]} == {"<f4"}
    size = sum(v.size for v in net.params.arrays().values())
    assert path.stat().st_size == 12 + len(json.dumps(
        manifest, sort_keys=True)) + 4 * size
    for name, arr in net.params.arrays().items():
        assert arrays[name].dtype == np.float32
        np.testing.assert_array_equal(arrays[name], arr)


def test_checkpoint_refuses_to_save_an_integer_array(tmp_path):
    with pytest.raises(CheckpointError, match="int64"):
        save_checkpoint(tmp_path / "int.ckpt", {},
                        {"w": np.zeros(2, dtype=np.int64)})
