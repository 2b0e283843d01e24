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
             activation="tanh"):
    rng = np.random.default_rng(rng_seed)
    adj = random_adjacency(rng, n)
    prop = normalized_propagation(adj)
    return SliceNet(prop, n_actions, use_load, activation,
                    np.random.default_rng(rng_seed), gcn_width=width)


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

def test_forward_saves_gcn_activations_for_the_batch():
    """forward_batch over saved activations gives the bits of a full pass
    and the same activations to differentiate."""
    net = make_net(n=5, n_actions=4, use_load=True)
    rng = np.random.default_rng(4)
    psn = rng.random((2, 5, PSN_FEATURES))
    nspr = rng.random((2, NSPR_INPUT_WIDTH))
    load = rng.random((2, LOAD_INPUT_WIDTH))
    saved = [[], []]
    for i in range(2):
        net.forward(psn[i], nspr[i], load[i], saved=saved[i])
        assert len(saved[i]) == GCN_LAYERS
        assert saved[i][-1][1].shape == (1, 5, GCN_WIDTH)
    gcn = [tuple(np.concatenate(parts) for parts in zip(*layer))
           for layer in zip(*saved)]
    reused, acts = net.forward_batch(psn, nspr, load, gcn)
    full, full_acts = net.forward_batch(psn, nspr, load)
    assert np.array_equal(reused, full)
    for (ax, h), (fax, fh) in zip(acts.gcn, full_acts.gcn):
        assert np.array_equal(ax, fax) and np.array_equal(h, fh)
    with pytest.raises(ConfigurationError, match="saved GCN activations"):
        net.forward_batch(psn, nspr, load, gcn[:2])

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
    path.write_bytes(b"SLNC" + struct.pack("<II", 1, len(blob)) + blob)
    with pytest.raises(CheckpointError, match="'tensors'"):
        load_checkpoint(path)


@pytest.mark.parametrize("key,value,field", [
    ("name", None, "'tensors[0].name'"), ("name", [], "'tensors[0].name'"),
    ("shape", [True], "'tensors[0].shape'")])
def test_checkpoint_names_a_bad_tensor_entry(tmp_path, key, value, field):
    blob = json.dumps({"tensors": [{"name": "w", "shape": [1], key: value}]})
    path = tmp_path / "badtensor.ckpt"
    path.write_bytes(b"SLNC" + struct.pack("<II", 1, len(blob)) + blob.encode()
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
