"""Actor and critic networks: GCN substrate encoder plus FC heads.

Both networks share one architecture, owned twice with independent
parameters. The substrate branch runs K=3 graph-convolution layers
producing 60 features per node over the fixed propagation matrix
D^{-1/2}(A+I)D^{-1/2}; the request branch is a 4-unit FC layer; the
optional load branch is a 100-unit FC layer over the 300 forecast
values. The concatenation (60|N| + 4, or 60|N| + 104 with the load
branch) feeds one output layer: |S| action scores for the actor, a
single value neuron for the critic.

The actor applies tanh on every non-output layer and leaves the output
linear; the critic applies relu on every layer, output included.

Everything is plain float64 numpy with hand-written gradients. The
forward pass takes a stack of T observations, so an episode's update is
one batched forward and one closed-form backward: the output-layer
gradient C^T G over the (T, 60|N| + ...) concatenations has rank <= T;
a large actor keeps it as its two factors, which the SGD step multiplies
out in cache-sized row blocks, and each graph-convolution layer's gradient
is a GEMM over the stacked (T*|N|, 60) node features. `forward` is the
one-observation case used at action selection; it can hand its GCN
activations to a later batched pass over the same observations, which
then skips the graph convolutions.

Checkpoints are a versioned binary: a JSON manifest (names, shapes,
architecture fields) followed by the raw little-endian float64 arrays in
manifest order. Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigurationError

GCN_LAYERS = 3
GCN_WIDTH = 60
NSPR_FC_WIDTH = 4
LOAD_FC_WIDTH = 100
NSPR_INPUT_WIDTH = 4
PSN_FEATURES = 4
LOAD_INPUT_WIDTH = 300

# rows of a factored gradient formed at once by sgd_step: a 256 x 126
# block is 258 KB, small enough to stay in cache between its product,
# its scaling and its subtraction
SGD_BLOCK_ROWS = 256

# the factored form pays only for a large product: below this many bytes
# the dense C^T G is applied faster (one vCPU, T = 1-5: 6-14 us dense vs
# 12-19 us factored for desk's 45 KB, 84-200 vs 97-235 us at 781 KB, but
# 336-562 vs 232-518 us at 1.9 MB and 1.9-3.0 vs 1.1-2.5 ms for the
# reference actor's 9 MB)
DENSE_GRADIENT_BYTES = 1 << 20


def normalized_propagation(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric-normalized adjacency with self-loops."""
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError("adjacency must be square")
    a_hat = a + np.eye(a.shape[0])
    d = a_hat.sum(axis=1)
    d_inv_sqrt = 1.0 / np.sqrt(d)
    return a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the max."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    """log softmax over the last axis, shifted by the max."""
    z = np.asarray(z, dtype=np.float64)
    m = np.max(z, axis=-1, keepdims=True)
    return z - (np.log(np.exp(z - m).sum(axis=-1, keepdims=True)) + m)


class ParameterSet:
    """Named parameter arrays with their gradients."""

    def __init__(self):
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def add(self, name: str, values: np.ndarray) -> np.ndarray:
        if name in self.values:
            raise ConfigurationError(f"duplicate parameter {name!r}")
        arr = np.array(values, dtype=np.float64)
        self.values[name] = arr
        return arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[name]

    def sgd_step(self, lr: float) -> None:
        """Descend lr along every stored gradient, then drop the gradients.

        The step is taken in place: each gradient is scaled into itself
        and subtracted, so no parameter-sized temporary is allocated. A
        gradient stored as factors (C, G) stands for C^T G; it is formed,
        scaled and subtracted SGD_BLOCK_ROWS rows at a time, each element
        from the same products and roundings as the whole product.
        """
        for name, g in self.grads.items():
            w = self.values[name]
            if isinstance(g, tuple):
                c, g_out = g
                for start in range(0, w.shape[0], SGD_BLOCK_ROWS):
                    rows = slice(start, start + SGD_BLOCK_ROWS)
                    block = c[:, rows].T @ g_out
                    block *= lr
                    w[rows] -= block
            else:
                g *= lr
                w -= g
        self.grads.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return dict(self.values)

    def check_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """CheckpointError unless arrays holds every parameter, each in
        its shape, and nothing else."""
        if set(arrays) != set(self.values):
            missing = set(self.values) - set(arrays)
            extra = set(arrays) - set(self.values)
            raise CheckpointError(
                f"parameter name mismatch (missing {sorted(missing)}, "
                f"unexpected {sorted(extra)})")
        for name, values in arrays.items():
            if self.values[name].shape != values.shape:
                raise CheckpointError(
                    f"shape mismatch for {name!r}: "
                    f"{values.shape} vs {self.values[name].shape}")

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Replace every parameter; a failed check replaces none."""
        self.check_arrays(arrays)
        for name, values in arrays.items():
            self.values[name] = np.array(values, dtype=np.float64)


@dataclass
class Activations:
    """What `SliceNet.backward` needs from a batched forward pass.

    Layer outputs are kept post-activation: tanh' = 1 - y^2 and
    relu' = [y > 0] are both functions of the output alone.
    """

    gcn: list[tuple[np.ndarray, np.ndarray]]   # per layer: (A·H_{k-1}, H_k)
    nspr: np.ndarray                 # (T, 4) request features
    nspr_out: np.ndarray             # (T, 4)
    load: np.ndarray | None          # (T, 300) forecast features
    load_out: np.ndarray | None      # (T, 100)
    combined: np.ndarray             # (T, combined_width)
    out: np.ndarray                  # (T, n_outputs), after the output relu


class SliceNet:
    """One network instance (actor or critic flavor).

    activation: "tanh" applies to non-output layers only, output linear
    (actor); "relu" applies to every layer including the output (critic).
    """

    def __init__(self, propagation: np.ndarray, n_actions: int,
                 use_load: bool, activation: str,
                 rng: np.random.Generator, gcn_width: int = GCN_WIDTH):
        if activation not in ("tanh", "relu"):
            raise ConfigurationError(f"unknown activation {activation!r}")
        self.propagation = np.asarray(propagation, dtype=np.float64)
        self.n_nodes = self.propagation.shape[0]
        self.n_actions = n_actions
        self.use_load = use_load
        self.activation = activation
        self.gcn_width = gcn_width
        self.params = ParameterSet()

        width_in = PSN_FEATURES
        for layer in range(GCN_LAYERS):
            self.params.add(f"gcn.{layer}.w", glorot(rng, width_in, gcn_width))
            self.params.add(f"gcn.{layer}.b", np.zeros(gcn_width))
            width_in = gcn_width
        self.params.add("nspr.w", glorot(rng, NSPR_INPUT_WIDTH, NSPR_FC_WIDTH))
        self.params.add("nspr.b", np.zeros(NSPR_FC_WIDTH))
        combined = gcn_width * self.n_nodes + NSPR_FC_WIDTH
        if use_load:
            self.params.add("load.w", glorot(rng, LOAD_INPUT_WIDTH, LOAD_FC_WIDTH))
            self.params.add("load.b", np.zeros(LOAD_FC_WIDTH))
            combined += LOAD_FC_WIDTH
        self.combined_width = combined
        self.params.add("out.w", glorot(rng, combined, n_actions))
        self.params.add("out.b", np.zeros(n_actions))

    # -- forward -------------------------------------------------------------

    def _act(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x) if self.activation == "tanh" else np.maximum(x, 0.0)

    def _act_grad(self, y: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Chain g through the activation whose output is y."""
        return (1.0 - y * y) * g if self.activation == "tanh" else (y > 0.0) * g

    def _gcn(self, x: np.ndarray, saved: list | None = None) -> np.ndarray:
        """K propagation layers over stacked (T, |N|, 4) node features;
        saved, when given, receives each layer's (A·H_{k-1}, H_k)."""
        p = self.params
        for layer in range(GCN_LAYERS):
            ax = self.propagation @ x
            x = self._act(ax @ p[f"gcn.{layer}.w"] + p[f"gcn.{layer}.b"])
            if saved is not None:
                saved.append((ax, x))
        return x

    def forward(self, psn: np.ndarray, nspr: np.ndarray,
                load: np.ndarray | None = None,
                saved: list | None = None) -> np.ndarray:
        """Score vector over actions (actor) or 1-vector (critic).

        saved, when given, receives each GCN layer's (A·H_{k-1}, H_k),
        each of shape (1, |N|, width), for a later `forward_batch`.
        """
        stacked = None if load is None else np.asarray(load)[None]
        out, acts = self.forward_batch(np.asarray(psn)[None],
                                       np.asarray(nspr)[None], stacked)
        if saved is not None:
            saved.extend(acts.gcn)
        return out[0]

    def forward_batch(self, psn: np.ndarray, nspr: np.ndarray,
                      load: np.ndarray | None = None,
                      gcn: list | None = None
                      ) -> tuple[np.ndarray, Activations]:
        """Outputs (T, n_outputs) for T stacked observations, plus the
        activations `backward` differentiates through.

        gcn, when given, holds the GCN layers' (A·H_{k-1}, H_k) already
        computed for these node features, stacked to (T, |N|, width);
        the graph convolutions are then not run again.
        """
        psn = np.asarray(psn, dtype=np.float64)
        nspr = np.asarray(nspr, dtype=np.float64)
        if psn.ndim != 3 or psn.shape[1:] != (self.n_nodes, PSN_FEATURES):
            raise ConfigurationError(
                f"node features must be {(self.n_nodes, PSN_FEATURES)}, "
                f"got {psn.shape[1:]}")
        t = psn.shape[0]
        if nspr.shape != (t, NSPR_INPUT_WIDTH):
            raise ConfigurationError(
                f"request features must be ({NSPR_INPUT_WIDTH},)")
        p = self.params
        if gcn is None:
            gcn = []
            nodes = self._gcn(psn, gcn)
        else:
            if (len(gcn) != GCN_LAYERS or gcn[-1][1].shape
                    != (t, self.n_nodes, self.gcn_width)):
                raise ConfigurationError(
                    f"saved GCN activations must be {GCN_LAYERS} layers "
                    f"of shape {(t, self.n_nodes, self.gcn_width)}")
            nodes = gcn[-1][1]
        nspr_out = self._act(nspr @ p["nspr.w"] + p["nspr.b"])
        parts = [nodes.reshape(t, -1), nspr_out]
        load_out = None
        if self.use_load:
            if load is None:
                raise ConfigurationError("this network requires load features")
            load = np.asarray(load, dtype=np.float64)
            if load.shape != (t, LOAD_INPUT_WIDTH):
                raise ConfigurationError(
                    f"load features must be ({LOAD_INPUT_WIDTH},)")
            load_out = self._act(load @ p["load.w"] + p["load.b"])
            parts.append(load_out)
        elif load is not None:
            raise ConfigurationError("this network takes no load features")
        combined = np.concatenate(parts, axis=1)
        out = combined @ p["out.w"] + p["out.b"]
        if self.activation == "relu":
            out = np.maximum(out, 0.0)
        return out, Activations(gcn, nspr, nspr_out, load, load_out,
                                combined, out)

    # -- backward ------------------------------------------------------------

    def backward(self, acts: Activations, grad_out: np.ndarray) -> None:
        """Gradients of sum_t grad_out[t] · out[t] for every parameter.

        grad_out is (T, n_outputs), the loss gradient with respect to
        the batch's outputs; the results replace `params.grads`. The
        output weights' gradient combined^T g_out is stored as its
        factors (combined, g_out) when they hold fewer values than it
        and it would exceed DENSE_GRADIENT_BYTES.
        """
        p = self.params
        grads = {}
        g = np.asarray(grad_out, dtype=np.float64)
        if self.activation == "relu":
            g = (acts.out > 0.0) * g
        # C^T G has rank <= T: when its factors are the smaller form (the
        # actor's many scores) and the product is large, keep them for
        # sgd_step to form in blocks
        t, width = acts.combined.shape
        product = width * g.shape[1]
        if (t * (width + g.shape[1]) < product
                and product * g.itemsize > DENSE_GRADIENT_BYTES):
            grads["out.w"] = (acts.combined, g)
        else:
            grads["out.w"] = acts.combined.T @ g
        grads["out.b"] = g.sum(axis=0)
        g_combined = g @ p["out.w"].T
        gcn_end = self.n_nodes * self.gcn_width
        dense = [("nspr", acts.nspr, acts.nspr_out,
                  g_combined[:, gcn_end:gcn_end + NSPR_FC_WIDTH])]
        if self.use_load:
            dense.append(("load", acts.load, acts.load_out,
                          g_combined[:, gcn_end + NSPR_FC_WIDTH:]))
        for name, x, y, g_y in dense:
            g_pre = self._act_grad(y, g_y)
            grads[f"{name}.w"] = x.T @ g_pre
            grads[f"{name}.b"] = g_pre.sum(axis=0)

        g_h = g_combined[:, :gcn_end].reshape(t, self.n_nodes, self.gcn_width)
        for layer in range(GCN_LAYERS - 1, -1, -1):
            ax, h = acts.gcn[layer]
            g_pre = self._act_grad(h, g_h)
            width_in = ax.shape[-1]
            grads[f"gcn.{layer}.w"] = (ax.reshape(-1, width_in).T
                                       @ g_pre.reshape(-1, self.gcn_width))
            grads[f"gcn.{layer}.b"] = g_pre.sum(axis=(0, 1))
            if layer > 0:
                g_h = self.propagation.T @ (g_pre @ p[f"gcn.{layer}.w"].T)
        p.grads = grads

    def manifest(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "n_actions": self.n_actions,
            "use_load": self.use_load,
            "activation": self.activation,
            "gcn_layers": GCN_LAYERS,
            "gcn_width": self.gcn_width,
        }


# -- checkpoint file format -------------------------------------------------

_MAGIC = b"SLNC"
_VERSION = 1
_HEADER_BYTES = 12      # magic, then version and manifest length as <II


def save_checkpoint(path, manifest: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write manifest + arrays; arrays are recorded in sorted-name order."""
    names = sorted(arrays)
    full = dict(manifest)
    full["tensors"] = [{"name": n, "shape": list(arrays[n].shape)} for n in names]
    blob = json.dumps(full, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(arrays[n], dtype="<f8").tobytes())


def manifest_field(manifest: dict, name: str, what: str = "checkpoint",
                   convert=None):
    """manifest[name], passed through convert when given, or a
    CheckpointError naming the missing or malformed field."""
    if not isinstance(manifest, dict) or name not in manifest:
        raise CheckpointError(f"{what} manifest lacks field {name!r}")
    if convert is None:
        return manifest[name]
    try:
        return convert(manifest[name])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{what} field {name!r} is malformed: {exc}") from exc


def finite_number(value):
    """value when it is a finite int or float, else a TypeError; a
    `manifest_field` convert."""
    # NaN fails the comparison; an int is compared exactly
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise TypeError(f"must be a finite number, got {value!r}")
    return value


def whole_number(value):
    """value when it is an int >= 0, else a TypeError; a
    `manifest_field` convert."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise TypeError(f"must be a whole number >= 0, got {value!r}")
    return value


def load_checkpoint(path):
    """Read a checkpoint; returns (manifest, arrays by name)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    if len(raw) < _HEADER_BYTES:
        raise CheckpointError(
            f"checkpoint header truncated: fields 'version' and "
            f"'manifest_length' need {_HEADER_BYTES} bytes, file has "
            f"{len(raw)}")
    version, blob_len = struct.unpack("<II", raw[4:_HEADER_BYTES])
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        manifest = json.loads(
            raw[_HEADER_BYTES:_HEADER_BYTES + blob_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint manifest: {exc}") from exc
    tensors = manifest_field(manifest, "tensors")
    if not isinstance(tensors, list):
        raise CheckpointError("checkpoint manifest field 'tensors' is not a list")
    offset = _HEADER_BYTES + blob_len
    arrays: dict[str, np.ndarray] = {}
    for i, entry in enumerate(tensors):
        name = manifest_field(entry, "name", f"checkpoint tensors[{i}]")
        if not isinstance(name, str):
            raise CheckpointError(
                f"checkpoint manifest field 'tensors[{i}].name' is not a "
                f"string: {name!r}")
        shape = manifest_field(entry, "shape", f"checkpoint tensors[{i}]")
        if not isinstance(shape, list) or not all(
                type(d) is int and d >= 0 for d in shape):
            raise CheckpointError(
                f"checkpoint manifest field 'tensors[{i}].shape' is not a "
                f"list of sizes: {shape!r}")
        size = math.prod(shape)         # exact: no int64 wrap-around
        end = offset + size * 8
        if end > len(raw):
            raise CheckpointError("truncated checkpoint payload")
        arrays[name] = np.frombuffer(
            raw[offset:end], dtype="<f8").reshape(shape).copy()
        offset = end
    if offset != len(raw):
        raise CheckpointError("trailing bytes after checkpoint payload")
    return manifest, arrays
