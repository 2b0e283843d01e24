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

Everything is numpy with hand-written gradients, in the dtype the
network is built with: float64 by default, float32 for `Agent`'s
learner (the README's numerics contract). Parameters, the propagation
matrix, activations, gradients and the SGD step all share that dtype;
observations arrive in float64 and are cast once, at `forward_batch`'s
boundary, and `softmax`/`log_softmax` compute in float64. The
forward pass takes a stack of T observations, and the backward pass is
closed-form over such a stack: the output-layer gradient C^T G over the
(T, 60|N| + ...) concatenations has rank <= T; a large actor keeps it as
its two factors, which the SGD step multiplies out in cache-sized row
blocks, and each graph-convolution layer's gradient is a GEMM over the
stacked (T*|N|, 60) node features. `forward` is the one-observation
case used at action selection; it can hand over the pass's whole
`Activations`, and `stack_activations` stacks T of them into what
`backward` differentiates through, with no second pass.

Checkpoints are a versioned binary: a JSON manifest (names, shapes,
dtypes, architecture fields) followed by the raw little-endian arrays in
manifest order, each in its recorded dtype ("<f4" or "<f8"). Round-trips
are bit-exact.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigurationError, whole_number

GCN_LAYERS = 3
GCN_WIDTH = 60
NSPR_FC_WIDTH = 4
LOAD_FC_WIDTH = 100
NSPR_INPUT_WIDTH = 4
PSN_FEATURES = 4
LOAD_INPUT_WIDTH = 300

# rows of a factored gradient formed at once by sgd_step: a 256 x 126
# block is 258 KB in float64 (129 KB in float32), small enough to stay
# in cache between its product, its scaling and its subtraction
SGD_BLOCK_ROWS = 256

# the factored form pays only for a large product: below this many bytes
# the dense C^T G is applied faster (one vCPU, T = 1-5: 6-14 us dense vs
# 12-19 us factored for desk's 45 KB, 84-200 vs 97-235 us at 781 KB, but
# 336-562 vs 232-518 us at 1.9 MB and 1.9-3.0 vs 1.1-2.5 ms for the
# reference actor's 9 MB, all in float64; the float32 learner's are half)
DENSE_GRADIENT_BYTES = 1 << 20

# the most actor plus critic parameters an `Agent` allocates: 200 MB in
# float32. The count grows with nodes times servers, so a topology far
# below substrate.MAX_NODES can already ask for gigabytes.
MAX_PARAMETERS = 50_000_000

# the dtypes a network's arrays may have, by their checkpoint code
TENSOR_DTYPES = {"<f4": np.dtype(np.float32), "<f8": np.dtype(np.float64)}


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


def parameter_count(n_nodes: int, n_outputs: int, use_load: bool,
                    gcn_width: int = GCN_WIDTH) -> int:
    """How many parameters a `SliceNet` of this shape holds, counted
    without allocating it."""
    count = (PSN_FEATURES + 1) * gcn_width \
        + (GCN_LAYERS - 1) * (gcn_width + 1) * gcn_width \
        + (NSPR_INPUT_WIDTH + 1) * NSPR_FC_WIDTH
    combined = gcn_width * n_nodes + NSPR_FC_WIDTH
    if use_load:
        count += (LOAD_INPUT_WIDTH + 1) * LOAD_FC_WIDTH
        combined += LOAD_FC_WIDTH
    return count + (combined + 1) * n_outputs


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-d arrays. An inner dimension of 1 (a one-step
    episode's rows, the critic's one output) is a broadcast product, bit
    for bit the same: numpy runs it outside BLAS, about 6-10x slower
    (256 x 1 @ 1 x 126: 59-101 us against 7-10 us at 2)."""
    if a.shape[1] == 1:
        return a * b
    return a @ b


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
    """Named parameter arrays of one dtype, with their gradients."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        if self.dtype not in TENSOR_DTYPES.values():
            raise ConfigurationError(
                f"parameters must be float32 or float64, got {self.dtype}")
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        # bumped by every sgd_step and load_arrays: activations computed
        # at one version are stale at any other
        self.version = 0

    def add(self, name: str, values: np.ndarray) -> np.ndarray:
        """Store values, rounded once to the set's dtype."""
        if name in self.values:
            raise ConfigurationError(f"duplicate parameter {name!r}")
        arr = np.array(values, dtype=self.dtype)
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
                    block = matmul(c[:, rows].T, g_out)
                    block *= lr
                    w[rows] -= block
            else:
                g *= lr
                w -= g
        self.grads.clear()
        self.version += 1

    def arrays(self) -> dict[str, np.ndarray]:
        return dict(self.values)

    def check_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """CheckpointError unless arrays holds every parameter, each in
        its shape and the set's dtype, and nothing else."""
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
            if values.dtype != self.dtype:
                raise CheckpointError(
                    f"dtype mismatch for {name!r}: "
                    f"{values.dtype} vs {self.dtype}")

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Replace every parameter; a failed check replaces none."""
        self.check_arrays(arrays)
        for name, values in arrays.items():
            self.values[name] = np.array(values, dtype=self.dtype)
        self.version += 1


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


def stack_activations(passes: list[Activations]) -> Activations:
    """One T-row Activations from T passes over one observation each."""
    if len(passes) == 1:
        return passes[0]
    gcn = [tuple(np.concatenate(parts) for parts in zip(*layers))
           for layers in zip(*(a.gcn for a in passes))]
    rows = {name: (None if getattr(passes[0], name) is None else
                   np.concatenate([getattr(a, name) for a in passes]))
            for name in ("nspr", "nspr_out", "load", "load_out",
                         "combined", "out")}
    return Activations(gcn=gcn, **rows)


class SliceNet:
    """One network instance (actor or critic flavor).

    activation: "tanh" applies to non-output layers only, output linear
    (actor); "relu" applies to every layer including the output (critic).
    dtype is float64 or float32; the Glorot draws are float64 either way,
    from the same generator, and are rounded once.
    """

    def __init__(self, propagation: np.ndarray, n_actions: int,
                 use_load: bool, activation: str,
                 rng: np.random.Generator, gcn_width: int = GCN_WIDTH,
                 dtype=np.float64):
        if activation not in ("tanh", "relu"):
            raise ConfigurationError(f"unknown activation {activation!r}")
        self.params = ParameterSet(dtype)
        self.dtype = self.params.dtype
        self.propagation = np.asarray(propagation, dtype=self.dtype)
        self.n_nodes = self.propagation.shape[0]
        self.n_actions = n_actions
        self.use_load = use_load
        self.activation = activation
        self.gcn_width = gcn_width

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

        saved, when given, receives the pass's one-row `Activations`, for
        a later `backward` through `stack_activations`.
        """
        stacked = None if load is None else np.asarray(load)[None]
        out, acts = self.forward_batch(np.asarray(psn)[None],
                                       np.asarray(nspr)[None], stacked)
        if saved is not None:
            saved.append(acts)
        return out[0]

    def forward_batch(self, psn: np.ndarray, nspr: np.ndarray,
                      load: np.ndarray | None = None
                      ) -> tuple[np.ndarray, Activations]:
        """Outputs (T, n_outputs) for T stacked observations, plus the
        activations `backward` differentiates through.

        The features are cast to the network's dtype here; the outputs
        are in it too.
        """
        psn = np.asarray(psn, dtype=self.dtype)
        nspr = np.asarray(nspr, dtype=self.dtype)
        if psn.ndim != 3 or psn.shape[1:] != (self.n_nodes, PSN_FEATURES):
            raise ConfigurationError(
                f"node features must be {(self.n_nodes, PSN_FEATURES)}, "
                f"got {psn.shape[1:]}")
        t = psn.shape[0]
        if nspr.shape != (t, NSPR_INPUT_WIDTH):
            raise ConfigurationError(
                f"request features must be ({NSPR_INPUT_WIDTH},)")
        p = self.params
        gcn = []
        nodes = self._gcn(psn, gcn)
        nspr_out = self._act(nspr @ p["nspr.w"] + p["nspr.b"])
        parts = [nodes.reshape(t, -1), nspr_out]
        load_out = None
        if self.use_load:
            if load is None:
                raise ConfigurationError("this network requires load features")
            load = np.asarray(load, dtype=self.dtype)
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
        the batch's outputs, cast to the network's dtype; the results
        replace `params.grads`. The output weights' gradient
        combined^T g_out is stored as its factors (combined, g_out) when
        they hold fewer values than it and it would exceed
        DENSE_GRADIENT_BYTES.
        """
        p = self.params
        grads = {}
        g = np.asarray(grad_out, dtype=self.dtype)
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
            grads["out.w"] = matmul(acts.combined.T, g)
        grads["out.b"] = g.sum(axis=0)
        # G W^T, bit for bit. More than one output (the actor) is formed
        # as (W G^T)^T, which streams W once, row by row: twice as fast at
        # T = 4-8 in float32. One output (the critic) is a broadcast: on
        # the reference critic at T = 5, 7 us against 71 us for G W^T and
        # 86 us for (W G^T)^T.
        w = p["out.w"]
        g_combined = matmul(g, w.T) if w.shape[1] == 1 else (w @ g.T).T
        gcn_end = self.n_nodes * self.gcn_width
        dense = [("nspr", acts.nspr, acts.nspr_out,
                  g_combined[:, gcn_end:gcn_end + NSPR_FC_WIDTH])]
        if self.use_load:
            dense.append(("load", acts.load, acts.load_out,
                          g_combined[:, gcn_end + NSPR_FC_WIDTH:]))
        for name, x, y, g_y in dense:
            g_pre = self._act_grad(y, g_y)
            grads[f"{name}.w"] = matmul(x.T, g_pre)
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
_VERSION = 2            # 2: each tensor records its dtype
_HEADER_BYTES = 12      # magic, then version and manifest length as <II


def _dtype_code(array: np.ndarray) -> str:
    code = array.dtype.newbyteorder("<").str
    if code not in TENSOR_DTYPES:
        raise CheckpointError(
            f"cannot save a {array.dtype} array: a checkpoint holds "
            f"float32 or float64")
    return code


def save_checkpoint(path, manifest: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write manifest + arrays; arrays are recorded in sorted-name order,
    each in its own dtype."""
    names = sorted(arrays)
    codes = {n: _dtype_code(np.asarray(arrays[n])) for n in names}
    full = dict(manifest)
    full["tensors"] = [{"name": n, "shape": list(arrays[n].shape),
                        "dtype": codes[n]} for n in names]
    blob = json.dumps(full, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(arrays[n], dtype=codes[n]).tobytes())


def manifest_field(manifest: dict, name: str, what: str = "checkpoint"):
    """manifest[name], or a CheckpointError naming the missing field."""
    if not isinstance(manifest, dict) or name not in manifest:
        raise CheckpointError(f"{what} manifest lacks field {name!r}")
    return manifest[name]


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
        if not isinstance(shape, list) or not all(map(whole_number, shape)):
            raise CheckpointError(
                f"checkpoint manifest field 'tensors[{i}].shape' is not a "
                f"list of sizes: {shape!r}")
        code = manifest_field(entry, "dtype", f"checkpoint tensors[{i}]")
        if not isinstance(code, str) or code not in TENSOR_DTYPES:
            raise CheckpointError(
                f"checkpoint manifest field 'tensors[{i}].dtype' is not one "
                f"of {sorted(TENSOR_DTYPES)}: {code!r}")
        size = math.prod(shape)         # exact: no int64 wrap-around
        end = offset + size * TENSOR_DTYPES[code].itemsize
        if end > len(raw):
            raise CheckpointError("truncated checkpoint payload")
        arrays[name] = np.frombuffer(
            raw[offset:end], dtype=code).reshape(shape).astype(
                TENSOR_DTYPES[code])
        offset = end
    if offset != len(raw):
        raise CheckpointError("trailing bytes after checkpoint payload")
    return manifest, arrays
