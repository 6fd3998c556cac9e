"""Dense feedforward classifier with explicit forward and backward passes.

The network is a stack of linear layers with relu or tanh activations; each
hidden layer can carry batch normalization, and the input can carry an
instance-normalization adapter (per-sample standardization over the feature
axis followed by a learnable scale and shift -- the dense analogue of
inserting IN layers into a conv net). The final linear layer is the
classifier; the activations feeding it are the penultimate features used by
the diagnostics and the feature-space regularizer.

Parameters live in a flat name -> array dict so optimizers, checkpoints and
weight-space ensembles are simple loops. Names and their freeze groups:

    layers.{i}.W / layers.{i}.b     backbone (classifier for the last i)
    bn.{i}.gamma / bn.{i}.beta      bn_affine
    bn.{i}.mean / bn.{i}.var        bn_stats (updated by train forwards,
                                    never by gradients)
    in_adapter.scale / .shift       in_adapter

Train-mode forwards normalize with batch statistics; eval-mode forwards use
running statistics and are pure per-row functions of the parameters.

forward and backward also take M independent models at once: every array
of the params carries a leading run axis (M, *shape), X is (M, B, d) and
each run m sees only params[k][m] and X[m]. Run m then goes through the
same per-slice matmuls, reductions and elementwise ops as a 2-D call on
its own slice, so its results are bitwise those of that call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .numkit import Rng

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
IN_EPS = 1e-5

GROUPS = ("backbone", "classifier", "bn_affine", "bn_stats", "in_adapter")

# indexes a per-feature vector (h,), or a stack of them (M, h), as one row
# that broadcasts over the batch axis
_ROW = np.s_[..., None, :]


@dataclass(frozen=True)
class MlpSpec:
    layer_widths: tuple  # (d, h1, ..., hL, C)
    activation: str = "relu"
    use_batchnorm: bool = False
    use_in_adapter: bool = False
    bn_eps: float = BN_EPS
    bn_momentum: float = BN_MOMENTUM

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise ValueError("need at least one hidden layer")
        if min(self.layer_widths) < 1:
            raise ValueError("all widths must be >= 1")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.bn_eps <= 0 or not (0.0 < self.bn_momentum <= 1.0):
            raise ValueError("bad batchnorm settings")

    @property
    def dim(self) -> int:
        return self.layer_widths[0]

    @property
    def num_classes(self) -> int:
        return self.layer_widths[-1]

    @property
    def n_linear(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def n_hidden(self) -> int:
        return self.n_linear - 1


@dataclass
class FreezeMask:
    backbone: bool = True
    classifier: bool = True
    bn_affine: bool = True
    bn_stats: bool = True
    in_adapter: bool = True

    @classmethod
    def all_trainable(cls):
        return cls()

    @classmethod
    def frozen_classifier(cls):
        return cls(classifier=False)

    @classmethod
    def only(cls, *groups):
        m = cls(backbone=False, classifier=False, bn_affine=False,
                bn_stats=False, in_adapter=False)
        for g in groups:
            if g not in GROUPS:
                raise ValueError(f"unknown group {g!r}")
            setattr(m, g, True)
        return m

    def trainable(self, group: str) -> bool:
        return getattr(self, group)


def group_of(key: str, spec: MlpSpec) -> str:
    if key.startswith("layers."):
        i = int(key.split(".")[1])
        return "classifier" if i == spec.n_linear - 1 else "backbone"
    if key.startswith("bn."):
        return "bn_affine" if key.endswith((".gamma", ".beta")) else "bn_stats"
    if key.startswith("in_adapter."):
        return "in_adapter"
    raise KeyError(key)


class ModelParams:
    """Flat parameter store with a fixed, deterministic key order."""

    def __init__(self, spec: MlpSpec, values: dict):
        self.spec = spec
        self.values = values

    def keys(self):
        return sorted(self.values.keys())

    def clone(self) -> "ModelParams":
        return ModelParams(self.spec, {k: v.copy() for k, v in self.values.items()})

    def __getitem__(self, key):
        return self.values[key]

    def __setitem__(self, key, v):
        self.values[key] = v

    def same_spec(self, other: "ModelParams") -> bool:
        return self.spec == other.spec


def init_model(spec: MlpSpec, rng: Rng) -> ModelParams:
    """He-style init: W ~ N(0, 2/fan_in), biases zero, BN at identity with
    unit running variance, adapter at identity."""
    values = {}
    widths = spec.layer_widths
    wrng = rng.derive("weights")
    for i in range(spec.n_linear):
        fan_in, fan_out = widths[i], widths[i + 1]
        values[f"layers.{i}.W"] = wrng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        values[f"layers.{i}.b"] = np.zeros(fan_out)
    if spec.use_batchnorm:
        for i in range(spec.n_hidden):
            h = widths[i + 1]
            values[f"bn.{i}.gamma"] = np.ones(h)
            values[f"bn.{i}.beta"] = np.zeros(h)
            values[f"bn.{i}.mean"] = np.zeros(h)
            values[f"bn.{i}.var"] = np.ones(h)
    if spec.use_in_adapter:
        values["in_adapter.scale"] = np.ones(spec.dim)
        values["in_adapter.shift"] = np.zeros(spec.dim)
    return ModelParams(spec, values)


@dataclass
class ForwardTrace:
    """Intermediate quantities of one forward pass, kept for backward."""

    mode: str
    X: np.ndarray
    adapter_xhat: Optional[np.ndarray]
    inputs: list            # input to each linear layer
    pre: list               # linear outputs, before BN
    bn_xhat: list           # normalized pre-activations (None without BN)
    bn_batch_mean: list     # the statistics BN used, shaped (..., 1, h): the
    bn_batch_var: list      # batch's in train mode, the running ones in eval
    act_in: list            # activation inputs (post-BN when BN is on)
    activations: list       # activation outputs per hidden layer
    logits: np.ndarray

    @property
    def features(self) -> np.ndarray:
        """Penultimate features: output of the last hidden activation."""
        return self.activations[-1]


def _activate(name, x):
    return np.maximum(x, 0.0) if name == "relu" else np.tanh(x)


def _activate_grad(name, act_in, act_out):
    if name == "relu":
        return (act_in > 0).astype(np.float64)  # subgradient 0 at 0
    return 1.0 - act_out**2


def forward(params: ModelParams, X: np.ndarray, mode: str = "eval",
            update_stats: bool = True) -> ForwardTrace:
    """Run the network on X (N x d, or M x N x d with stacked params).
    Train mode normalizes with batch statistics and, if `update_stats`,
    folds them into the running statistics with momentum BN_MOMENTUM (the
    only mutation this module ever performs). Eval mode uses running
    statistics and is batch-composition independent.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    X = np.asarray(X, dtype=np.float64)
    spec = params.spec
    if X.ndim not in (2, 3) or X.shape[-1] != spec.dim:
        raise ValueError(f"X must be N x {spec.dim}, or M x N x {spec.dim}")
    if X.shape[-2] == 0:
        raise ValueError("empty batch")
    if params["layers.0.W"].shape[:-2] != X.shape[:-2]:
        raise ValueError("X and the params must have the same leading run axis")

    adapter_xhat = None
    a = X
    if spec.use_in_adapter:
        mu = a.mean(axis=-1, keepdims=True)
        var = a.var(axis=-1, keepdims=True)
        adapter_xhat = (a - mu) / np.sqrt(var + IN_EPS)
        a = params["in_adapter.scale"][_ROW] * adapter_xhat + params["in_adapter.shift"][_ROW]

    inputs, pre, bn_xhat, bn_mean, bn_var, act_in, activations = [], [], [], [], [], [], []
    for i in range(spec.n_hidden):
        inputs.append(a)
        z = a @ params[f"layers.{i}.W"] + params[f"layers.{i}.b"][_ROW]
        pre.append(z)
        if spec.use_batchnorm:
            if mode == "train":
                mb = z.mean(axis=-2, keepdims=True)
                vb = z.var(axis=-2, keepdims=True)
                if update_stats:
                    m = spec.bn_momentum
                    params[f"bn.{i}.mean"] = (1 - m) * params[f"bn.{i}.mean"] + m * mb[..., 0, :]
                    params[f"bn.{i}.var"] = (1 - m) * params[f"bn.{i}.var"] + m * vb[..., 0, :]
            else:
                mb = params[f"bn.{i}.mean"][_ROW]
                vb = params[f"bn.{i}.var"][_ROW]
            xhat = (z - mb) / np.sqrt(vb + spec.bn_eps)
            y = params[f"bn.{i}.gamma"][_ROW] * xhat + params[f"bn.{i}.beta"][_ROW]
            bn_xhat.append(xhat)
            bn_mean.append(mb)
            bn_var.append(vb)
        else:
            y = z
            bn_xhat.append(None)
            bn_mean.append(None)
            bn_var.append(None)
        act_in.append(y)
        a = _activate(spec.activation, y)
        activations.append(a)

    inputs.append(a)
    last = spec.n_linear - 1
    logits = a @ params[f"layers.{last}.W"] + params[f"layers.{last}.b"][_ROW]
    return ForwardTrace(mode=mode, X=X, adapter_xhat=adapter_xhat, inputs=inputs,
                        pre=pre, bn_xhat=bn_xhat, bn_batch_mean=bn_mean,
                        bn_batch_var=bn_var, act_in=act_in,
                        activations=activations, logits=logits)


def backward(params: ModelParams, trace: ForwardTrace,
             grad_at_logits: np.ndarray, mask: FreezeMask,
             grad_at_features: Optional[np.ndarray] = None) -> dict:
    """Backpropagate loss gradients through a train-mode trace; with
    stacked params every gradient carries their leading run axis.

    `grad_at_logits` must already carry the loss's 1/N batch scaling.
    `grad_at_features` (optional, same shape as the penultimate features)
    is injected where the features feed the classifier, which is how
    feature-space penalties enter. Frozen groups come back as exact zeros.
    """
    if trace.mode != "train":
        raise ValueError("backward needs a train-mode trace")
    spec = params.spec
    if grad_at_logits.shape != trace.logits.shape:
        raise ValueError("grad_at_logits shape mismatch")
    n = trace.X.shape[-2]
    grads = {}

    last = spec.n_linear - 1
    g = grad_at_logits
    grads[f"layers.{last}.W"] = trace.inputs[last].swapaxes(-1, -2) @ g
    grads[f"layers.{last}.b"] = g.sum(axis=-2)
    da = g @ params[f"layers.{last}.W"].swapaxes(-1, -2)
    if grad_at_features is not None:
        if grad_at_features.shape != trace.features.shape:
            raise ValueError("grad_at_features shape mismatch")
        da = da + grad_at_features

    for i in range(spec.n_hidden - 1, -1, -1):
        dy = da * _activate_grad(spec.activation, trace.act_in[i], trace.activations[i])
        if spec.use_batchnorm:
            xhat = trace.bn_xhat[i]
            vb = trace.bn_batch_var[i]
            mb = trace.bn_batch_mean[i]
            inv_std = 1.0 / np.sqrt(vb + spec.bn_eps)
            grads[f"bn.{i}.gamma"] = (dy * xhat).sum(axis=-2)
            grads[f"bn.{i}.beta"] = dy.sum(axis=-2)
            dxhat = dy * params[f"bn.{i}.gamma"][_ROW]
            zc = trace.pre[i] - mb
            dvar = np.sum(dxhat * zc, axis=-2, keepdims=True) * (-0.5) * inv_std**3
            dmean = -np.sum(dxhat, axis=-2, keepdims=True) * inv_std
            dz = dxhat * inv_std + dvar * 2.0 * zc / n + dmean / n
        else:
            dz = dy
        grads[f"layers.{i}.W"] = trace.inputs[i].swapaxes(-1, -2) @ dz
        grads[f"layers.{i}.b"] = dz.sum(axis=-2)
        da = dz @ params[f"layers.{i}.W"].swapaxes(-1, -2)

    if spec.use_in_adapter:
        grads["in_adapter.scale"] = (da * trace.adapter_xhat).sum(axis=-2)
        grads["in_adapter.shift"] = da.sum(axis=-2)

    for k, v in params.values.items():
        if k not in grads:  # running BN statistics get no gradient
            grads[k] = np.zeros_like(v)
        elif not mask.trainable(group_of(k, spec)):
            grads[k][...] = 0.0
    return grads


def recompute_bn_stats(params: ModelParams, dataset: Dataset,
                       batch_size: int = 256) -> ModelParams:
    """Replace running BN statistics with exact full-dataset statistics.

    Layers are processed in order: layer i's pre-activations are computed in
    eval mode using the freshly updated statistics of layers < i, then its
    running mean/variance are set to the streamed full-dataset moments. This
    reproduces a single full-batch train pass exactly and is idempotent.
    All weights, biases, gammas and betas are returned bit-identical.
    """
    if not params.spec.use_batchnorm:
        raise ValueError("model has no batchnorm layers")
    out = params.clone()
    spec = params.spec
    n_total = len(dataset)
    for i in range(spec.n_hidden):
        s = np.zeros(spec.layer_widths[i + 1])
        sq = np.zeros(spec.layer_widths[i + 1])
        for lo in range(0, n_total, batch_size):
            Xb = dataset.X[lo:lo + batch_size]
            trace = forward(out, Xb, mode="eval")
            z = trace.pre[i]
            s += z.sum(axis=0)
            sq += (z * z).sum(axis=0)
        mean = s / n_total
        var = np.maximum(sq / n_total - mean**2, 0.0)
        out[f"bn.{i}.mean"] = mean
        out[f"bn.{i}.var"] = var
    return out


def chopped_logits(logits: np.ndarray, seen_mask) -> np.ndarray:
    """Restrict logit columns to the seen classes, order preserved."""
    seen_mask = np.asarray(seen_mask, dtype=bool)
    if seen_mask.sum() < 1:
        raise ValueError("seen mask selects no classes")
    return logits[:, np.flatnonzero(seen_mask)]


def params_axpy(a: float, p1: ModelParams, b: float, p2: ModelParams) -> ModelParams:
    """Elementwise a*p1 + b*p2 over every group, running variances floored
    at zero so the result stays a valid parameter set."""
    if not p1.same_spec(p2):
        raise ValueError("parameter spec mismatch")
    values = {}
    for k in p1.keys():
        v = a * p1[k] + b * p2[k]
        if k.startswith("bn.") and k.endswith(".var"):
            v = np.maximum(v, 0.0)
        values[k] = v
    return ModelParams(p1.spec, values)


# ----------------------------------------------------------- checkpoint I/O

class StaleCheckpoint(ValueError):
    """A checkpoint whose header lacks the cache key asked for, or holds
    another one."""


def save_checkpoint(params: ModelParams, path: str, key: Optional[str] = None):
    """Text header (spec, the cache `key` if given, per-array offsets) then
    little-endian f64 data."""
    spec = params.spec
    lines = [
        "htlab-checkpoint v1",
        "widths = " + ",".join(str(w) for w in spec.layer_widths),
        f"activation = {spec.activation}",
        f"batchnorm = {int(spec.use_batchnorm)}",
        f"in_adapter = {int(spec.use_in_adapter)}",
        f"bn_eps = {spec.bn_eps!r}",
        f"bn_momentum = {spec.bn_momentum!r}",
    ]
    if key is not None:
        lines.append(f"key = {key}")
    offset = 0
    for k in params.keys():
        shape = "x".join(str(s) for s in params[k].shape)
        lines.append(f"array = {k} {offset} {shape}")
        offset += params[k].size
    lines.append("end")
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("ascii"))
        for k in params.keys():
            f.write(np.ascontiguousarray(params[k], dtype="<f8").tobytes())


def load_checkpoint(path: str, key: Optional[str] = None) -> ModelParams:
    """The params a checkpoint holds. With `key`, a checkpoint written
    under another key, or under none, raises StaleCheckpoint."""
    with open(path, "rb") as f:
        raw = f.read()
    head_end = raw.index(b"end\n") + 4
    lines = raw[:head_end].decode("ascii").splitlines()
    if lines[0] != "htlab-checkpoint v1":
        raise ValueError("not an htlab checkpoint")
    meta = {}
    arrays = []
    for line in lines[1:-1]:
        k, v = line.split(" = ", 1)
        if k == "array":
            name, offset, shape = v.split(" ")
            shape = tuple(int(s) for s in shape.split("x"))
            arrays.append((name, int(offset), shape))
        else:
            meta[k] = v
    if key is not None and meta.get("key") != key:
        raise StaleCheckpoint(f"{path} holds cache key {meta.get('key')}, not {key}")
    spec = MlpSpec(
        layer_widths=tuple(int(w) for w in meta["widths"].split(",")),
        activation=meta["activation"],
        use_batchnorm=bool(int(meta["batchnorm"])),
        use_in_adapter=bool(int(meta["in_adapter"])),
        bn_eps=float(meta.get("bn_eps", BN_EPS)),
        bn_momentum=float(meta.get("bn_momentum", BN_MOMENTUM)),
    )
    # arrays are stored back to back in header order: each offset must be
    # the running sum of the earlier sizes, and the payload exactly as long
    expected = 0
    for name, offset, shape in arrays:
        if offset != expected:
            raise ValueError(f"checkpoint array {name} declares offset {offset}, "
                             f"expected {expected}")
        expected += int(np.prod(shape))
    if len(raw) - head_end != 8 * expected:
        raise ValueError(f"checkpoint payload is {len(raw) - head_end} bytes, "
                         f"its header declares {8 * expected}")
    blob = np.frombuffer(raw[head_end:], dtype="<f8")
    values = {}
    for name, offset, shape in arrays:
        size = int(np.prod(shape))
        values[name] = blob[offset:offset + size].reshape(shape).copy()
    params = ModelParams(spec, values)
    _validate_shapes(params)
    return params


def _validate_shapes(params: ModelParams):
    ref = init_model(params.spec, Rng(0))
    if sorted(params.values.keys()) != sorted(ref.values.keys()):
        raise ValueError("checkpoint keys do not match the declared spec")
    for k in ref.keys():
        if params[k].shape != ref[k].shape:
            raise ValueError(f"shape mismatch for {k}")
    for k in params.keys():
        if k.startswith("bn.") and k.endswith(".var") and np.any(params[k] < 0):
            raise ValueError("negative running variance")
