"""From-scratch 1-D convolutional network on numpy.

Layers are described declaratively (LayerSpec), parameters live in plain
arrays, and forward/backward are explicit so the gradients can be checked
against finite differences. Everything runs in the dtype the model was
built with: float32 for training and inference, float64 for gradient
checks.

Convolutions are cross-correlations with stride 1 and same padding, the
convention used by every mainstream deep learning toolkit. The softmax
layer must be last; its backward pass is fused with the cross-entropy
loss, so backward() consumes integer class targets directly.

Inside forward() and backward() every feature map is held channel-major,
(channels, batch, length): the input is transposed once on entry (free
for one channel), and global average pooling hands (batch, features) to
the dense head. A convolution's im2col copy is then one
(kernel * channels, batch * length) matrix, so its output, its weight
gradient and its input gradient are one matrix product each
(Chellapilla, Puri & Simard, IWFHR 2006), and each batch-norm reduction
runs along one contiguous row per channel. ForwardTrace.shapes still
reports sample-major (batch, channels, length) shapes.

The dense head sums its products row by row in a fixed order, so a
row's output does not depend on how many rows share its batch (a matrix
product takes a different path for a single row).

One layer loop serves every stack, and fuses what the spec list allows.
A ReLU directly before a max-pool runs after the pool, at the pooled
resolution, and keeps its mask there; ReLU is monotone, so the output
and the gradient are unchanged. In inference, a batch norm directly
after a convolution is folded into that convolution's weight and bias
(Jacob et al., CVPR 2018, section 3.2), and no backward caches are kept.

Training normalises with batch statistics (Ioffe & Szegedy, ICML 2015).
When the network opens with conv1d → batchnorm → relu → maxpool, as the
reference architecture does, training runs that chain as one step at
the pooled resolution. The batch mean and variance of the convolution
output come from centred im2col rows, a block of batch rows and one pool
phase at a time, and the output is pooled before the batch-norm affine
a·(y - mean) + beta, a = gamma / σ. That affine commutes with a max-pool
where a >= 0; where a < 0 (gamma < 0) it turns the window's minimum into
its maximum, so those channels pool the minimum. The affine and the ReLU
then run on the pooled map, and the backward pass needs no
full-resolution gradient. That convolution's bias gradient is exactly
zero, since batch norm removes any per-channel constant.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ChecksumMismatch, ConfigError, ShapeMismatch

BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch

LAYER_KINDS = ("conv1d", "batchnorm", "relu", "maxpool", "global_avg_pool",
               "dropout", "dense", "softmax")

# trainable arrays per kind, in checkpoint blob order
TRAINABLE = {"conv1d": ("w", "b"), "batchnorm": ("gamma", "beta"),
             "dense": ("w", "b")}
# persisted but not trained
STATE = {"batchnorm": ("running_mean", "running_var")}

# Batch rows per block of the pooled layer-0 training step: at 960 pooled
# positions a row, one block of its 8-channel float32 buffers is 0.5 MB
# and stays in a core's 2 MB L2 cache, where the whole batch of 64 rows
# does not.
_BLOCK_ROWS = 16


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer."""

    kind: str
    out_channels: int | None = None
    kernel: int | None = None
    pool: int | None = None
    rate: float | None = None
    units: int | None = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")


def reference_architecture() -> list[LayerSpec]:
    """The published 1-minute single-channel classifier: three conv blocks,
    global average pooling, dropout, and a two-way softmax head. 5,082
    trainable parameters on a 3840-sample input."""
    return [
        LayerSpec("conv1d", out_channels=8, kernel=3),
        LayerSpec("batchnorm"),
        LayerSpec("relu"),
        LayerSpec("maxpool", pool=4),
        LayerSpec("conv1d", out_channels=16, kernel=11),
        LayerSpec("batchnorm"),
        LayerSpec("relu"),
        LayerSpec("maxpool", pool=4),
        LayerSpec("conv1d", out_channels=24, kernel=9),
        LayerSpec("batchnorm"),
        LayerSpec("relu"),
        LayerSpec("global_avg_pool"),
        LayerSpec("dropout", rate=0.2),
        LayerSpec("dense", units=2),
        LayerSpec("softmax"),
    ]


@dataclass
class Model:
    specs: list[LayerSpec]
    params: list[dict[str, np.ndarray]]
    input_len: int
    in_channels: int
    n_classes: int
    dtype: np.dtype
    seed: int = 0


@dataclass
class ForwardTrace:
    probs: np.ndarray
    logits: np.ndarray
    caches: list
    shapes: list[tuple]
    mode: str


def he_uniform_init(fan_in: int, shape: tuple, seed) -> np.ndarray:
    """Uniform init on [-sqrt(6/fan_in), +sqrt(6/fan_in)], reproducible
    for a given seed."""
    if fan_in <= 0:
        raise ConfigError(f"fan_in {fan_in} must be positive")
    limit = np.sqrt(6.0 / fan_in)
    rng = np.random.default_rng(seed)
    return rng.uniform(-limit, limit, size=shape)


def _walk_shapes(specs: Sequence[LayerSpec], input_len: int,
                 in_channels: int):
    """Yield (spec, incoming shape) while validating the stack. Shapes are
    (channels, length) for map layers and (features,) after pooling."""
    shape: tuple = (in_channels, input_len)
    for i, spec in enumerate(specs):
        yield spec, shape
        vector = len(shape) == 1
        if spec.kind == "conv1d":
            if vector:
                raise ShapeMismatch(f"layer {i}: conv1d needs a channel map")
            if not spec.out_channels or not spec.kernel:
                raise ConfigError(f"layer {i}: conv1d needs channels+kernel")
            if spec.kernel % 2 != 1:
                raise ShapeMismatch(f"layer {i}: same padding needs odd "
                                    f"kernel, got {spec.kernel}")
            shape = (spec.out_channels, shape[1])
        elif spec.kind == "batchnorm":
            if vector:
                raise ShapeMismatch(f"layer {i}: batchnorm needs a "
                                    f"channel map")
        elif spec.kind == "maxpool":
            if not spec.pool or spec.pool < 2:
                raise ConfigError(f"layer {i}: bad maxpool factor")
            if vector:
                raise ShapeMismatch(f"layer {i}: maxpool needs a channel "
                                    f"map")
            if shape[1] % spec.pool != 0:
                raise ShapeMismatch(
                    f"layer {i}: length {shape[1]} not divisible by pool "
                    f"{spec.pool}")
            shape = (shape[0], shape[1] // spec.pool)
        elif spec.kind == "global_avg_pool":
            if vector:
                raise ShapeMismatch(f"layer {i}: already pooled")
            shape = (shape[0],)
        elif spec.kind == "dropout":
            if spec.rate is None or not 0.0 <= spec.rate < 1.0:
                raise ConfigError(f"layer {i}: dropout rate {spec.rate}")
        elif spec.kind == "dense":
            if not vector:
                raise ShapeMismatch(f"layer {i}: dense needs a vector input")
            if not spec.units:
                raise ConfigError(f"layer {i}: dense needs units")
            shape = (spec.units,)
        elif spec.kind == "softmax":
            if not vector:
                raise ShapeMismatch(f"layer {i}: softmax needs a vector "
                                    f"input")
            if i != len(specs) - 1:
                raise ShapeMismatch("softmax must be the final layer")
    if not specs or specs[-1].kind != "softmax":
        raise ShapeMismatch("the network must end in softmax")
    yield None, shape


def build_model(specs: Sequence[LayerSpec], input_len: int,
                in_channels: int = 1, seed: int = 0,
                dtype=np.float32) -> Model:
    """Validate the stack and initialize parameters (He-uniform weights,
    zero biases, identity batchnorm)."""
    specs = list(specs)
    params: list[dict[str, np.ndarray]] = []
    final_shape = None
    for idx, (spec, shape) in enumerate(_walk_shapes(specs, input_len,
                                                     in_channels)):
        if spec is None:
            final_shape = shape
            break
        layer: dict[str, np.ndarray] = {}
        if spec.kind == "conv1d":
            fan_in = shape[0] * spec.kernel
            layer["w"] = he_uniform_init(
                fan_in, (spec.out_channels, shape[0], spec.kernel),
                seed=[seed, idx]).astype(dtype)
            layer["b"] = np.zeros(spec.out_channels, dtype=dtype)
        elif spec.kind == "batchnorm":
            ch = shape[0]
            layer["gamma"] = np.ones(ch, dtype=dtype)
            layer["beta"] = np.zeros(ch, dtype=dtype)
            layer["running_mean"] = np.zeros(ch, dtype=dtype)
            layer["running_var"] = np.ones(ch, dtype=dtype)
        elif spec.kind == "dense":
            fan_in = shape[0]
            layer["w"] = he_uniform_init(
                fan_in, (spec.units, fan_in), seed=[seed, idx]).astype(dtype)
            layer["b"] = np.zeros(spec.units, dtype=dtype)
        params.append(layer)
    return Model(specs=specs, params=params, input_len=input_len,
                 in_channels=in_channels, n_classes=final_shape[0],
                 dtype=np.dtype(dtype), seed=seed)


def count_params(model: Model) -> int:
    """Trainable parameter count; batchnorm running statistics are state,
    not parameters, and are excluded."""
    total = 0
    for spec, layer in zip(model.specs, model.params):
        for name in TRAINABLE.get(spec.kind, ()):
            total += layer[name].size
    return total


def _tap_span(s: int, length: int) -> tuple[int, int]:
    """The output positions [lo, hi) whose input j + s lies inside the
    map; the rest read the zero padding."""
    lo = min(max(0, -s), length)
    return lo, max(min(length, length - s), lo)


def _im2col(x, k, pool=1):
    """The im2col copy of a (cin, batch, length) map for a same-padded
    kernel of k taps, (cin * k, pool, batch * length // pool): row
    ci * k + t holds x[ci] shifted by t - k // 2, with zeros where the
    shift leaves the map, and its phase j the positions j, j + pool, ...
    of each batch row, as a max-pool of that factor reads them."""
    cin, n, length = x.shape
    pooled = length // pool
    phased = x.reshape(cin, n, pooled, pool)
    cols = np.empty((cin, k, pool, n, pooled), dtype=x.dtype)
    for t in range(k):
        for j in range(pool):
            s, p = divmod(j + t - k // 2, pool)
            lo, hi = _tap_span(s, pooled)
            tap = cols[:, t, j]
            tap[..., :lo] = 0
            tap[..., hi:] = 0
            tap[..., lo:hi] = phased[..., lo + s:hi + s, p]
    return cols.reshape(cin * k, pool, n * pooled)


def _conv1d_forward(x, w, b):
    """Same-padded cross-correlation of a (cin, batch, length) map as one
    matrix product over its flat im2col copy, which is returned for the
    backward pass."""
    cout, cin, k = w.shape
    cols = _im2col(x, k).reshape(cin * k, -1)
    y = w.reshape(cout, -1) @ cols
    y += b[:, None]
    return y.reshape(cout, *x.shape[1:]), cols


def _conv1d_backward(g, w, cols, need_dx):
    """(input gradient or None, {"w", "b"} gradients) of a (cout, batch,
    length) output gradient: one product each for the weight gradient
    and the im2col gradient, which is then added back tap by tap."""
    cout, n, length = g.shape
    _, cin, k = w.shape
    g = g.reshape(cout, n * length)
    grads = {"w": (g @ cols.T).reshape(w.shape), "b": g.sum(axis=1)}
    if not need_dx:
        return None, grads
    dcols = (w.reshape(cout, cin * k).T @ g).reshape(cin, k, n, length)
    dx = np.zeros((cin, n, length), dtype=g.dtype)
    for t in range(k):
        s = t - k // 2
        lo, hi = _tap_span(s, length)
        dx[..., lo + s:hi + s] += dcols[:, t, :, lo:hi]
    return dx, grads


def _bn_affine(layer):
    """Inference batch norm as a per-channel scale and shift."""
    scale = layer["gamma"] / np.sqrt(layer["running_var"] + BN_EPS)
    return scale, layer["beta"] - layer["running_mean"] * scale


def _update_running(layer, mean, var):
    layer["running_mean"][...] = (BN_MOMENTUM * layer["running_mean"]
                                  + (1.0 - BN_MOMENTUM) * mean)
    layer["running_var"][...] = (BN_MOMENTUM * layer["running_var"]
                                 + (1.0 - BN_MOMENTUM) * var)


def _batchnorm_train(x, layer):
    """Normalize with batch statistics and update the running ones.
    Returns the output and the backward cache (x̂, inv_std)."""
    c = x.shape[0]
    rows = x.reshape(c, -1)  # one contiguous row per channel
    m = rows.shape[1]
    mean = rows.mean(axis=1)
    xhat = rows - mean[:, None]
    var = np.einsum("cm,cm->c", xhat, xhat) / m
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std[:, None]
    _update_running(layer, mean, var)
    y = xhat * layer["gamma"][:, None]
    y += layer["beta"][:, None]
    return y.reshape(x.shape), (xhat.reshape(x.shape), inv_std)


def _batchnorm_backward(g, layer, cache):
    xhat, inv_std = cache
    c = xhat.shape[0]
    xhat = xhat.reshape(c, -1)
    rows = g.reshape(c, -1)
    m = xhat.shape[1]
    dbeta = rows.sum(axis=1)
    dgamma = np.einsum("cm,cm->c", rows, xhat)
    # dx = a (g - Σg/m - x̂ Σ(g x̂)/m) with a = gamma * inv_std
    dx = xhat * (-dgamma / m)[:, None]
    dx += rows
    dx -= (dbeta / m)[:, None]
    dx *= (layer["gamma"] * inv_std)[:, None]
    return dx.reshape(g.shape), {"gamma": dgamma, "beta": dbeta}


def _maxpool(x, pool, train):
    """Max over the strided phases x[..., j::pool]. In train mode also
    returns the phase of each window's first maximum, the one argmax
    would pick."""
    out = x[..., 0::pool].copy()
    idx = np.zeros(out.shape, np.min_scalar_type(pool - 1)) if train \
        else None
    for j in range(1, pool):
        phase = x[..., j::pool]
        if train:
            # the last phase to beat the running maximum is where the
            # first maximum of the window sits
            np.maximum(idx, (phase > out) * idx.dtype.type(j), out=idx)
        np.maximum(out, phase, out=out)
    return out, idx


def _maxpool_backward(g, idx, pool):
    c, n, pooled = g.shape
    full = np.empty((c, n, pooled * pool), dtype=g.dtype)
    for j in range(pool):
        np.multiply(g, idx == j, out=full[..., j::pool])
    return full


def _pooled_block(specs, i) -> bool:
    """Layer i opens a conv1d → batchnorm → relu → maxpool chain whose
    convolution needs no input gradient, being the first layer. In
    training the chain runs as one step at the pooled resolution."""
    return i == 0 and [spec.kind for spec in specs[:4]] == [
        "conv1d", "batchnorm", "relu", "maxpool"]


def _pooled_block_train(x, conv, bn, pool):
    """The conv → batch norm → ReLU → max-pool chain in train mode,
    without the convolution's output, its normalised map or the affine
    output at full resolution.

    The batch mean of the convolution output y = w @ cols + b is
    w @ mean(cols) + b, so with centred im2col rows d = w @ cols is
    y minus its mean. d is made over blocks of _BLOCK_ROWS batch rows,
    one pool phase at a time, into one buffer; each adds its Σd² (the
    centred variance, accumulated over blocks in float64) and its
    d @ colsᵀ, and is pooled. The per-channel affine a·d + beta with
    a = gamma / σ commutes with the max-pool where a >= 0; where a < 0
    it maps the window's minimum to its maximum, so those rows of w are
    negated and still max-pooled. Either way the pool keeps the first
    extremum, the one argmax over the affine map picks. The affine and
    the ReLU then run on the pooled map.

    Returns the output and the backward cache: the centred im2col rows
    by phase, the pool phases, the pooled x̂, the ReLU mask, inv_std and
    x̂ @ colsᵀ over every position."""
    w, gamma = conv["w"], bn["gamma"]
    cout, _, k = w.shape
    _, n, length = x.shape
    cols = _im2col(x, k, pool)
    col_mean = cols.mean(axis=(1, 2), dtype=np.float64)
    cols -= col_mean.astype(x.dtype)[:, None, None]
    w = w.reshape(cout, -1)
    sign = np.where(gamma < 0, -1, 1).astype(x.dtype)
    signed_w = w * sign[:, None]
    pooled = np.empty((cout, cols.shape[2]), dtype=x.dtype)
    idx = np.zeros(pooled.shape, np.min_scalar_type(pool - 1))
    step = _BLOCK_ROWS * (length // pool)
    d = np.empty((cout, min(step, pooled.shape[1])), dtype=x.dtype)
    wins = np.empty(d.shape, dtype=bool)
    sq = np.zeros(cout)
    xc = np.zeros(w.shape)
    for lo in range(0, pooled.shape[1], step):
        top, top_idx = pooled[:, lo:lo + step], idx[:, lo:lo + step]
        width = top.shape[1]
        for j in range(pool):
            block = cols[:, j, lo:lo + step]
            phase = d[:, :width] if j else top
            np.matmul(signed_w, block, out=phase)
            sq += np.einsum("cm,cm->c", phase, phase)
            xc += phase @ block.T
            if j:
                # the last phase to beat the running maximum is where
                # the first maximum of the window sits
                np.greater(phase, top, out=wins[:, :width])
                np.maximum(top_idx, wins[:, :width] * idx.dtype.type(j),
                           out=top_idx)
                np.maximum(top, phase, out=top)
    mean = (w @ col_mean).astype(x.dtype) + conv["b"]
    var = (sq / (n * length)).astype(x.dtype)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    _update_running(bn, mean, var)
    scale = sign * inv_std
    xhat = pooled.reshape(cout, n, -1)
    xhat *= scale[:, None, None]
    y = xhat * gamma[:, None, None]
    y += bn["beta"][:, None, None]
    mask = y > 0
    np.maximum(y, 0, out=y)
    xc_hat = (xc * scale[:, None]).astype(x.dtype)
    return y, (cols, idx, xhat, mask, inv_std, xc_hat)


def _pooled_block_backward(g, conv, bn, cache):
    """({"w", "b"}, {"gamma", "beta"}) gradients of the pooled step from
    its pooled output gradient. Batch norm's input gradient
    a·(g - Σg/m - x̂·Σ(g·x̂)/m) is non-zero only where the pool picked,
    so the weight gradient, its product with the im2col rows, is
    a·(G₁ - (Σg·x̂/m)·x̂ @ colsᵀ), G₁ being each window's gradient against
    the im2col columns of its picked position, gathered over the same
    blocks as the forward pass. The centred rows absorb the Σg/m term.
    m counts the full-resolution positions. The bias adds the same
    constant to every position of a channel, which batch norm removes,
    so its gradient is exactly zero."""
    cols, idx, xhat, mask, inv_std, xc_hat = cache
    c = g.shape[0]
    g = g.reshape(c, -1) * mask.reshape(c, -1)
    dbeta = g.sum(axis=1)
    dgamma = np.einsum("cm,cm->c", g, xhat.reshape(c, -1))
    step = _BLOCK_ROWS * xhat.shape[2]
    picked = np.empty((c, min(step, g.shape[1])), dtype=bool)
    routed = np.empty(picked.shape, dtype=g.dtype)
    g1 = np.zeros((c, cols.shape[0]))
    for lo in range(0, g.shape[1], step):
        width = min(step, g.shape[1] - lo)
        for j in range(cols.shape[1]):
            np.equal(idx[:, lo:lo + step], j, out=picked[:, :width])
            np.multiply(g[:, lo:lo + step], picked[:, :width],
                        out=routed[:, :width])
            g1 += routed[:, :width] @ cols[:, j, lo:lo + step].T
    dw = (bn["gamma"] * inv_std)[:, None] * (
        g1 - (dgamma / cols[0].size)[:, None] * xc_hat)
    return ({"w": dw.reshape(conv["w"].shape).astype(g.dtype),
             "b": np.zeros(c, dtype=g.dtype)},
            {"gamma": dgamma, "beta": dbeta})


def _dense(x, w, b):
    """x @ w.T + b, each output summed over its row's products in the
    same order whatever the number of rows."""
    y = (x[:, None, :] * w).sum(axis=2)
    y += b
    return y


def _sample_major(shape: tuple) -> tuple:
    """The (batch, channels, length) shape of a channel-major map."""
    return (shape[1], shape[0], *shape[2:]) if len(shape) == 3 else shape


def _relu_before_pool(specs, i) -> bool:
    """A ReLU directly followed by a max-pool runs after the pool, at the
    pooled resolution: ReLU is monotone, so the two commute."""
    return specs[i].kind == "relu" and i + 1 < len(specs) \
        and specs[i + 1].kind == "maxpool"


def forward(model: Model, x: np.ndarray, mode: str = "infer",
            rng: np.random.Generator | None = None) -> ForwardTrace:
    """Run the network on a batch shaped (batch, channels, length).

    mode "train" uses batch statistics, applies dropout (which needs rng),
    updates batchnorm running statistics in place, and keeps the caches
    backward() needs; mode "infer" is deterministic, uses the stored
    running statistics folded into the preceding convolution, and keeps
    no caches.
    """
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode {mode!r}")
    x = np.asarray(x, dtype=model.dtype)
    if x.ndim != 3 or x.shape[1:] != (model.in_channels, model.input_len):
        raise ShapeMismatch(
            f"expected (batch, {model.in_channels}, {model.input_len}), "
            f"got {x.shape}")

    train = mode == "train"
    # channel-major from here on; no copy for a one-channel input
    x = np.ascontiguousarray(x.transpose(1, 0, 2))
    specs, params = model.specs, model.params
    caches: list = [None] * len(specs)
    shapes: list[tuple] = []
    logits = None
    i = 0
    while i < len(specs):
        spec, layer = specs[i], params[i]
        if train and _pooled_block(specs, i):
            pool = specs[i + 3].pool
            x, caches[i] = _pooled_block_train(x, layer, params[i + 1], pool)
            full = _sample_major((layer["w"].shape[0], x.shape[1],
                                  x.shape[2] * pool))
            shapes += [full] * 3
            i += 3
        elif spec.kind == "conv1d":
            w, b = layer["w"], layer["b"]
            fold = not train and i + 1 < len(specs) \
                and specs[i + 1].kind == "batchnorm"
            if fold:
                scale, shift = _bn_affine(params[i + 1])
                w = w * scale[:, None, None]
                b = b * scale + shift
            x, cols = _conv1d_forward(x, w, b)
            if train:
                caches[i] = cols
            if fold:
                shapes.append(_sample_major(x.shape))
                i += 1
        elif spec.kind == "batchnorm":
            if train:
                x, caches[i] = _batchnorm_train(x, layer)
            else:
                scale, shift = _bn_affine(layer)
                x = x * scale[:, None, None] + shift[:, None, None]
        elif _relu_before_pool(specs, i):
            shapes.append(_sample_major(x.shape))
            i += 1
            x, idx = _maxpool(x, specs[i].pool, train)
            if train:
                caches[i - 1], caches[i] = x > 0, idx
            np.maximum(x, 0, out=x)
        elif spec.kind == "relu":
            if train:
                caches[i] = x > 0
            x = np.maximum(x, 0)
        elif spec.kind == "maxpool":
            x, caches[i] = _maxpool(x, spec.pool, train)
        elif spec.kind == "global_avg_pool":
            if train:
                caches[i] = x.shape[2]
            # contiguous rows: on the transposed view the dense head's
            # sums would run in an order that depends on the batch size
            x = np.ascontiguousarray(x.mean(axis=2).T)
        elif spec.kind == "dropout":
            if train and spec.rate > 0.0:
                if rng is None:
                    raise ConfigError("train-mode dropout needs an rng")
                mask = (rng.random(x.shape) >= spec.rate)
                keep = np.asarray(1.0 - spec.rate, dtype=model.dtype)
                x = x * mask / keep
                caches[i] = (mask, keep)
        elif spec.kind == "dense":
            if train:
                caches[i] = x
            x = _dense(x, layer["w"], layer["b"])
        elif spec.kind == "softmax":
            logits = x
            # float64 so the rows normalize to 1 within 1e-9 even when
            # the rest of the network runs in float32
            shifted = x.astype(np.float64)
            shifted -= shifted.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            x = e / e.sum(axis=1, keepdims=True)
        shapes.append(_sample_major(x.shape))
        i += 1
    return ForwardTrace(probs=x, logits=logits, caches=caches,
                        shapes=shapes, mode=mode)


def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean negative log likelihood of integer class targets."""
    targets = np.asarray(targets)
    if probs.shape[0] != targets.shape[0]:
        raise ShapeMismatch(f"{probs.shape[0]} rows vs {targets.shape[0]} "
                            f"targets")
    picked = probs[np.arange(probs.shape[0]), targets]
    return float(-np.mean(np.log(np.clip(picked, 1e-12, None))))


def backward(model: Model, trace: ForwardTrace,
             targets: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Gradients of mean cross-entropy w.r.t. every trainable array.

    The returned list mirrors model.params (empty dicts for parameterless
    layers). Softmax and the loss are differentiated together, so the
    gradient entering the final dense layer is (probs - onehot) / batch.
    """
    if trace.mode != "train":
        raise ConfigError("backward needs a train-mode trace")
    targets = np.asarray(targets)
    n = trace.probs.shape[0]
    onehot = np.zeros_like(trace.probs)
    onehot[np.arange(n), targets] = 1.0
    g = ((trace.probs - onehot) / n).astype(model.dtype)

    specs, params, caches = model.specs, model.params, trace.caches
    grads: list[dict[str, np.ndarray]] = [{} for _ in specs]
    for i in range(len(specs) - 1, -1, -1):
        spec, layer, cache = specs[i], params[i], caches[i]
        if spec.kind == "softmax":
            continue  # fused with the loss above
        if spec.kind == "dense":
            grads[i] = {"w": g.T @ cache, "b": g.sum(axis=0)}
            g = g @ layer["w"]
        elif spec.kind == "dropout":
            if cache is not None:
                mask, keep = cache
                g = g * mask / keep
        elif spec.kind == "global_avg_pool":
            g = np.repeat(g.T[:, :, None] / np.asarray(cache, dtype=g.dtype),
                          cache, axis=2)
        elif spec.kind == "maxpool" and _pooled_block(specs, i - 3):
            grads[i - 3], grads[i - 2] = _pooled_block_backward(
                g, params[i - 3], params[i - 2], caches[i - 3])
            break  # the block opens the network
        elif spec.kind == "maxpool":
            if i > 0 and _relu_before_pool(specs, i - 1):
                g = g * caches[i - 1]
            g = _maxpool_backward(g, cache, spec.pool)
        elif spec.kind == "relu":
            if not _relu_before_pool(specs, i):
                g = g * cache
        elif spec.kind == "batchnorm":
            g, grads[i] = _batchnorm_backward(g, layer, cache)
        elif spec.kind == "conv1d":
            g, grads[i] = _conv1d_backward(g, layer["w"], cache,
                                           need_dx=i > 0)
    return grads


# checkpoints ---------------------------------------------------------------

def _blob_entries(model: Model):
    for i, (spec, layer) in enumerate(zip(model.specs, model.params)):
        for name in TRAINABLE.get(spec.kind, ()) + STATE.get(spec.kind, ()):
            yield i, name, layer[name]


def save_checkpoint(model: Model, manifest_path: str | Path,
                    metadata: dict | None = None) -> Path:
    """Write a JSON manifest beside a raw little-endian float32 blob."""
    manifest_path = Path(manifest_path)
    blob_path = manifest_path.with_suffix(".bin")
    parts = []
    arrays = []
    for i, name, arr in _blob_entries(model):
        data = np.ascontiguousarray(arr, dtype="<f4")
        parts.append(data.tobytes())
        arrays.append({"layer": i, "name": name, "shape": list(arr.shape)})
    blob = b"".join(parts)
    manifest = {
        "format": "sleeptrend-checkpoint-v1",
        "specs": [{k: v for k, v in asdict(s).items() if v is not None}
                  for s in model.specs],
        "input_len": model.input_len,
        "in_channels": model.in_channels,
        "n_classes": model.n_classes,
        "seed": model.seed,
        "trainable_params": count_params(model),
        "arrays": arrays,
        "blob": blob_path.name,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "metadata": metadata or {},
    }
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    blob_path.write_bytes(blob)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n")
    return manifest_path


def load_checkpoint(manifest_path: str | Path) -> tuple[Model, dict]:
    """Load and verify a checkpoint; raises ChecksumMismatch when the blob
    does not match its manifest digest or the manifest is malformed,
    including layer specs that do not build a model."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
        blob_path = manifest_path.parent / manifest["blob"]
        blob = blob_path.read_bytes()
        digest = hashlib.sha256(blob).hexdigest()
        if digest != manifest["sha256"]:
            raise ChecksumMismatch(
                f"{blob_path} digest {digest[:12]} != manifest "
                f"{manifest['sha256'][:12]}")
        specs = [LayerSpec(**entry) for entry in manifest["specs"]]
        model = build_model(specs, input_len=manifest["input_len"],
                            in_channels=manifest["in_channels"],
                            seed=manifest.get("seed", 0))
        offset = 0
        for (i, name, arr), described in zip(_blob_entries(model),
                                             manifest["arrays"]):
            if [i, name] != [described["layer"], described["name"]] \
                    or list(arr.shape) != described["shape"]:
                raise ChecksumMismatch(
                    f"array table mismatch at layer {i} {name}")
            size = arr.size * 4
            data = np.frombuffer(blob[offset:offset + size], dtype="<f4")
            model.params[i][name][...] = data.reshape(arr.shape)
            offset += size
        if offset != len(blob):
            raise ChecksumMismatch(
                f"blob has {len(blob)} bytes, arrays use {offset}")
        return model, manifest.get("metadata", {})
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ChecksumMismatch(
            f"{manifest_path}: malformed manifest ({exc!r})") from exc
