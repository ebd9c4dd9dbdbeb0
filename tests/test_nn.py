"""Network tests: initialization, layer numerics against hand-worked
cases, analytic gradients against central finite differences, and the
checkpoint round trip."""

import copy

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from helpers import (finite_diff_grads, max_grad_rel_err,
                     score_in_batches)
from sleeptrend import nn, threads, training
from sleeptrend.dsp import EPOCH_SAMPLES
from sleeptrend.errors import ChecksumMismatch, ConfigError, ShapeMismatch


def readout_model(specs, input_len, in_channels=1, dtype=np.float64):
    """Build a model and pin the dense head to w=[[1...],[0...]], b=0 so
    logits[0] reads the pooled feature directly."""
    model = nn.build_model(specs, input_len, in_channels, seed=3,
                           dtype=dtype)
    head = model.params[-2]
    head["w"][...] = 0.0
    head["w"][0, 0] = 1.0
    head["b"][...] = 0.0
    return model


class TestBuild:
    def test_reference_parameter_count(self):
        def conv(cin, cout, k):
            return cout * cin * k + cout

        def bn(c):
            return 2 * c

        def dense(fin, units):
            return units * fin + units

        expected = (conv(1, 8, 3) + bn(8) + conv(8, 16, 11) + bn(16)
                    + conv(16, 24, 9) + bn(24) + dense(24, 2))
        assert expected == 5082
        model = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES)
        assert nn.count_params(model) == expected

    def test_reference_shape_chain(self):
        model = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES)
        x = np.random.default_rng(0).standard_normal((2, 1, EPOCH_SAMPLES))
        trace = nn.forward(model, x, mode="infer")
        assert trace.shapes[0] == (2, 8, 3840)
        assert trace.shapes[3] == (2, 8, 960)
        assert trace.shapes[7] == (2, 16, 240)
        assert trace.shapes[8] == (2, 24, 240)
        assert trace.shapes[11] == (2, 24)
        assert trace.shapes[13] == (2, 2)
        assert trace.probs.shape == (2, 2)

    def test_he_uniform_bounds_and_determinism(self):
        fan_in = 24
        a = nn.he_uniform_init(fan_in, (200,), seed=11)
        b = nn.he_uniform_init(fan_in, (200,), seed=11)
        c = nn.he_uniform_init(fan_in, (200,), seed=12)
        limit = np.sqrt(6.0 / fan_in)
        assert np.all(np.abs(a) <= limit)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        # with 200 draws the sample should actually use the range
        assert a.max() > 0.8 * limit and a.min() < -0.8 * limit

    def test_build_is_seed_deterministic(self):
        m1 = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES,
                            seed=5)
        m2 = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES,
                            seed=5)
        m3 = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES,
                            seed=6)
        for l1, l2, l3 in zip(m1.params, m2.params, m3.params):
            for name in l1:
                assert np.array_equal(l1[name], l2[name])
        assert not np.array_equal(m1.params[0]["w"], m3.params[0]["w"])

    @pytest.mark.parametrize("specs,message", [
        ([nn.LayerSpec("conv1d", out_channels=4, kernel=4),
          nn.LayerSpec("global_avg_pool"),
          nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")],
         "odd kernel"),
        ([nn.LayerSpec("maxpool", pool=5),
          nn.LayerSpec("global_avg_pool"),
          nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")],
         "not divisible"),
        ([nn.LayerSpec("softmax"), nn.LayerSpec("global_avg_pool"),
          nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")],
         "vector"),
        ([nn.LayerSpec("global_avg_pool"), nn.LayerSpec("dense", units=2)],
         "softmax"),
    ])
    def test_shape_inconsistent_stacks(self, specs, message):
        with pytest.raises(ShapeMismatch, match=message):
            nn.build_model(specs, input_len=28)

    def test_bad_dropout_rate_rejected(self):
        specs = [nn.LayerSpec("global_avg_pool"),
                 nn.LayerSpec("dropout", rate=1.0),
                 nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")]
        with pytest.raises(ConfigError, match="rate"):
            nn.build_model(specs, input_len=28)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            nn.LayerSpec("avgpool")


class TestLayerNumerics:
    def test_conv1d_hand_case(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        w = np.array([[[1.0, 0.0, -1.0]]])
        b = np.array([0.5])
        y, _ = nn._conv1d_forward(x, w, b)
        # cross-correlation with zero padding: [0*1-2, 1-3, 2-0] + 0.5
        assert np.allclose(y[0, 0], [-1.5, -1.5, 2.5])

    def test_conv1d_multichannel_matches_direct_sum(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 10))
        w = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal(4)
        # the helper takes and returns channel-major (channels, batch, length)
        y, _ = nn._conv1d_forward(x.transpose(1, 0, 2), w, b)
        xp = np.pad(x, ((0, 0), (0, 0), (2, 2)))
        for n in range(2):
            for co in range(4):
                for t in range(10):
                    direct = np.sum(w[co] * xp[n, :, t:t + 5]) + b[co]
                    assert abs(y[co, n, t] - direct) < 1e-12

    def test_maxpool_and_gap_through_readout(self):
        specs = [nn.LayerSpec("maxpool", pool=2),
                 nn.LayerSpec("global_avg_pool"),
                 nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")]
        model = readout_model(specs, input_len=4)
        x = np.array([[[1.0, 3.0, 2.0, 0.0]]])
        trace = nn.forward(model, x, mode="infer")
        # max over pairs gives [3, 2], mean gives 2.5
        assert trace.logits[0, 0] == pytest.approx(2.5)
        assert trace.logits[0, 1] == 0.0

    def test_relu_through_readout(self):
        specs = [nn.LayerSpec("relu"), nn.LayerSpec("global_avg_pool"),
                 nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")]
        model = readout_model(specs, input_len=4)
        x = np.array([[[-1.0, 2.0, -3.0, 4.0]]])
        trace = nn.forward(model, x, mode="infer")
        assert trace.logits[0, 0] == pytest.approx(1.5)

    def test_softmax_rows_are_distributions(self):
        model = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES)
        x = np.random.default_rng(1).standard_normal((4, 1, EPOCH_SAMPLES))
        probs = nn.forward(model, x, mode="infer").probs
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_zero_dense_head_gives_exact_half(self):
        model = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES)
        model.params[-2]["w"][...] = 0.0
        model.params[-2]["b"][...] = 0.0
        x = 20.0 * np.random.default_rng(14).standard_normal(
            (3, 1, EPOCH_SAMPLES))
        probs = nn.forward(model, x, mode="infer").probs
        assert np.all(probs == 0.5)

    def test_scaling_dense_weights_sharpens_probs(self):
        model = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES,
                               seed=17)
        x = np.random.default_rng(15).standard_normal((6, 1, EPOCH_SAMPLES))
        base = nn.forward(model, x, mode="infer").probs
        model.params[-2]["w"][...] *= 3.0
        model.params[-2]["b"][...] *= 3.0
        sharp = nn.forward(model, x, mode="infer").probs
        assert np.array_equal(np.argmax(base, axis=1),
                              np.argmax(sharp, axis=1))
        assert np.all(np.abs(sharp[:, 1] - 0.5) >= np.abs(base[:, 1] - 0.5))

    def test_softmax_handles_large_logits(self):
        specs = [nn.LayerSpec("global_avg_pool"),
                 nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")]
        model = readout_model(specs, input_len=2)
        x = np.full((1, 1, 2), 500.0)
        probs = nn.forward(model, x, mode="infer").probs
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_cross_entropy_known_value(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        expected = -(np.log(0.5) + np.log(0.75)) / 2.0
        assert nn.cross_entropy(probs, np.array([0, 1])) == pytest.approx(
            expected, rel=1e-12)
        with pytest.raises(ShapeMismatch):
            nn.cross_entropy(probs, np.array([0]))


class TestBatchNorm:
    def specs(self):
        return [nn.LayerSpec("batchnorm"), nn.LayerSpec("global_avg_pool"),
                nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")]

    def test_running_stats_update_exactly(self):
        model = readout_model(self.specs(), input_len=32)
        x = 50.0 * np.random.default_rng(2).standard_normal((6, 1, 32))
        nn.forward(model, x, mode="train")
        batch_mean = x.mean(axis=(0, 2))
        batch_var = x.var(axis=(0, 2))  # biased, matching the layer
        layer = model.params[0]
        assert layer["running_mean"][0] == pytest.approx(
            0.9 * 0.0 + 0.1 * batch_mean[0], rel=1e-6)
        assert layer["running_var"][0] == pytest.approx(
            0.9 * 1.0 + 0.1 * batch_var[0], rel=1e-6)

    def test_train_mode_centers_the_batch(self):
        model = readout_model(self.specs(), input_len=64)
        x = 50.0 + 20.0 * np.random.default_rng(3).standard_normal(
            (8, 1, 64))
        trace = nn.forward(model, x, mode="train")
        # normalized activations average to zero over the whole batch, so
        # the per-sample means seen through the readout do too
        assert abs(trace.logits[:, 0].mean()) < 1e-6

    def test_train_mode_normalizes_the_map(self):
        model = readout_model(self.specs(), input_len=128)
        x = -30.0 + 70.0 * np.random.default_rng(9).standard_normal(
            (16, 1, 128))
        trace = nn.forward(model, x, mode="train")
        normalized, _ = trace.caches[0]  # pre-gamma/beta activations
        assert abs(normalized.mean()) < 1e-5
        assert normalized.var() == pytest.approx(1.0, abs=1e-5)

    def test_infer_mode_is_an_affine_map_of_running_stats(self):
        model = readout_model(self.specs(), input_len=8)
        layer = model.params[0]
        layer["running_mean"][...] = 4.0
        layer["running_var"][...] = 9.0
        layer["gamma"][...] = 2.0
        layer["beta"][...] = 1.0
        x = np.arange(8, dtype=np.float64).reshape(1, 1, 8)
        trace = nn.forward(model, x, mode="infer")
        expected = (2.0 * (x[0, 0] - 4.0) / np.sqrt(9.0 + nn.BN_EPS)
                    + 1.0).mean()
        assert trace.logits[0, 0] == pytest.approx(expected, rel=1e-9)

    def test_train_and_infer_disagree_from_fresh_stats(self):
        model = readout_model(self.specs(), input_len=16)
        x = 30.0 * np.random.default_rng(4).standard_normal((4, 1, 16))
        train = nn.forward(model, x, mode="train").logits.copy()
        infer = nn.forward(model, x, mode="infer").logits
        assert not np.allclose(train, infer)


class TestDropout:
    def specs(self, rate):
        return [nn.LayerSpec("dropout", rate=rate),
                nn.LayerSpec("global_avg_pool"),
                nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")]

    def test_infer_mode_is_identity(self):
        model = readout_model(self.specs(0.5), input_len=16)
        x = np.random.default_rng(5).standard_normal((2, 1, 16))
        trace = nn.forward(model, x, mode="infer")
        assert trace.logits[:, 0] == pytest.approx(x.mean(axis=2)[:, 0])

    def test_train_mode_keeps_expectation(self):
        model = readout_model(self.specs(0.5), input_len=4000)
        x = np.ones((1, 1, 4000))
        trace = nn.forward(model, x, mode="train",
                           rng=np.random.default_rng(6))
        # kept entries are scaled to 2.0; the mean stays near 1
        assert trace.logits[0, 0] == pytest.approx(1.0, abs=0.1)
        assert trace.logits[0, 0] != pytest.approx(1.0, abs=1e-6)

    def test_train_mode_is_rng_deterministic(self):
        model = readout_model(self.specs(0.3), input_len=64)
        x = np.random.default_rng(7).standard_normal((2, 1, 64))
        a = nn.forward(model, x, "train", rng=np.random.default_rng(9))
        b = nn.forward(model, x, "train", rng=np.random.default_rng(9))
        c = nn.forward(model, x, "train", rng=np.random.default_rng(10))
        assert np.array_equal(a.probs, b.probs)
        assert not np.array_equal(a.probs, c.probs)

    def test_rate_zero_needs_no_rng(self):
        model = readout_model(self.specs(0.0), input_len=8)
        x = np.random.default_rng(8).standard_normal((1, 1, 8))
        trace = nn.forward(model, x, mode="train")
        assert trace.logits[0, 0] == pytest.approx(x.mean())

    def test_missing_rng_is_an_error(self):
        model = readout_model(self.specs(0.5), input_len=8)
        x = np.zeros((1, 1, 8))
        with pytest.raises(ConfigError, match="rng"):
            nn.forward(model, x, mode="train")


GRADCHECK_CONFIGS = [
    # every layer kind appears across these stacks
    ([nn.LayerSpec("conv1d", out_channels=3, kernel=3),
      nn.LayerSpec("batchnorm"), nn.LayerSpec("relu"),
      nn.LayerSpec("maxpool", pool=2),
      nn.LayerSpec("conv1d", out_channels=4, kernel=5),
      nn.LayerSpec("global_avg_pool"),
      nn.LayerSpec("dropout", rate=0.3),
      nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")], 8, 1),
    ([nn.LayerSpec("global_avg_pool"), nn.LayerSpec("dense", units=5),
      nn.LayerSpec("relu"), nn.LayerSpec("dense", units=3),
      nn.LayerSpec("softmax")], 6, 4),
    ([nn.LayerSpec("conv1d", out_channels=3, kernel=1),
      nn.LayerSpec("maxpool", pool=3), nn.LayerSpec("batchnorm"),
      nn.LayerSpec("relu"), nn.LayerSpec("global_avg_pool"),
      nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")], 9, 2),
]


class TestGradients:
    @pytest.mark.parametrize("specs,length,channels", GRADCHECK_CONFIGS)
    def test_backward_matches_finite_differences(self, specs, length,
                                                 channels):
        model = nn.build_model(specs, length, channels, seed=1,
                               dtype=np.float64)
        rng = np.random.default_rng(20)
        x = 2.0 * rng.standard_normal((3, channels, length))
        targets = rng.integers(0, model.n_classes, size=3)
        trace = nn.forward(model, x, mode="train",
                           rng=np.random.default_rng(7))
        analytic = nn.backward(model, trace, targets)
        numeric = finite_diff_grads(model, x, targets, dropout_seed=7)
        assert max_grad_rel_err(analytic, numeric) < 1e-4

    def test_dense_bias_gradient_is_probs_minus_onehot(self):
        specs = [nn.LayerSpec("global_avg_pool"),
                 nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")]
        model = nn.build_model(specs, input_len=6, in_channels=3, seed=8,
                               dtype=np.float64)
        x = np.random.default_rng(30).standard_normal((1, 3, 6))
        trace = nn.forward(model, x, mode="train")
        grads = nn.backward(model, trace, np.array([1]))
        onehot = np.array([0.0, 1.0])
        assert grads[1]["b"] == pytest.approx(trace.probs[0] - onehot,
                                              rel=1e-12)

    def test_confident_correct_prediction_has_tiny_gradients(self):
        specs = [nn.LayerSpec("global_avg_pool"),
                 nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")]
        model = readout_model(specs, input_len=2, in_channels=1)
        model.params[-2]["w"][...] = [[-40.0], [40.0]]
        x = np.ones((1, 1, 2))
        trace = nn.forward(model, x, mode="train")
        loss = nn.cross_entropy(trace.probs, np.array([1]))
        grads = nn.backward(model, trace, np.array([1]))
        assert loss < 1e-6
        assert np.max(np.abs(grads[-2]["w"])) < 1e-6
        assert np.max(np.abs(grads[-2]["b"])) < 1e-6

    def test_backward_rejects_infer_trace(self):
        model = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES)
        x = np.zeros((1, 1, EPOCH_SAMPLES), dtype=np.float32)
        trace = nn.forward(model, x, mode="infer")
        with pytest.raises(ConfigError):
            nn.backward(model, trace, np.array([0]))

    def test_gradient_descent_step_reduces_loss(self):
        specs, length, channels = GRADCHECK_CONFIGS[0]
        model = nn.build_model(specs, length, channels, seed=2,
                               dtype=np.float64)
        rng = np.random.default_rng(21)
        x = rng.standard_normal((8, channels, length))
        targets = rng.integers(0, 2, size=8)
        trace = nn.forward(model, x, "train", rng=np.random.default_rng(1))
        before = nn.cross_entropy(trace.probs, targets)
        grads = nn.backward(model, trace, targets)
        for layer, g in zip(model.params, grads):
            for name, grad in g.items():
                layer[name] -= 0.05 * grad
        again = nn.forward(model, x, "train", rng=np.random.default_rng(1))
        assert nn.cross_entropy(again.probs, targets) < before


# The layer loop nn.forward/nn.backward replaced, one layer at a time with
# no fusion: argmax max-pool, full-resolution ReLU mask, unfolded batch
# norm, and a tap loop for the convolution's input gradient.

def _reference_conv1d_forward(x, w, b):
    n, cin, length = x.shape
    cout, _, k = w.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    windows = sliding_window_view(xp, k, axis=2)  # (n, cin, L, k)
    cols = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(
        n * length, cin * k)
    out = cols @ w.reshape(cout, cin * k).T
    y = out.reshape(n, length, cout).transpose(0, 2, 1) + b[None, :, None]
    return y, (cols, (n, cin, length))


def _reference_conv1d_backward(g, w, cache):
    cols, (n, cin, length) = cache
    cout, _, k = w.shape
    pad = k // 2
    g2 = np.ascontiguousarray(g.transpose(0, 2, 1)).reshape(n * length, cout)
    dw = (g2.T @ cols).reshape(cout, cin, k)
    db = g.sum(axis=(0, 2))
    dcols = g2 @ w.reshape(cout, cin * k)
    dwin = dcols.reshape(n, length, cin, k).transpose(0, 2, 1, 3)
    dxp = np.zeros((n, cin, length + 2 * pad), dtype=g.dtype)
    for j in range(k):
        dxp[:, :, j:j + length] += dwin[:, :, :, j]
    return dxp[:, :, pad:pad + length], {"w": dw, "b": db}


def reference_forward(model, x, mode, rng=None):
    """(probs, caches); train mode updates the running statistics."""
    x = np.asarray(x, dtype=model.dtype)
    caches = []
    for spec, layer in zip(model.specs, model.params):
        if spec.kind == "conv1d":
            x, cache = _reference_conv1d_forward(x, layer["w"], layer["b"])
            caches.append(cache)
        elif spec.kind == "batchnorm":
            if mode == "train":
                mean = x.mean(axis=(0, 2))
                var = x.var(axis=(0, 2))
                inv_std = 1.0 / np.sqrt(var + nn.BN_EPS)
                xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
                layer["running_mean"][...] = (
                    nn.BN_MOMENTUM * layer["running_mean"]
                    + (1.0 - nn.BN_MOMENTUM) * mean)
                layer["running_var"][...] = (
                    nn.BN_MOMENTUM * layer["running_var"]
                    + (1.0 - nn.BN_MOMENTUM) * var)
            else:
                inv_std = 1.0 / np.sqrt(layer["running_var"] + nn.BN_EPS)
                xhat = (x - layer["running_mean"][None, :, None]) \
                    * inv_std[None, :, None]
            x = layer["gamma"][None, :, None] * xhat \
                + layer["beta"][None, :, None]
            caches.append((xhat, inv_std))
        elif spec.kind == "relu":
            mask = x > 0
            x = x * mask
            caches.append(mask)
        elif spec.kind == "maxpool":
            n, c, length = x.shape
            grouped = x.reshape(n, c, length // spec.pool, spec.pool)
            idx = grouped.argmax(axis=3)
            x = np.take_along_axis(grouped, idx[..., None], axis=3)[..., 0]
            caches.append((idx, (n, c, length)))
        elif spec.kind == "global_avg_pool":
            caches.append(x.shape[2])
            x = x.mean(axis=2)
        elif spec.kind == "dropout":
            if mode == "train" and spec.rate > 0.0:
                mask = rng.random(x.shape) >= spec.rate
                keep = np.asarray(1.0 - spec.rate, dtype=model.dtype)
                x = x * mask / keep
                caches.append((mask, keep))
            else:
                caches.append(None)
        elif spec.kind == "dense":
            caches.append(x)
            x = x @ layer["w"].T + layer["b"]
        elif spec.kind == "softmax":
            shifted = x.astype(np.float64)
            shifted -= shifted.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            x = e / e.sum(axis=1, keepdims=True)
            caches.append(None)
    return x, caches


def reference_backward(model, probs, caches, targets):
    n = probs.shape[0]
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), targets] = 1.0
    g = ((probs - onehot) / n).astype(model.dtype)
    grads = [{} for _ in model.specs]
    for i in range(len(model.specs) - 1, -1, -1):
        spec, layer, cache = model.specs[i], model.params[i], caches[i]
        if spec.kind == "dense":
            grads[i] = {"w": g.T @ cache, "b": g.sum(axis=0)}
            g = g @ layer["w"]
        elif spec.kind == "dropout":
            if cache is not None:
                mask, keep = cache
                g = g * mask / keep
        elif spec.kind == "global_avg_pool":
            g = np.repeat(g[:, :, None], cache, axis=2) / np.asarray(
                cache, dtype=model.dtype)
        elif spec.kind == "maxpool":
            idx, (n_, c, length) = cache
            spread = np.zeros((n_, c, length // spec.pool, spec.pool),
                              dtype=g.dtype)
            np.put_along_axis(spread, idx[..., None], g[..., None], axis=3)
            g = spread.reshape(n_, c, length)
        elif spec.kind == "relu":
            g = g * cache
        elif spec.kind == "batchnorm":
            xhat, inv_std = cache
            m = xhat.shape[0] * xhat.shape[2]
            grads[i] = {"gamma": (g * xhat).sum(axis=(0, 2)),
                        "beta": g.sum(axis=(0, 2))}
            dxhat = g * layer["gamma"][None, :, None]
            term = (dxhat.sum(axis=(0, 2))[None, :, None]
                    + xhat * (dxhat * xhat).sum(axis=(0, 2))[None, :, None])
            g = (dxhat - term / np.asarray(m, dtype=g.dtype)) \
                * inv_std[None, :, None]
        elif spec.kind == "conv1d":
            g, grads[i] = _reference_conv1d_backward(g, layer["w"], cache)
    return grads


# A conv that copies its input (taps [0, 1, 0]) ahead of a max-pool of 2,
# on integer samples so the pooled map has exact ties. The neighbours of
# each tied pair differ, so routing to the wrong position changes the
# conv's weight gradient. The second window's values are all <= 0.
TIE_INPUT = np.array([[[3.0, 3.0, -2.0, 0.0, 5.0, 1.0, -4.0, 7.0]],
                      [[-1.0, 2.0, 6.0, 6.0, 0.0, 0.0, 2.0, -3.0]]])


def _tie_stack(relu):
    return ([nn.LayerSpec("conv1d", out_channels=1, kernel=3)]
            + [nn.LayerSpec("relu")] * relu
            + [nn.LayerSpec("maxpool", pool=2),
               nn.LayerSpec("global_avg_pool"),
               nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")])


# Two copies of the input, one per channel, through batch norm with
# gamma > 0 on channel 0 and gamma < 0 on channel 1. After the affine
# the tied maxima [3, 3] and [6, 6] stay tied maxima on channel 0, and
# the tied minima [3, 3] and [0, 0] become tied maxima on channel 1, all
# of them above zero.
TIE_BATCHNORM_STACK = [nn.LayerSpec("conv1d", out_channels=2, kernel=3),
                       nn.LayerSpec("batchnorm"), nn.LayerSpec("relu"),
                       nn.LayerSpec("maxpool", pool=2),
                       nn.LayerSpec("global_avg_pool"),
                       nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")]
TIE_GAMMA, TIE_BETA = [1.2, -0.8], [0.3, 0.5]

REFERENCE_CASES = {
    "reference_architecture": (nn.reference_architecture(), EPOCH_SAMPLES,
                               1),
    **{f"gradcheck_{i}": stack for i, stack in enumerate(GRADCHECK_CONFIGS)},
    "ties_relu_maxpool": (_tie_stack(relu=True), 8, 1),
    "ties_maxpool": (_tie_stack(relu=False), 8, 1),
    "ties_batchnorm_negative_gamma": (TIE_BATCHNORM_STACK, 8, 1),
}


class TestMatchesReferenceLoop:
    def build(self, name, dtype):
        specs, length, channels = REFERENCE_CASES[name]
        model = nn.build_model(specs, length, channels, seed=4, dtype=dtype)
        rng = np.random.default_rng(12)
        for layer in model.params:
            if "running_mean" in layer:
                c = layer["gamma"].size
                layer["gamma"][...] = rng.normal(0.0, 1.5, c)  # some < 0
                layer["beta"][...] = rng.normal(0.0, 1.0, c)
                layer["running_mean"][...] = rng.normal(0.0, 2.0, c)
                layer["running_var"][...] = rng.uniform(0.5, 4.0, c)
        if name.startswith("ties"):
            model.params[0]["w"][...] = [[[0.0, 1.0, 0.0]]]
            x = TIE_INPUT
            if name == "ties_batchnorm_negative_gamma":
                model.params[1]["gamma"][...] = TIE_GAMMA
                model.params[1]["beta"][...] = TIE_BETA
        else:
            # the reference architecture's batch spans one full block of
            # the pooled layer-0 training step and a partial one
            rows, scale = (nn._BLOCK_ROWS + 4, 30.0) \
                if name == "reference_architecture" else (4, 2.0)
            x = scale * rng.standard_normal((rows, channels, length))
        targets = rng.integers(0, model.n_classes, size=len(x))
        return model, x.astype(dtype), targets

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", list(REFERENCE_CASES))
    def test_same_outputs_and_gradients(self, name, dtype, mode):
        model, x, targets = self.build(name, dtype)
        reference = copy.deepcopy(model)
        trace = nn.forward(model, x, mode, rng=np.random.default_rng(5))
        probs, caches = reference_forward(reference, x, mode,
                                          rng=np.random.default_rng(5))
        tolerance = 1e-9 if dtype == np.float64 else 1e-5
        assert np.max(np.abs(trace.probs - probs)) < tolerance
        if mode == "infer":
            assert all(cache is None for cache in trace.caches)
        if mode == "infer" or dtype == np.float32:
            return
        for layer, ref_layer in zip(model.params, reference.params):
            for key, value in layer.items():
                assert np.allclose(value, ref_layer[key], rtol=1e-9,
                                   atol=0.0), key
        grads = nn.backward(model, trace, targets)
        expected = reference_backward(reference, probs, caches, targets)
        for i, (got, want) in enumerate(zip(grads, expected)):
            assert got.keys() == want.keys()
            if not want:
                continue
            # a conv bias feeding batch norm has an analytic gradient of
            # zero, so each array is measured against its layer's largest
            scale = max(np.max(np.abs(v)) for v in want.values())
            for key in want:
                err = np.max(np.abs(got[key] - want[key])) / scale
                assert err < 1e-9, (i, key, err)

    def test_first_conv_bias_gradient_is_exactly_zero(self):
        # batch norm removes a per-channel constant, so conv 0's bias has
        # an analytic gradient of exactly zero, not rounding noise
        model, x, targets = self.build("reference_architecture", np.float32)
        trace = nn.forward(model, x, "train", rng=np.random.default_rng(5))
        grads = nn.backward(model, trace, targets)
        assert grads[0]["b"].dtype == np.float32
        assert np.all(grads[0]["b"] == 0.0)

    def test_weight_gradient_holds_under_a_dc_offset(self):
        # 200 uV of DC on every sample: conv 0's float32 weight gradient
        # must be as close to a float64 reference as the per-layer
        # helpers bring it. A rate-0 dropout ahead of the conv keeps the
        # same weights off the fused layer-0 step.
        model, x, targets = self.build("reference_architecture", np.float32)
        x = x + np.float32(200.0)
        unfused = nn.Model(
            specs=[nn.LayerSpec("dropout", rate=0.0)] + model.specs,
            params=[{}] + copy.deepcopy(model.params),
            input_len=model.input_len, in_channels=model.in_channels,
            n_classes=model.n_classes, dtype=model.dtype)
        exact = copy.deepcopy(model)
        exact.dtype = np.dtype(np.float64)
        exact.params = [{k: v.astype(np.float64) for k, v in layer.items()}
                        for layer in exact.params]

        def weight_gradient(net, first):
            trace = nn.forward(net, x, "train", rng=np.random.default_rng(5))
            return nn.backward(net, trace, targets)[first]["w"]

        probs, caches = reference_forward(exact, x, "train",
                                          rng=np.random.default_rng(5))
        want = reference_backward(exact, probs, caches, targets)[0]["w"]

        def error(got):
            return np.max(np.abs(got - want)) / np.max(np.abs(want))

        fused = error(weight_gradient(model, 0))
        helpers = error(weight_gradient(unfused, 1))
        assert fused <= helpers, (fused, helpers)


class TestForwardValidation:
    def test_wrong_shape_rejected(self):
        model = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES)
        with pytest.raises(ShapeMismatch):
            nn.forward(model, np.zeros((1, 1, 100)))
        with pytest.raises(ShapeMismatch):
            nn.forward(model, np.zeros((1, 2, EPOCH_SAMPLES)))

    def test_bad_mode_rejected(self):
        model = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES)
        with pytest.raises(ConfigError):
            nn.forward(model, np.zeros((1, 1, EPOCH_SAMPLES)), mode="eval")

    def test_infer_is_deterministic(self):
        model = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES,
                               seed=9)
        x = 30.0 * np.random.default_rng(11).standard_normal(
            (3, 1, EPOCH_SAMPLES)).astype(np.float32)
        a = nn.forward(model, x).probs
        b = nn.forward(model, x).probs
        assert np.array_equal(a, b)


def trained_like_model(seed):
    """The reference network in float32 with batch-norm statistics and
    affine terms away from their initial values."""
    model = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES,
                           seed=seed)
    rng = np.random.default_rng(seed)
    for layer in model.params:
        if "running_mean" in layer:
            c = layer["gamma"].size
            layer["gamma"][...] = rng.uniform(0.5, 2.0, c)
            layer["beta"][...] = rng.normal(0.0, 0.5, c)
            layer["running_mean"][...] = rng.normal(0.0, 2.0, c)
            layer["running_var"][...] = rng.uniform(0.5, 40.0, c)
    return model


class TestBatchIndependence:
    """A row's probabilities do not depend on how many rows share its
    batch, so the 16-row batches of `infer_channel` and of the
    validation loss only size their feature maps."""

    def test_rows_score_alike_alone_and_in_batches(self):
        model = trained_like_model(seed=21)
        x = (30.0 * np.random.default_rng(22).standard_normal(
            (256, 1, EPOCH_SAMPLES))).astype(np.float32)
        alone = np.concatenate([nn.forward(model, x[i:i + 1]).probs
                                for i in range(len(x))])
        for batch in (2, 7, 16, 64, 256):
            batched = np.concatenate(
                [nn.forward(model, x[s:s + batch]).probs
                 for s in range(0, len(x), batch)])
            assert np.array_equal(batched, alone), batch

    def test_infer_channel_does_not_depend_on_its_batch(self):
        # 129 valid epochs: at batch 64 the last one is scored alone
        model = trained_like_model(seed=25)
        rng = np.random.default_rng(26)
        x = (30.0 * rng.standard_normal((180, EPOCH_SAMPLES))).astype(
            np.float32)
        valid = np.zeros(180, dtype=bool)
        valid[rng.choice(180, size=129, replace=False)] = True
        scored = training.infer_channel(model, x, valid)
        for batch in (64, 256):
            assert np.array_equal(
                scored, score_in_batches(model, x, valid, batch),
                equal_nan=True), batch


@pytest.mark.skipif(threads.blas_threads() is None,
                    reason="numpy bundles no OpenBLAS")
def test_train_step_is_bitwise_equal_at_one_and_two_blas_threads():
    rng = np.random.default_rng(25)
    x = (30.0 * rng.standard_normal((64, 1, EPOCH_SAMPLES))).astype(
        np.float32)
    targets = rng.integers(0, 2, size=64)

    def step(blas_threads):
        model = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES,
                               seed=26)
        with threads.blas_limited(blas_threads):
            trace = nn.forward(model, x, "train",
                               rng=np.random.default_rng(27))
            grads = nn.backward(model, trace, targets)
        return trace.probs, grads, model.params

    probs_1, grads_1, params_1 = step(1)
    probs_2, grads_2, params_2 = step(2)
    assert np.array_equal(probs_1, probs_2)
    for got, want in zip(grads_2 + params_2, grads_1 + params_1):
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key


class TestCheckpoint:
    def small_model(self):
        specs = [nn.LayerSpec("conv1d", out_channels=3, kernel=3),
                 nn.LayerSpec("batchnorm"), nn.LayerSpec("relu"),
                 nn.LayerSpec("maxpool", pool=2),
                 nn.LayerSpec("global_avg_pool"),
                 nn.LayerSpec("dropout", rate=0.2),
                 nn.LayerSpec("dense", units=2), nn.LayerSpec("softmax")]
        return nn.build_model(specs, input_len=12, seed=13)

    def test_round_trip_preserves_inference(self, tmp_path):
        model = self.small_model()
        # give the running stats a non-default value to prove they persist
        x = 10.0 * np.random.default_rng(1).standard_normal((4, 1, 12))
        nn.forward(model, x.astype(np.float32), "train",
                   rng=np.random.default_rng(0))
        path = nn.save_checkpoint(model, tmp_path / "model.json",
                                  metadata={"note": "round trip"})
        loaded, meta = nn.load_checkpoint(path)
        assert meta == {"note": "round trip"}
        assert nn.count_params(loaded) == nn.count_params(model)
        probe = np.random.default_rng(2).standard_normal(
            (2, 1, 12)).astype(np.float32)
        assert np.array_equal(nn.forward(model, probe).probs,
                              nn.forward(loaded, probe).probs)

    def test_corrupted_blob_detected(self, tmp_path):
        model = self.small_model()
        path = nn.save_checkpoint(model, tmp_path / "model.json")
        blob = tmp_path / "model.bin"
        raw = bytearray(blob.read_bytes())
        raw[5] ^= 0xFF
        blob.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatch):
            nn.load_checkpoint(path)

    def test_truncated_blob_detected(self, tmp_path):
        model = self.small_model()
        path = nn.save_checkpoint(model, tmp_path / "model.json")
        blob = tmp_path / "model.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(ChecksumMismatch):
            nn.load_checkpoint(path)

    def test_blob_is_float32_little_endian(self, tmp_path):
        model = self.small_model()
        path = nn.save_checkpoint(model, tmp_path / "model.json")
        blob = (tmp_path / "model.bin").read_bytes()
        first = np.frombuffer(blob[:model.params[0]["w"].size * 4],
                              dtype="<f4").reshape(3, 1, 3)
        assert np.array_equal(first, model.params[0]["w"])

    def test_manifest_bytes_are_deterministic(self, tmp_path):
        a = nn.save_checkpoint(self.small_model(), tmp_path / "x/m.json")
        b = nn.save_checkpoint(self.small_model(), tmp_path / "y/m.json")
        assert a.read_text() == b.read_text()
        assert (tmp_path / "x/m.bin").read_bytes() == \
            (tmp_path / "y/m.bin").read_bytes()
