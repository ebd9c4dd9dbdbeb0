"""Shared oracle helpers for the test suite.

These deliberately avoid the library code paths they check: the SOS gain
is evaluated with plain complex arithmetic and tone amplitudes come from a
least-squares sinusoid fit.
"""

import numpy as np

# offset within one entry and width of the EDF signal header fields that
# the helpers below read or rewrite; each field is a block of ns entries
EDF_SIGNAL_AT = {"label": (0, 16), "units": (96, 8), "pmin": (104, 8),
                 "pmax": (112, 8), "dmin": (120, 8), "dmax": (128, 8),
                 "spr": (216, 8)}


def edf_signal_field(raw, name):
    """Every signal's entry of one EDF header field, as stripped text."""
    ns = int(raw[252:256])
    at, width = EDF_SIGNAL_AT[name]
    base = 256 + ns * at
    return [bytes(raw[base + i * width:base + (i + 1) * width])
            .decode("ascii").strip() for i in range(ns)]


def relayout_edf(path, record_s, rewrite):
    """Rewrite an EDF file of 1 s records in place: its samples are
    regrouped into `record_s`-second records, and each signal header
    field named in `rewrite` gets rewrite[name](old text) as new text."""
    raw = bytearray(path.read_bytes())
    ns = int(raw[252:256])
    n_records = int(raw[236:244])
    header = 256 + 256 * ns
    spr = [int(v) for v in edf_signal_field(raw, "spr")]
    fields = {name: [new(old) for old in edf_signal_field(raw, name)]
              for name, new in rewrite.items()}
    fields["spr"] = [str(v * record_s) for v in spr]
    for name, values in fields.items():
        at, width = EDF_SIGNAL_AT[name]
        base = 256 + ns * at
        assert all(len(v) <= width for v in values), (name, values)
        raw[base:base + ns * width] = b"".join(
            v.encode("ascii").ljust(width) for v in values)
    raw[236:244] = str(n_records // record_s).encode("ascii").ljust(8)
    raw[244:252] = str(record_s).encode("ascii").ljust(8)
    one_s = np.frombuffer(bytes(raw[header:]), dtype="<i2").reshape(
        n_records, sum(spr))
    bounds = np.cumsum([0] + spr)
    regrouped = np.concatenate(
        [one_s[:, a:b].reshape(n_records // record_s, record_s * (b - a))
         for a, b in zip(bounds[:-1], bounds[1:])], axis=1)
    path.write_bytes(bytes(raw[:header]) + regrouped.tobytes())


def sos_gain(sos, f_hz, fs):
    """|H(f)| of a second-order-section cascade, evaluated directly."""
    zinv = np.exp(-2j * np.pi * f_hz / fs)
    h = 1.0 + 0.0j
    for b0, b1, b2, a0, a1, a2 in np.asarray(sos):
        h *= (b0 + b1 * zinv + b2 * zinv * zinv) / (
            a0 + a1 * zinv + a2 * zinv * zinv)
    return abs(h)


def tone_amplitude(x, f_hz, fs, offset=0):
    """Amplitude of the f_hz component via least-squares fit."""
    t = (np.arange(len(x)) + offset) / fs
    design = np.column_stack([np.sin(2 * np.pi * f_hz * t),
                              np.cos(2 * np.pi * f_hz * t),
                              np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(design, x, rcond=None)
    return float(np.hypot(coef[0], coef[1]))


def finite_diff_grads(model, x, targets, h=1e-4, dropout_seed=7):
    """Central finite differences of the mean cross-entropy with respect
    to every trainable array, matching the structure of nn.backward.

    The model must be float64 for the differences to resolve. Dropout is
    pinned by reseeding the same generator for every evaluation, and the
    batchnorm running statistics are restored afterwards so repeated
    evaluations see identical state.
    """
    from sleeptrend import nn

    saved_state = [{k: v.copy() for k, v in layer.items()}
                   for layer in model.params]

    def loss():
        value = nn.cross_entropy(
            nn.forward(model, x, mode="train",
                       rng=np.random.default_rng(dropout_seed)).probs,
            targets)
        for layer, saved in zip(model.params, saved_state):
            for name in ("running_mean", "running_var"):
                if name in layer:
                    layer[name][...] = saved[name]
        return value

    grads = []
    for spec, layer in zip(model.specs, model.params):
        layer_grads = {}
        for name in nn.TRAINABLE.get(spec.kind, ()):
            arr = layer[name]
            out = np.zeros_like(arr)
            flat, gflat = arr.ravel(), out.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                plus = loss()
                flat[i] = orig - h
                minus = loss()
                flat[i] = orig
                gflat[i] = (plus - minus) / (2.0 * h)
            layer_grads[name] = out
        grads.append(layer_grads)
    return grads


def max_grad_rel_err(analytic, numeric):
    """Worst relative disagreement between two gradient structures."""
    worst = 0.0
    for a_layer, n_layer in zip(analytic, numeric):
        for name, n_arr in n_layer.items():
            a_arr = a_layer[name]
            denom = np.maximum(np.abs(a_arr) + np.abs(n_arr), 1e-7)
            worst = max(worst, float(np.max(np.abs(a_arr - n_arr) / denom)))
    return worst
