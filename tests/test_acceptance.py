"""Acceptance suite: one test per release criterion, named so the
verbose pytest report reads as a per-criterion pass/fail checklist.

Criteria 1-6 are unit-level contracts with independent oracles. Criteria
7-9 and 11 share one leave-one-subject-out run on a synthetic cohort
(8 subjects x 3 h), built once per session. Criterion 10 exercises the
command line tool end to end at a smaller scale.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import (finite_diff_grads, max_grad_rel_err, sos_gain,
                     tone_amplitude)
from sleeptrend import cli, nn, pipeline, sst
from sleeptrend.dsp import TARGET_FS, design_butter_bandpass, resample
from sleeptrend.envelope import analytic_envelope
from sleeptrend.labels import GAP, Label
from sleeptrend.metrics import (ConfusionMatrix, median_range, report,
                                roc_auc)
from sleeptrend.recording import epoch_labels
from sleeptrend.synth import SynthConfig, generate, jitter_track
from sleeptrend.training import TrainConfig, loso

THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match central finite differences

def random_stack(rng):
    """A small random stack touching every layer kind. Convolutions are
    same-padded (odd kernels), so the input length only has to divide by
    the pool factor."""
    channels = int(rng.integers(1, 4))
    kernel = int(rng.choice([1, 3, 5]))
    pool = int(rng.integers(2, 4))
    length = pool * int(rng.integers(2, 5))
    specs = [
        nn.LayerSpec("conv1d", out_channels=int(rng.integers(2, 5)),
                     kernel=kernel),
        nn.LayerSpec("batchnorm"),
        nn.LayerSpec("relu"),
        nn.LayerSpec("maxpool", pool=pool),
        nn.LayerSpec("conv1d", out_channels=int(rng.integers(2, 4)),
                     kernel=1),
        nn.LayerSpec("global_avg_pool"),
        nn.LayerSpec("dropout", rate=float(rng.uniform(0.1, 0.5))),
        nn.LayerSpec("dense", units=int(rng.integers(2, 4))),
        nn.LayerSpec("softmax"),
    ]
    return specs, length, channels


def test_criterion_01_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(10):
        specs, length, channels = random_stack(rng)
        model = nn.build_model(specs, length, channels,
                               seed=int(rng.integers(1 << 30)),
                               dtype=np.float64)
        x = 2.0 * rng.standard_normal((3, channels, length))
        targets = rng.integers(0, model.n_classes, size=3)
        trace = nn.forward(model, x, mode="train",
                           rng=np.random.default_rng(7))
        analytic = nn.backward(model, trace, targets)
        numeric = finite_diff_grads(model, x, targets, h=1e-4,
                                    dropout_seed=7)
        assert max_grad_rel_err(analytic, numeric) < 1e-4
    assert time.time() - start < 60.0


# ---------------------------------------------------------------------------
# criterion 2: exactly 5,082 trainable parameters

def test_criterion_02_parameter_count():
    # closed form, written out independently of the library's counters:
    # conv adds out*(in*kernel) + out, batchnorm adds gamma+beta per
    # feature map, dense adds units*in + units
    closed_form = (
        (8 * (1 * 3) + 8) + (2 * 8)
        + (16 * (8 * 11) + 16) + (2 * 16)
        + (24 * (16 * 9) + 24) + (2 * 24)
        + (2 * 24 + 2)
    )
    assert closed_form == 5082
    model = nn.build_model(nn.reference_architecture(),
                           input_len=3840, in_channels=1, seed=0)
    assert nn.count_params(model) == 5082


# ---------------------------------------------------------------------------
# criterion 3: band-pass frequency response @256 Hz

def test_criterion_03_bandpass_filter_contract():
    sos = design_butter_bandpass(0.5, 30.0, fs=256.0, order=4)

    def db(f_hz):
        return 20.0 * np.log10(sos_gain(sos, f_hz, 256.0))

    for f in np.arange(2.0, 20.0 + 1e-9, 0.25):
        assert sos_gain(sos, f, 256.0) >= 0.9, f"droop at {f} Hz"
    assert db(0.5) == pytest.approx(-3.0, abs=0.5)
    assert db(30.0) == pytest.approx(-3.0, abs=0.5)
    assert db(45.0) <= -30.0


# ---------------------------------------------------------------------------
# criterion 4: anti-aliased resampling 256 -> 64 Hz

def test_criterion_04_resampler_contract():
    fs_in, fs_out, seconds = 256.0, 64.0, 30.0
    t = np.arange(int(seconds * fs_in)) / fs_in

    high = np.sin(2 * np.pi * 50.0 * t)
    y = resample(high, fs_in, fs_out)
    guard = int(fs_out)
    interior = y[guard:-guard]
    # 50 Hz folds to 14 Hz after decimation; require >= 40 dB attenuation
    # however the residue lands
    assert tone_amplitude(interior, 14.0, fs_out, offset=guard) <= 0.01
    assert np.sqrt(np.mean(interior ** 2)) <= 0.01

    low = np.sin(2 * np.pi * 5.0 * t)
    y = resample(low, fs_in, fs_out)
    amp = tone_amplitude(y[guard:-guard], 5.0, fs_out, offset=guard)
    assert amp == pytest.approx(1.0, rel=0.01)


# ---------------------------------------------------------------------------
# criterion 5: metrics against brute force

def brute_force_report(tp, fp, fn, tn):
    """Exact rational evaluation of the agreement metrics."""
    total = tp + fp + fn + tn
    accuracy = Fraction(tp + tn, total)
    precision = Fraction(tp, tp + fp) if tp + fp > 0 else None
    f1 = Fraction(2 * tp, 2 * tp + fp + fn) if 2 * tp + fp + fn > 0 else None
    if fp == 0 and fn == 0:
        kappa = Fraction(1)
    else:
        po = Fraction(tp + tn, total)
        pe = (Fraction(tp + fp, total) * Fraction(tp + fn, total)
              + Fraction(fn + tn, total) * Fraction(fp + tn, total))
        kappa = (po - pe) / (1 - pe) if pe != 1 else Fraction(0)
    return accuracy, precision, f1, kappa


def pairwise_auc(y, scores):
    """Ranking probability with half credit for ties, counted directly
    as an exact fraction."""
    pos = [s for t, s in zip(y, scores) if t == Label.QS]
    neg = [s for t, s in zip(y, scores) if t == Label.AS]
    half_wins = sum(2 if p > q else 1 if p == q else 0
                    for p in pos for q in neg)
    return Fraction(half_wins, 2 * len(pos) * len(neg))


def test_criterion_05_metrics_oracle():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 1000:
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, size=4))
        if tp + fp + fn + tn == 0:
            continue
        got = report(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
        accuracy, precision, f1, kappa = brute_force_report(tp, fp, fn, tn)
        assert got.accuracy == float(accuracy)
        assert (got.precision is None) == (precision is None)
        if precision is not None:
            assert got.precision == float(precision)
        assert (got.f1 is None) == (f1 is None)
        if f1 is not None:
            assert got.f1 == float(f1)
        assert got.kappa == float(kappa)
        checked += 1

    worked = report(ConfusionMatrix(tp=40, tn=40, fp=10, fn=10))
    assert worked.accuracy == 0.8
    assert worked.kappa == 0.6

    checked = 0
    while checked < 100:
        n = int(rng.integers(4, 40))
        y = [Label.QS if v else Label.AS for v in rng.integers(0, 2, n)]
        if len(set(y)) < 2:
            continue
        # quantized scores force tie handling into the comparison
        scores = np.round(rng.random(n), 1)
        assert roc_auc(y, scores).auc == float(pairwise_auc(y, scores))
        checked += 1


# ---------------------------------------------------------------------------
# criterion 6: Hilbert envelope of a pure tone

def test_criterion_06_hilbert_envelope():
    fs = TARGET_FS
    t = np.arange(int(60.0 * fs)) / fs
    env = analytic_envelope(5.0 * np.sin(2 * np.pi * 10.0 * t), fs)
    guard = int(fs)
    assert env[guard:-guard] == pytest.approx(5.0, rel=0.02)


# ---------------------------------------------------------------------------
# shared LOSO run for criteria 7, 8, 9, 11

COHORT_SEED = 0
N_SUBJECTS = 8
DURATION_MIN = 180.0
MAX_EPOCHS = 10
TRAIN_CHANNELS = ("F3-P3",)


@pytest.fixture(scope="session")
def loso_run():
    start = time.time()
    cfg = SynthConfig(seed=COHORT_SEED, n_subjects=N_SUBJECTS,
                      duration_min=DURATION_MIN)
    subjects, truths = [], {}
    generated = generate(cfg)
    index = 0
    while generated:
        recording, truth = generated.pop(0)
        tracks = {"e1": truth.track,
                  "e2": jitter_track(truth.track, 30.0, seed=index)}
        subject = pipeline.assemble_subject(recording, tracks)
        subjects.append(subject)
        truths[subject.subject_id] = epoch_labels(truth.track,
                                                  subject.n_epochs)
        index += 1

    folds = loso(subjects, TrainConfig(max_epochs=MAX_EPOCHS, seed=0),
                 train_channels=list(TRAIN_CHANNELS))
    elapsed = time.time() - start
    traces = {fold.held_out_subject: sst.compute_sst(fold.predictions)
              for fold in folds}
    return {"subjects": {s.subject_id: s for s in subjects},
            "truths": truths, "folds": folds, "traces": traces,
            "elapsed_s": elapsed}


def pooled_accuracy(pairs):
    hits = [int(pred == truth) for truth, pred in pairs]
    return sum(hits) / len(hits)


def decision_pairs(truth, probs):
    """(truth, thresholded prediction) for scoreable epochs."""
    out = []
    for i, p in enumerate(probs):
        if np.isfinite(p) and truth[i] in (Label.QS, Label.AS):
            out.append((truth[i],
                        Label.QS if p >= THRESHOLD else Label.AS))
    return out


def test_criterion_07_synthetic_loso_performance(loso_run):
    single_pairs = []
    ys, scores = [], []
    per_channel = {}
    for fold in loso_run["folds"]:
        truth = loso_run["truths"][fold.held_out_subject]
        for channel, probs in fold.predictions.items():
            pairs = decision_pairs(truth, probs)
            single_pairs += pairs
            per_channel.setdefault(channel, []).extend(pairs)
            for i, p in enumerate(probs):
                if np.isfinite(p) and truth[i] in (Label.QS, Label.AS):
                    ys.append(truth[i])
                    scores.append(p)

    accuracy = pooled_accuracy(single_pairs)
    auc = roc_auc(ys, np.asarray(scores)).auc
    assert accuracy >= 0.90, f"single-channel accuracy {accuracy:.4f}"
    assert auc >= 0.95, f"single-channel AUC {auc:.4f}"

    median_single = median_range(
        [pooled_accuracy(v) for v in per_channel.values()])[0]
    fused_pairs = []
    for sid, trace in loso_run["traces"].items():
        fused_pairs += decision_pairs(loso_run["truths"][sid],
                                      trace.p_mean)
    fused = pooled_accuracy(fused_pairs)
    assert fused >= median_single, \
        f"fused {fused:.4f} < median single {median_single:.4f}"

    assert loso_run["elapsed_s"] < 20 * 60


def test_criterion_08_smoothing_improves_accuracy(loso_run):
    pre_pairs, post_pairs = [], []
    for sid, trace in loso_run["traces"].items():
        truth = loso_run["truths"][sid]
        pre_pairs += decision_pairs(truth, trace.p_mean)
        post_pairs += decision_pairs(truth, trace.p_smoothed)
    pre = pooled_accuracy(pre_pairs)
    post = pooled_accuracy(post_pairs)
    assert post >= pre, f"smoothing hurt: {post:.4f} < {pre:.4f}"


def test_criterion_09_loso_hygiene(loso_run):
    violations = []
    for fold in loso_run["folds"]:
        held_out = fold.held_out_subject
        assert len(fold.train_keys) and len(fold.val_keys)
        keys = np.concatenate([fold.train_keys, fold.val_keys])
        violations += keys[keys["subject"] == held_out].tolist()
        # both expert copies are really in play for the other subjects
        assert set(keys["expert"].tolist()) == {"e1", "e2"}
    assert violations == []


def test_criterion_10_crossval_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    data_dir = tmp_path / "data"
    cfg_path.write_text(json.dumps({
        "seed": 7,
        "data_dir": str(data_dir),
        "synth": {"n_subjects": 2, "duration_min": 12.0},
        "train": {"max_epochs": 2, "batch_size": 32},
    }))
    argv = ["--config", str(cfg_path)]
    assert cli.main(["synth", *argv, "--out", str(data_dir)]) == 0

    runs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out in runs:
        assert cli.main(["crossval", *argv, "--out", str(out)]) == 0
    # parallel fold workers must reproduce the serial run
    parallel = tmp_path / "run_jobs2"
    assert cli.main(["crossval", *argv, "--jobs", "2",
                     "--out", str(parallel)]) == 0

    compared = []
    for name in sorted(p.name for p in runs[0].iterdir()):
        if name.endswith(".bin") or name == "metrics.csv":
            a = (runs[0] / name).read_bytes()
            b = (runs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
            compared.append(name)
    assert "metrics.csv" in compared
    assert sum(name.endswith(".bin") for name in compared) == 2

    outputs = sorted(p.name for p in runs[0].iterdir()
                     if p.name != "manifest.json")
    assert sorted(p.name for p in parallel.iterdir()
                  if p.name != "manifest.json") == outputs
    for name in outputs:
        assert (parallel / name).read_bytes() \
            == (runs[0] / name).read_bytes(), f"{name} differs at --jobs 2"


def test_criterion_11_sst_structural_contract(loso_run):
    n_gaps = n_splits = 0
    for fold in loso_run["folds"]:
        sid = fold.held_out_subject
        trace = loso_run["traces"][sid]
        finite = np.isfinite(trace.p_mean)

        assert np.all(trace.p_min[finite] <= trace.p_mean[finite] + 1e-12)
        assert np.all(trace.p_mean[finite] <= trace.p_max[finite] + 1e-12)

        # a gap decision must mean every channel was rejected, and the
        # epochs every channel rejected must all surface as gaps
        subject = loso_run["subjects"][sid]
        all_rejected = (~np.array([valid for _, valid
                                   in subject.epochs.values()])
                        ).all(axis=0).tolist()
        gaps = [d == GAP for d in trace.decisions]
        assert gaps == all_rejected
        n_gaps += sum(gaps)

        intervals = sst.detect_dqs(trace)
        for iv in intervals:
            assert not any(gaps[iv.start_epoch:iv.end_epoch])
        ends = {iv.end_epoch for iv in intervals}
        starts = {iv.start_epoch for iv in intervals}
        n_splits += sum(1 for i, g in enumerate(gaps)
                        if g and i in ends and i + 1 in starts)

    assert n_gaps > 0, "no injected artifact survived to the trend"
    assert n_splits > 0, "no gap ever split a detected QS interval"
