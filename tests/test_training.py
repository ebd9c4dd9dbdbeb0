"""Trainer tests: the Adam update against hand-worked values, plateau and
early-stop bookkeeping, dual-expert dataset assembly, grouped stratified
splitting, and the cross-validation harness on tiny synthetic subjects."""

import csv
import pickle

import numpy as np
import pytest

from sleeptrend import nn, threads, training
from sleeptrend.dsp import EPOCH_SAMPLES
from sleeptrend.errors import (ConfigError, DataError, LengthMismatch,
                               MissingChannel, SingleClassDataset,
                               TooFewSubjects)
from sleeptrend.labels import Label
from sleeptrend.training import (AdamState, PlateauSchedule, SubjectData,
                                 TrainConfig, adam_step, build_dataset,
                                 dataset_arrays, fold_seed, infer_channel,
                                 loso, split_train_val, train, write_history)


def make_epoch(rng, scale=10.0, tone_hz=None):
    t = np.arange(EPOCH_SAMPLES) / 64.0
    x = scale * rng.standard_normal(EPOCH_SAMPLES)
    if tone_hz is not None:
        x = x + 30.0 * np.sin(2.0 * np.pi * tone_hz * t)
    return x.astype(np.float32)


def make_subject(subject_id, labels_by_expert, rng, channels=("C1",),
                 invalid=(), tone_for_qs=False):
    n = len(next(iter(labels_by_expert.values())))
    first = next(iter(labels_by_expert.values()))
    valid = np.array([i not in invalid for i in range(n)])
    epochs = {}
    for channel in channels:
        x = np.stack([make_epoch(rng, tone_hz=2.0 if tone_for_qs
                                 and first[i] is Label.QS else None)
                      for i in range(n)])
        epochs[channel] = (x, valid.copy())
    return SubjectData(subject_id=subject_id, epochs=epochs,
                       labels={k: list(v) for k, v in
                               labels_by_expert.items()}, n_epochs=n)


class TestAdam:
    def test_hand_worked_single_step(self):
        w = np.array([1.0])
        g = np.array([0.5])
        updated, state = adam_step(w, g, AdamState.fresh(w), TrainConfig())
        # bias correction makes the first step exactly lr * g/|g| up to eps
        assert updated[0] == pytest.approx(0.999, abs=1e-10)
        assert state.t == 1
        assert w[0] == 1.0  # input untouched

    def test_zero_gradient_is_a_no_op(self):
        w = np.array([0.3, -0.7])
        updated, _ = adam_step(w, np.zeros(2), AdamState.fresh(w),
                               TrainConfig())
        assert np.array_equal(updated, w)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(20)
        g = rng.standard_normal(20)
        plus, _ = adam_step(w, g, AdamState.fresh(w), TrainConfig())
        minus, _ = adam_step(w, -g, AdamState.fresh(w), TrainConfig())
        assert np.array_equal(plus - w, -(minus - w))

    def test_first_step_bounded_by_lr(self):
        rng = np.random.default_rng(1)
        cfg = TrainConfig()
        for _ in range(20):
            w = rng.standard_normal(50)
            g = 10.0 ** rng.uniform(-6, 4, size=50) * np.sign(
                rng.standard_normal(50))
            updated, _ = adam_step(w, g, AdamState.fresh(w), cfg)
            assert np.all(np.abs(updated - w) <= cfg.lr * (1.0 + 1e-6))

    def test_shape_mismatch_rejected(self):
        w = np.zeros(3)
        with pytest.raises(LengthMismatch):
            adam_step(w, np.zeros(4), AdamState.fresh(w), TrainConfig())

    def test_state_accumulates(self):
        w = np.array([1.0])
        state = AdamState.fresh(w)
        cfg = TrainConfig()
        for expected_t in (1, 2, 3):
            w, state = adam_step(w, np.array([0.5]), state, cfg)
            assert state.t == expected_t
        # constant gradient keeps the step near lr each time
        assert w[0] == pytest.approx(1.0 - 3 * cfg.lr, abs=1e-6)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.lr == 0.001 and cfg.batch_size == 64
        assert cfg.max_epochs == 500 and cfg.early_stop_patience == 35

    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.0}, {"beta1": 1.0}, {"beta2": -0.1}, {"batch_size": 0},
        {"inner_val_fraction": 0.0}, {"inner_val_fraction": 1.0},
        {"max_epochs": 0}, {"seed": -1}, {"seed": 2 ** 64},
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_fold_seeds_are_valid(self):
        # fold_seed draws from the whole unsigned 64-bit range
        assert TrainConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1
        assert TrainConfig(seed=fold_seed(0, "s05")).seed >= 2 ** 63


class TestPlateauSchedule:
    def test_decreasing_then_flat_stops_at_patience(self):
        sched = PlateauSchedule(lr=0.001, patience=35)
        losses = [1.0 - 0.05 * i for i in range(11)] + [0.5] * 100
        stop = None
        for epoch, loss in enumerate(losses):
            sched.update(loss)
            if sched.should_stop:
                stop = epoch
                break
        assert stop == 45  # 10 + patience
        assert sched.best_epoch == 10
        assert sched.drop_epochs == [30]

    def test_flat_sequence_drops_lr_twice(self):
        sched = PlateauSchedule(lr=0.001, patience=1000)
        for _ in range(41):
            sched.update(1.0)
        assert sched.drop_epochs == [20, 40]
        assert sched.lr == pytest.approx(1e-5)

    def test_equal_loss_is_not_an_improvement(self):
        sched = PlateauSchedule(lr=0.1, patience=3)
        for loss in (0.5, 0.5, 0.5, 0.5):
            sched.update(loss)
        assert sched.should_stop
        assert sched.best_epoch == 0

    def test_improvement_resets_both_counters(self):
        sched = PlateauSchedule(lr=0.1, patience=5, plateau=3)
        for loss in (1.0, 1.0, 1.0, 0.9, 1.0, 1.0):
            sched.update(loss)
        # the improvement at epoch 3 rearmed the plateau counter
        assert sched.drop_epochs == []
        assert sched.since_improve == 2


class TestDataset:
    def test_agreement_duplicates_the_epoch(self):
        rng = np.random.default_rng(2)
        subject = make_subject("n1", {"e1": [Label.QS], "e2": [Label.QS]},
                               rng)
        ds = build_dataset([subject])
        assert len(ds) == 2
        assert ds.y.tolist() == [1, 1]  # QS is class 1
        assert np.array_equal(ds.x[0], ds.x[1])

    def test_disagreement_contributes_both_labels(self):
        rng = np.random.default_rng(3)
        subject = make_subject("n1", {"e1": [Label.QS], "e2": [Label.AS]},
                               rng)
        ds = build_dataset([subject])
        assert len(ds) == 2
        assert ds.y.tolist() == [1, 0]
        assert ds.keys["expert"].tolist() == ["e1", "e2"]

    def test_excluded_label_is_skipped(self):
        rng = np.random.default_rng(4)
        subject = make_subject(
            "n1", {"e1": [Label.EXCLUDED], "e2": [Label.QS]}, rng)
        ds = build_dataset([subject])
        assert len(ds) == 1
        assert ds.y.tolist() == [1]
        assert ds.keys["expert"].tolist() == ["e2"]

    def test_invalid_epochs_are_skipped(self):
        rng = np.random.default_rng(5)
        subject = make_subject(
            "n1", {"e1": [Label.QS, Label.AS], "e2": [Label.QS, Label.AS]},
            rng, invalid={1})
        ds = build_dataset([subject])
        assert len(ds) == 2
        assert ds.keys["epoch"].tolist() == [0, 0]

    def test_arrays_shape_and_classes(self):
        rng = np.random.default_rng(6)
        subject = make_subject(
            "n1", {"e1": [Label.QS, Label.AS], "e2": [Label.AS, Label.AS]},
            rng)
        ds = build_dataset([subject])
        x, y = dataset_arrays(ds)
        assert x.shape == (4, 1, EPOCH_SAMPLES) and x.dtype == np.float32
        assert np.shares_memory(x, ds.x)  # a view, not a copy
        # sample order is channel, epoch, expert; QS maps to class 1
        assert y.tolist() == [1, 0, 0, 0]
        assert ds.keys.tolist() == [("n1", 0, "C1", "e1"),
                                    ("n1", 0, "C1", "e2"),
                                    ("n1", 1, "C1", "e1"),
                                    ("n1", 1, "C1", "e2")]

    def test_mismatched_label_track_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(LengthMismatch):
            make_subject("n1", {"e1": [Label.QS], "e2": [Label.QS] * 2}, rng)


class TestSplit:
    def dataset(self, n_epochs=50, seed=8):
        rng = np.random.default_rng(seed)
        labels = [Label.QS if i % 2 else Label.AS for i in range(n_epochs)]
        subject = make_subject("n1", {"e1": labels, "e2": labels}, rng)
        return build_dataset([subject])

    def test_groups_never_straddle_the_split(self):
        ds = self.dataset()
        train_idx, val_idx = split_train_val(ds, 0.1, seed=0)
        groups = ds.keys[["subject", "epoch"]]
        assert not set(groups[train_idx].tolist()) \
            & set(groups[val_idx].tolist())
        assert sorted(np.concatenate([train_idx, val_idx]).tolist()) \
            == list(range(len(ds)))

    def test_fraction_is_respected_per_stratum(self):
        ds = self.dataset(n_epochs=40)  # 20 QS groups, 20 AS groups
        train_idx, val_idx = split_train_val(ds, 0.1, seed=1)
        val_labels = ds.y[val_idx].tolist()
        assert val_labels.count(1) == 4  # 2 QS groups x 2 experts
        assert val_labels.count(0) == 4

    def test_small_strata_send_at_least_one_each_way(self):
        rng = np.random.default_rng(9)
        labels = [Label.QS, Label.QS, Label.AS, Label.AS]
        subject = make_subject("n1", {"e1": labels}, rng)
        ds = build_dataset([subject])
        train_idx, val_idx = split_train_val(ds, 0.1, seed=2)
        assert set(ds.y[train_idx].tolist()) == {0, 1}
        assert set(ds.y[val_idx].tolist()) == {0, 1}

    def test_singleton_stratum_stays_in_train(self):
        rng = np.random.default_rng(10)
        subject = make_subject(
            "n1", {"e1": [Label.QS, Label.AS, Label.AS, Label.AS]}, rng)
        ds = build_dataset([subject])
        train_idx, val_idx = split_train_val(ds, 0.25, seed=3)
        assert 1 in ds.y[train_idx]  # the lone QS group
        assert set(ds.y[val_idx].tolist()) == {0}

    def test_same_seed_same_split(self):
        ds = self.dataset()
        a = split_train_val(ds, 0.1, seed=4)
        b = split_train_val(ds, 0.1, seed=4)
        c = split_train_val(ds, 0.1, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])


def reference_split(ds, fraction, seed):
    """The split written as loops over (subject, epoch) groups."""
    groups = {}
    for i, key in enumerate(ds.keys.tolist()):
        groups.setdefault((key[0], key[1]), []).append(i)
    strata = {}
    for key in sorted(groups):
        stratum = tuple(sorted(str(training.CLASSES[ds.y[i]])
                               for i in groups[key]))
        strata.setdefault(stratum, []).append(key)
    rng = np.random.default_rng([seed, 101])
    val_keys = set()
    for stratum in sorted(strata):
        keys = strata[stratum]
        n = len(keys)
        if n < 2:
            continue
        want = max(1, min(n - 1, int(round(fraction * n))))
        val_keys.update(keys[j] for j in rng.permutation(n)[:want])
    train_idx, val_idx = [], []
    for key in sorted(groups):
        (val_idx if key in val_keys else train_idx).extend(groups[key])
    return train_idx, val_idx


class TestSplitReference:
    def test_matches_the_loop_version(self):
        # unsorted subjects, two channels, three experts with exclusions
        # and disagreements, and rejected minutes
        rng = np.random.default_rng(15)
        choices = [Label.QS, Label.AS, Label.EXCLUDED]
        subjects = []
        for sid in ("n2", "n10", "n1"):
            n = int(rng.integers(5, 30))
            labels = {e: [choices[i] for i in rng.choice(3, n,
                                                         p=[.4, .5, .1])]
                      for e in ("e2", "e1", "e3")}
            invalid = set(rng.choice(n, 3, replace=False).tolist())
            subjects.append(make_subject(sid, labels, rng,
                                         channels=("C2", "C1"),
                                         invalid=invalid))
        ds = build_dataset(subjects)
        for seed in range(5):
            for fraction in (0.1, 0.25, 0.5):
                train_idx, val_idx = split_train_val(ds, fraction, seed)
                expected = reference_split(ds, fraction, seed)
                assert train_idx.tolist() == expected[0]
                assert val_idx.tolist() == expected[1]


class TestTrain:
    def toy_dataset(self, n=50):
        rng = np.random.default_rng(11)
        labels = [Label.QS if i % 2 else Label.AS for i in range(n)]
        subject = make_subject("n1", {"e1": labels}, rng, tone_for_qs=True)
        return build_dataset([subject])

    def test_single_class_rejected(self):
        rng = np.random.default_rng(12)
        subject = make_subject("n1", {"e1": [Label.QS] * 4}, rng)
        with pytest.raises(SingleClassDataset):
            train(build_dataset([subject]), TrainConfig())

    def test_empty_dataset_rejected(self):
        with pytest.raises(SingleClassDataset):
            train(build_dataset([]), TrainConfig())

    def test_learns_separable_toy_data(self):
        ds = self.toy_dataset()
        cfg = TrainConfig(max_epochs=200, seed=1)
        model, history = train(ds, cfg)
        assert min(history.train_loss) < 0.05
        assert history.best_epoch >= 0
        # returned parameters are the best-validation snapshot
        assert history.val_loss[history.best_epoch] == min(history.val_loss)

    def test_training_is_deterministic(self):
        ds = self.toy_dataset(n=12)
        cfg = TrainConfig(max_epochs=3, batch_size=8, seed=7)
        model_a, hist_a = train(ds, cfg)
        model_b, hist_b = train(ds, cfg)
        assert hist_a.train_loss == hist_b.train_loss
        assert hist_a.val_loss == hist_b.val_loss
        for la, lb in zip(model_a.params, model_b.params):
            for name in la:
                assert np.array_equal(la[name], lb[name])

    def test_history_records_the_split(self):
        ds = self.toy_dataset(n=12)
        cfg = TrainConfig(max_epochs=1, batch_size=8, seed=5)
        _, history = train(ds, cfg)
        train_idx, val_idx = split_train_val(ds, cfg.inner_val_fraction,
                                             cfg.seed)
        assert np.array_equal(history.train_idx, train_idx)
        assert np.array_equal(history.val_idx, val_idx)

    def test_val_loss_bits(self):
        # 300 validation rows: float64 partial sums of 256 and 44 rows
        rng = np.random.default_rng(14)
        labels = [Label.QS if i % 2 else Label.AS for i in range(600)]
        ds = build_dataset([make_subject("n1", {"e1": labels}, rng)])
        cfg = TrainConfig(max_epochs=1, inner_val_fraction=0.5, seed=2)
        model, history = train(ds, cfg)
        x, y = dataset_arrays(ds)
        assert len(history.val_idx) == 300
        picked = np.array([nn.forward(model, x[[i]]).probs[0, y[i]]
                           for i in history.val_idx])
        total = 0.0
        for start in range(0, len(picked), 256):
            chunk = picked[start:start + 256]
            total += float(-np.log(np.clip(chunk, 1e-12, None)).sum())
        assert history.val_loss == [total / len(picked)]

    def test_history_csv_round_trip(self, tmp_path):
        ds = self.toy_dataset(n=12)
        cfg = TrainConfig(max_epochs=2, batch_size=8, seed=3)
        _, history = train(ds, cfg)
        path = tmp_path / "history.csv"
        write_history(history, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(history.train_loss)
        assert float(rows[0]["val_loss"]) == history.val_loss[0]
        assert float(rows[0]["lr"]) == 0.001


class TestInferChannel:
    def test_invalid_epochs_come_back_nan(self):
        rng = np.random.default_rng(13)
        x = np.stack([make_epoch(rng) for _ in range(3)])
        model = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES)
        probs = infer_channel(model, x, np.array([True, False, True]))
        assert probs.shape == (3,)
        assert np.isnan(probs[1])
        assert np.all((probs[[0, 2]] >= 0) & (probs[[0, 2]] <= 1))


class TestLoso:
    def subjects(self, n=3, epochs=8):
        rng = np.random.default_rng(14)
        out = []
        for k in range(n):
            labels = [Label.QS if (i + k) % 2 else Label.AS
                      for i in range(epochs)]
            out.append(make_subject(
                f"n{k}", {"e1": labels, "e2": labels}, rng,
                channels=("C1", "C2"), invalid={3} if k == 0 else ()))
        return out

    def cfg(self):
        return TrainConfig(max_epochs=2, batch_size=16, seed=42)

    def test_one_fold_per_subject(self):
        folds = loso(self.subjects(), self.cfg())
        assert [f.held_out_subject for f in folds] == ["n0", "n1", "n2"]

    def test_no_leakage_into_training(self):
        for fold in loso(self.subjects(), self.cfg()):
            for keys in (fold.train_keys, fold.val_keys):
                assert len(keys)
                assert not np.any(keys["subject"] == fold.held_out_subject)

    def test_predictions_cover_each_epoch_once(self):
        subjects = self.subjects()
        folds = loso(subjects, self.cfg())
        by_subject = {f.held_out_subject: f for f in folds}
        for subject in subjects:
            fold = by_subject[subject.subject_id]
            for channel, (_, valid) in subject.epochs.items():
                probs = fold.predictions[channel]
                assert probs.shape == (subject.n_epochs,)
                assert np.array_equal(np.isnan(probs), ~valid)

    def test_same_seed_reproduces_predictions(self):
        a = loso(self.subjects(), self.cfg())
        b = loso(self.subjects(), self.cfg())
        for fa, fb in zip(a, b):
            for channel in fa.predictions:
                assert np.array_equal(fa.predictions[channel],
                                      fb.predictions[channel],
                                      equal_nan=True)

    def test_fold_seeds_differ_by_subject(self):
        assert fold_seed(0, "n0") != fold_seed(0, "n1")
        assert fold_seed(0, "n0") == fold_seed(0, "n0")
        assert fold_seed(1, "n0") != fold_seed(0, "n0")

    def test_train_channel_filter(self):
        # training restricted to one channel, predictions still for all
        folds = loso(self.subjects(), self.cfg(), train_channels=["C2"])
        for fold in folds:
            assert set(fold.train_keys["channel"].tolist()) == {"C2"}
            assert set(fold.val_keys["channel"].tolist()) == {"C2"}
            assert sorted(fold.predictions) == ["C1", "C2"]

    def test_train_channel_must_exist(self):
        with pytest.raises(MissingChannel):
            loso(self.subjects(), self.cfg(), train_channels=["C9"])

    def test_too_few_subjects(self):
        with pytest.raises(TooFewSubjects):
            loso(self.subjects(n=1), self.cfg())

    def test_duplicate_subject_ids_rejected(self):
        subjects = self.subjects(n=2)
        subjects[1].subject_id = "n0"
        with pytest.raises(DataError, match="duplicate"):
            loso(subjects, self.cfg())

    @pytest.mark.skipif(threads.blas_threads() is None,
                        reason="numpy bundles no OpenBLAS")
    @pytest.mark.parametrize("cpus, expected", [(6, 3), (1, 1)])
    def test_fold_workers_share_the_cpus_as_blas_threads(
            self, monkeypatch, cpus, expected):
        monkeypatch.setattr(threads, "available_cpus", lambda: cpus)
        before = threads.blas_threads()
        with training._fold_pool(2, []) as pool:
            counts = [pool.submit(threads.blas_threads).result()
                      for _ in range(4)]
        assert counts == [expected] * 4
        assert threads.blas_threads() == before

    def test_fold_tasks_carry_only_the_subject_id(self, monkeypatch):
        # the cohort reaches each worker once, through the initializer
        tasks = []
        real_pool = training._fold_pool

        def recording_pool(*args):
            pool = real_pool(*args)
            submit = pool.submit

            def record(fn, *task):
                tasks.append(task)
                return submit(fn, *task)
            pool.submit = record
            return pool

        monkeypatch.setattr(training, "_fold_pool", recording_pool)
        folds = loso(self.subjects(), self.cfg(), jobs=2)
        assert [task[0] for task in tasks] == ["n0", "n1", "n2"]
        for task in tasks:
            assert b"SubjectData" not in pickle.dumps(task)
        serial = loso(self.subjects(), self.cfg(), jobs=1)
        for fold, want in zip(folds, serial):
            for channel in want.predictions:
                assert np.array_equal(fold.predictions[channel],
                                      want.predictions[channel],
                                      equal_nan=True)

    def test_one_job_keeps_the_blas_threads(self):
        before = threads.blas_threads()
        loso(self.subjects(n=2), self.cfg(), jobs=1)
        assert threads.blas_threads() == before

    def test_checkpoints_written_when_requested(self, tmp_path):
        folds = loso(self.subjects(n=2), self.cfg(), out_dir=tmp_path)
        for fold in folds:
            assert fold.checkpoint is not None and fold.checkpoint.exists()
            loaded, meta = nn.load_checkpoint(fold.checkpoint)
            assert meta["held_out_subject"] == fold.held_out_subject
            assert nn.count_params(loaded) == 5082
