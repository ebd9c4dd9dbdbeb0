"""Adam optimization, early stopping with learning-rate plateaus, expert
label handling, and leave-one-subject-out cross-validation.

Both experts' annotations become training samples: an epoch they agree on
appears twice with the same label, a disagreement appears twice with
opposing labels. The inner validation split is grouped by subject and
epoch index so the duplicate copies of one minute (all channels, both
experts) never straddle the train/validation boundary.
"""

from __future__ import annotations

import csv
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn, threads
from .dsp import EPOCH_SAMPLES
from .errors import (ConfigError, DataError, InvalidEpoch, LengthMismatch,
                     MissingChannel, SingleClassDataset, TooFewSubjects)
from .labels import Label

# class order of the softmax head: probs[1] is the quiet-sleep probability
CLASSES = (Label.AS, Label.QS)
CLASS_INDEX = {label: i for i, label in enumerate(CLASSES)}
# early-stopping patience of a `crossval` fold unless the config sets one
LOSO_PATIENCE = 20


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8
    batch_size: int = 64
    max_epochs: int = 500
    early_stop_patience: int = 35
    lr_factor: float = 0.1
    lr_plateau: int = 20
    inner_val_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self):
        # not 2**63 as for synth: fold_seed draws from all of [0, 2**64)
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed {self.seed} outside [0, 2**64)")
        if self.lr <= 0:
            raise ConfigError(f"lr {self.lr} must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("betas must sit in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if not 0 < self.inner_val_fraction < 1:
            raise ConfigError("inner_val_fraction must sit in (0, 1)")
        if self.max_epochs < 1 or self.early_stop_patience < 1:
            raise ConfigError("epoch limits must be at least 1")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, param: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param))


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState,
              cfg: TrainConfig) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns the new parameter and
    state without mutating the inputs."""
    if param.shape != grad.shape:
        raise LengthMismatch(f"param {param.shape} vs grad {grad.shape}")
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grad * grad
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    updated = param - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return updated, AdamState(m=m, v=v, t=t)


class PlateauSchedule:
    """Tracks inner-validation loss: strict improvements reset both
    counters, 20 stalled epochs in a row cut the learning rate by 10x
    (and rearm), and `should_stop` trips after `patience` stalled epochs.
    Epochs are numbered from zero."""

    def __init__(self, lr: float, patience: int, plateau: int = 20,
                 factor: float = 0.1):
        self.lr = lr
        self.patience = patience
        self.plateau = plateau
        self.factor = factor
        self.best = math.inf
        self.best_epoch = -1
        self.epoch = -1
        self.since_improve = 0
        self.since_drop = 0
        self.drop_epochs: list[int] = []

    def update(self, val_loss: float) -> bool:
        self.epoch += 1
        if val_loss < self.best:
            self.best = val_loss
            self.best_epoch = self.epoch
            self.since_improve = 0
            self.since_drop = 0
            return True
        self.since_improve += 1
        self.since_drop += 1
        if self.since_drop >= self.plateau:
            self.lr *= self.factor
            self.since_drop = 0
            self.drop_epochs.append(self.epoch)
        return False

    @property
    def should_stop(self) -> bool:
        return self.since_improve >= self.patience


@dataclass(frozen=True)
class Dataset:
    """Training rows as parallel arrays: `x` holds the (n, EPOCH_SAMPLES)
    float32 epochs, `y` their class indices into CLASSES, and `keys` a
    record array naming each row's (subject, epoch, channel, expert)."""

    x: np.ndarray
    y: np.ndarray
    keys: np.ndarray

    def __len__(self) -> int:
        return len(self.y)


@dataclass
class SubjectData:
    """Preprocessed material for one subject: per channel, an
    (n_epochs, EPOCH_SAMPLES) float32 epoch array with its bool validity
    mask, plus per-expert epoch labels, all indexed by minute."""

    subject_id: str
    epochs: dict[str, tuple[np.ndarray, np.ndarray]]
    labels: dict[str, list[Label]]
    n_epochs: int

    def __post_init__(self):
        for channel, (x, valid) in self.epochs.items():
            if x.shape != (self.n_epochs, EPOCH_SAMPLES) \
                    or valid.shape != (self.n_epochs,):
                raise InvalidEpoch(
                    f"{self.subject_id} {channel}: epochs {x.shape} with "
                    f"mask {valid.shape}, expected ({self.n_epochs}, "
                    f"{EPOCH_SAMPLES})")
        for expert, track in self.labels.items():
            if len(track) != self.n_epochs:
                raise LengthMismatch(
                    f"{self.subject_id} expert {expert}: {len(track)} "
                    f"labels, expected {self.n_epochs}")


def _row_keys(subject_id: str, epoch: np.ndarray, channel: str,
              expert: np.ndarray) -> np.ndarray:
    n = len(epoch)
    return np.rec.fromarrays(
        [np.full(n, subject_id), epoch, np.full(n, channel), expert],
        names=("subject", "epoch", "channel", "expert"))


def build_dataset(subjects: Sequence[SubjectData],
                  channels: Sequence[str] | None = None) -> Dataset:
    """One row per (valid epoch, expert) pair with a usable label, so
    expert disagreements contribute one row of each class. Rows run in
    subject, channel, epoch, expert order.

    With an explicit channel list only those channels contribute rows;
    every listed channel must exist in every subject.
    """
    xs = [np.empty((0, EPOCH_SAMPLES), dtype=np.float32)]
    ys = [np.empty(0, dtype=np.int64)]
    keys = [_row_keys("", np.empty(0, dtype=np.int64), "",
                      np.empty(0, dtype=str))]
    for subject in subjects:
        if channels is not None:
            missing = sorted(set(channels) - set(subject.epochs))
            if missing:
                raise MissingChannel(
                    f"subject {subject.subject_id}: no channel(s) {missing}")
        experts = np.array(sorted(subject.labels), dtype=str)
        # class index per (epoch, expert), -1 where the label is excluded
        codes = np.array([[CLASS_INDEX.get(label, -1)
                           for label in subject.labels[expert]]
                          for expert in experts], dtype=np.int64)
        codes = codes.reshape(len(experts), subject.n_epochs).T
        for channel in sorted(channels if channels is not None
                              else subject.epochs):
            x, valid = subject.epochs[channel]
            epoch, expert = np.nonzero(valid[:, None] & (codes >= 0))
            xs.append(x[epoch])
            ys.append(codes[epoch, expert])
            keys.append(_row_keys(subject.subject_id, epoch, channel,
                                  experts[expert]))
    return Dataset(x=np.concatenate(xs), y=np.concatenate(ys),
                   keys=np.concatenate(keys))


def dataset_arrays(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The network input (n, 1, EPOCH_SAMPLES), as a view, and targets."""
    return dataset.x[:, None, :], dataset.y


def split_train_val(dataset: Dataset, fraction: float,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Grouped, stratified validation split.

    Groups are (subject, epoch index); a group's stratum is the sorted
    tuple of its labels, so agreement and disagreement minutes are
    sampled separately. Every stratum with at least two groups sends at
    least one group each way. Both index arrays list rows group by group
    in (subject, epoch) order.
    """
    groups, group = np.unique(dataset.keys[["subject", "epoch"]],
                              return_inverse=True)
    is_qs = dataset.y == CLASS_INDEX[Label.QS]
    n_qs = np.bincount(group[is_qs], minlength=len(groups))
    n_as = np.bincount(group[~is_qs], minlength=len(groups))

    def stratum(counts: tuple[int, int]) -> tuple[str, ...]:
        return tuple(sorted([str(Label.AS)] * counts[0]
                            + [str(Label.QS)] * counts[1]))

    rng = np.random.default_rng([seed, 101])
    in_val = np.zeros(len(groups), dtype=bool)
    for counts in sorted(set(zip(n_as.tolist(), n_qs.tolist())),
                         key=stratum):
        members = np.flatnonzero((n_as == counts[0]) & (n_qs == counts[1]))
        n = len(members)
        if n < 2:
            continue
        want = int(round(fraction * n))
        want = max(1, min(n - 1, want))
        order = rng.permutation(n)
        in_val[members[order[:want]]] = True

    rows = np.argsort(group, kind="stable")
    to_val = in_val[group[rows]]
    return rows[~to_val], rows[to_val]


@dataclass
class History:
    """One training run: its inner split, as dataset rows, and the record
    of each epoch."""

    train_idx: np.ndarray
    val_idx: np.ndarray
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stop_epoch: int = -1
    lr_drop_epochs: list[int] = field(default_factory=list)


def write_history(history: History, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "lr"])
        for i, (tr, va, lr) in enumerate(zip(history.train_loss,
                                             history.val_loss, history.lr)):
            writer.writerow([i, repr(tr), repr(va), repr(lr)])


# Epochs per forward pass of _score. A row's probabilities do not depend
# on the batch (nn.forward), so this only sizes the working arrays: at 16
# rows the largest feature map is 2 MB.
INFER_BATCH = 16
# Rows per float64 partial sum of the validation loss, the sums added in
# order: this fixes the bits of History.val_loss, and so of early stopping.
VAL_LOSS_CHUNK = 256


def _score(model: nn.Model, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Class probabilities of the network inputs `x[rows]`, INFER_BATCH
    rows per forward pass."""
    probs = np.empty((len(rows), len(CLASSES)))
    for start in range(0, len(rows), INFER_BATCH):
        batch = rows[start:start + INFER_BATCH]
        probs[start:start + len(batch)] = nn.forward(
            model, x[batch], mode="infer").probs
    return probs


def train(dataset: Dataset, cfg: TrainConfig) -> tuple[nn.Model, History]:
    """Fit the reference network, returning the parameters from the epoch
    with the best inner-validation loss."""
    if len(dataset) == 0:
        raise SingleClassDataset("empty dataset")
    counts = np.bincount(dataset.y, minlength=len(CLASSES))
    missing = [c for c, n in zip(CLASSES, counts) if n == 0]
    if missing:
        raise SingleClassDataset(
            f"no {'/'.join(str(c) for c in missing)} samples in dataset")

    train_idx, val_idx = split_train_val(dataset, cfg.inner_val_fraction,
                                         cfg.seed)
    if len(val_idx) == 0:
        raise DataError("inner validation split came out empty; dataset "
                        "too small to train")
    x, y = dataset_arrays(dataset)

    model = nn.build_model(nn.reference_architecture(), EPOCH_SAMPLES,
                           seed=cfg.seed)
    states = {(i, name): AdamState.fresh(layer[name])
              for i, (spec, layer) in enumerate(zip(model.specs,
                                                    model.params))
              for name in nn.TRAINABLE.get(spec.kind, ())}

    schedule = PlateauSchedule(cfg.lr, cfg.early_stop_patience,
                               cfg.lr_plateau, cfg.lr_factor)
    shuffle_rng = np.random.default_rng([cfg.seed, 11])
    dropout_rng = np.random.default_rng([cfg.seed, 12])
    history = History(train_idx=train_idx, val_idx=val_idx)
    best_params = None

    for epoch in range(cfg.max_epochs):
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        epoch_cfg = replace(cfg, lr=schedule.lr)
        loss_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            trace = nn.forward(model, x[rows], mode="train",
                               rng=dropout_rng)
            loss_sum += nn.cross_entropy(trace.probs, y[rows]) * len(rows)
            grads = nn.backward(model, trace, y[rows])
            for (i, name), state in states.items():
                updated, states[(i, name)] = adam_step(
                    model.params[i][name], grads[i][name], state, epoch_cfg)
                model.params[i][name][...] = updated

        picked = _score(model, x, val_idx)[np.arange(len(val_idx)),
                                           y[val_idx]]
        val_loss = 0.0
        for start in range(0, len(picked), VAL_LOSS_CHUNK):
            chunk = picked[start:start + VAL_LOSS_CHUNK]
            val_loss += float(-np.log(np.clip(chunk, 1e-12, None)).sum())
        val_loss /= len(picked)
        history.train_loss.append(loss_sum / len(order))
        history.val_loss.append(val_loss)
        history.lr.append(epoch_cfg.lr)
        if schedule.update(val_loss):
            best_params = [{k: v.copy() for k, v in layer.items()}
                           for layer in model.params]
        if schedule.should_stop:
            break

    history.best_epoch = schedule.best_epoch
    history.stop_epoch = schedule.epoch
    history.lr_drop_epochs = list(schedule.drop_epochs)
    if best_params is not None:
        model.params = best_params
    return model, history


def infer_channel(model: nn.Model, x: np.ndarray,
                  valid: np.ndarray) -> np.ndarray:
    """Per-epoch quiet-sleep probability for an (n_epochs, EPOCH_SAMPLES)
    array; epochs outside the validity mask come back NaN."""
    out = np.full(len(x), np.nan)
    rows = np.flatnonzero(valid)
    out[rows] = _score(model, x[:, None, :], rows)[:, CLASS_INDEX[Label.QS]]
    return out


@dataclass
class FoldResult:
    held_out_subject: str
    predictions: dict[str, np.ndarray]
    history: History
    checkpoint: Path | None
    train_keys: np.ndarray  # Dataset.keys of the rows trained on
    val_keys: np.ndarray


def fold_seed(seed: int, subject_id: str) -> int:
    """Stable per-fold seed, independent of subject ordering."""
    digest = hashlib.sha256(f"{seed}:{subject_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _run_fold(subject_id: str, subjects: list[SubjectData],
              cfg: TrainConfig, out_dir: str | None,
              train_channels: Sequence[str] | None = None) -> FoldResult:
    held_out = next(s for s in subjects if s.subject_id == subject_id)
    rest = [s for s in subjects if s.subject_id != subject_id]
    dataset = build_dataset(rest, channels=train_channels)
    fold_cfg = replace(cfg, seed=fold_seed(cfg.seed, subject_id))
    model, history = train(dataset, fold_cfg)
    predictions = {channel: infer_channel(model, *held_out.epochs[channel])
                   for channel in sorted(held_out.epochs)}
    checkpoint = None
    if out_dir is not None:
        checkpoint = Path(out_dir) / f"fold_{subject_id}.json"
        nn.save_checkpoint(model, checkpoint, metadata={
            "held_out_subject": subject_id,
            "best_epoch": history.best_epoch,
            "stop_epoch": history.stop_epoch,
        })
    return FoldResult(
        held_out_subject=subject_id,
        predictions=predictions,
        history=history,
        checkpoint=checkpoint,
        train_keys=dataset.keys[history.train_idx],
        val_keys=dataset.keys[history.val_idx],
    )


# A fold worker's cohort, set once per worker by _fold_pool's initializer
# so that each fold task carries only its subject id.
_WORKER_SUBJECTS: list[SubjectData] = []


def _init_fold_worker(blas_threads: int,
                      subjects: list[SubjectData]) -> None:
    global _WORKER_SUBJECTS
    threads.set_blas_threads(blas_threads)
    _WORKER_SUBJECTS = subjects


def _run_worker_fold(subject_id: str, cfg: TrainConfig,
                     out_dir: str | None,
                     train_channels: Sequence[str] | None) -> FoldResult:
    return _run_fold(subject_id, _WORKER_SUBJECTS, cfg, out_dir,
                     train_channels)


def _fold_pool(jobs: int,
               subjects: list[SubjectData]) -> ProcessPoolExecutor:
    """`jobs` fold workers, each holding the cohort and its share of the
    CPUs as BLAS threads, so that the workers' BLAS threads do not
    outnumber the CPUs and spin against each other."""
    return ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_fold_worker,
        initargs=(max(1, threads.available_cpus() // jobs), subjects))


def loso(subjects: Sequence[SubjectData], cfg: TrainConfig,
         out_dir: str | Path | None = None, jobs: int = 1,
         train_channels: Sequence[str] | None = None) -> list[FoldResult]:
    """Leave-one-subject-out cross-validation: one fold per subject,
    trained on the rest with cfg's inner-validation patience, predictions
    recorded per channel for every held-out epoch.

    train_channels restricts which channels feed the fold's training set;
    predictions still cover every channel of the held-out subject.
    """
    subjects = sorted(subjects, key=lambda s: s.subject_id)
    if len(subjects) < 2:
        raise TooFewSubjects(f"{len(subjects)} subject(s); cross-validation "
                             f"needs at least 2")
    if len({s.subject_id for s in subjects}) != len(subjects):
        raise DataError("duplicate subject ids")
    if out_dir is not None:
        out_dir = str(out_dir)
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    ids = [s.subject_id for s in subjects]
    if jobs > 1:
        with _fold_pool(jobs, subjects) as pool:
            futures = [pool.submit(_run_worker_fold, sid, cfg, out_dir,
                                   train_channels) for sid in ids]
            return [f.result() for f in futures]
    return [_run_fold(sid, subjects, cfg, out_dir, train_channels)
            for sid in ids]
