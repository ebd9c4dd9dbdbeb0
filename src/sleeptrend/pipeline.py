"""From files on disk to training-ready subjects.

Conventions: a data directory holds one EDF per subject plus sidecar
annotation CSVs named <subject>.<scorer>.csv. The scorer name "truth" is
reserved for ground truth and never feeds training; every other sidecar
is treated as an independent scorer. A subject with no scorer files falls
back to training on ground truth when it exists.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import dsp
from .dsp import ArtifactConfig, PreprocessConfig, PreprocessReport
from .errors import DataError
from .recording import (AnnotationTrack, ChannelSignal, Recording,
                        check_pairs, derive_bipolar, epoch_labels,
                        read_annotations, read_edf)
from .threads import available_cpus as _available_cpus
from .training import SubjectData

BIPOLAR_PAIRS = (("F3", "P3"), ("F4", "P4"), ("F3", "F4"), ("P3", "P4"))
TRUTH_SCORER = "truth"


def condition_recording(recording: Recording,
                        pairs: Sequence[Sequence[str]] = BIPOLAR_PAIRS,
                        preprocess: PreprocessConfig = PreprocessConfig(),
                        artifact: ArtifactConfig = ArtifactConfig(),
                        raw_first: Callable[[ChannelSignal], None]
                        | None = None,
                        ) -> Iterator[tuple[int, str,
                                            tuple[np.ndarray, np.ndarray],
                                            PreprocessReport]]:
    """Derive bipolar channels and run the conditioning chain on each;
    yields (pair index, label, (epochs, valid), report) per channel, in
    the order the channels finish.

    The channels are conditioned concurrently, one thread each up to the
    CPUs available; the numerical work releases the GIL. Every pair is
    checked first. Then each is derived on the calling thread and handed
    to the pool as soon as it is made, with at most one more pair in
    flight than there are workers, and each chain filters its own bipolar
    array in place: the signal-sized arrays are all allocated here, on
    the calling thread. The recording is let go once the last pair is
    derived, and each bipolar array once its channel is conditioned: a
    caller that hands over its only reference frees their memory then.

    `raw_first`, when given, is called on the calling thread with the
    first pair's raw bipolar channel while the pool conditions the
    pairs that fill it; only then is the first channel filtered in place.
    """
    pairs = [tuple(p) for p in pairs]
    check_pairs(recording, pairs)
    labels = {}
    workers = min(len(pairs), _available_cpus())
    # raw_first keeps the calling thread busy, so the first pair follows
    # the pairs that keep the other CPUs busy
    order = list(range(1, len(pairs)))
    order.insert(workers - 1, 0)

    def derive(i: int) -> ChannelSignal:
        nonlocal recording
        ch = derive_bipolar(recording, [pairs[i]]).channels[0]
        labels[i] = ch.label
        if i == order[-1]:
            recording = None
        if i == 0 and raw_first is not None:
            raw_first(ch)
        return ch

    def condition(ch: ChannelSignal):
        return dsp.preprocess_channel(ch.samples, ch.fs, ch.label,
                                      preprocess, artifact, overwrite=True)

    if workers == 1:
        for i in order:
            arrays, report = condition(derive(i))
            yield i, labels[i], arrays, report
        return
    with ThreadPoolExecutor(workers) as pool:
        index = {pool.submit(condition, derive(i)): i
                 for i in order[:workers + 1]}
        queue = order[workers + 1:]
        while index:
            future = next(as_completed(index))
            done = index.pop(future)
            if queue:  # the next pair is queued before the caller resumes
                i = queue.pop(0)
                index[pool.submit(condition, derive(i))] = i
            yield done, labels[done], *future.result()


def preprocess_recording(recording: Recording,
                         pairs: Sequence[Sequence[str]] = BIPOLAR_PAIRS,
                         preprocess: PreprocessConfig = PreprocessConfig(),
                         artifact: ArtifactConfig = ArtifactConfig(),
                         ) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]],
                                    dict[str, PreprocessReport]]:
    """Every channel of `condition_recording`, in pair order, mapped to
    its epoch array and validity mask, and to its report."""
    done = sorted(condition_recording(recording, pairs, preprocess,
                                      artifact), key=lambda item: item[0])
    return ({label: arrays for _, label, arrays, _ in done},
            {label: report for _, label, _, report in done})


def assemble_subject(recording: Recording,
                     tracks: Mapping[str, AnnotationTrack],
                     pairs: Sequence[Sequence[str]] = BIPOLAR_PAIRS,
                     preprocess: PreprocessConfig = PreprocessConfig(),
                     artifact: ArtifactConfig = ArtifactConfig(),
                     ) -> SubjectData:
    """Preprocess a recording and align per-scorer epoch labels to it."""
    if not tracks:
        raise DataError(
            f"subject {recording.subject_id}: no annotation tracks")
    epochs, _ = preprocess_recording(recording, pairs, preprocess, artifact)
    counts = {len(x) for x, _ in epochs.values()}
    if len(counts) != 1:
        raise DataError(f"subject {recording.subject_id}: channels "
                        f"disagree on epoch count {sorted(counts)}")
    n_epochs = counts.pop()
    labels = {scorer: epoch_labels(track, n_epochs)
              for scorer, track in tracks.items()}
    return SubjectData(subject_id=recording.subject_id, epochs=epochs,
                       labels=labels, n_epochs=n_epochs)


def discover_subjects(data_dir: str | Path) -> list[str]:
    """Subject ids, one per EDF file, sorted."""
    return sorted(p.stem for p in Path(data_dir).glob("*.edf"))


def scorer_tracks(data_dir: str | Path,
                  subject_id: str) -> dict[str, AnnotationTrack]:
    """All sidecar annotation tracks for one subject, keyed by scorer
    name; includes the reserved truth track when present."""
    tracks = {}
    for path in sorted(Path(data_dir).glob(f"{subject_id}.*.csv")):
        scorer = path.name[len(subject_id) + 1:-len(".csv")]
        if scorer:
            tracks[scorer] = read_annotations(path)
    return tracks


def load_subject(data_dir: str | Path, subject_id: str,
                 pairs: Sequence[Sequence[str]] = BIPOLAR_PAIRS,
                 preprocess: PreprocessConfig = PreprocessConfig(),
                 artifact: ArtifactConfig = ArtifactConfig(),
                 ) -> tuple[SubjectData, AnnotationTrack | None]:
    """One subject from disk: preprocessed epochs with scorer labels,
    plus the ground-truth track when a truth sidecar exists."""
    data_dir = Path(data_dir)
    recording = read_edf(data_dir / f"{subject_id}.edf",
                         subject_id=subject_id)
    tracks = scorer_tracks(data_dir, subject_id)
    truth = tracks.pop(TRUTH_SCORER, None)
    if not tracks:
        if truth is None:
            raise DataError(f"subject {subject_id}: no annotation files "
                            f"in {data_dir}")
        tracks = {TRUTH_SCORER: truth}
    subject = assemble_subject(recording, tracks, pairs, preprocess,
                               artifact)
    return subject, truth


def load_cohort(data_dir: str | Path,
                pairs: Sequence[Sequence[str]] = BIPOLAR_PAIRS,
                preprocess: PreprocessConfig = PreprocessConfig(),
                artifact: ArtifactConfig = ArtifactConfig(),
                ) -> tuple[list[SubjectData],
                           dict[str, AnnotationTrack | None]]:
    """Every subject in a data directory, one at a time to bound memory."""
    ids = discover_subjects(data_dir)
    if not ids:
        raise DataError(f"no EDF files in {data_dir}")
    subjects = []
    truths: dict[str, AnnotationTrack | None] = {}
    for subject_id in ids:
        subject, truth = load_subject(data_dir, subject_id, pairs,
                                      preprocess, artifact)
        subjects.append(subject)
        truths[subject_id] = truth
    return subjects, truths
