"""From files on disk to training-ready subjects.

Conventions: a data directory holds one EDF per subject plus sidecar
annotation CSVs named <subject>.<scorer>.csv. The scorer name "truth" is
reserved for ground truth and never feeds training; every other sidecar
is treated as an independent scorer. A subject with no scorer files falls
back to training on ground truth when it exists.
"""

from __future__ import annotations

import threading
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
                        ) -> Iterator[tuple[int, tuple[np.ndarray,
                                                       np.ndarray],
                                            PreprocessReport]]:
    """Derive bipolar channels and run the conditioning chain on each;
    yields (pair index, (epochs, valid), report) per channel, in the
    order the channels finish. The report names the channel.

    Every pair is checked first. Then each pair is one task of a thread
    pool, one thread per task up to the CPUs available; the numerical
    work releases the GIL. The calling thread allocates each pair's
    float64 buffer, empty, as it submits the task, so the largest arrays
    stay out of the pool threads' heaps, and it keeps at most one task
    per thread in flight. The task derives its pair from the recording
    into that buffer and filters it in place. The recording is let go
    once the last pair is derived, and each buffer once its task ends:
    a caller that hands over its only reference frees their memory then.

    `raw_first`, when given, is one more task, submitted first: it is
    called with its own derivation of the first pair, raw, which it may
    overwrite. Its errors are raised here.

    When tasks fail, the error raised is that of the first failing task
    in submission order, as without a pool, not of the first to finish.
    """
    pairs = [tuple(p) for p in pairs]
    check_pairs(recording, pairs)
    # (pair index, pair) per task in submission order; None is raw_first
    tasks = list(enumerate(pairs))
    if raw_first is not None and pairs:
        tasks.insert(0, (None, pairs[0]))
    lengths = [len(recording.channel(a)) for _, (a, _) in tasks]
    underived = len(tasks)
    lock = threading.Lock()

    def run(k: int, out: np.ndarray):
        nonlocal recording, underived
        i, pair = tasks[k]
        ch = derive_bipolar(recording, [pair], [out]).channels[0]
        with lock:
            underived -= 1
            if not underived:
                recording = None
        if i is None:
            return raw_first(ch)
        return dsp.preprocess_channel(ch.samples, ch.fs, ch.label,
                                      preprocess, artifact)

    workers = min(len(tasks), _available_cpus())
    if workers <= 1:
        for k, (i, _) in enumerate(tasks):
            done = run(k, np.empty(lengths[k]))
            if i is not None:
                yield i, *done
        return
    with ThreadPoolExecutor(workers) as pool:
        def submit(k: int):
            return pool.submit(run, k, np.empty(lengths[k]))

        index = {submit(k): k for k in range(workers)}
        queue = iter(range(workers, len(tasks)))
        while index:
            future = next(as_completed(index))
            if future.exception() is not None:
                # wait for the tasks in flight and raise the earliest
                # submitted one's error: tasks are submitted in order and
                # none after a failure, so that is the first failing task
                errors = sorted((k, f.exception()) for f, k in index.items()
                                if f.exception() is not None)
                raise errors[0][1]
            i = tasks[index.pop(future)][0]
            done = future.result()
            k = next(queue, None)
            if k is not None:  # queued before the caller resumes
                index[submit(k)] = k
            if i is not None:
                yield i, *done


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
    return ({report.channel: arrays for _, arrays, report in done},
            {report.channel: report for _, _, report in done})


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
    if not pairs:
        raise DataError(
            f"subject {recording.subject_id}: no channel pairs given")
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
