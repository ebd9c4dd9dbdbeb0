"""Output checks. Each returns a list of problems; an empty list passes.

Decision accuracy compares the `decision` column of a trend CSV with the
ground-truth sidecar that synth writes beside each recording. It is a
correctness gate: the synthetic states are separable, so a working
pipeline scores near 1.0, while noise scores near 0.5 and a constant
answer at the share of one state (about 0.65 or 0.35). The floor leaves
room for one known effect of the short training budget: a fold model can
rank every minute right (AUC 1.0) yet put the 0.5 threshold inside one
state. With workload seed 407, fold s03 called 22 of its 39 AS minutes
QS, scored 0.627 and brought the crossval to 0.903. Had it called all 39
QS, it would have scored 20/59 and the crossval 188/227 = 0.83.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from sleeptrend import nn
from sleeptrend.labels import GAP, Label
from sleeptrend.recording import epoch_labels, read_annotations

ACCURACY_FLOOR = 0.8
SUMMARY_ROWS = ("combined", "smoothed")
PROB_COLUMNS = ("p_mean", "p_min", "p_max", "p_smoothed")
MANIFEST = "manifest.json"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every scientific output; the manifest carries a
    timestamp and is left out."""
    return {str(p.relative_to(out_dir)): sha256(p)
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and p.name != MANIFEST}


def _prob(text: str) -> float:
    """A probability cell: a float, or NaN when empty or 'nan'."""
    return math.nan if text in ("", "nan") else float(text)


def check_sst_csv(path: Path, n_minutes: int) -> list[str]:
    """One row per minute; probabilities in [0, 1], or NaN/empty where
    the smoothed trend is a gap."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != n_minutes:
        problems.append(f"{path.name}: {len(rows)} rows, expected "
                        f"{n_minutes}")
    for i, row in enumerate(rows):
        if int(row["epoch_index"]) != i:
            problems.append(f"{path.name}: row {i} has epoch_index "
                            f"{row['epoch_index']}")
            break
        probs = [_prob(row[c]) for c in PROB_COLUMNS]
        if any(not 0.0 <= p <= 1.0 for p in probs if not math.isnan(p)):
            problems.append(f"{path.name}: minute {i} probability outside "
                            f"[0, 1]")
            break
        decision = row["decision"]
        if decision not in (str(Label.QS), str(Label.AS), GAP) \
                or (decision == GAP) != math.isnan(probs[-1]):
            problems.append(f"{path.name}: minute {i} decision "
                            f"{decision!r} vs smoothed {probs[-1]}")
            break
    return problems


def check_manifest(out_dir: Path) -> list[str]:
    """The manifest lists every output, each with a matching SHA-256."""
    doc = json.loads((out_dir / MANIFEST).read_text())
    listed = {row["path"]: row["sha256"] for row in doc["outputs"]}
    present = set(output_digests(out_dir))
    problems = [f"{MANIFEST}: {p} not listed"
                for p in sorted(present - set(listed))]
    for path, digest in sorted(listed.items()):
        target = out_dir / path
        if not target.is_file():
            problems.append(f"{MANIFEST}: {path} missing")
        elif sha256(target) != digest:
            problems.append(f"{MANIFEST}: {path} digest mismatch")
    return problems


def decision_counts(sst_path: Path, truth_path: Path) -> tuple[int, int]:
    """(matching, scored) minutes of the trend's decisions against ground
    truth; gaps and minutes straddling a state change are not scored."""
    with open(sst_path, newline="") as fh:
        decisions = [row["decision"] for row in csv.DictReader(fh)]
    truth = epoch_labels(read_annotations(truth_path), len(decisions))
    pairs = [(d, str(t)) for d, t in zip(decisions, truth)
             if d != GAP and t in (Label.QS, Label.AS)]
    return sum(d == t for d, t in pairs), len(pairs)


def check_accuracy(matching: int, scored: int) -> list[str]:
    if scored == 0:
        return ["no scored minutes"]
    if matching / scored < ACCURACY_FLOOR:
        return [f"decision accuracy {matching / scored:.4f} below floor "
                f"{ACCURACY_FLOOR}"]
    return []


def check_crossval(out_dir: Path, data_dir: Path, subjects: list[str],
                   channels: list[str], n_minutes: int
                   ) -> tuple[list[str], int, int]:
    """metrics.csv covers every fold x channel plus the fused rows, every
    fold's trend and checkpoint is well formed, and the manifest holds."""
    with open(out_dir / "metrics.csv", newline="") as fh:
        rows = [(r["subject"], r["channel"]) for r in csv.DictReader(fh)]
    expected = sorted((s, c) for s in subjects
                      for c in [*channels, *SUMMARY_ROWS])
    problems = [] if sorted(rows) == expected else [
        f"metrics.csv rows {len(rows)} do not match the {len(expected)} "
        f"fold x channel rows"]
    matching = scored = 0
    for subject in subjects:
        sst_path = out_dir / f"fold_{subject}.sst.csv"
        problems += check_sst_csv(sst_path, n_minutes)
        m, s = decision_counts(sst_path, data_dir / f"{subject}.truth.csv")
        matching, scored = matching + m, scored + s
        nn.load_checkpoint(out_dir / f"fold_{subject}.json")
    problems += check_manifest(out_dir)
    problems += check_accuracy(matching, scored)
    return problems, matching, scored


def check_infer(out_dir: Path, truth_path: Path, n_minutes: int
                ) -> tuple[list[str], int, int]:
    """The trend, interval list and chart of one recording."""
    sst_path = out_dir / "sst.csv"
    problems = check_sst_csv(sst_path, n_minutes)
    with open(out_dir / "dqs.csv", newline="") as fh:
        header = next(csv.reader(fh))
    if header != ["start_s", "end_s"]:
        problems.append(f"dqs.csv header {header}")
    if not (out_dir / "sst.svg").read_text().startswith("<svg"):
        problems.append("sst.svg is not an SVG document")
    problems += check_manifest(out_dir)
    matching, scored = decision_counts(sst_path, truth_path)
    problems += check_accuracy(matching, scored)
    return problems, matching, scored
