"""One measuring process of the benchmark: set-up, operations, checks.

run.py starts this script in a fresh process for every repeat and reads
the JSON record it writes to --record. Set-up covers the imports, the
synthetic inputs and, for `infer-3h`, fitting the checkpoint; it ends
when the first input is ready. A helper process runs the `synth` and
`train` commands that make the inputs, so their memory and CPU time stay
out of the figures of this process, which runs only the command under
test. Commands run in-process through `sleeptrend.cli.main`.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402

# Worker processes per run at least, whatever --seconds says; setup_s is
# the median of their set-ups. A crossval worker runs one command, and two
# keep a crossval run near a minute; the infer-3h recordings are shared
# out between them.
WORKERS = 2

WORKLOADS = {
    "crossval": {"command": "crossval", "jobs": 1},
    "crossval-j2": {"command": "crossval", "jobs": 2},
    "infer-3h": {"command": "infer"},
}

# "full" is the benchmark; "tiny" only serves the smoke self-test. The
# tiny cohort shortens the sleep cycle so that a 30 min recording still
# holds both states, and trains at a small batch and a high rate so that
# a few steps still learn something.
_TINY_SYNTH = {"n_subjects": 2, "duration_min": 30.0,
               "cycle_min": [12.0, 16.0]}
SIZES = {
    "full": {
        "cohort": {"n_subjects": 4, "duration_min": 60.0},
        # max_epochs below the LOSO patience of 20: every fold trains 3
        "train": {"max_epochs": 3},
        # 6 subjects at batch 16. With 3 subjects, some seeds fit a
        # checkpoint that put a few recordings wholly in one state
        # (accuracy near 0.35); at batch 64 more seeds did so.
        "checkpoint_cohort": {"n_subjects": 6, "duration_min": 30.0},
        "checkpoint_train": {"max_epochs": 3, "batch_size": 16},
        "recording": {"n_subjects": 1, "duration_min": 180.0},
        # recordings per infer-3h worker at least: with 21 or more in a
        # run, the tail percentile (10 samples above it) lies above the
        # median. More would push a run past a minute.
        "min_recordings": 11,
    },
    "tiny": {
        "cohort": _TINY_SYNTH,
        "train": {"max_epochs": 4, "batch_size": 16, "lr": 0.005},
        "checkpoint_cohort": _TINY_SYNTH,
        "checkpoint_train": {"max_epochs": 4, "batch_size": 16, "lr": 0.005},
        "recording": {**_TINY_SYNTH, "n_subjects": 1},
        "min_recordings": 2,
    },
}


def derive_seed(seed: int, *parts) -> int:
    """A synth seed for one input, fixed by the workload seed."""
    digest = hashlib.sha256(":".join(map(str, (seed, *parts))).encode())
    return int.from_bytes(digest.digest()[:8], "big") >> 1


def _serve(conn) -> None:
    """Helper process: run each requested command, traced on request,
    and send back (exit code, error text, spans)."""
    from sleeptrend import cli
    while (request := conn.recv()) is not None:
        argv, traced = request
        tracer = Tracer()
        if traced:
            tracer.install()
        try:
            rc, error = cli.main(argv), ""
        except Exception:
            rc, error = None, traceback.format_exc()
        finally:
            tracer.uninstall()
        conn.send((rc, error, tracer.spans))


class Generator:
    """Makes inputs with `sleeptrend` commands in a helper process, one
    command at a time, while this process waits."""

    def __init__(self):
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_serve, args=(child,), daemon=True)
        self._proc.start()
        child.close()

    def run(self, argv: list[str], traced: bool) -> list:
        self._conn.send(([str(a) for a in argv], traced))
        rc, error, spans = self._conn.recv()
        if rc != 0:
            raise RuntimeError(f"input command {argv[0]} exited {rc}\n"
                               f"{error}")
        return spans

    def close(self) -> None:
        if self._proc.is_alive():
            self._conn.send(None)
        self._proc.join(timeout=30)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()


def _usage() -> tuple[float, float]:
    """CPU seconds so far of this process and its reaped children, and
    the larger of their peak resident sizes in MB."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return path


class Worker:
    def __init__(self, args):
        from sleeptrend import cli
        self.cli = cli
        self.args = args
        self.size = SIZES[args.size]
        self.work = Path(args.workdir)
        self.work.mkdir(parents=True, exist_ok=True)
        self.tracer = Tracer() if args.traced_ops != "none" else None
        self.gen = Generator()

    def make_input(self, argv: list) -> None:
        spans = self.gen.run(argv, traced=self.tracer is not None)
        if self.tracer is not None:
            base = len(self.tracer.spans)
            for span in spans:
                span.phase = self.tracer.phase
                if span.parent is not None:
                    span.parent += base
            self.tracer.spans.extend(spans)

    def synth(self, out: Path, section: dict, *seed_parts) -> Path:
        cfg = _write_json(out.with_suffix(".synth.json"), {
            "seed": derive_seed(self.args.seed, *seed_parts),
            "synth": section})
        self.make_input(["synth", "--config", cfg, "--out", out])
        return out

    def command(self, argv: list, traced: bool, phase: str = "op") -> dict:
        """Run one command; time, CPU and peak memory of just that call."""
        if self.tracer is not None:
            self.tracer.phase = phase
            (self.tracer.install if traced else self.tracer.uninstall)()
        cpu0, _ = _usage()
        t0 = time.perf_counter()
        problems = []
        try:
            rc = self.cli.main([str(a) for a in argv])
        except Exception:
            rc = None
            problems.append(traceback.format_exc())
        wall = time.perf_counter() - t0
        cpu1, peak = _usage()
        if self.tracer is not None:
            self.tracer.phase = "check"
            self.tracer.install()
        if rc not in (0, None):
            problems.append(f"{argv[0]} exited {rc}")
        return {"wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak,
                "traced": traced, "problems": problems,
                "matching": 0, "scored": 0}

    def check(self, op: dict, check, *check_args) -> None:
        """Run an output check; a check that raises is a failed check."""
        if op["problems"]:
            return
        try:
            problems, op["matching"], op["scored"] = check(*check_args)
        except Exception:
            problems = [traceback.format_exc()]
        op["problems"] += problems

    def is_traced(self, index: int) -> bool:
        mode = self.args.traced_ops
        return mode == "all" or (mode == "odd" and index % 2 == 1)

    def crossval(self, jobs: int) -> tuple[float, list[dict]]:
        import checks
        from sleeptrend.pipeline import BIPOLAR_PAIRS
        cohort = self.size["cohort"]
        data = self.synth(self.work / "data", cohort, "cohort")
        setup_s = time.perf_counter() - T0
        cfg = _write_json(self.work / "crossval.json", {
            "seed": 0, "data_dir": str(data), "jobs": jobs,
            "train": self.size["train"]})
        out = self.work / "out"
        op = self.command(["crossval", "--config", cfg, "--out", out],
                          self.is_traced(0))
        subjects = [f"s{i + 1:02d}" for i in range(cohort["n_subjects"])]
        channels = [f"{a}-{b}" for a, b in BIPOLAR_PAIRS]
        self.check(op, checks.check_crossval, out, data, subjects, channels,
                   int(cohort["duration_min"]))
        op["outputs"] = checks.output_digests(out)
        return setup_s, [op]

    def infer(self) -> tuple[float, list[dict]]:
        import checks
        size = self.size
        ckpt_data = self.synth(self.work / "checkpoint_data",
                               size["checkpoint_cohort"], "checkpoint")
        train_cfg = _write_json(self.work / "train.json", {
            "seed": 0, "data_dir": str(ckpt_data),
            "train": size["checkpoint_train"]})
        self.make_input(["train", "--config", train_cfg,
                         "--out", self.work / "checkpoint"])
        checkpoint = self.work / "checkpoint" / "model.json"

        def recording(i: int) -> Path:
            # distinct over the run: no two workers share a recording
            return self.synth(self.work / f"rec{i}", size["recording"],
                              "recording", self.args.index, i) / "s01.edf"

        def infer(rec: Path, out: Path, traced: bool,
                  phase: str = "op") -> dict:
            op = self.command(["infer", "--checkpoint", checkpoint,
                               "--recording", rec, "--out", out], traced,
                              phase)
            self.check(op, checks.check_infer, out,
                       rec.parent / "s01.truth.csv", n_minutes)
            return op

        n_minutes = int(size["recording"]["duration_min"])
        first = recording(0)
        setup_s = time.perf_counter() - T0

        ops = []
        start = time.perf_counter()
        rec = first
        while True:
            i = len(ops)
            ops.append(infer(rec, self.work / f"out{i}", self.is_traced(i)))
            if i > 0:
                shutil.rmtree(self.work / f"out{i}", ignore_errors=True)
                shutil.rmtree(rec.parent)
            if len(ops) >= size["min_recordings"] and \
                    time.perf_counter() - start >= self.args.seconds:
                break
            if self.tracer is not None:
                self.tracer.phase = "input"
            rec = recording(len(ops))

        # the first recording once more: its outputs must not change
        repeat = infer(first, self.work / "repeat", self.tracer is not None,
                       "check")
        if ops[0]["problems"] or repeat["problems"]:
            ops[0]["problems"] += repeat["problems"]
        elif checks.output_digests(self.work / "repeat") \
                != checks.output_digests(self.work / "out0"):
            ops[0]["problems"].append("repeat infer outputs differ")
        else:
            self.check_eval(ops[0], first.parent / "s01.truth.csv")
        return setup_s, ops

    def check_eval(self, op: dict, truth: Path) -> None:
        """The `eval` command must score the first trend as the benchmark
        does."""
        out = self.work / "eval"
        try:
            self.cli.main(["eval", "--sst", str(self.work / "out0" /
                                                 "sst.csv"),
                           "--annotations", str(truth), "--out", str(out)])
            accuracy = json.loads((out / "eval.json").read_text())["accuracy"]
        except Exception:
            op["problems"].append(traceback.format_exc())
            return
        if accuracy is None or abs(accuracy
                                   - op["matching"] / op["scored"]) > 1e-12:
            op["problems"].append(f"eval accuracy {accuracy} differs from "
                                  f"{op['matching']}/{op['scored']}")

    def run(self) -> dict:
        import checks
        spec = WORKLOADS[self.args.workload]
        if spec["command"] == "crossval":
            setup_s, ops = self.crossval(spec["jobs"])
        else:
            setup_s, ops = self.infer()
        record = {"setup_s": setup_s, "ops": ops}
        if spec["command"] == "infer":
            # every worker fits the same checkpoint; it must be the same
            record["checkpoint_sha256"] = checks.sha256(
                self.work / "checkpoint" / "model.json")
        traced_ops = sum(op["traced"] for op in ops)
        if self.tracer is not None and traced_ops:
            from layers import layer_metrics
            from sleeptrend import dsp, nn
            self.tracer.uninstall()
            record["per_layer"], record["layer_details"] = layer_metrics(
                self.tracer.spans, traced_ops, nn.reference_architecture(),
                dsp.EPOCH_SAMPLES)
        return record

    def close(self) -> None:
        self.gen.close()
        if self.tracer is not None:
            self.tracer.uninstall()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--index", type=int, default=0,
                        help="this worker's place in the run")
    parser.add_argument("--traced-ops", choices=("none", "all", "odd"),
                        default="none")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", required=True)
    args = parser.parse_args(argv)
    worker = Worker(args)
    try:
        record = worker.run()
    finally:
        worker.close()
    _write_json(Path(args.record), record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
