#!/usr/bin/env python3
"""Benchmark of the cel pipeline: pretraining, fine-tuning and evaluation.

    python3 bench/run.py --workload pretrain-desk --seed 0 --seconds 10 --trace 0

Workloads are described in `workloads.py` and listed with their metrics in
`BENCHMARK.json`. Each is a closed loop: one client in one process runs the
workload's fixed-size pass, then the next, for --seconds seconds (at least
three passes), with BLAS pinned to one thread. Set-up runs three times and
reports its median; one untimed warm-up operation follows it, so first-call
costs are not timed. Times are scaled to a reference host speed by
`clock.py`; raw times are printed and kept too.

`cel` is imported from the `src/` next to this directory; nothing is built.
Inputs come from --seed only. After each pass the benchmark checks every
operation: it must not raise, every loss and score must be finite, training
must take the planned number of optimizer steps, and each operation's
fingerprint (a hash of its metrics.tsv and checkpoint, or of its scores)
must equal the first pass's. A failed check counts the operation failed.

With --trace 0 the last line's metrics are the end-to-end metrics. With
--trace 1 half of the time runs untraced and half traced (see `spans.py`),
and the metrics are per-layer, per pass, plus the tracing overhead.
Results, provenance and spans are written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def pin_blas_threads() -> None:
    """Pin BLAS to one thread; must precede numpy's import.

    The encoder's matmuls are small. With two OpenBLAS threads a desk
    fine-tuning pass used twice the CPU for no gain on 2 cores, and took
    several times longer whenever another process held a core, because the
    second thread spin-waits.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"


class Tally:
    """Operation outcomes over every pass of one invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}  # label -> first pass's fingerprint
        self.latest: dict[str, dict[str, str]] = {}  # phase -> label -> fingerprint
        self.last: dict = {}  # label -> latest passing Output
        self.problems: list[str] = []

    def record(self, phase: str, op, raw, exc: Exception | None) -> None:
        import numpy as np

        self.attempted += 1
        problem = None
        if exc is not None:
            problem = f"raised {type(exc).__name__}: {exc}"
        else:
            try:
                out = op.check(raw)
            except Exception as err:  # an output file missing or unreadable
                problem = f"output check raised {type(err).__name__}: {err}"
            else:
                self.latest.setdefault(phase, {})[op.label] = out.fingerprint
                if not np.all(np.isfinite(out.values)):
                    problem = "non-finite loss or score"
                elif out.steps != op.expected_steps:
                    problem = f"{out.steps} optimizer steps, planned {op.expected_steps}"
                elif self.first.setdefault(op.label, out.fingerprint) != out.fingerprint:
                    problem = "fingerprint differs from the first pass"
                else:
                    self.last[op.label] = out
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{phase} {op.label}: {problem}")


def attempt(op) -> tuple:
    """(operation, its raw result, the exception it raised or None)."""
    try:
        return op, op.run(), None
    except Exception as exc:  # counted as a failed operation
        return op, None, exc


def run_passes(state, clock, seconds: float, min_passes: int, tally: Tally, phase: str,
               recorder=None) -> tuple[list[float], list[float]]:
    """Closed loop of timed passes; returns raw and scaled seconds per pass."""
    from time import perf_counter

    raw, scaled = [], []
    start = perf_counter()
    while len(raw) < min_passes or perf_counter() - start < seconds:
        if recorder is not None:
            recorder.run_id = len(raw)
        timed = [clock.measure(functools.partial(attempt, op)) for op in state.operations]
        raw.append(sum(t[1] for t in timed))
        scaled.append(sum(t[2] for t in timed))
        for result, _, _ in timed:
            tally.record(phase, *result)
    return raw, scaled


def measure(workload: str, seed: int, seconds: float, trace: bool, shape=None) -> dict:
    """Set up, run the timed passes, check the outputs; returns the full report."""
    import resource
    import shutil
    import statistics
    import tempfile

    import spans
    import workloads
    from clock import Clock

    full_size = shape is None
    shape = shape or workloads.FULL[workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT))
    try:
        clock = Clock()
        setup_raw, setup_s = [], []
        state = None
        for _ in range(SETUP_REPEATS):
            state = None  # free the previous set-up before building the next
            state, raw, scaled = clock.measure(
                lambda: workloads.SETUPS[workload](seed, shape, workdir)
            )
            setup_raw.append(raw)
            setup_s.append(scaled)

        tally = Tally()
        # One untimed operation first, so first-call costs are not timed.
        tally.record("warm-up", *attempt(state.operations[0]))
        budget = seconds / 2 if trace else seconds
        min_passes = 2 if trace else 3
        raw, times = run_passes(state, clock, budget, min_passes, tally, "untraced")
        wall = statistics.median(times)
        report = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "setup_seconds": setup_s,
            "setup_raw_seconds": setup_raw,
            "pass_seconds": times,
            "pass_raw_seconds": raw,
            "raw_wall_s": statistics.median(raw),
            "crops_per_pass": state.crops_per_pass,
            "utts_per_pass": state.utts_per_pass,
            "operations_per_pass": len(state.operations),
            "metrics": {
                "wall_s": wall,
                "crops_per_s": state.crops_per_pass / wall,
                "utts_per_s": state.utts_per_pass / wall,
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            },
        }
        if trace:
            recorder = spans.Recorder(prefetched=workloads.warmed_keys(state.warmed))
            with spans.installed(recorder):
                traced_raw, traced = run_passes(
                    state, clock, budget, min_passes, tally, "traced", recorder
                )
            layers = spans.layer_metrics(recorder.spans, len(traced), sum(traced_raw))
            layers["trace.overhead_ratio"] = statistics.median(traced) / wall
            report["traced_pass_seconds"] = traced
            report["traced_pass_raw_seconds"] = traced_raw
            report["layers"] = layers
            recorder.write(OUT / f"spans-{workload}-seed{seed}.jsonl")

        quality = {}
        if len(tally.last) < len(state.operations):
            tally.problems.append("quality check skipped: an operation failed")
        else:
            try:
                quality = state.quality(tally.last)
            except Exception as exc:  # reported, like a failed operation
                tally.problems.append(f"quality check raised {type(exc).__name__}: {exc}")
            if not all(map(math.isfinite, quality.values())):
                tally.problems.append(f"quality check not finite: {quality}")
        report.update(
            kernel_seconds=clock.kernel_seconds,
            quality=quality,
            fingerprints=tally.first,
            traced_fingerprints=tally.latest.get("traced", {}),
            reference=_compare_reference(workload, seed, tally.first) if full_size else {},
            attempted=tally.attempted,
            failed=tally.failed,
            problems=tally.problems,
            correct=not tally.problems,
        )
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _compare_reference(workload: str, seed: int, fingerprints: dict[str, str]) -> dict:
    """match / MISMATCH / none per operation, against bench/reference.json."""
    known = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed), {})
    return {
        label: "none" if label not in known else
        ("match" if known[label] == fp else "MISMATCH")
        for label, fp in fingerprints.items()
    }


def _git_commit() -> str:
    """HEAD's commit when the checkout is a git work tree, else 'none'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "none"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> int | None:
    """Threads NumPy's OpenBLAS reports it will use, if it is OpenBLAS."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    import hashlib
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "blas_threads": _blas_threads(),
    }


def result_line(report: dict, trace: bool) -> dict:
    """The last output line: end-to-end or per-layer metrics as BENCHMARK.json lists them."""
    spec = json.loads(SPEC.read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = report["layers"] if trace else report["metrics"]
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["pretrain-desk", "pretrain-k200", "finetune-desk", "evaluate-desk"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    for needed in (SRC / "cel", ROOT / "configs", SPEC, REFERENCE):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2

    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    prov = provenance(args.seed)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report["provenance"] = prov
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(report['pass_seconds'])} untraced passes of "
          f"{report['operations_per_pass']} operations, {SETUP_REPEATS} set-ups")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for label, fp in report["fingerprints"].items():
        print(f"fingerprint {label} {fp} reference {report['reference'].get(label, 'none')}")
    print("quality " + json.dumps(report["quality"], sort_keys=True))
    print(f"raw wall_s {report['raw_wall_s']!r} s (wall_s is scaled to the reference speed)")
    for problem in report["problems"]:
        print(f"problem {problem}")
    line = result_line(report, bool(args.trace))
    for name, m in line["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
