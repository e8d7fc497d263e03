"""Run one frkan benchmark workload and print its metrics.

    python3 bench/run.py --workload approx-i62 --seed 1 --seconds 45 --trace 0

Run from the repository root (any directory works; paths are resolved
from this file).  The library is imported from ``src/`` next to this
directory, never from an installed copy.  The run sets up the workload
several times, checks gradients, then repeats the workload's fixed round
of work until ``--seconds`` have passed, checking every output as it goes.
``setup_s`` is the median time of ``import frkan`` in a fresh interpreter
plus the median set-up; an untraced run sets up again after every round.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the per-layer metrics, from wrappers that record a parent-linked span for
every call into frkan's public functions (see ``benchlib/trace.py``).
``trace_overhead_frac`` is the time the wrappers spend outside the calls
they time (span bookkeeping and annotations), over the traced rounds'
time without it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
with the environment, every check and the spans of a traced run, goes to
``bench/results/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_REPS = 3              # set-ups before the first round
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import frkan; print(time.perf_counter() - t)")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the workload classes import frkan, so arguments are checked against names
WORKLOAD_NAMES = ("approx-i62", "stability-deep", "audit-200k")
END_TO_END_UNITS = {"setup_s": "s", "op_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def import_library():
    """Import frkan from SRC, never from an installed copy."""
    if not (SRC / "frkan" / "__init__.py").is_file():
        raise SystemExit(f"error: no frkan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import frkan
    if Path(frkan.__file__).resolve().parent != (SRC / "frkan").resolve():
        raise SystemExit(f"error: frkan was imported from {frkan.__file__}, not {SRC}")


def git_sha(root: Path):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, frkan_threads):
    import numpy as np

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "FRKAN_THREADS": os.environ.get("FRKAN_THREADS"),
        "FRKAN_THREADS_inherited": frkan_threads,
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def fresh_import_s() -> float:
    """Seconds ``import frkan`` takes in a new interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def run_workload(w, seconds: float, trace: bool) -> dict:
    """Set-ups, gradient gate and timed rounds of one workload.

    An untraced run times each set-up (with a fresh-interpreter import) and
    sets up again after every round, so the set-up median samples the
    same stretch of time as the rounds.  A traced run also traces its
    set-ups.
    """
    from benchlib.trace import STEP_CLOCK, TRACED, Patches, Tracer
    from benchlib.workloads import Ops

    ops = Ops()
    tracer = Tracer()
    patches = Patches()
    import_s, setup_s = [], []

    def set_up():
        if not trace:
            import_s.append(fresh_import_s())
        t = time.perf_counter()
        w.setup()
        setup_s.append(time.perf_counter() - t)

    if trace:
        patches.install(tracer)
    for _ in range(SETUP_REPS):
        set_up()
    patches.remove()
    w.check_gradients(ops)

    rounds, round_s = [], []
    own_before = tracer.own_s
    t_begin = time.perf_counter()
    while not rounds or time.perf_counter() - t_begin < seconds:
        patches.install(tracer, TRACED if trace else STEP_CLOCK)
        t = time.perf_counter()
        try:
            rounds.append(w.round(ops))
        finally:
            round_s.append(time.perf_counter() - t)
            patches.remove()
        if not trace:
            set_up()
    # the wrappers' own time, outside the calls they time, against the
    # rounds' time without it
    own = tracer.own_s - own_before
    overhead = own / (sum(round_s) - own)
    quality = w.final_checks(ops, rounds)
    if trace:
        missing = sorted(n for n in w.expected_spans if not tracer.spans_named(n))
        ops.check("every function the workload exercises recorded spans", not missing,
                  f"(no spans: {missing})")
    return {"ops": ops, "tracer": tracer, "import_s": import_s, "setup_s": setup_s,
            "rounds": rounds, "round_s": round_s, "overhead": overhead,
            "quality": quality}


def main(argv=None) -> int:
    args = parse_args(argv)
    frkan_threads = os.environ.pop("FRKAN_THREADS", None)
    # one process, no worker threads: keep BLAS single-threaded too
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import_library()
    sys.path.insert(0, str(BENCH_DIR))
    from benchlib import stats
    from benchlib.trace import per_layer_metrics, per_model_figures, self_times, span_summary
    from benchlib.workloads import WORKLOADS

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        w = WORKLOADS[args.workload](args.seed, str(workdir))
        run = run_workload(w, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops, tracer, rounds = run["ops"], run["tracer"], run["rounds"]

    record = {
        "environment": environment(args, frkan_threads),
        "import_s": run["import_s"],
        "setup_reps_s": run["setup_s"],
        "rounds": len(rounds),
        "round_s": run["round_s"],
        "attempted": ops.attempted,
        "failed": ops.failed,
        "checks": ops.checks,
        "failures": ops.failures,
        "correct": ops.failed == 0,
    }
    if args.trace:
        selfs = self_times(tracer.start, tracer.end, tracer.parent)
        metrics = per_layer_metrics(tracer, selfs, run["overhead"])
        per_model = per_model_figures(tracer, w.labels)
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-trace.spans.npz"
        write_spans(tracer, spans_path)
        record.update(per_layer=metrics, per_model=per_model,
                      spans=span_summary(tracer, selfs), spans_file=spans_path.name)
        lines = [f"{k} = {m['value']!r} {m['unit']}" for k, m in metrics.items()]
        lines += [f"{k}[{label}] = {v!r}" for label, figures in per_model.items()
                  for k, v in figures.items()]
    else:
        parts = {k: stats.summarize(v) for k, v in w.op_samples(tracer, rounds).items()}
        values = {
            "setup_s": statistics.median(run["import_s"]) + statistics.median(run["setup_s"]),
            "op_ms": sum(part["p50"] for part in parts.values()) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        # the same figures under the names each workload's issue uses
        named = {"setup_s": (values["setup_s"], "s"),
                 "peak_rss_mb": (values["peak_rss_mb"], "MB"),
                 "failed_ops_frac": (ops.failed / ops.attempted, "frac")}
        if w.labels:
            named["train_samples_per_s"] = (
                statistics.median(r.samples / r.work_s for r in rounds), "1/s")
        else:
            named["audit_ms_p50"] = (statistics.median(r.work_s for r in rounds) * 1e3, "ms")
        named.update(run["quality"])
        op_lines = [f"{w.op_label}: {values['op_ms']:.3f} ms, the sum of the medians below"]
        for k, part in parts.items():
            tail = ("" if part["tail"] is None
                    else f", p{part['tail_p']:g} {part['tail'] * 1e3:.3f} ms")
            op_lines.append(f"  {k}: p50 {part['p50'] * 1e3:.3f} ms{tail}, "
                            f"mean {part['mean'] * 1e3:.3f} ms, "
                            f"min {part['min'] * 1e3:.3f} ms, n={part['n']}")
        record.update(end_to_end=metrics, op_summary=op_lines,
                      workload_metrics={k: {"value": v, "unit": u}
                                        for k, (v, u) in named.items()})
        lines = [f"{k} = {v!r} {u}" for k, (v, u) in named.items()] + op_lines
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, default=str) + "\n")

    for line in lines:
        print(f"{args.workload} {line}")
    print(f"{args.workload}: {len(rounds)} rounds, {ops.checks} checks, "
          f"{ops.failed} of {ops.attempted} operations failed; "
          f"record in {out_path.relative_to(ROOT)}")
    for failure in ops.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": record["correct"], "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if record["correct"] else 1


def write_spans(tracer, path: Path):
    """All spans, column-wise: name index, parent index, start, end, count."""
    import numpy as np

    np.savez_compressed(path, names=np.array(tracer.names),
                        name_id=np.frombuffer(tracer.name_id, dtype=np.int32),
                        parent=np.frombuffer(tracer.parent, dtype=np.int32),
                        start=np.frombuffer(tracer.start, dtype=np.float64),
                        end=np.frombuffer(tracer.end, dtype=np.float64),
                        n=np.frombuffer(tracer.n, dtype=np.float64))


if __name__ == "__main__":
    sys.exit(main())
