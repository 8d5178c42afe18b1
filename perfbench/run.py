"""Outside-in benchmark of overlayfem: one workload per invocation.

    python3 perfbench/run.py --workload lshape_hp --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; overlayfem is imported from
``src/`` of the checkout that holds this file.  With ``--trace 0`` the
run times whole studies with nothing wrapped and reports the end-to-end
metrics; with ``--trace 1`` it runs one untraced and one traced study and
reports the per-layer metrics (see README.md in this directory).

Every study's outputs are checked; the last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Study artifacts go to ``perfbench/.work/`` and are removed
when the run ends; a traced run leaves its spans there as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11

# Fresh interpreter to `import overlayfem.cli` plus make_problem: what
# every overlayfem-bench call pays before step 0.
SETUP_PROBE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import overlayfem.cli\n"
    "from overlayfem.benchmarks import RunConfig, make_problem\n"
    "make_problem(RunConfig.from_dict(json.loads(sys.argv[2])))\n"
)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measuring time; another study starts only "
                             "if, at the last one's pace, it ends within it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup_seconds(probe_config):
    """Median wall time of SETUP_PROBES fresh-interpreter set-ups."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC),
                        json.dumps(probe_config)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def fingerprint():
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workers": 1,
        "seed_effect": "none yet: every workload's marking is deterministic",
    }


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Studies of one invocation, with the checks they share."""

    def __init__(self, name, seed, studies):
        self.name = name
        self.seed = seed
        self.studies = studies
        self.dir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
        self.results = []
        self.digests = None

    def study(self, label, warmup=False):
        table = self.studies.WARMUPS if warmup else self.studies.WORKLOADS
        study = table[self.name]
        out = self.dir / f"study-{len(self.results)}"
        result = study.run(out, self.seed)
        shutil.rmtree(out, ignore_errors=True)
        if result.ok and result.csv_digests and not warmup:
            if self.digests is None:
                self.digests = result.csv_digests
            elif result.csv_digests != self.digests:
                changed = sorted(k for k in self.digests
                                 if self.digests[k] != result.csv_digests[k])
                result.failure = f"CSV artifacts differ from the first " \
                                 f"study's: {', '.join(changed)}"
        self.results.append(result)
        print(f"# study {label}: {result.wall_s:.3f} s, "
              + ("ok" if result.ok else f"FAILED ({result.failure})"),
              flush=True)
        return result

    def line(self, metrics):
        failed = sum(not r.ok for r in self.results)
        return json.dumps({
            "correct": failed == 0,
            "attempted": len(self.results),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        })


def tail(samples):
    """The highest percentile with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if len(samples) * (100.0 - q) / 100.0 >= 10:
            cut = statistics.quantiles(samples, n=1000)[round(q * 10) - 1]
            return f"p{q:g} {cut:.4f} s"
    return "too few samples for a percentile with ten beyond it"


def end_to_end(run, seconds):
    setup_s, setup_times = setup_seconds(run.studies.PROBE_CONFIGS[run.name])
    print(f"# setup_s probes: {', '.join(f'{t:.4f}' for t in setup_times)}")
    run.study("warm-up (untimed)", warmup=True)
    measured = []
    t0 = time.perf_counter()
    while True:
        measured.append(run.study(f"{len(measured) + 1}"))
        if len(measured) == 1:
            # peak of warm-up plus one study, whatever the study count
            peak = peak_rss_mb()
        elapsed = time.perf_counter() - t0
        if elapsed + measured[-1].wall_s > seconds:
            break
    passed = [r for r in measured if r.ok]
    if not passed:
        # a failed study's time or error would read as a gain: no result
        return None
    samples = [r.wall_s for r in passed]
    print(f"# study_s: median of {len(samples)} studies; {tail(samples)}")
    attempted = len(run.results)
    failed = sum(not r.ok for r in run.results)
    return {
        "study_s": (statistics.median(samples), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak, "MB"),
        "success_ratio": (1.0 - failed / attempted, "ratio"),
        "final_error": (passed[-1].final_error, "1"),
    }


def per_layer(run):
    import spans

    run.study("warm-up (untimed)", warmup=True)
    untraced = run.study("untraced")
    tracer = spans.Tracer(study=len(run.results))
    restore = spans.install(tracer)
    try:
        traced = run.study("traced")
    finally:
        spans.uninstall(restore)
    metrics = spans.layer_metrics(tracer, traced.wall_s, untraced.wall_s,
                                  untraced.report_timings_s)
    path = WORK / f"trace-{run.name}-seed{run.seed}.json"
    path.write_text(json.dumps({
        "workload": run.name, "seed": run.seed, "env": fingerprint(),
        "self_times": tracer.self_times(), "spans": tracer.records()}))
    print("# span                              calls   total s    self s")
    for name, (calls, total, own) in sorted(tracer.self_times().items(),
                                            key=lambda kv: -kv[1][2]):
        print(f"# {name:<32} {calls:>6} {total:>9.3f} {own:>9.3f}")
    print(f"# spans written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None):
    for var in THREAD_VARS:            # before anything loads numpy
        os.environ[var] = "1"
    import studies

    args = parse_args(argv, sorted(studies.WORKLOADS))
    if not (SRC / "overlayfem" / "__init__.py").is_file():
        print(f"error: no overlayfem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import overlayfem
    if Path(overlayfem.__file__).resolve().parent != SRC / "overlayfem":
        print(f"error: overlayfem imported from {overlayfem.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, studies)
    print(f"# env {json.dumps(fingerprint())}")
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        metrics = per_layer(run) if args.trace else end_to_end(run,
                                                               args.seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    if metrics is None:
        print("error: every measured study failed", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in
                declared["per_layer" if args.trace else "end_to_end"]}
    if declared != {k: u for k, (_, u) in metrics.items()}:
        print("error: metrics differ from those BENCHMARK.json declares",
              file=sys.stderr)
        return 1
    print(run.line(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
