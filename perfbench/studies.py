"""The benchmark's two studies, run through overlayfem's public API.

Each study returns a :class:`StudyResult` holding its wall time, whether
its outputs passed the checks, and the value that feeds ``final_error``.
Expected values are the ones overlayfem produces at the commit that
introduced the benchmark; errors are compared at rel 1e-6, the tolerance
the pinned convergence tests use, and counts must match exactly.

The marking rules in play (corner, interface) are deterministic, so the
seed reaches ``RunConfig.seed`` but does not change any input yet.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ERROR_RTOL = 1e-6
CSV_ARTIFACTS = ("convergence.csv", "partition.csv", "solution.csv")


@dataclass
class StudyResult:
    wall_s: float
    failure: str | None = None          # None when every check passed
    final_error: float | None = None
    csv_digests: dict = field(default_factory=dict)
    report_timings_s: float = 0.0        # sum of report.json step timings

    @property
    def ok(self):
        return self.failure is None


@dataclass
class CliStudy:
    """`overlayfem-bench run ...` driven in-process through cli.main."""

    argv: tuple
    leaves: int | None        # None: a warm-up, nothing pinned
    dofs: int | None
    cg_iterations: int | None
    error: float | None

    def run(self, out_dir, seed):
        import overlayfem.cli

        argv = ["run", *self.argv, "--seed", str(seed), "--workers", "1",
                "--out", str(out_dir)]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = overlayfem.cli.main(argv)
        except Exception:
            traceback.print_exc()
            return StudyResult(time.perf_counter() - t0, "raised")
        wall = time.perf_counter() - t0
        if code != 0:
            return StudyResult(wall, f"exit code {code}")
        return self.check(wall, Path(out_dir))

    def check(self, wall, out_dir):
        report = json.loads((out_dir / "report.json").read_text())
        last = report["steps"][-1]
        result = StudyResult(
            wall, final_error=last["error"],
            csv_digests={name: hashlib.sha256(
                (out_dir / name).read_bytes()).hexdigest()
                for name in CSV_ARTIFACTS},
            report_timings_s=sum(sum(step["timings"].values())
                                 for step in report["steps"]))
        got = (last["leaves"], last["dofs"], last["cg_iterations"])
        want = (self.leaves, self.dofs, self.cg_iterations)
        if report["status"] != "ok":
            result.failure = f"status {report['status']!r}"
        elif self.error is None:        # a warm-up: nothing pinned
            pass
        elif got != want:
            result.failure = f"(leaves, dofs, CG its) {got} != {want}"
        elif not math.isclose(last["error"], self.error, rel_tol=ERROR_RTOL):
            result.failure = f"error {last['error']!r} != {self.error!r}"
        return result


WORKLOADS = {
    "lshape_hp": CliStudy(
        argv=("lshape", "--res", "16", "--p", "4", "--steps", "5",
              "--ranks", "8"),
        leaves=813, dofs=13185, cg_iterations=122,
        error=0.0011106193128228024),
    "fcm_disk": CliStudy(
        argv=("fcm_disk", "--res", "16", "--p", "2", "--depth", "4",
              "--steps", "2", "--ranks", "4"),
        leaves=538, dofs=2025, cg_iterations=16259,
        error=4.807365554526655e-07),
}

# RunConfig fields of each workload, for the set-up probe's make_problem.
PROBE_CONFIGS = {
    "lshape_hp": dict(benchmark="lshape", res=16, p=4, steps=5, ranks=8),
    "fcm_disk": dict(benchmark="fcm_disk", res=16, p=2, depth=4, steps=2,
                     ranks=4),
}

# Each warm-up runs the same calls as its study on a small base mesh: it
# loads every code path and lazy import for a few per cent of the time,
# so more of a run goes to measured studies.  Its outputs are checked
# for a clean exit only; nothing is pinned at these sizes.
WARMUPS = {
    "lshape_hp": CliStudy(
        argv=("lshape", "--res", "2", "--p", "4", "--steps", "2",
              "--ranks", "8"),
        leaves=None, dofs=None, cg_iterations=None, error=None),
    "fcm_disk": CliStudy(
        argv=("fcm_disk", "--res", "4", "--p", "2", "--depth", "4",
              "--steps", "1", "--ranks", "4"),
        leaves=None, dofs=None, cg_iterations=None, error=None),
}
