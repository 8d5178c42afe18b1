"""Command-line front end: `overlayfem-bench run|scale|export`.

`run` drives one benchmark end to end and writes report.json,
convergence.csv, partition.csv, mesh.xml, and solution.csv into the
output directory.  `scale` repeats the final configured problem at a list
of rank counts with one worker process per rank and writes scaling.csv.
`export` re-derives the mesh/solution artifacts from the report.json
of a previous run in --out, with that run's config.

Every flag of `run` and `scale` can also come from a JSON config file
(--config); flags given on the command line override the file.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .benchmarks import (BENCHMARK_CHOICES, MARKING_CHOICES, RunConfig,
                         make_problem, marks_for_step, run_benchmark,
                         write_artifacts, write_mesh_xml,
                         write_partition_csv, write_solution_csv)
from .distributed import SolverError, run_step
from .mesh import create_base_mesh
from .partition import PARTITIONERS


def _parse_graded(text):
    """'l0:8,l1:6' -> {0: 8, 1: 6}."""
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, _, val = piece.partition(":")
        key = key.strip().lower()
        if not key.startswith("l") or not key[1:].isdigit():
            raise argparse.ArgumentTypeError(
                f"bad graded-order entry {piece!r}; expected like l0:8")
        out[int(key[1:])] = int(val)
    if not out:
        raise argparse.ArgumentTypeError("empty graded-order map")
    return out


def _parse_int_list(text):
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _add_common_flags(sub):
    sub.add_argument("--config", help="JSON file with a RunConfig")
    sub.add_argument("--benchmark", choices=BENCHMARK_CHOICES)
    sub.add_argument("--res", type=int, help="elements per quadrant axis")
    sub.add_argument("--steps", type=int, help="refinement steps after step 0")
    sub.add_argument("--p", type=int, help="uniform polynomial order")
    sub.add_argument("--p-graded", type=_parse_graded, dest="p_graded",
                     help="per-level orders, e.g. l0:8,l1:6,l2:4")
    sub.add_argument("--partitioner", choices=PARTITIONERS)
    sub.add_argument("--epsilon", type=float, help="fictitious-domain indicator")
    sub.add_argument("--depth", type=int, help="spacetree subdivision depth")
    sub.add_argument("--tol", type=float, help="CG relative tolerance")
    sub.add_argument("--marking", choices=MARKING_CHOICES)
    sub.add_argument("--seed", type=int, help="seed for randomized marking")
    sub.add_argument("--out", help="output directory")


def _build_config(args, rank_list=False):
    if args.config:
        config = RunConfig.from_json(args.config)
    else:
        config = RunConfig()
    overrides = {}
    for key in ("benchmark", "res", "steps", "p", "p_graded", "partitioner",
                "epsilon", "depth", "tol", "marking", "seed", "workers",
                "out"):
        overrides[key] = getattr(args, key, None)
    if getattr(args, "positional_benchmark", None):
        overrides["benchmark"] = args.positional_benchmark
    if getattr(args, "ranks", None) is not None and not rank_list:
        overrides["ranks"] = args.ranks
    if getattr(args, "dry_run", False):
        overrides["dry_run"] = True
    if overrides.get("p") is not None and overrides.get("p_graded") is None:
        # an explicit uniform order replaces any graded map from the file
        config.p_graded = None
    return config.merged(overrides)


def cmd_run(args):
    config = _build_config(args).validate()
    os.makedirs(config.out, exist_ok=True)
    try:
        steps, final = run_benchmark(config)
    except SolverError as exc:
        write_artifacts(config.out, config, exc.steps, None,
                        status=exc.status())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_artifacts(config.out, config, steps, final)
    last = steps[-1]
    if config.dry_run:
        print(f"dry run: {last['leaves']} leaves, {last['dofs']} dofs "
              f"after {config.steps} steps; report.json written to {config.out}")
    else:
        err = last.get("error")
        msg = f"{last['leaves']} leaves, {last['dofs']} dofs, " \
              f"{last['cg_iterations']} CG iterations"
        if err is not None:
            msg += f", error {err:.6e}"
        print(msg + f"; artifacts in {config.out}")
    return 0


def cmd_scale(args):
    rank_list = args.ranks if args.ranks else [1, 2, 4]
    if isinstance(rank_list, int):
        rank_list = [rank_list]
    if min(rank_list) < 1:
        raise ValueError("ranks must be positive")
    config = _build_config(args, rank_list=True).validate()
    if config.workers != RunConfig.workers:
        raise ValueError("scale runs one worker per rank; "
                         f"drop workers={config.workers} from the config")
    os.makedirs(config.out, exist_ok=True)

    problem = make_problem(config)
    orders = config.order_field()
    mesh = create_base_mesh(problem.mesh_spec)
    rng = np.random.default_rng(config.seed)
    marking = config.effective_marking()
    for step in range(1, config.steps + 1):
        marks = marks_for_step(problem, marking, mesh, step, rng)
        if marks:
            mesh.refine(marks)

    rows = []
    base = None
    for n_ranks in rank_list:
        t0 = time.perf_counter()
        report, _, _ = run_step(
            mesh, orders, n_ranks, problem.dirichlet_part,
            partitioner=config.partitioner, domain=problem.domain,
            depth=problem.depth, source=problem.source, flux=problem.flux,
            flux_part=problem.flux_part, tol=config.tol,
            workers=n_ranks,
        )
        total = time.perf_counter() - t0
        t = report.timings
        sent = sum(p["sent_triplets"] for p in report.per_rank)
        kept = sum(p["kept_triplets"] for p in report.per_rank)
        row = {
            "ranks": n_ranks,
            "integrate": t["integrate"],
            "solve": t["solve"],
            "total": total,
            "element_integrations": report.n_leaves,
            "sent_triplets": sent,
            "comm_share": sent / (sent + kept) if sent + kept else 0.0,
            "cg_iterations": report.cg_iterations,
        }
        if base is None:
            base = row
        for phase in ("integrate", "solve", "total"):
            row[f"{phase}_speedup"] = base[phase] / row[phase] if row[phase] > 0 else 1.0
        rows.append(row)
        print(f"P={n_ranks}: integrate {row['integrate']:.3f}s "
              f"(x{row['integrate_speedup']:.2f}), solve {row['solve']:.3f}s, "
              f"total {row['total']:.3f}s, sent {sent}")

    cols = ["ranks", "integrate", "solve", "total", "integrate_speedup",
            "solve_speedup", "total_speedup", "element_integrations",
            "sent_triplets", "comm_share", "cg_iterations"]
    path = os.path.join(config.out, "scaling.csv")
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in cols) + "\n")
    print(f"scaling table written to {path}")
    return 0


def cmd_export(args):
    out = args.out
    report_path = os.path.join(out, "report.json")
    if not os.path.exists(report_path):
        print(f"error: no prior run found at {report_path}; "
              "run the benchmark first", file=sys.stderr)
        return 2
    with open(report_path) as fh:
        stored = json.load(fh)
    run_cfg = RunConfig.from_dict(stored["config"])
    run_cfg.dry_run = False
    steps, final = run_benchmark(run_cfg)
    write_mesh_xml(os.path.join(out, "mesh.xml"), final)
    write_partition_csv(os.path.join(out, "partition.csv"),
                        final["mesh"], final["ranks"], final["weights"])
    write_solution_csv(os.path.join(out, "solution.csv"),
                       final["basis"], final["solution"], run_cfg.probe)
    n = len(final["mesh"].active_leaf_elements())
    print(f"exported {n} cells to {out}/mesh.xml "
          f"plus partition.csv and solution.csv")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="overlayfem-bench",
        description="Benchmark driver for the overlay hp finite element "
                    "library with a simulated multi-rank runtime.")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run a benchmark end to end")
    run.add_argument("positional_benchmark", nargs="?", metavar="benchmark",
                     choices=BENCHMARK_CHOICES,
                     help="benchmark name (same as --benchmark)")
    _add_common_flags(run)
    run.add_argument("--ranks", type=int, help="simulated rank count")
    run.add_argument("--workers", type=int,
                     help="worker processes for the integrate phase")
    run.add_argument("--dry-run", action="store_true", dest="dry_run",
                     help="report mesh sizes without integrating or solving")
    run.set_defaults(func=cmd_run)

    scale = subs.add_parser("scale", help="repeat a problem over rank counts")
    scale.add_argument("positional_benchmark", nargs="?", metavar="benchmark",
                       choices=BENCHMARK_CHOICES)
    _add_common_flags(scale)
    scale.add_argument("--ranks", type=_parse_int_list,
                       help="comma list of rank counts, e.g. 1,2,4")
    scale.set_defaults(func=cmd_scale)

    export = subs.add_parser("export",
                             help="re-derive mesh/solution files from a run")
    export.add_argument("--out", default=RunConfig.out,
                        help="output directory of the run")
    export.set_defaults(func=cmd_export)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
