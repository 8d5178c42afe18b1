"""Layer spans recorded from outside overlayfem.

:func:`install` replaces each public function listed in ``TARGETS`` by a
timing wrapper, in every overlayfem module that binds it, so a name that
``from .x import y`` copied into another module is wrapped where it is
looked up.  Methods are wrapped once, on their class.  :func:`uninstall`
puts the originals back.

Calls made once per leaf (``FOLD`` targets) are not given a span each:
their calls and time are folded into counters on the enclosing span.
A span whose metric is already open further up the stack (recursion, or
``marks_for_step`` calling ``mark_corner_leaves``) is recorded but adds
nothing to the metric, and a folded function calling itself is timed
once, so layer sums count every second once.

Spans stay in memory until :meth:`Tracer.records` is written out at the
end of the run.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

SPAN, FOLD = "span", "fold"


@dataclass
class Span:
    sid: int
    name: str
    metric: str
    study: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counted: bool = True      # False when an ancestor has the same metric
    folded: dict = field(default_factory=dict)   # name -> [calls, seconds]
    folded_s: float = 0.0     # time of outermost folded calls inside

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced study."""

    def __init__(self, study):
        self.study = study
        self.spans = []
        self.stack = []             # open Span objects, innermost last
        self.open = Counter()       # metric -> open spans with it
        self.fold_depth = 0
        self.folds = defaultdict(lambda: [0, 0.0])   # metric -> calls, s
        self.counts = Counter()
        self.last = {}              # leaves and dofs of the latest Basis
        self.imbalances = []        # per partition_leaves call
        self.rank_times = []        # (run_step span id, rank, seconds)
        self.rank_weights = {}      # run_step span id -> per-rank weights

    # -- wrappers -------------------------------------------------------

    def wrap(self, target, fn):
        name, metric, kind, count = target[2:]
        if kind == FOLD:
            return self._fold(fn, name, metric, count)

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(len(self.spans), name, metric, self.study,
                        parent.sid if parent else None,
                        counted=self.open[metric] == 0)
            self.spans.append(span)
            self.stack.append(span)
            self.open[metric] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.open[metric] -= 1
                self.stack.pop()
            if count is not None:
                count(self, span, args, result)
            return result
        return span_wrapper

    def _fold(self, fn, name, metric, count):
        total = self.folds[metric]
        active = [False]        # a recursive call is timed by the outer one
        clock = time.perf_counter

        @functools.wraps(fn)
        def fold_wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            outermost = self.fold_depth == 0
            active[0] = True
            self.fold_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.fold_depth -= 1
                active[0] = False
            total[0] += 1
            total[1] += dt
            if self.stack:
                parent = self.stack[-1]
                entry = parent.folded.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += dt
                if outermost:
                    parent.folded_s += dt
            if count is not None:
                count(self, None, args, result)
            return result
        return fold_wrapper

    def run_root(self, name, fn):
        """Call fn() inside a root span."""
        return self.wrap((None, None, name, name, SPAN, None), fn)()

    # -- results --------------------------------------------------------

    def span_total(self, metric):
        """(calls, seconds) of the spans counted toward a metric."""
        picked = [s.seconds for s in self.spans
                  if s.metric == metric and s.counted]
        return len(picked), sum(picked, 0.0)

    def self_times(self):
        """{span name: [calls, total s, self s]}, self excluding children."""
        child_s = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.seconds
        out = {}
        for s in self.spans:
            row = out.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.seconds
            row[2] += s.seconds - child_s[s.sid] - s.folded_s
        return out

    def root_coverage(self):
        """Share of the root spans' time covered by their direct children."""
        roots = {s.sid: s.seconds for s in self.spans if s.parent is None}
        covered = sum(s.seconds for s in self.spans if s.parent in roots)
        return _ratio(covered, sum(roots.values()))

    def records(self):
        return [{"id": s.sid, "name": s.name, "study": s.study,
                 "parent": s.parent, "start": s.start, "end": s.end,
                 "counted": s.counted, "folded": s.folded}
                for s in self.spans]


def _ratio(num, den):
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# exact counters, read from arguments and returned objects

def _count_basis(tracer, span, args, result):
    basis = args[0]
    leaves = len(basis.mesh.active_leaf_elements())
    tracer.last["mesh.leaves"] = leaves
    tracer.last["basis.dofs"] = basis.dofmap.total
    tracer.counts["quadrature.leaf_states"] += leaves


def _count_eval(tracer, span, args, result):
    tracer.counts["basis.eval_points"] += len(result[0])


def _count_rule(tracer, span, args, result):
    tracer.counts["quadrature.points"] += sum(len(c.weights) for c in result)


def _count_partition(tracer, span, args, result):
    from overlayfem.partition import weighted_imbalance
    weights, n_ranks = args[3], args[4]
    tracer.imbalances.append(weighted_imbalance(weights, result, n_ranks))


def _count_step(tracer, span, args, result):
    tracer.rank_weights[span.sid] = [r["weight_sum"] for r in result[0].per_rank]


def _count_integrate(tracer, span, args, result):
    tracer.counts["distributed.triplets"] += int(result.rows.size)
    tracer.rank_times.append((span.parent, result.rank, span.seconds))


def _count_assemble(tracer, span, args, result):
    system = result[0]
    tracer.counts["distributed.sent_triplets"] += int(sum(system.sent_entries))
    tracer.counts["distributed.nnz"] += int(sum(b.nnz for b in system.blocks))


def _count_cg(tracer, span, args, result):
    tracer.counts["distributed.cg_iterations"] += int(result[1])


def _targets():
    """(home module, attribute, span name, metric, kind, counter)."""
    rows = []

    def add(module, attrs, metric, kind=SPAN, count=None):
        for attr in attrs.split():
            name = f"{module}.{attr.replace('.__init__', '')}"
            rows.append((f"overlayfem.{module}", attr, name, metric, kind,
                         count))

    add("mesh", "create_base_mesh", "mesh.build")
    add("mesh", "Mesh.refine", "mesh.refine")
    add("basis", "Basis.__init__", "basis.build", count=_count_basis)
    add("basis", "Basis.evaluate_leaf", "basis.eval", FOLD, _count_eval)
    add("quadrature", "leaf_quadrature", "quadrature.rule", FOLD, _count_rule)
    add("quadrature", "indicator_area", "quadrature.area")
    add("physics", "element_stiffness", "physics.stiffness", FOLD)
    add("physics", "element_load leaf_flux_load", "physics.load", FOLD)
    add("physics", "DirichletMap.__init__", "physics.dirichlet")
    add("physics", "energy_error", "physics.energy_error")
    add("partition", "compute_leaf_weights", "partition.weights")
    add("partition", "partition_leaves", "partition.partition",
        count=_count_partition)
    add("distributed", "run_step", "distributed.run_step", count=_count_step)
    add("distributed", "integrate_rank_system", "distributed.integrate",
        count=_count_integrate)
    add("distributed", "distribute_dofs_graph distribute_dofs_contiguous",
        "distributed.dof_dist")
    add("distributed", "exchange_and_assemble", "distributed.assemble",
        count=_count_assemble)
    add("distributed", "parallel_cg", "distributed.solve", count=_count_cg)
    add("benchmarks", "make_problem", "benchmarks.make_problem")
    add("benchmarks", "marks_for_step mark_corner_leaves mark_ball_leaves "
        "mark_interface_leaves mark_random_leaves", "benchmarks.mark")
    add("benchmarks", "run_benchmark", "benchmarks.run_benchmark")
    add("benchmarks", "step_error", "benchmarks.step_error")
    add("benchmarks", "write_artifacts write_report_json "
        "write_convergence_csv write_partition_csv write_mesh_xml "
        "write_solution_csv", "benchmarks.artifacts")
    add("cli", "main", "cli.main")
    return rows


TARGETS = _targets()


def install(tracer):
    """Wrap every target; returns what :func:`uninstall` needs.

    A target the program no longer has is reported and skipped, so its
    metrics read 0 instead of the traced run failing.
    """
    homes = {t[0]: importlib.import_module(t[0]) for t in TARGETS}
    modules = [m for n, m in sys.modules.items()
               if n == "overlayfem" or n.startswith("overlayfem.")]
    restore = []
    for target in TARGETS:
        home = homes[target[0]]
        *owner_path, attr = target[1].split(".")
        if owner_path:
            owners = [getattr(home, owner_path[0], None)]
        else:
            owners = [m for m in modules if attr in vars(m)
                      and vars(m)[attr] is vars(home).get(attr)]
        if not owners or owners[0] is None or attr not in vars(owners[0]):
            print(f"# spans: {target[0]}.{target[1]} not found, not traced",
                  file=sys.stderr)
            continue
        original = vars(owners[0])[attr]
        wrapper = tracer.wrap(target, original)
        for owner in owners:
            setattr(owner, attr, wrapper)
            restore.append((owner, attr, original))
    return restore


def uninstall(restore):
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# per-layer metrics of one traced study

def wrapper_cost(kind, calls=20000):
    """Seconds one wrapped call adds, timed on a no-op inside a span."""
    tracer = Tracer(study=-1)

    def noop():
        return None

    wrapped = tracer.wrap((None, None, "noop", "noop", kind, None), noop)

    def best_of_3(fn):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    extra = tracer.run_root("calibration",
                            lambda: best_of_3(wrapped) - best_of_3(noop))
    return max(extra, 0.0) / calls


def layer_metrics(tracer, study_s, untraced_s, report_timings_s):
    """Per-layer metrics of the traced study, as {name: (value, unit)}.

    A ratio without a base (nothing of its kind ran) reads 0.
    """
    def seconds(metric):
        return tracer.span_total(metric)[1]

    def calls(metric):
        return tracer.span_total(metric)[0]

    c = tracer.counts
    folds = tracer.folds
    per_step = defaultdict(list)
    weights, times = [], []
    for step, rank, dt in tracer.rank_times:
        per_step[step].append(dt)
        if step in tracer.rank_weights:     # absent when run_step raised
            weights.append(tracer.rank_weights[step][rank])
            times.append(dt)
    r = 0.0
    if len(times) > 1 and np.std(weights) > 0 and np.std(times) > 0:
        r = float(np.corrcoef(weights, times)[0, 1])
    rule_builds = folds["quadrature.rule"][0]
    fold_calls = sum(calls_s[0] for calls_s in folds.values())
    overhead_est = (fold_calls * wrapper_cost(FOLD)
                    + len(tracer.spans) * wrapper_cost(SPAN))

    return {
        "mesh.build_s": (seconds("mesh.build"), "s"),
        "mesh.refine_s": (seconds("mesh.refine"), "s"),
        "mesh.leaves": (tracer.last.get("mesh.leaves", 0), "count"),
        "basis.build_s": (seconds("basis.build"), "s"),
        "basis.dofs": (tracer.last.get("basis.dofs", 0), "count"),
        "basis.eval_s": (folds["basis.eval"][1], "s"),
        "basis.eval_points": (c["basis.eval_points"], "count"),
        "quadrature.rule_s": (folds["quadrature.rule"][1], "s"),
        "quadrature.rule_builds": (rule_builds, "count"),
        "quadrature.points": (c["quadrature.points"], "count"),
        "quadrature.leaf_states": (c["quadrature.leaf_states"], "count"),
        "quadrature.rule_builds_per_leaf": (
            _ratio(rule_builds, c["quadrature.leaf_states"]), "ratio"),
        "quadrature.area_s": (seconds("quadrature.area"), "s"),
        "quadrature.area_calls": (calls("quadrature.area"), "count"),
        "physics.stiffness_s": (folds["physics.stiffness"][1], "s"),
        "physics.stiffness_calls": (folds["physics.stiffness"][0], "count"),
        "physics.load_s": (folds["physics.load"][1], "s"),
        "physics.dirichlet_s": (seconds("physics.dirichlet"), "s"),
        "physics.energy_error_s": (seconds("physics.energy_error"), "s"),
        "partition.weights_s": (seconds("partition.weights"), "s"),
        "partition.weights_calls": (calls("partition.weights"), "count"),
        "partition.partition_s": (seconds("partition.partition"), "s"),
        "partition.calls": (calls("partition.partition"), "count"),
        "partition.imbalance": (max(tracer.imbalances, default=0.0), "ratio"),
        "partition.cost_model_r": (r, "r"),
        "partition.cost_model_pairs": (len(times), "count"),
        "distributed.integrate_s": (seconds("distributed.integrate"), "s"),
        "distributed.rank_time_imbalance": (_ratio(
            sum(max(v) for v in per_step.values()),
            sum(sum(v) / len(v) for v in per_step.values())), "ratio"),
        "distributed.dof_dist_s": (seconds("distributed.dof_dist"), "s"),
        "distributed.assemble_s": (seconds("distributed.assemble"), "s"),
        "distributed.triplets": (c["distributed.triplets"], "count"),
        "distributed.sent_triplets": (c["distributed.sent_triplets"], "count"),
        "distributed.nnz": (c["distributed.nnz"], "count"),
        "distributed.solve_s": (seconds("distributed.solve"), "s"),
        "distributed.cg_iterations": (c["distributed.cg_iterations"], "count"),
        "benchmarks.mark_s": (seconds("benchmarks.mark"), "s"),
        "benchmarks.artifacts_s": (seconds("benchmarks.artifacts"), "s"),
        "benchmarks.report_coverage": (
            _ratio(report_timings_s, untraced_s), "ratio"),
        "cli.main_s": (seconds("cli.main"), "s"),
        "trace.study_s": (study_s, "s"),
        "trace.untraced_study_s": (untraced_s, "s"),
        "trace.overhead_s": (study_s - untraced_s, "s"),
        "trace.wrapped_calls": (fold_calls + len(tracer.spans), "count"),
        "trace.overhead_est_s": (overhead_est, "s"),
        "trace.root_coverage": (tracer.root_coverage(), "ratio"),
    }
