"""Benchmark definitions and study drivers behind the command-line tool.

Three problem families are wired up:

* ``lshape`` -- the singular corner benchmark on three unit quadrants,
  driven by the exact harmonic r^(2/3) field; energy errors are measured
  against it.
* ``fcm_disk`` -- a quarter disk embedded in the unit square; the mesh
  does not fit the arc, the spacetree does the resolving, and the column
  usually holding the energy error reports the quadrature area error
  against pi/4.
* ``custom`` -- user-supplied patches plus an optional CSG geometry from
  the config file.

Marking rules produce the per-step refinement sets: ``corner`` is the
fixed three-leaf rule at a singular vertex, ``ball`` grades every leaf
within a shrinking radius, ``interface`` targets leaves cut by the
embedded boundary, ``random`` picks seeded random leaves, and ``none``
freezes the mesh.
"""
from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

from .basis import Basis, PolynomialOrderField
from .mesh import BaseMeshSpec, PatchSpec, create_base_mesh, export_mesh_xml
from .partition import PARTITIONERS
from .physics import LShapeSolution, table_signatures, energy_error
from .quadrature import Disk, EmbeddedDomain, geometry_from_json, indicator_area

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCHMARK_CHOICES = ("lshape", "fcm_disk", "custom")
MARKING_CHOICES = ("corner", "ball", "interface", "random", "none")
# scalar config keys by the kind of value they take (a bool is no number)
_SCALAR_KINDS = (
    (("res", "steps", "p", "ranks", "depth", "seed", "workers", "probe"),
     numbers.Integral, "an integer"),
    (("epsilon", "tol"), numbers.Real, "a number"),
    (("dry_run",), bool, "true or false"),
    (("benchmark", "partitioner", "out"), str, "a string"),
)


@dataclass
class RunConfig:
    """Everything one benchmark run depends on, JSON-loadable."""

    benchmark: str = "lshape"
    res: int = 16
    steps: int = 5
    p: int = 2
    p_graded: dict | None = None
    ranks: int = 4
    partitioner: str = "sfc"
    epsilon: float = 1e-8
    depth: int = 4
    tol: float = 1e-10
    out: str = "out"
    dry_run: bool = False
    seed: int = 0
    workers: int = 1
    marking: str | None = None
    probe: int = 33
    patches: list | None = None
    geometry: dict | None = None
    dirichlet_boxes: list | None = None

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def merged(self, overrides):
        """New config with the non-None overrides applied on top."""
        data = dataclasses.asdict(self)
        for key, val in overrides.items():
            if val is not None:
                data[key] = val
        return RunConfig.from_dict(data)

    def validate(self):
        for keys, kind, expected in _SCALAR_KINDS:
            for key in keys:
                val = getattr(self, key)
                if not isinstance(val, kind) or (kind is not bool
                                                 and isinstance(val, bool)):
                    raise ValueError(f"{key} must be {expected}, got {val!r}")
        if self.benchmark not in BENCHMARK_CHOICES:
            raise ValueError(f"benchmark must be one of {BENCHMARK_CHOICES}")
        if self.partitioner not in PARTITIONERS:
            raise ValueError(f"partitioner must be one of {PARTITIONERS}")
        if self.marking is not None and self.marking not in MARKING_CHOICES:
            raise ValueError(f"marking must be one of {MARKING_CHOICES}")
        if self.res < 1:
            raise ValueError("res must be positive")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.p < 1:
            raise ValueError("p must be positive")
        if self.p_graded is not None:
            if not isinstance(self.p_graded, dict):
                raise ValueError("p_graded must map levels to orders, "
                                 f"got {self.p_graded!r}")
            for lvl, p in self.p_graded.items():
                if not (_is_int(lvl) or isinstance(lvl, str) and lvl.isdecimal()):
                    raise ValueError(f"p_graded level {lvl!r} must be an integer")
                if not _is_int(p):
                    raise ValueError(f"graded order at level {lvl} must be an "
                                     f"integer, got {p!r}")
                if p < 1:
                    raise ValueError(f"graded order at level {lvl} must be positive")
        if self.ranks < 1:
            raise ValueError("ranks must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.benchmark == "fcm_disk" and not self.dry_run and self.epsilon <= 0:
            raise ValueError("a solve on an embedded domain needs epsilon > 0 "
                             "(epsilon=0 is for pure quadrature studies)")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.probe < 2:
            raise ValueError("probe grid needs at least 2 points per axis")
        self._validate_shapes()
        return self

    def _validate_shapes(self):
        """Shape checks on the patches, the geometry and the Dirichlet
        boxes, whenever they are set: only ``custom`` reads them, and
        needs the patches.

        Axis counts, extents and resolutions are checked by the mesh spec.
        """
        if self.benchmark == "custom" or self.patches is not None:
            if not self.patches or not isinstance(self.patches, (list, tuple)):
                raise ValueError("the custom benchmark needs, and 'patches' must "
                                 f"be, a non-empty list, got {self.patches!r}")
            for i, patch in enumerate(self.patches):
                if not isinstance(patch, dict) or not {"bounds", "resolution"} <= set(patch):
                    raise ValueError(f"patches[{i}] needs 'bounds' and 'resolution' keys")
                _check_numbers(f"patches[{i}].bounds", patch["bounds"], (None, 2),
                               "a list of [lo, hi] pairs, one per axis")
                _check_numbers(f"patches[{i}].resolution", patch["resolution"],
                               (None,), "a list of cell counts, one per axis")
        if self.geometry is not None:
            geometry_from_json(self.geometry)
        if self.dirichlet_boxes is not None:
            _check_numbers("dirichlet_boxes", self.dirichlet_boxes, (None, 2, 2),
                           "a list of [[x0, y0], [x1, y1]] boxes")

    def order_field(self):
        if self.p_graded is not None:
            return PolynomialOrderField(
                by_level={int(k): int(v) for k, v in self.p_graded.items()})
        return PolynomialOrderField(uniform=self.p)

    def effective_marking(self):
        if self.marking is not None:
            return self.marking
        return {"lshape": "corner", "fcm_disk": "interface",
                "custom": "none"}[self.benchmark]


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_numbers(key, value, shape, expected):
    """Reject a config value that is not nested lists of numbers of `shape`.

    A None entry in `shape` leaves that length free.
    """
    def fits(val, dims):
        if not dims:
            return isinstance(val, numbers.Real)
        return (isinstance(val, (list, tuple))
                and dims[0] in (None, len(val))
                and all(fits(v, dims[1:]) for v in val))

    if not fits(value, shape):
        raise ValueError(f"{key} must be {expected}, got {value!r}")


# ----------------------------------------------------------------------
# problems

def lshape_mesh_spec(res):
    """Three unit quadrants around the re-entrant corner at the origin."""
    return BaseMeshSpec([
        PatchSpec(((0, 1), (0, 1)), (res, res)),
        PatchSpec(((-1, 0), (0, 1)), (res, res)),
        PatchSpec(((-1, 0), (-1, 0)), (res, res)),
    ])


def lshape_dirichlet(point):
    return LShapeSolution.on_dirichlet_legs(point)


def lshape_neumann_part(midpoint):
    return not LShapeSolution.on_dirichlet_legs(midpoint)


def fcm_disk_dirichlet(point, tol=1e-12):
    return abs(float(point[0])) <= tol or abs(float(point[1])) <= tol


def unit_source(points):
    return np.ones(len(np.atleast_2d(points)))


@dataclass
class BoxBoundary:
    """Predicate: point on the boundary of an axis box (picklable)."""

    lo: tuple
    hi: tuple
    tol: float = 1e-12

    def __call__(self, point):
        pt = np.asarray(point, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        if np.any(pt < lo - self.tol) or np.any(pt > hi + self.tol):
            return False
        return bool(np.any(np.abs(pt - lo) <= self.tol)
                    or np.any(np.abs(pt - hi) <= self.tol))


@dataclass
class InBoxes:
    """Predicate: point inside any of a list of closed boxes (picklable)."""

    boxes: tuple
    tol: float = 1e-12

    def __call__(self, point):
        pt = np.asarray(point, dtype=float)
        for lo, hi in self.boxes:
            if np.all(pt >= np.asarray(lo) - self.tol) and \
                    np.all(pt <= np.asarray(hi) + self.tol):
                return True
        return False


@dataclass
class Problem:
    name: str
    mesh_spec: BaseMeshSpec
    dirichlet_part: object
    source: object = None
    flux: object = None
    flux_part: object = None
    domain: EmbeddedDomain | None = None
    depth: int = 0
    exact: object = None
    singular_point: tuple | None = None


def make_problem(config):
    config.validate()
    if config.benchmark == "lshape":
        exact = LShapeSolution()
        return Problem(
            name="lshape",
            mesh_spec=lshape_mesh_spec(config.res),
            dirichlet_part=lshape_dirichlet,
            flux=exact.flux,
            flux_part=lshape_neumann_part,
            exact=exact,
            singular_point=(0.0, 0.0),
        )
    if config.benchmark == "fcm_disk":
        domain = EmbeddedDomain(Disk((0.0, 0.0), 1.0), epsilon=config.epsilon)
        return Problem(
            name="fcm_disk",
            mesh_spec=BaseMeshSpec([PatchSpec(((0, 1), (0, 1)),
                                                 (config.res, config.res))]),
            dirichlet_part=fcm_disk_dirichlet,
            source=unit_source,
            domain=domain,
            depth=config.depth,
        )
    # custom
    patches = [PatchSpec(tuple(map(tuple, p["bounds"])),
                         tuple(p["resolution"])) for p in config.patches]
    spec = BaseMeshSpec(patches)
    domain = None
    if config.geometry is not None:
        domain = EmbeddedDomain(geometry_from_json(config.geometry),
                                epsilon=config.epsilon)
    if config.dirichlet_boxes:
        part = InBoxes(tuple((tuple(b[0]), tuple(b[1]))
                             for b in config.dirichlet_boxes))
    else:
        lo = np.min([[b[0] for b in p.bounds] for p in patches], axis=0)
        hi = np.max([[b[1] for b in p.bounds] for p in patches], axis=0)
        part = BoxBoundary(tuple(lo), tuple(hi))
    return Problem(
        name="custom",
        mesh_spec=spec,
        dirichlet_part=part,
        source=unit_source,
        domain=domain,
        depth=config.depth if domain is not None else 0,
    )


# ----------------------------------------------------------------------
# marking rules

def _leaf_boxes(mesh):
    """The active leaf ids and their float boxes, lo and hi (n, 2)."""
    leaves = mesh.active_leaf_elements()
    return leaves, mesh.elements.lo_f[leaves], mesh.elements.hi_f[leaves]


def _ids(leaves, picked):
    return leaves[picked].tolist()


def mark_corner_leaves(mesh, point):
    """Active leaves whose closure contains the point."""
    pt = np.asarray(point, dtype=float)
    leaves, lo, hi = _leaf_boxes(mesh)
    return _ids(leaves, ((lo <= pt) & (pt <= hi)).all(axis=1))


def mark_ball_leaves(mesh, center, radius):
    """Active leaves whose closure meets the closed ball."""
    c = np.asarray(center, dtype=float)
    leaves, lo, hi = _leaf_boxes(mesh)
    gap = np.maximum(np.maximum(lo - c, c - hi), 0.0)
    square = gap * gap
    return _ids(leaves, np.sqrt(square[:, 0] + square[:, 1]) <= radius)


def mark_interface_leaves(mesh, domain):
    """Active leaves whose box is cut by the embedded boundary.

    Classified on a 3x3 corner/midpoint/center stencil, which is enough
    for boundaries that are not thinner than a leaf.
    """
    leaves, lo, hi = _leaf_boxes(mesh)
    grid = np.linspace(lo, hi, 3, axis=1)  # (n, 3, 2): lo, mid, hi per axis
    # x-major per leaf: (xs[a], ys[b]) at 3 a + b
    stencil = np.stack((np.repeat(grid[:, :, 0], 3, axis=1),
                        np.tile(grid[:, :, 1], 3)), axis=-1)
    inside = domain.contains(stencil.reshape(-1, 2)).reshape(-1, 9)
    return _ids(leaves, inside.any(axis=1) & ~inside.all(axis=1))


def mark_random_leaves(mesh, rng, fraction=0.1):
    """A seeded random subset of the active leaves (at least one)."""
    leaves = mesh.active_leaf_elements()
    count = max(1, int(round(fraction * len(leaves))))
    idx = rng.choice(len(leaves), size=count, replace=False)
    return leaves[np.sort(idx)].tolist()


def marks_for_step(problem, marking, mesh, step, rng):
    """Refinement set before solving step `step` (none at step 0)."""
    if step == 0 or marking == "none":
        return None
    if marking == "corner":
        if problem.singular_point is None:
            raise ValueError("corner marking needs a singular point")
        return mark_corner_leaves(mesh, problem.singular_point)
    if marking == "ball":
        if problem.singular_point is None:
            raise ValueError("ball marking needs a singular point")
        return mark_ball_leaves(mesh, problem.singular_point, 2.0 ** (1 - step))
    if marking == "interface":
        if problem.domain is None:
            raise ValueError("interface marking needs an embedded geometry")
        return mark_interface_leaves(mesh, problem.domain)
    if marking == "random":
        return mark_random_leaves(mesh, rng)
    raise ValueError(f"unknown marking rule {marking!r}")


# ----------------------------------------------------------------------
# study drivers

def step_error(problem, basis, solution):
    """The convergence-table error of one step, or nan when undefined."""
    if problem.exact is not None:
        return energy_error(basis, solution, problem.exact.gradient,
                            singular_point=problem.singular_point,
                            domain=problem.domain, depth=problem.depth)
    return float("nan")


def run_benchmark(config):
    """Drive the configured pipeline; returns (step_dicts, final_state).

    final_state is None for dry runs, else a dict with the mesh, basis,
    solution, leaf ranks, and normalized leaf weights of the last step.
    A :class:`SolverError` leaves with the completed steps' dicts attached
    as its `steps` and the failed step's index as its `step`.
    """
    from .distributed import SolverError, run_step

    config.validate()
    problem = make_problem(config)
    marking = config.effective_marking()
    rng = np.random.default_rng(config.seed)
    orders = config.order_field()
    mesh = create_base_mesh(problem.mesh_spec)

    steps = []
    final = None
    for step in range(config.steps + 1):
        marks = marks_for_step(problem, marking, mesh, step, rng)
        if config.dry_run:
            if marks:
                mesh.refine(marks)
            basis = Basis(mesh, orders)
            steps.append({
                "step": step,
                "leaves": len(mesh.active_leaf_elements()),
                "dofs": basis.dofmap.total,
                "dry_run": True,
            })
            continue
        # the previous step's Basis, with its memo, goes before this one's
        basis = solution = None
        try:
            report, basis, solution = run_step(
                mesh, orders, config.ranks, problem.dirichlet_part,
                marks=marks, partitioner=config.partitioner,
                domain=problem.domain, depth=problem.depth,
                source=problem.source, flux=problem.flux,
                flux_part=problem.flux_part, tol=config.tol,
                step_index=step, workers=config.workers,
            )
        except SolverError as exc:
            exc.steps = steps
            exc.step = step
            raise
        t = time.perf_counter()
        if problem.name == "fcm_disk":
            # the area error is this benchmark's step error
            area = indicator_area(basis, problem.domain, problem.depth)
            err = abs(area - math.pi / 4)
            report.extras["error"] = err
            report.extras["alpha_area"] = area
        else:
            err = step_error(problem, basis, solution)
            report.extras["error"] = None if math.isnan(err) else err
        report.timings["error"] = time.perf_counter() - t
        steps.append(report.to_dict())
        if step == config.steps:
            final = {
                "mesh": mesh, "basis": basis, "solution": solution,
                "ranks": report.leaf_ranks, "weights": report.leaf_weights,
                "problem": problem, "error": err,
            }
    return steps, final


# ----------------------------------------------------------------------
# artifact writers

def write_report_json(path, config, steps, status="ok"):
    peak = _peak_rss_mb()
    body = {
        "config": dataclasses.asdict(config),
        "status": status,
        "steps": steps,
        "peak_rss_mb": peak,
        "env": run_env(config.workers),
    }
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2)
        fh.write("\n")


def run_env(workers):
    """Versions, BLAS thread settings (None when unset) and cores of a run."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "workers": workers,
    }


def _peak_rss_mb():
    try:
        import resource
        return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    except Exception:
        return None


def write_convergence_csv(path, steps):
    with open(path, "w") as fh:
        fh.write("step,dofs,energy_error\n")
        for s in steps:
            err = s.get("error")
            fh.write(f"{s['step']},{s['dofs']},{'' if err is None else repr(err)}\n")


def write_partition_csv(path, mesh, ranks, weights):
    leaves = mesh.active_leaf_elements()
    with open(path, "w") as fh:
        fh.write("leaf_id,rank,weight\n")
        for leaf, r, w in zip(leaves.tolist(), ranks, weights):
            fh.write(f"{leaf},{int(r)},{repr(float(w))}\n")


def write_solution_csv(path, basis, solution, probe):
    """Sample the solved field on a uniform probe grid over the mesh box.

    The probes are located in one array descent.  Their leaves are
    grouped by (level, probe count) and table signature, and the basis is
    evaluated once per signature, at the probes of its first leaf.
    """
    mesh = basis.mesh
    base = np.arange(mesh.n_base)
    lo = mesh.elements.lo_f[base].min(axis=0)
    hi = mesh.elements.hi_f[base].max(axis=0)
    xs = np.linspace(lo[0], hi[0], probe)
    ys = np.linspace(lo[1], hi[1], probe)
    pts = np.column_stack((np.tile(xs, probe), np.repeat(ys, probe)))
    leaves = mesh.locate_leaves(pts)
    pts, leaves = pts[leaves >= 0], leaves[leaves >= 0]
    by_leaf = {}
    for i, leaf in enumerate(leaves.tolist()):
        by_leaf.setdefault(leaf, []).append(i)
    vals = np.empty(len(pts))
    groups = {}
    for leaf, idx in by_leaf.items():
        level = int(mesh.elements.level[leaf])
        groups.setdefault((level, len(idx)), []).append((leaf, idx))
    for members in groups.values():
        idx = np.array([idx for _, idx in members])
        _, inverse, tables = table_signatures(
            basis, basis.row_of[[leaf for leaf, _ in members]], pts[idx])
        for (leaf, probes), k in zip(members, inverse):
            coef = solution[basis.leaf_dofs(leaf)]
            for row, i in zip(tables[k][0], probes):
                # dot a fresh copy: BLAS results depend on the row's alignment
                vals[i] = row.copy() @ coef
    with open(path, "w") as fh:
        fh.write("x,y,u\n")
        for (x, y), val in zip(pts, vals):
            fh.write(f"{repr(float(x))},{repr(float(y))},{repr(float(val))}\n")


def write_mesh_xml(path, final):
    mesh = final["mesh"]
    basis = final["basis"]
    leaves = mesh.active_leaf_elements()
    orders = basis.orders.level_orders(mesh.elements.level[leaves])
    export_mesh_xml(mesh, path, ranks=final["ranks"],
                    weights=final["weights"], orders=orders)


def write_artifacts(outdir, config, steps, final, status="ok"):
    os.makedirs(outdir, exist_ok=True)
    write_report_json(os.path.join(outdir, "report.json"), config, steps, status)
    if config.dry_run or final is None:
        return
    write_convergence_csv(os.path.join(outdir, "convergence.csv"), steps)
    write_partition_csv(os.path.join(outdir, "partition.csv"),
                        final["mesh"], final["ranks"], final["weights"])
    write_mesh_xml(os.path.join(outdir, "mesh.xml"), final)
    write_solution_csv(os.path.join(outdir, "solution.csv"),
                       final["basis"], final["solution"], config.probe)
