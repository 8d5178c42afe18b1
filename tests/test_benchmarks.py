"""Benchmark configs, marking rules, and the study driver."""

import json
import math

import numpy as np
import pytest

import overlayfem.benchmarks
from conftest import FieldApproximation, single_patch
from overlayfem.mesh import Mesh, create_base_mesh
from overlayfem.basis import Basis, PolynomialOrderField
from overlayfem.quadrature import EmbeddedDomain, Disk
from overlayfem.benchmarks import (
    RunConfig, lshape_mesh_spec, make_problem, marks_for_step,
    mark_corner_leaves, mark_ball_leaves, mark_interface_leaves,
    mark_random_leaves, step_error, run_benchmark,
    write_report_json, write_convergence_csv, write_partition_csv,
    write_solution_csv, write_artifacts,
)


# --------------------------------------------------------------- config


def test_config_round_trip_and_merge(tmp_path):
    cfg = RunConfig.from_dict({"benchmark": "lshape", "res": 8, "p": 3})
    assert cfg.res == 8
    assert cfg.ranks == 4  # default preserved

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"benchmark": "fcm_disk", "depth": 6, "epsilon": 0.0,
                                "dry_run": True}))
    loaded = RunConfig.from_json(path)
    assert loaded.benchmark == "fcm_disk"
    assert loaded.depth == 6

    merged = loaded.merged({"res": 32, "depth": None})
    assert merged.res == 32
    assert merged.depth == 6  # None means "not overridden"


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"benchmark": "lshape", "polynomial": 3})


@pytest.mark.parametrize("bad", [
    {"benchmark": "cube"},
    {"partitioner": "metis"},
    {"partitioner": "graph"},
    {"dof_dist": "roundrobin"},
    {"marking": "zz"},
    {"res": 0},
    {"steps": -1},
    {"p": 0},
    {"p_graded": {0: 0}},
    {"ranks": 0},
    {"epsilon": -1.0},
    {"depth": -2},
    {"tol": 0.0},
    {"workers": 0},
    {"probe": 1},
    {"benchmark": "custom"},
    {"benchmark": "fcm_disk", "epsilon": 0.0},
])
def test_config_validation_errors(bad):
    with pytest.raises(ValueError):
        RunConfig.from_dict(bad).validate()


def test_order_field_and_marking_defaults():
    cfg = RunConfig(p=5).validate()
    assert cfg.order_field().level_order(3) == 5
    assert cfg.effective_marking() == "corner"

    graded = RunConfig(p_graded={"0": 8, "1": 6})
    field = graded.order_field()
    assert field.level_order(0) == 8
    assert field.level_order(1) == 6
    assert field.level_order(4) == 6

    assert RunConfig(benchmark="fcm_disk").effective_marking() == "interface"
    assert RunConfig(benchmark="lshape", marking="random").effective_marking() == "random"


# -------------------------------------------------------------- problems


def test_lshape_problem():
    prob = make_problem(RunConfig(benchmark="lshape", res=4))
    assert prob.singular_point == (0.0, 0.0)
    assert prob.flux is not None and prob.exact is not None
    assert prob.source is None
    # the energy error, measured where an exact field exists, takes no domain
    assert prob.domain is None
    mesh = create_base_mesh(prob.mesh_spec)
    assert len(mesh.active_leaf_elements()) == 3 * 16
    assert prob.dirichlet_part(np.array([0.5, 0.0]))
    assert not prob.dirichlet_part(np.array([-0.5, 0.0]))
    # the flux side selector excludes the clamped legs
    assert not prob.flux_part(np.array([0.5, 0.0]))
    assert prob.flux_part(np.array([-0.5, 1.0]))


def test_fcm_disk_problem():
    prob = make_problem(RunConfig(benchmark="fcm_disk", res=4, epsilon=1e-6, depth=3))
    assert prob.domain is not None
    assert prob.domain.epsilon == 1e-6
    assert prob.depth == 3
    assert prob.exact is None
    inside = prob.domain.contains(np.array([[0.5, 0.5], [0.99, 0.99]]))
    assert list(inside) == [True, False]


def test_custom_problem_with_geometry_and_boxes():
    cfg = RunConfig.from_dict({
        "benchmark": "custom",
        "patches": [
            {"bounds": [[0.0, 1.0], [0.0, 1.0]], "resolution": [2, 2]},
            {"bounds": [[1.0, 2.0], [0.0, 1.0]], "resolution": [2, 2]},
        ],
        "geometry": {"primitive": "disk", "center": [1.0, 0.5], "radius": 0.45},
        "dirichlet_boxes": [[[0.0, 0.0], [0.0, 1.0]]],
        "epsilon": 1e-5,
    })
    prob = make_problem(cfg)
    mesh = create_base_mesh(prob.mesh_spec)
    assert len(mesh.active_leaf_elements()) == 8
    assert prob.domain is not None
    assert prob.exact is None
    assert prob.dirichlet_part(np.array([0.0, 0.6]))
    assert not prob.dirichlet_part(np.array([2.0, 0.6]))


def test_custom_problem_default_dirichlet_is_bounding_box():
    cfg = RunConfig.from_dict({
        "benchmark": "custom",
        "patches": [{"bounds": [[0.0, 2.0], [0.0, 1.0]], "resolution": [4, 2]}],
    })
    prob = make_problem(cfg)
    assert prob.dirichlet_part(np.array([0.0, 0.5]))
    assert prob.dirichlet_part(np.array([1.3, 1.0]))
    assert not prob.dirichlet_part(np.array([1.3, 0.5]))


# --------------------------------------------------------------- marking


def test_corner_marking_is_the_touching_set():
    mesh = Mesh(lshape_mesh_spec(2))
    marks = mark_corner_leaves(mesh, (0.0, 0.0))
    assert len(marks) == 3
    for lid in marks:
        assert np.all(mesh.elements.lo_f[lid] <= 0.0)
        assert np.all(mesh.elements.hi_f[lid] >= 0.0)


def test_ball_marking_uses_box_distance():
    mesh = Mesh(lshape_mesh_spec(2))
    assert len(mark_ball_leaves(mesh, (0.0, 0.0), 1.0)) == 12
    # half the radius leaves out the three leaves diagonal to the corner
    assert len(mark_ball_leaves(mesh, (0.0, 0.0), 0.5)) == 9


def test_interface_marking_quarter_circle():
    mesh = single_patch(4)
    domain = EmbeddedDomain(Disk((0.0, 0.0), 1.0), epsilon=1e-8)
    marks = mark_interface_leaves(mesh, domain)
    # the arc crosses exactly seven of the sixteen cells
    assert len(marks) == 7
    for lid in marks:
        corners = np.array([mesh.elements.lo_f[lid], mesh.elements.hi_f[lid]])
        r2 = (corners**2).sum(axis=1)
        assert r2.min() < 1.0 < r2.max()


# The per-leaf loops the array marking rules replaced, kept as oracles.

def corner_marks_oracle(mesh, point):
    pt = np.asarray(point, dtype=float)
    out = []
    for leaf in mesh.active_leaf_elements().tolist():
        lo = mesh.elements.lo_f[leaf]
        hi = mesh.elements.hi_f[leaf]
        if np.all(lo <= pt) and np.all(pt <= hi):
            out.append(leaf)
    return out


def ball_marks_oracle(mesh, center, radius):
    c = np.asarray(center, dtype=float)
    out = []
    for leaf in mesh.active_leaf_elements().tolist():
        lo = mesh.elements.lo_f[leaf]
        hi = mesh.elements.hi_f[leaf]
        gap = np.maximum(np.maximum(lo - c, c - hi), 0.0)
        if float(np.sqrt(np.sum(gap * gap))) <= radius:
            out.append(leaf)
    return out


def interface_marks_oracle(mesh, domain):
    out = []
    for leaf in mesh.active_leaf_elements().tolist():
        lo = mesh.elements.lo_f[leaf]
        hi = mesh.elements.hi_f[leaf]
        xs = np.linspace(lo[0], hi[0], 3)
        ys = np.linspace(lo[1], hi[1], 3)
        stencil = np.column_stack((np.repeat(xs, 3), np.tile(ys, 3)))
        inside = domain.contains(stencil)
        if inside.any() and not inside.all():
            out.append(leaf)
    return out


@pytest.mark.parametrize("res", [3, 16])
def test_corner_marking_matches_per_leaf_oracle(res):
    mesh = Mesh(lshape_mesh_spec(res))
    for _ in range(4):
        marks = mark_corner_leaves(mesh, (0.0, 0.0))
        assert marks == corner_marks_oracle(mesh, (0.0, 0.0))
        mesh.refine(marks)


@pytest.mark.parametrize("res", [3, 16])
def test_ball_marking_matches_per_leaf_oracle(res):
    mesh = Mesh(lshape_mesh_spec(res))
    for step in range(1, 5):
        radius = 2.0 ** (1 - step)
        marks = mark_ball_leaves(mesh, (0.0, 0.0), radius)
        assert marks == ball_marks_oracle(mesh, (0.0, 0.0), radius)
        mesh.refine(marks)


@pytest.mark.parametrize("res", [8, 16])
def test_interface_marking_matches_per_leaf_oracle(res):
    problem = make_problem(RunConfig(benchmark="fcm_disk", res=res))
    mesh = Mesh(problem.mesh_spec)
    for _ in range(3):
        marks = mark_interface_leaves(mesh, problem.domain)
        assert marks
        assert marks == interface_marks_oracle(mesh, problem.domain)
        mesh.refine(marks)


def test_random_marking_is_seeded():
    mesh = single_patch(4)
    a = mark_random_leaves(mesh, np.random.default_rng(5))
    b = mark_random_leaves(mesh, np.random.default_rng(5))
    assert a == b
    assert len(a) == 2  # 10 percent of 16, floor at one, rounded
    ids = set(mesh.active_leaf_elements().tolist())
    assert set(a) <= ids


def test_marks_for_step_rules():
    cfg = RunConfig(benchmark="lshape", res=2)
    prob = make_problem(cfg)
    mesh = create_base_mesh(prob.mesh_spec)
    rng = np.random.default_rng(0)
    assert marks_for_step(prob, "corner", mesh, 0, rng) is None
    assert marks_for_step(prob, "none", mesh, 3, rng) is None
    assert len(marks_for_step(prob, "corner", mesh, 1, rng)) == 3
    assert len(marks_for_step(prob, "ball", mesh, 1, rng)) == 12
    with pytest.raises(ValueError):
        marks_for_step(prob, "spiral", mesh, 1, rng)

    custom = make_problem(RunConfig.from_dict({
        "benchmark": "custom",
        "patches": [{"bounds": [[0.0, 1.0], [0.0, 1.0]], "resolution": [2, 2]}],
    }))
    with pytest.raises(ValueError):
        marks_for_step(custom, "corner", mesh, 1, rng)
    with pytest.raises(ValueError):
        marks_for_step(custom, "interface", mesh, 1, rng)


# ---------------------------------------------------------------- driver


def test_dry_run_counts_lshape():
    cfg = RunConfig(benchmark="lshape", res=2, steps=2, dry_run=True)
    steps, final = run_benchmark(cfg)
    assert final is None
    assert [s["leaves"] for s in steps] == [12, 21, 30]
    assert [s["step"] for s in steps] == [0, 1, 2]
    assert all(s["dry_run"] for s in steps)


def test_lshape_study_converges():
    cfg = RunConfig(benchmark="lshape", res=2, steps=2, p=2, ranks=2, tol=1e-10)
    steps, final = run_benchmark(cfg)
    errs = [s["error"] for s in steps]
    assert all(e is not None for e in errs)
    assert errs[2] < errs[1] < errs[0]
    assert final is not None
    assert final["error"] == errs[-1]
    assert all(s["timings"]["error"] >= 0 for s in steps)
    assert len(final["ranks"]) == steps[-1]["leaves"]
    assert len(final["weights"]) == steps[-1]["leaves"]


def test_fcm_disk_study_reports_area():
    cfg = RunConfig(benchmark="fcm_disk", res=4, steps=1, p=2, ranks=2,
                    epsilon=1e-6, depth=3)
    steps, final = run_benchmark(cfg)
    for s in steps:
        assert s["alpha_area"] == pytest.approx(math.pi / 4, abs=5e-3)
        assert s["error"] == pytest.approx(abs(s["alpha_area"] - math.pi / 4))
        assert s["timings"]["error"] >= 0
    assert steps[1]["leaves"] > steps[0]["leaves"]


def test_study_computes_area_weights_and_partition_once_per_step(monkeypatch):
    import overlayfem.distributed
    import overlayfem.partition
    import overlayfem.quadrature
    modules = (overlayfem.benchmarks, overlayfem.distributed,
               overlayfem.partition, overlayfem.quadrature)
    calls = {"indicator_area": 0, "compute_leaf_weights": 0}
    batches = []
    partition_inside_step = []
    in_step = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name == "partition_leaves":
                partition_inside_step.append(bool(in_step))
            elif name == "build_leaf_rules":
                batches.append([int(leaf) for leaf in args[1]])
            elif name == "run_step":
                in_step.append(1)
                try:
                    return fn(*args, **kwargs)
                finally:
                    in_step.pop()
            else:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in (*calls, "build_leaf_rules", "partition_leaves", "run_step"):
        for mod in modules:
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counted(name, vars(mod)[name]))

    cfg = RunConfig(benchmark="fcm_disk", res=4, steps=1, p=2, ranks=2,
                    epsilon=1e-6, depth=3)
    steps, final = run_benchmark(cfg)
    assert len(steps) == 2
    # weights, integration and area share one batched spacetree build per
    # step, and it covers every active leaf of the step exactly once
    assert [len(ids) for ids in batches] == [s["leaves"] for s in steps]
    assert all(len(set(ids)) == len(ids) for ids in batches)
    assert sorted(batches[-1]) == sorted(
        final["basis"].mesh.active_leaf_elements().tolist())
    assert calls == {"indicator_area": 2, "compute_leaf_weights": 2}
    assert partition_inside_step == [True, True]
    assert len(final["ranks"]) == len(final["weights"]) == steps[-1]["leaves"]


def test_step_error_kinds():
    lcfg = RunConfig(benchmark="lshape", res=2, steps=0, p=1, ranks=1)
    _, lfinal = run_benchmark(lcfg)
    assert lfinal["error"] > 0.1  # coarse p=1 mesh is far from the field

    ccfg = RunConfig.from_dict({
        "benchmark": "custom", "steps": 0, "ranks": 1,
        "patches": [{"bounds": [[0.0, 1.0], [0.0, 1.0]], "resolution": [2, 2]}],
    })
    csteps, cfinal = run_benchmark(ccfg)
    assert csteps[0]["error"] is None
    prob = cfinal["problem"]
    err = step_error(prob, cfinal["basis"], cfinal["solution"])
    assert math.isnan(err)

    # under an embedded geometry there is no exact field either
    gcfg = RunConfig.from_dict({
        "benchmark": "custom", "steps": 0, "ranks": 1, "epsilon": 1e-6,
        "patches": [{"bounds": [[0.0, 1.0], [0.0, 1.0]], "resolution": [2, 2]}],
        "geometry": {"primitive": "disk", "center": [0.5, 0.5], "radius": 0.4},
    })
    gsteps, gfinal = run_benchmark(gcfg)
    assert gfinal["problem"].domain is not None
    assert gsteps[0]["error"] is None


# ---------------------------------------------------------------- writers


def test_artifact_writers(tmp_path):
    cfg = RunConfig(benchmark="lshape", res=2, steps=1, p=2, ranks=2, out=str(tmp_path))
    steps, final = run_benchmark(cfg)
    write_artifacts(str(tmp_path), cfg, steps, final)

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["config"]["res"] == 2
    assert len(report["steps"]) == 2
    assert report["peak_rss_mb"] is None or report["peak_rss_mb"] > 0
    env = report["env"]
    assert env["numpy"] == np.__version__
    assert env["workers"] == cfg.workers
    assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS"}
    assert env["cpu_count"] is None or env["cpu_count"] >= 1
    assert env["python"] and env["scipy"]

    conv = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert conv[0] == "step,dofs,energy_error"
    assert len(conv) == 3
    float(conv[1].split(",")[2])  # parses back

    part = (tmp_path / "partition.csv").read_text().strip().splitlines()
    assert part[0] == "leaf_id,rank,weight"
    assert len(part) == 1 + steps[-1]["leaves"]
    ranks_seen = {int(line.split(",")[1]) for line in part[1:]}
    assert ranks_seen <= {0, 1}

    sol = (tmp_path / "solution.csv").read_text().strip().splitlines()
    assert sol[0] == "x,y,u"
    # probe grid covers the bounding box; the notch points are skipped
    assert 1 < len(sol) - 1 <= cfg.probe**2
    # grouped per leaf, each probe still reads the field at its own point
    xyu = np.array([[float(v) for v in line.split(",")] for line in sol[1:]])
    field = FieldApproximation(final["basis"], final["solution"])
    np.testing.assert_allclose(xyu[:, 2], field.value(xyu[:, :2]),
                               rtol=1e-13, atol=1e-15)

    assert (tmp_path / "mesh.xml").exists()


def test_report_env_records_thread_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = RunConfig(benchmark="lshape", res=2, steps=0, workers=2)
    write_report_json(tmp_path / "report.json", cfg, [])
    env = json.loads((tmp_path / "report.json").read_text())["env"]
    assert env["threads"]["OMP_NUM_THREADS"] == "3"
    assert env["threads"]["MKL_NUM_THREADS"] is None
    assert env["workers"] == 2


def test_dry_run_writes_only_report(tmp_path):
    cfg = RunConfig(benchmark="lshape", res=2, steps=1, dry_run=True)
    steps, final = run_benchmark(cfg)
    write_artifacts(str(tmp_path), cfg, steps, final)
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / "convergence.csv").exists()
    assert not (tmp_path / "partition.csv").exists()
