"""The `overlayfem-bench` command: flags, artifacts, exit codes."""

import ast
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import overlayfem
import overlayfem.distributed
from overlayfem.cli import main, _parse_graded, _parse_int_list
from overlayfem.distributed import SolverError


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------- flag parsing


def test_parse_graded():
    assert _parse_graded("l0:8,l1:6") == {0: 8, 1: 6}
    assert _parse_graded(" L0:4 ") == {0: 4}
    for bad in ("p0:8", "l:8", "08", ""):
        with pytest.raises(Exception):
            _parse_graded(bad)


def test_parse_int_list():
    assert _parse_int_list("1,2,4") == [1, 2, 4]
    assert _parse_int_list("8") == [8]
    with pytest.raises(Exception):
        _parse_int_list("1,two")


# ------------------------------------------------------------------- run


def test_dry_run_writes_report(tmp_path, capsys):
    code = run_cli("run", "lshape", "--res", "2", "--steps", "2",
                   "--dry-run", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "30 leaves" in out

    report = json.loads((tmp_path / "report.json").read_text())
    assert [s["leaves"] for s in report["steps"]] == [12, 21, 30]
    assert report["status"] == "ok"
    assert report["config"]["dry_run"] is True
    assert not (tmp_path / "convergence.csv").exists()


def test_run_writes_all_artifacts_reproducibly(tmp_path):
    argv = ("run", "lshape", "--res", "2", "--steps", "1", "--p", "2",
            "--ranks", "2", "--out", str(tmp_path))
    assert run_cli(*argv) == 0
    for name in ("report.json", "convergence.csv", "partition.csv",
                 "mesh.xml", "solution.csv"):
        assert (tmp_path / name).exists(), name

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["p"] == 2
    assert report["config"]["ranks"] == 2
    assert len(report["steps"]) == 2
    step = report["steps"][-1]
    assert step["cg_iterations"] > 0
    assert len(step["per_rank"]) == 2
    total = sum(v for v in step["timings"].values())
    assert total > 0

    first = {name: (tmp_path / name).read_bytes()
             for name in ("convergence.csv", "partition.csv")}
    assert run_cli(*argv) == 0
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob, f"{name} not reproducible"


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({
        "benchmark": "fcm_disk", "res": 4, "steps": 1, "p": 3,
        "epsilon": 1e-6, "depth": 2, "ranks": 2,
    }))
    out = tmp_path / "out"
    code = run_cli("run", "lshape", "--config", str(cfg),
                   "--res", "2", "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    # positional benchmark and --res override the file; p survives
    assert report["config"]["benchmark"] == "lshape"
    assert report["config"]["res"] == 2
    assert report["config"]["p"] == 3


def test_explicit_uniform_order_clears_graded_map(tmp_path):
    cfg = tmp_path / "graded.json"
    cfg.write_text(json.dumps({
        "benchmark": "lshape", "res": 2, "steps": 1,
        "p_graded": {"0": 3, "1": 2},
    }))
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--p", "2",
                   "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["p_graded"] is None
    assert report["config"]["p"] == 2


def test_graded_flag_reaches_report(tmp_path):
    assert run_cli("run", "lshape", "--res", "2", "--steps", "1",
                   "--p-graded", "l0:3,l1:2", "--ranks", "2",
                   "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["p_graded"] == {"0": 3, "1": 2}


def test_validation_failure_exits_2(tmp_path, capsys):
    assert run_cli("run", "lshape", "--res", "0", "--out", str(tmp_path)) == 2
    assert "error" in capsys.readouterr().err


def test_removed_graph_partitioner_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "lshape", "--res", "2", "--partitioner", "graph",
                "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "invalid choice: 'graph'" in capsys.readouterr().err


def test_removed_dof_dist_flag_exits_2(tmp_path, capsys):
    # every run owns its dofs by majority: the flag that chose the owner
    # is gone, not ignored
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "lshape", "--res", "2", "--dof-dist", "graph",
                "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "unrecognized arguments: --dof-dist graph" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert run_cli("run", "--config", str(tmp_path / "nope.json")) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"benchmark": "lshape", "polynomial_order": 3}))
    assert run_cli("run", "--config", str(cfg)) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_one_axis_custom_patch_exits_2(tmp_path, capsys):
    cfg = tmp_path / "strip.json"
    cfg.write_text(json.dumps({
        "benchmark": "custom",
        "patches": [{"bounds": [[0.0, 1.0]], "resolution": [4]}],
    }))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"patches": [{"bounds": [0.0, 1.0], "resolution": [4, 4]}]},
    {"patches": [{"bounds": [[0.0, 1.0], [0.0, 1.0]]}]},
    {"dirichlet_boxes": [[0.0, 0.0]]},
    {"geometry": {"primitive": "disk", "center": [0, 0]}},
    {"res": "4"},
    {"steps": 1.5},
    {"epsilon": "1e-8"},
    {"dry_run": "no"},
    {"workers": True},
    {"p_graded": [4, 3]},
    {"dirichlet_boxes": 5},
    {"p_graded": {"0": 2.5}},
], ids=["flat-bounds", "no-resolution", "flat-box", "disk-no-radius",
        "res-string", "steps-float", "epsilon-string", "dry-run-string",
        "workers-bool", "graded-list", "boxes-number", "graded-float"])
def test_malformed_custom_config_exits_2(tmp_path, capsys, bad):
    config = {
        "benchmark": "custom", "steps": 0,
        "patches": [{"bounds": [[0.0, 1.0], [0.0, 1.0]], "resolution": [2, 2]}],
    }
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**config, **bad}))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"dirichlet_boxes": 5, "geometry": {"primitive": "triangle"},
     "patches": 7},
    {"patches": 7},
    {"geometry": {"primitive": "triangle"}},
    {"dirichlet_boxes": 5},
], ids=["all-three", "patches-number", "unknown-primitive", "boxes-number"])
@pytest.mark.parametrize("name", ["lshape", "fcm_disk"])
def test_malformed_unused_keys_exit_2(tmp_path, capsys, name, bad):
    # the keys only the custom benchmark reads are checked whenever set
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"benchmark": name, "dry_run": True,
                               "res": 2, "steps": 0, **bad}))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 2
    assert "error:" in capsys.readouterr().err


def test_well_formed_unused_keys_are_accepted(tmp_path):
    cfg = tmp_path / "extra.json"
    cfg.write_text(json.dumps({
        "benchmark": "lshape", "dry_run": True, "res": 2, "steps": 0,
        "patches": [{"bounds": [[0.0, 1.0], [0.0, 1.0]], "resolution": [2, 2]}],
        "geometry": {"primitive": "disk", "center": [0, 0], "radius": 0.5},
        "dirichlet_boxes": [[[0.0, 0.0], [1.0, 0.0]]],
    }))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == 0


def test_solver_failure_still_writes_report(tmp_path, monkeypatch, capsys):
    solve = overlayfem.distributed.parallel_cg
    calls = []

    def stalled(system, rhs=None, tol=1e-10, max_iter=None):
        calls.append(1)
        if len(calls) == 1:  # step 0 solves, step 1 stalls
            return solve(system, rhs, tol, max_iter)
        raise SolverError("iteration limit reached", [1.0, 0.9, 0.5])

    monkeypatch.setattr(overlayfem.distributed, "parallel_cg", stalled)
    code = run_cli("run", "lshape", "--res", "2", "--steps", "1",
                   "--out", str(tmp_path))
    assert code == 2
    assert "error" in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == {"reason": "max_iter", "step": 1,
                                "iterations": 2, "last_residual": 0.5}
    assert [s["step"] for s in report["steps"]] == [0]
    assert report["steps"][0]["cg_iterations"] > 0


def test_iteration_limit_writes_structured_status(tmp_path, monkeypatch):
    # the real solver, held to 3 iterations from step 1 on
    solve = overlayfem.distributed.parallel_cg
    calls = []

    def limited(system, rhs=None, tol=1e-10, max_iter=None):
        calls.append(1)
        return solve(system, rhs, tol, max_iter if len(calls) == 1 else 3)

    monkeypatch.setattr(overlayfem.distributed, "parallel_cg", limited)
    code = run_cli("run", "lshape", "--res", "2", "--steps", "2",
                   "--out", str(tmp_path))
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    status = report["status"]
    assert set(status) == {"reason", "step", "iterations", "last_residual"}
    assert status["reason"] == "max_iter"
    assert status["step"] == 1
    assert status["iterations"] == 3
    assert isinstance(status["last_residual"], float)
    assert status["last_residual"] > 0.0
    assert [s["step"] for s in report["steps"]] == [0]


# ------------------------------------------------------------------ export


def test_export_rebuilds_artifacts(tmp_path):
    assert run_cli("run", "lshape", "--res", "2", "--steps", "1", "--p", "2",
                   "--ranks", "2", "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    leaves = report["steps"][-1]["leaves"]

    (tmp_path / "mesh.xml").unlink()
    (tmp_path / "solution.csv").unlink()
    (tmp_path / "partition.csv").unlink()
    assert run_cli("export", "--out", str(tmp_path)) == 0

    import xml.etree.ElementTree as ET
    grid = ET.parse(tmp_path / "mesh.xml").getroot()
    assert int(grid.get("cells")) == leaves
    part = (tmp_path / "partition.csv").read_text().strip().splitlines()
    assert len(part) == 1 + leaves
    ranks = {int(line.split(",")[1]) for line in part[1:]}
    assert ranks <= {0, 1}
    assert (tmp_path / "solution.csv").exists()


def test_export_without_run_exits_2(tmp_path, capsys):
    assert run_cli("export", "--out", str(tmp_path / "empty")) == 2
    assert "no prior run" in capsys.readouterr().err


def test_export_rejects_run_flags(tmp_path, capsys):
    # export re-runs the stored config: a run flag would be ignored
    with pytest.raises(SystemExit) as exc:
        run_cli("export", "--res", "64", "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "unrecognized arguments: --res 64" in capsys.readouterr().err


# ------------------------------------------------------------------- scale


def test_scale_writes_table(tmp_path, capsys):
    code = run_cli("scale", "lshape", "--res", "2", "--steps", "1", "--p", "2",
                   "--ranks", "1,2", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "scaling.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["ranks", "integrate", "solve", "total",
                      "integrate_speedup", "solve_speedup", "total_speedup",
                      "element_integrations", "sent_triplets", "comm_share",
                      "cg_iterations"]
    assert len(lines) == 3
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [r["ranks"] for r in rows] == ["1", "2"]
    # the same problem is integrated and solved at every rank count
    assert rows[0]["element_integrations"] == rows[1]["element_integrations"]
    assert rows[0]["cg_iterations"] == rows[1]["cg_iterations"]
    assert rows[0]["sent_triplets"] == "0"
    assert float(rows[1]["comm_share"]) > 0.0
    assert float(rows[0]["integrate_speedup"]) == 1.0


@pytest.mark.parametrize("ranks", ["0", "1,-1"])
def test_scale_rejects_nonpositive_ranks(tmp_path, capsys, ranks):
    # rejected before the mesh is built: no rank count runs at all
    code = run_cli("scale", "lshape", "--res", "2", "--p", "2", "--steps", "1",
                   "--ranks", ranks, "--out", str(tmp_path))
    assert code == 2
    out, err = capsys.readouterr()
    assert "error: ranks must be positive" in err
    assert "P=" not in out
    assert not (tmp_path / "scaling.csv").exists()


def test_scale_rejects_workers(tmp_path, capsys):
    # scale runs one worker process per rank
    with pytest.raises(SystemExit) as exc:
        run_cli("scale", "lshape", "--res", "2", "--ranks", "1,2",
                "--workers", "2", "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (tmp_path / "scaling.csv").exists()


def test_scale_rejects_config_workers(tmp_path, capsys):
    # nor does it take a worker count from a config file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"benchmark": "lshape", "res": 2,
                               "workers": 4}))
    code = run_cli("scale", "--config", str(cfg), "--ranks", "1,2",
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert "scale runs one worker per rank" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scale_solver_failure_exits_2(tmp_path, monkeypatch, capsys):
    def stalled(system, rhs=None, tol=1e-10, max_iter=None):
        raise SolverError("iteration limit reached", [1.0, 0.9])

    monkeypatch.setattr(overlayfem.distributed, "parallel_cg", stalled)
    code = run_cli("scale", "lshape", "--res", "2", "--steps", "0",
                   "--ranks", "1", "--out", str(tmp_path))
    assert code == 2
    assert "error: iteration limit" in capsys.readouterr().err


# ------------------------------------------------------------- packaging


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "overlayfem.cli", "run", "lshape", "--res", "2",
         "--steps", "0", "--dry-run", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "12 leaves" in proc.stdout


def test_cli_import_leaves_scipy_integrate_unloaded():
    # the exact energy norm uses a Gauss rule, so the command loads
    # neither scipy.integrate nor what it pulls in
    code = ("import sys, overlayfem.cli; print(' '.join(m for m in "
            "('scipy.integrate', 'scipy.special', 'scipy.optimize') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_run_leaves_scipy_linalg_unloaded(tmp_path):
    # only the tests' serial reference solve uses scipy.sparse.linalg:
    # neither the import nor a whole run loads it or scipy.linalg, while
    # the assembly's scipy.sparse is loaded with the command
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return [m for m in ('scipy.linalg', 'scipy.sparse.linalg',\n"
        "                        'scipy.sparse') if m in sys.modules]\n"
        "import overlayfem.cli\n"
        "print('loaded:', *loaded())\n"
        "code = overlayfem.cli.main(['run', 'lshape', '--res', '2', '--p',\n"
        "    '2', '--steps', '1', '--ranks', '2', '--out', sys.argv[1]])\n"
        "print('loaded:', *loaded())\n"
        "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = [line.split()[1:] for line in proc.stdout.splitlines()
              if line.startswith("loaded:")]
    assert loaded == [["scipy.sparse"], ["scipy.sparse"]]
    assert (tmp_path / "convergence.csv").exists()


# names the tests keep as oracles (conftest), by the class that held them
# when it was a method
REFERENCE_NAMES = {
    None: ("assemble_serial", "neumann_load", "solve_dirichlet",
           "FieldApproximation", "interpolate_nodal", "integrated_legendre",
           "integrated_legendre_deriv", "_one_mode",
           "distribute_dofs_contiguous"),
    "DirichletMap": ("reduce", "n_constrained"),
    "DofMap": ("index_of", "dof_entity"),
    "Basis": ("leaf_mode_count", "leaf_quad_order"),
}


def _imported(module):
    """Every module name an import statement of `module` names, deferred
    imports included; ``from a import b`` names both a and a.b."""
    names = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [node.module] + [f"{node.module}.{alias.name}"
                                      for alias in node.names]
    return names


def test_package_is_the_run_path():
    # the serial reference path, the 1d modes one at a time, the dof
    # map's inverse queries, the per-leaf Basis and Dirichlet queries and
    # the equal-count owner live in the tests
    modules = [overlayfem] + [
        importlib.import_module(f"overlayfem.{info.name}")
        for info in pkgutil.iter_modules(overlayfem.__path__)]
    assert {"overlayfem.basis", "overlayfem.physics",
            "overlayfem.distributed"} <= {m.__name__ for m in modules}
    for module in modules:
        for owner, names in REFERENCE_NAMES.items():
            holder = module if owner is None else getattr(module, owner, None)
            if holder is not None:
                assert [n for n in names if hasattr(holder, n)] == [], (
                    module.__name__, owner)
        assert not [name for name in _imported(module)
                    if name.startswith("scipy.sparse.linalg")], module
    physics = importlib.import_module("overlayfem.physics")
    assert not [name for name in _imported(physics)
                if name.split(".")[0] == "scipy"]
