import importlib.metadata
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import dctc
from dctc import maxent
from dctc.cli import _mat_lines, run


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_demo_u1_cycle(tmp_path, capsys):
    assert run(["demo", "u1-cycle", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "period-3 cycle" in out
    assert "orbit average" in out
    csv = _read_bytes(tmp_path / "demo_u1_cycle.csv").decode()
    assert len(csv.splitlines()) == 1 + 4  # three cycle states plus average
    doc = _read_json(tmp_path / "demo_u1_cycle.json")
    assert doc["period"] == 3
    assert os.path.exists(tmp_path / "demo_u1_cycle_manifest.json")


def test_demo_u2_bistable(tmp_path, capsys):
    assert run(["demo", "u2-bistable", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1.500000" in out
    assert "1.584963" in out
    assert "depends on the initial state" in out


def test_demo_kraus_refutation(tmp_path, capsys):
    assert run(["demo", "kraus-refutation", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0.353553" in out
    assert "commuting Kraus operators would give 0" in out


def test_demo_unknown_name(tmp_path, capsys):
    assert run(["demo", "u9-nope", "--out-dir", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_no_command(capsys):
    assert run([]) == 1
    assert "command is required" in capsys.readouterr().err


def test_sweep_tiny_and_deterministic(tmp_path, capsys):
    args = ["sweep", "--s-values", "0,1", "--n-random", "2",
            "--max-iter", "600", "--seed", "7"]
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    assert run(args + ["--out-dir", str(d1)]) == 0
    assert "sweep: 8 rows" in capsys.readouterr().out
    assert run(args + ["--out-dir", str(d2), "--jobs", "4"]) == 0
    assert _read_bytes(d1 / "sweep.csv") == _read_bytes(d2 / "sweep.csv")
    man = _read_json(d1 / "sweep_manifest.json")
    assert man["row_count"] == 8
    assert man["config"]["n_random"] == 2


def test_sweep_rejects_wrong_system(capsys):
    assert run(["sweep", "--system", "u3"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_surface_revised(tmp_path, capsys):
    assert run(["surface", "--grid-step", "0.5",
                "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "max adjacent jump" in out
    csv = _read_bytes(tmp_path / "surface.csv").decode()
    assert len(csv.splitlines()) == 1 + 9
    man = _read_json(tmp_path / "surface_manifest.json")
    assert man["info"]["max_jump"] >= 0.0
    assert man["info"]["cr_swap_symmetric"] is False


def test_surface_deutsch(tmp_path, capsys):
    assert run(["surface", "--rule", "deutsch", "--family", "mixed",
                "--grid-step", "1.0", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "surface [deutsch, mixed]" in out
    csv = _read_bytes(tmp_path / "surface.csv").decode().splitlines()
    assert len(csv) == 1 + 4
    assert all(line.split(",")[8] == "max-entropy" for line in csv[1:])


def test_surface_deutsch_failed_cell_exits_2(tmp_path, capsys, fail_solve):
    """One cell's failed maximum-entropy solve is a numerical failure that
    names the cell; no surface CSV is written."""
    fail_solve(2)  # row-major: cell (1, 0) of the 2 x 2 grid
    assert run(["surface", "--rule", "deutsch", "--grid-step", "1.0",
                "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "(eps_a, eps_b) = (1.0, 0.0)" in err
    assert "injected solver failure" in err
    assert not os.path.exists(tmp_path / "surface.csv")


def test_surface_deutsch_unconverged_cell_exits_2(tmp_path, capsys, monkeypatch):
    """A maximum-entropy ascent that stops unconverged is a numerical
    failure naming its cell."""
    monkeypatch.setattr(maxent, "GRAD_TOL", 0.0)
    monkeypatch.setattr(maxent, "MAX_ASCENT_ITER", 1)
    assert run(["surface", "--rule", "deutsch", "--grid-step", "1.0",
                "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "(eps_a, eps_b) = (0.0, 0.0): ascent stopped unconverged" in err
    assert not os.path.exists(tmp_path / "surface.csv")


def test_surface_has_no_system_flag(capsys):
    assert run(["surface", "--system", "u3"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_surface_has_no_jobs_flag(capsys):
    """A surface grid runs as one stack, so there are no cells to thread."""
    assert run(["surface", "--jobs", "2"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_surface_revised_failed_cell_exits_2(tmp_path, capsys, bad_loop_map):
    """A closed-form cell that fails its density check is a numerical
    failure that names the cell; no surface CSV is written."""
    bad_loop_map(2)  # row-major: cell (1, 0) of the 2 x 2 grid
    assert run(["surface", "--grid-step", "1.0", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "(eps_a, eps_b) = (1.0, 0.0)" in err
    assert not os.path.exists(tmp_path / "surface.csv")


@pytest.mark.parametrize("flag", ["--s-values=", "--p-values=", "--p-values=0,0"])
def test_sweep_rejects_empty_or_repeated_values(tmp_path, capsys, flag):
    """Empty lists once wrote a header-only CSV, and a repeated p wrote
    every (task, p) row twice; both are input errors now."""
    assert run(["sweep", flag, "--n-random", "1", "--out-dir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "sweep.csv")


def test_every_manifest_has_one_schema(tmp_path):
    """All six subcommands write their manifest through one writer."""
    commands = {
        "demo": ["demo", "u2-bistable"],
        "sweep": ["sweep", "--s-values", "0", "--n-random", "1", "--max-iter", "50"],
        "surface": ["surface", "--grid-step", "1.0"],
        "maxent": ["maxent"],
        "fixedpoints": ["fixedpoints"],
        "kraus": ["kraus"],
    }
    schemas = {}
    for name, argv in commands.items():
        out = tmp_path / name
        assert run(argv + ["--out-dir", str(out)]) == 0, name
        (manifest,) = out.glob("*_manifest.json")
        doc = _read_json(manifest)
        schemas[name] = sorted(doc)
        csvs = list(out.glob("*.csv"))
        rows = len(_read_bytes(csvs[0]).splitlines()) - 1 if csvs else 0
        assert doc["row_count"] == rows, name
    assert all(keys == schemas["sweep"] for keys in schemas.values()), schemas
    assert schemas["sweep"] == ["config", "experiment", "info", "row_count",
                                "version", "wall_time_s"]


def test_surface_invalid_step(capsys):
    assert run(["surface", "--grid-step", "0"]) == 1
    assert "grid step" in capsys.readouterr().err


def test_maxent(tmp_path, capsys):
    assert run(["maxent", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entropy: 1.584963 bits" in out
    doc = _read_json(tmp_path / "maxent.json")
    assert abs(doc["entropy_bits"] - np.log2(3)) < 1e-4
    assert doc["converged"] is True
    state = np.array(doc["state"]["real"])
    assert np.abs(state - np.diag([1 / 3, 0, 1 / 3, 1 / 3])).max() < 1e-4


def test_fixedpoints(tmp_path, capsys):
    assert run(["fixedpoints", "--system", "u2",
                "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "dimension 3" in out
    assert "diag(a, 0, b, b)" in out
    doc = _read_json(tmp_path / "fixedpoints.json")
    assert doc["dimension"] == 3
    assert len(doc["basis"]) == 3


def test_kraus_success_and_failure(tmp_path, capsys):
    assert run(["kraus", "--system", "u2", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "4 Kraus operators" in out
    assert "0.353553" in out
    doc = _read_json(tmp_path / "kraus.json")
    assert doc["operator_count"] == 4
    assert doc["channel_distance_to_reference"] < 1e-6

    # the cycling circuit has no iterated-map limit: numerical failure
    assert run(["kraus", "--system", "u1", "--out-dir", str(tmp_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_config_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("# desk-size sweep\n"
                   "s-values = 0,1\n"
                   "n_random = 2\n"
                   "max-iter = 500\n",
                   encoding="utf-8")
    out = tmp_path / "run"
    assert run(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert len(_read_bytes(out / "sweep.csv").decode().splitlines()) == 1 + 8

    # explicit flags beat the file
    out2 = tmp_path / "run2"
    assert run(["sweep", "--config", str(cfg), "--n-random", "1",
                "--out-dir", str(out2)]) == 0
    assert len(_read_bytes(out2 / "sweep.csv").decode().splitlines()) == 1 + 4


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n", encoding="utf-8")
    assert run(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "unknown key" in err
    assert "bad.cfg:1" in err


def test_config_file_not_utf8(tmp_path, capsys):
    """A config file that does not decode is a usage error, not a traceback."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = 1\n\xff bad\n")
    assert run(["sweep", "--config", str(cfg)]) == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_printed_matrices_have_no_negative_zero():
    """A rounding-level negative entry prints as ``0.``, in a real matrix
    and in the real part of a complex one."""
    for m in (np.array([[1.0, -1e-17], [2e-18, 1.0]]),
              np.array([[1.0, -1e-17 + 0.5j], [-1e-17 - 0.5j, 1.0]])):
        assert re.search(r"-0\.(?![0-9])", _mat_lines(m)) is None, _mat_lines(m)


def test_out_dir_environment_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("DCTC_OUT_DIR", str(tmp_path))
    assert run(["maxent"]) == 0
    assert os.path.exists(tmp_path / "maxent.json")


def test_cold_import_leaves_the_thread_pool_out():
    """A cold ``dctc`` process does not import ``concurrent.futures``; only
    a sweep with ``--jobs`` above 1 does."""
    pkg_root = os.path.dirname(os.path.dirname(dctc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dctc.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["dctc"]
    ep = importlib.metadata.EntryPoint(name="dctc", value=value,
                                       group="console_scripts")
    assert callable(ep.load())

    # What an installer-generated ``dctc`` wrapper runs, in a fresh process
    # that finds the package only through PYTHONPATH.
    pkg_root = os.path.dirname(os.path.dirname(dctc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    body = (f"import sys; from {ep.module} import {ep.attr}; "
            f"sys.exit({ep.attr}())")

    def console(*args, exe=None):
        cmd = [exe] if exe else [sys.executable, "-c", body]
        return subprocess.run(cmd + list(args) + ["--out-dir", str(tmp_path)],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)

    proc = console("demo", "kraus-refutation")
    assert proc.returncode == 0, proc.stderr
    assert "0.353553" in proc.stdout

    # the process exit code is run()'s return value, not a default 0
    bad = console("demo", "u9-nope")
    assert bad.returncode == 1
    assert "error" in bad.stderr

    exe = shutil.which("dctc")
    if exe:
        installed = console("demo", "kraus-refutation", exe=exe)
        assert installed.returncode == proc.returncode, installed.stderr
        assert installed.stdout == proc.stdout
