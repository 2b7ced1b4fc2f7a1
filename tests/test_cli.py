import json
import os
import shutil
import subprocess

import numpy as np

from dctc.cli import run


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
    assert "0 NaN cells" in out
    man = _read_json(tmp_path / "surface_manifest.json")
    assert man["info"]["nan_cells"] == 0


def test_surface_invalid_step(capsys):
    assert run(["surface", "--grid-step", "0"]) == 1
    assert "grid step" in capsys.readouterr().err


def test_maxent(tmp_path, capsys):
    assert run(["maxent", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entropy: 1.584963 bits" in out
    doc = _read_json(tmp_path / "maxent.json")
    assert abs(doc["entropy_bits"] - np.log2(3)) < 1e-4
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


def test_out_dir_environment_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("DCTC_OUT_DIR", str(tmp_path))
    assert run(["maxent"]) == 0
    assert os.path.exists(tmp_path / "maxent.json")


def test_console_script(tmp_path):
    exe = shutil.which("dctc")
    assert exe, "console script should be installed"
    proc = subprocess.run([exe, "demo", "kraus-refutation",
                           "--out-dir", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0.353553" in proc.stdout
