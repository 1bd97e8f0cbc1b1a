import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import entfrac
from entfrac import cli
from entfrac.errors import IdentityCheckError
from entfrac.states import PHI1, save_density_json, werner
from entfrac.verify import IdentityResult

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def write_state(path, rho):
    save_density_json(rho, str(path))
    return str(path)


def bell_file(tmp_path):
    return write_state(tmp_path / "bell.json", np.outer(PHI1, PHI1.conj()))


def run_main(args):
    return cli.main(args)


def test_parse_defaults():
    cfg = cli.parse_config(["--command", "sample"])
    assert cfg.count == 1000 and cfg.seed == 0 and cfg.format == "csv"
    assert cfg.family == "raw" and cfg.workers == 1 and cfg.budget is None

    cfg = cli.parse_config(["--command", "verify", "--quick"])
    assert cfg.count == 10 and cfg.quick

    cfg = cli.parse_config(["--command", "fig2", "--out", "x.csv"])
    assert cfg.family == "fig2"

    cfg = cli.parse_config(["--command", "analyze", "--in", "a.json", "--budget", "3"])
    assert cfg.budget is not None and cfg.budget.starts == 16


def test_parse_rejections():
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["--command", "analyze"])  # missing --in
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["--command", "fig2"])  # missing --out
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["--command", "sample", "--count", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["--command", "frobnicate"])
    assert exc.value.code == 2


def test_analyze_bell(tmp_path, capsys):
    rc = run_main(["--command", "analyze", "--in", bell_file(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header.startswith("F,E,C,F_DC,")
    cells = row.split(",")
    assert cells[0] == "1" and cells[1] == "1" and cells[2] == "1"
    assert cells[9] == f"{2.0 * np.sqrt(2.0):.12g}"


def test_analyze_json_output(tmp_path, capsys):
    path = write_state(tmp_path / "mixed.json", np.eye(4) / 4.0)
    rc = run_main(["--command", "analyze", "--in", path, "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["F"] == pytest.approx(0.25, abs=1e-12)
    assert doc["E"] == 0.0
    assert doc["F_T_max"] == pytest.approx(0.5, abs=1e-12)


def test_analyze_werner_file(tmp_path, capsys):
    path = write_state(tmp_path / "w.json", werner(0.8))
    rc = run_main(["--command", "analyze", "--in", path, "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["E"] == pytest.approx(0.7, abs=1e-10)
    assert doc["C"] == pytest.approx(0.7, abs=1e-10)
    assert doc["B_canonical"] == pytest.approx(2.0 * np.sqrt(2.0) * 0.8, abs=1e-10)


def test_analyze_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    m = np.eye(4) / 4.0
    doc = {"dim": 4, "re": (2 * m.real).tolist(), "im": m.imag.tolist()}
    bad.write_text(json.dumps(doc))
    assert run_main(["--command", "analyze", "--in", str(bad)]) == 3
    assert "trace" in capsys.readouterr().err

    garbage = tmp_path / "g.json"
    garbage.write_text("{oops")
    assert run_main(["--command", "analyze", "--in", str(garbage)]) == 2
    assert run_main(["--command", "analyze", "--in", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_analyze_non_finite_entry_is_exit_3(tmp_path, capsys, bad):
    re = (np.eye(4) / 4.0).tolist()
    re[0][1] = bad
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps({"dim": 4, "re": re, "im": np.zeros((4, 4)).tolist()}))
    assert run_main(["--command", "analyze", "--in", str(path)]) == 3
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [10**400, {}], ids=["huge_int", "object"])
def test_analyze_entry_out_of_float_range_is_exit_2(tmp_path, capsys, entry):
    # a 400-digit integer overflows the float conversion; an object is no number
    re = (np.eye(4) / 4).tolist()
    re[0][1] = re[1][0] = entry
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 4, "re": re, "im": np.zeros((4, 4)).tolist()}))
    assert run_main(["--command", "analyze", "--in", str(path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_analyze_huge_indefinite_state_is_exit_3(tmp_path, capsys):
    # finite, Hermitian and unit-trace; (m + m^dag)/2 of it would overflow
    path = write_state(tmp_path / "huge.json", np.diag([1e308, -1e308, 0.5, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_main(["--command", "analyze", "--in", path]) == 3
    assert capsys.readouterr().err.endswith("positivity\n")


def test_analyze_valid_two_by_two_state_is_exit_3(tmp_path, capsys):
    path = write_state(tmp_path / "qubit.json", np.eye(2) / 2.0)
    assert run_main(["--command", "analyze", "--in", path]) == 3
    assert "shape" in capsys.readouterr().err


def test_seed_range(capsys):
    assert cli.parse_config(["--command", "sample", "--seed", str(2**64 - 1)]).seed == 2**64 - 1
    for seed in ("-1", str(2**64)):
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["--command", "sample", "--seed", seed])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def test_analyze_identity_mismatch_is_exit_4(tmp_path, monkeypatch, capsys):
    def boom(rho, budget=None):
        raise IdentityCheckError("teleportation reduction deviates by 1")

    monkeypatch.setattr(cli, "analyze_state", boom)
    rc = run_main(["--command", "analyze", "--in", bell_file(tmp_path)])
    assert rc == 4
    assert "identity mismatch" in capsys.readouterr().err


def test_analyze_writes_out_file(tmp_path):
    out = tmp_path / "rep.csv"
    rc = run_main(["--command", "analyze", "--in", bell_file(tmp_path), "--out", str(out)])
    assert rc == 0
    text = out.read_bytes().decode("utf-8")
    assert "\r" not in text and text.endswith("\n")


def test_sample_deterministic_across_runs_and_workers(tmp_path):
    paths = [tmp_path / f"s{k}.csv" for k in range(3)]
    argsets = [
        ["--command", "sample", "--count", "9", "--seed", "7", "--out", str(paths[0])],
        ["--command", "sample", "--count", "9", "--seed", "7", "--out", str(paths[1])],
        ["--command", "sample", "--count", "9", "--seed", "7", "--workers", "4", "--out", str(paths[2])],
    ]
    assert [run_main(a) for a in argsets] == [0, 0, 0]
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    assert blobs[0].decode().splitlines()[0] == (
        "index,family,param1,param2,F,E,C,F_T_max,B_canonical,B_max_angles,lower_ok,upper_ok"
    )


def test_sample_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_main(["--command", "sample", "--count", "3", "--seed", "1", "--out", str(a)])
    run_main(["--command", "sample", "--count", "3", "--seed", "2", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_sample_bound_violation_is_exit_5(tmp_path, monkeypatch, capsys):
    import dataclasses
    from entfrac import campaign

    real = campaign.run_campaign

    def sabotage(count, **kw):
        recs = real(count, **kw)
        return [dataclasses.replace(recs[0], upper_ok=False)] + recs[1:]

    monkeypatch.setattr(cli.campaign, "run_campaign", sabotage)
    rc = run_main(["--command", "sample", "--count", "2", "--seed", "3", "--out", str(tmp_path / "v.csv")])
    assert rc == 5
    err = capsys.readouterr().err
    assert "index 0" in err and "seed=3" in err


def test_fig2_writes_companion(tmp_path):
    out = tmp_path / "scatter.csv"
    rc = run_main(["--command", "fig2", "--count", "4", "--seed", "2", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 5
    assert all(row.split(",")[1] == "fig2" for row in rows[1:])
    bounds = (tmp_path / "scatter_bounds.csv").read_text().splitlines()
    assert bounds[0] == "E,C_min,C_max"
    assert len(bounds) == 102


def test_bounds_path_naming():
    assert cli._bounds_path("a/b/fig.csv") == "a/b/fig_bounds.csv"
    assert cli._bounds_path("plain") == "plain_bounds.csv"
    assert cli._bounds_path("dir.v2/out") == "dir.v2/out_bounds.csv"


def test_verify_command(capsys):
    rc = run_main(["--command", "verify", "--quick", "--count", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all 12 identity checks passed" in out


def test_verify_failure_exit_1(monkeypatch, capsys):
    fails = [IdentityResult("made-up identity", 1.0, 1e-9, 3, False)]
    monkeypatch.setattr(cli, "run_identity_suite", lambda **kw: fails)
    rc = run_main(["--command", "verify"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_ddim_command(capsys):
    rc = run_main(["--command", "ddim", "--count", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all 5 identity checks passed" in out


def test_module_entry_point(tmp_path):
    path = bell_file(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "entfrac", "--command", "analyze", "--in", path, "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["F"] == pytest.approx(1.0, abs=1e-12)


def declared_script_target(name):
    """The `module:function` that `[project.scripts]` in pyproject.toml names for `name`."""
    text = PYPROJECT.read_text()
    if sys.version_info >= (3, 11):
        import tomllib

        return tomllib.loads(text)["project"]["scripts"][name]
    # Python 3.10 has no tomllib: read the one line under [project.scripts]
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.search(rf'^{name}\s*=\s*"([^"]+)"', section, re.MULTILINE).group(1)


def test_console_script():
    """The declared `entfrac` script runs `sample` and writes CSV.

    The `[project.scripts]` target is started in a child process as the
    installed wrapper starts it, with the source of the imported `entfrac`
    first on PYTHONPATH, so a source checkout tests it too. An `entfrac`
    script found on PATH is run as well.
    """
    module, function = declared_script_target("entfrac").split(":")
    wrapper = (
        f"import sys\nfrom {module} import {function}\n"
        f"sys.argv[0] = 'entfrac'\nsys.exit({function}())"
    )
    source = str(Path(entfrac.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    runs = [([sys.executable, "-c", wrapper], dict(os.environ, PYTHONPATH=pythonpath))]
    installed = shutil.which("entfrac")
    if installed:
        runs.append(([installed], None))
    for command, env in runs:
        proc = subprocess.run(
            command + ["--command", "sample", "--count", "2", "--seed", "4"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0].startswith("index,family,")
