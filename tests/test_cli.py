"""Argument parsing, config overrides, and subcommand smoke runs."""

import shutil
import subprocess

import pytest

from fracsobolev.cli import _parse_config, _parse_levels, main
from fracsobolev.experiments import read_records


def test_parse_levels_forms():
    assert _parse_levels("4..8") == [4, 5, 6, 7, 8]
    assert _parse_levels("3,5,9") == [3, 5, 9]
    assert _parse_levels("7") == [7]
    with pytest.raises(ValueError):
        _parse_levels("a..b")
    with pytest.raises(ValueError, match="empty"):
        _parse_levels("8..4")
    for text in ("4,4,5", "5,4", "-1..1"):
        with pytest.raises(ValueError, match="strictly increasing"):
            _parse_levels(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "solve", "--levels", "8..4"],
        ["sweep", "upper", "--levels", "5..x"],
        ["verify", "interp", "--levels", "9..4"],
        ["sweep", "upper", "--levels", "4,4,5"],
        ["sweep", "upper", "--levels=-1..1"],
        ["verify", "interp", "--levels", "5,4"],
    ],
)
def test_bad_levels_exit_through_argparse(argv, capsys):
    # rejected while parsing, before any mesh is built or sweep run
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--levels" in err and repr(argv[-1].rpartition("=")[2]) in err


def test_bad_order_exits_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "upper", "--s", "0.9"])
    assert exc.value.code == 2
    assert "s=0.9 outside the admissible range" in capsys.readouterr().err


def test_config_levels_meet_the_same_check(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("levels = 8..4\n")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "solve", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "'8..4'" in capsys.readouterr().err


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\ns = 0.3\nmesh-levels = 4,5\nout=res.csv\n")
    got = _parse_config(str(cfg))
    assert got == {"s": "0.3", "mesh_levels": "4,5", "out": "res.csv"}
    cfg.write_text("just a line\n")
    with pytest.raises(ValueError):
        _parse_config(str(cfg))


def test_config_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim = 1\ns = 0.3\nlevels = 4,5,6\n")
    rc = main(["sweep", "upper", "--s", "0.25", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha (theory) = 0.357" in out


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("volume = 11\n")
    with pytest.raises(ValueError):
        main(["constant", "--config", str(cfg)])
    # a flag of another subcommand is unknown here too
    cfg.write_text("tol = 1e-8\n")
    with pytest.raises(ValueError):
        main(["constant", "--config", str(cfg)])


def test_config_values_meet_the_flag_checks(tmp_path):
    # a config value passes its flag's choices, like the same value on the command line
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dim = 3\n")
    with pytest.raises(SystemExit):
        main(["constant", "--dim", "3"])
    with pytest.raises(SystemExit):
        main(["constant", "--config", str(cfg)])


def test_constant_command(capsys):
    assert main(["constant", "--dim", "2", "--s", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "S(2, 0.5) = 5.5683279968317" in out
    assert "alpha = 0.75" in out
    assert "2*_s = 4.0" in out


def test_sweep_upper_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "up.csv"
    rc = main(
        ["sweep", "upper", "--dim", "1", "--s", "0.25", "--levels", "4..6", "--out", str(out_csv)]
    )
    assert rc == 0
    recs = read_records(out_csv)
    assert [r.level for r in recs] == [4, 5, 6]
    assert all(r.value > 0 for r in recs)
    assert "slope=" in capsys.readouterr().out


def test_sweep_solve_small(capsys):
    rc = main(["sweep", "solve", "--dim", "1", "--s", "0.25", "--levels", "4,5,6"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "rate: slope=" in captured.out
    assert " steps=" in captured.out and " residual=" in captured.out
    assert " mixed=" in captured.out
    assert "not converged" not in captured.err


def test_sweep_solve_reports_unconverged_levels(capsys):
    with pytest.warns(RuntimeWarning, match="stopped after 280 steps"):
        rc = main(["sweep", "solve", "--dim", "1", "--s", "0.25", "--levels", "3..5", "--tol", "0"])
    assert rc == 0
    captured = capsys.readouterr()
    for lev in (3, 4, 5):
        assert f"level {lev} not converged after 280 steps" in captured.err.splitlines()
    assert "steps=280 residual=" in captured.out


def test_verify_covering_command(tmp_path, capsys):
    out_csv = tmp_path / "cov.csv"
    rc = main(
        ["verify", "covering", "--dim", "1", "--s", "0.25", "--samples", "1000", "--out", str(out_csv)]
    )
    assert rc == 0
    assert "min_ratio:" in capsys.readouterr().out
    text = out_csv.read_text().splitlines()
    assert text[0] == "key,value"
    assert any(ln.startswith("min_ratio,") for ln in text)


def test_verify_minseq_command(capsys):
    rc = main(["verify", "minseq", "--dim", "1", "--s", "0.25", "--eps", "0.3,0.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gaps:" in out
    assert "monotone: True" in out


# unparseable; one width; increasing; a width of 1/3 or more; NaN
@pytest.mark.parametrize("eps", ["0.2,x", "0.2,,0.1", "", "0.1", "0.05,0.1", "0.5,0.1", "nan,0.1"])
def test_bad_widths_exit_through_argparse(eps, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "minseq", "--eps", eps])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--eps" in err and repr(eps) in err


def test_verify_interp_command(capsys):
    rc = main(
        ["verify", "interp", "--dim", "1", "--s", "0.25", "--q", "2", "--c", "0.25", "--levels", "5..7"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "value rate in h (expect 2): slope=1.9" in out
    assert "gradient rate in h (expect 1): slope=" in out


def test_verify_inequalities_command(capsys):
    rc = main(["verify", "inequalities", "--dim", "1", "--s", "0.25", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "poincare_holds: True" in out


def test_installed_entry_point():
    exe = shutil.which("fracsob")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "constant", "--dim", "1", "--s", "0.25"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "S(1, 0.25) = 1.59273620473645" in proc.stdout
