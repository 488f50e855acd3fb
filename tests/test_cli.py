"""Argument parsing, config overrides, and subcommand smoke runs."""

import argparse
import re
import shutil
import subprocess

import pytest

from fracsobolev import experiments
from fracsobolev.cli import _parse_config, _parse_levels, main
from fracsobolev.experiments import read_records


def _no_mesh(dim, level):
    raise AssertionError(f"built the mesh of level {level}")


def test_parse_levels_forms():
    assert _parse_levels("4..8") == [4, 5, 6, 7, 8]
    assert _parse_levels("3,5,9") == [3, 5, 9]
    assert _parse_levels("7") == [7]
    # ArgumentTypeError, so that argparse prints the reason
    with pytest.raises(argparse.ArgumentTypeError, match="integers"):
        _parse_levels("a..b")
    with pytest.raises(argparse.ArgumentTypeError, match="empty"):
        _parse_levels("8..4")
    for text in ("4,4,5", "5,4", "-1..1"):
        with pytest.raises(argparse.ArgumentTypeError, match="strictly increasing"):
            _parse_levels(text)


# how argparse shows each rejected --levels value, and the reason it prints:
# the text as given when the value does not parse, the parsed list when
# experiments.check_levels rejects it
_LEVEL_REASONS = {
    "8..4": ("'8..4'", "empty level range"),
    "5..x": ("'5..x'", "integers"),
    "9..4": ("'9..4'", "empty level range"),
    "4,4,5": ("'4,4,5'", "strictly increasing"),
    "-1..1": ("'-1..1'", "nonnegative"),
    "5,4": ("'5,4'", "strictly increasing"),
    "0..3": ("[0, 1, 2, 3]", "1D level 0"),
    "0..1": ("[0, 1]", "fewer than the 3 a rate fit needs"),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "solve", "--levels", "8..4"],
        ["sweep", "upper", "--levels", "5..x"],
        ["verify", "interp", "--levels", "9..4"],
        ["sweep", "upper", "--levels", "4,4,5"],
        ["sweep", "upper", "--levels=-1..1"],
        ["verify", "interp", "--levels", "5,4"],
        ["sweep", "upper", "--dim", "1", "--levels", "0..3"],
        ["sweep", "solve", "--dim", "2", "--s", "0.5", "--levels", "0..1"],
    ],
)
def test_bad_levels_exit_through_argparse(argv, capsys, monkeypatch):
    # rejected while parsing, before any mesh is built or sweep run
    monkeypatch.setattr(experiments, "build_mesh", _no_mesh)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    value = argv[-1].rpartition("=")[2]
    shown, reason = _LEVEL_REASONS[value]
    assert "--levels" in err and shown in err
    assert reason in err


def test_bad_order_exits_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "upper", "--s", "0.9"])
    assert exc.value.code == 2
    assert "s=0.9 outside the admissible range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["sweep", "upper", "--dim", "1", "--levels", "0..3"], "usage: fracsob sweep"),
        (["sweep", "solve", "--s", "0.9"], "usage: fracsob sweep"),
        (["verify", "interp", "--levels", "0,1,2"], "usage: fracsob verify"),
        (["constant", "--s", "0.9"], "usage: fracsob constant"),
    ],
)
def test_checks_after_parsing_print_the_subcommand_usage(argv, usage, capsys, monkeypatch):
    # the usage line lists the flags the message names, not the top-level commands
    monkeypatch.setattr(experiments, "build_mesh", _no_mesh)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(usage)


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
    # the slack's cutoff and its bound part, beside it
    assert "cutoff=inf tail=0.00e+00" in captured.out
    assert re.search(r"cutoff=\d+ tail=[1-9]", captured.out)
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
    reason = "comma-separated numbers" if eps in ("0.2,x", "0.2,,0.1", "") else "strictly decreasing"
    assert reason in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["sweep", "solve", "--tol", "-1"], "a finite number >= 0"),
        (["verify", "covering", "--samples", "10"], "an integer >= 1000"),
        (["verify", "interp", "--q", "0.5"], "a finite number >= 1"),
        (["verify", "interp", "--levels", "4..6", "--c", "-1"], "a finite number > 0"),
        (["verify", "interp", "--levels", "4..6", "--c", "nan"], "a finite number > 0"),
        (["verify", "covering", "--seed", "-1"], "an integer >= 0"),
        (["verify", "inequalities", "--seed", "-1"], "an integer >= 0"),
        (["verify", "interp", "--q", "inf"], "a finite number >= 1"),
        (["verify", "interp", "--q", "nan"], "a finite number >= 1"),
    ],
)
def test_bad_numbers_exit_through_argparse(argv, reason, capsys, monkeypatch):
    # each flag meets the rule of the function it feeds while parsing,
    # before any mesh is built
    monkeypatch.setattr(experiments, "build_mesh", _no_mesh)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: {argv[-1]!r} is not {reason}" in err


def test_verify_interp_command(capsys):
    rc = main(
        ["verify", "interp", "--dim", "1", "--s", "0.25", "--q", "2", "--c", "0.25", "--levels", "5..7"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "value rate in h (expect 2): slope=1.9" in out
    assert "gradient rate in h (expect 1): slope=" in out


@pytest.mark.parametrize(
    "kind, message",
    [
        ("minseq", "no affordable mesh reaches h <= 0.0125 for dim 2"),
        ("interp", "level 10 gives 12589057 nodes, about 7.2 GB of mesh storage; refusing"),
    ],
    ids=["minseq", "interp"],
)
def test_verify_2d_defaults_exit_through_argparse(kind, message, capsys):
    # the 2D defaults ask for a mesh too large to build; the refusal comes
    # before any level is measured, and prints through the parser
    with pytest.raises(SystemExit) as exc:
        main(["verify", kind, "--dim", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fracsob verify")
    assert f"error: {message}" in err


def test_sweep_refused_by_size_exits_through_argparse(capsys):
    # build_mesh refuses every 2D level 9..11 by its estimate, leaving no
    # three levels for a rate fit
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "upper", "--dim", "2", "--levels", "9..11"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fracsob sweep")
    assert "error: only 0 levels fit the size caps, need 3 for a rate fit" in err
    assert "SizeLimitError: level 9 gives" in err


def test_verify_interp_refuses_a_coarse_width_before_the_fine_mesh(capsys, monkeypatch):
    # h = 1/16 at level 4 does not resolve c = 0.01; the refusal comes from
    # the coarsest mesh, before the fine level 7 is built, through the parser
    build = experiments.build_mesh
    monkeypatch.setattr(
        experiments, "build_mesh", lambda dim, level: build(dim, level) if level == 4 else _no_mesh(dim, level)
    )
    with pytest.raises(SystemExit) as exc:
        main(["verify", "interp", "--c", "0.01", "--levels", "4..6"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fracsob verify")
    assert "error: argument --c: level 4: h=0.0625 too coarse for c=0.01" in err


@pytest.mark.parametrize(
    "argv",
    [["sweep", "upper", "--levels", "4..8"], ["verify", "interp", "--levels", "4..6"]],
    ids=["sweep", "verify"],
)
def test_out_in_a_missing_directory_exits_through_argparse(argv, tmp_path, capsys, monkeypatch):
    # the result's directory is checked while parsing, before any mesh
    monkeypatch.setattr(experiments, "build_mesh", _no_mesh)
    out = tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: fracsob {argv[0]}")
    assert f"error: argument --out: '{out}' names a directory that does not exist" in err


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
