import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rprime
from rprime.cli import CSV_HEADER, cli_dispatch, parse_scan_csv
from rprime.scan import fit_slope

FIELDS = Path(__file__).resolve().parent.parent / "fields"
Q = str(FIELDS / "q.json")
QI = str(FIELDS / "gaussian.json")
CUBIC = str(FIELDS / "cubic_x3mxm1.json")


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exponents_prints_fractions(capsys):
    code, out, _ = run(capsys, "exponents", "--n", "3", "--m", "2", "--r", "2")
    assert code == 0
    assert "exponent 76/51" in out
    assert "log_power 10/17" in out


def test_exponents_other_laws(capsys):
    code, out, _ = run(capsys, "exponents", "--n", "1", "--m", "1", "--r", "2", "--law", "sittinger")
    assert code == 0
    assert "exponent 1/2" in out
    code, out, _ = run(capsys, "exponents", "--n", "4", "--m", "1", "--r", "2", "--law", "abelian")
    assert code == 0
    assert "exponent 3/4" in out
    assert "epsilon_flag true" in out


def test_exponents_json(capsys):
    code, out, _ = run(
        capsys, "exponents", "--n", "3", "--m", "1", "--r", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exponent"] == "38/51"
    assert doc["log_power"] == "20/17"


def test_vmr_prints_count(capsys):
    code, out, _ = run(
        capsys, "vmr", "--field", Q, "--x", "10", "--m", "2", "--r", "1", "--N", "100"
    )
    assert code == 0
    assert out.strip() == "63"


def test_module_entry_point_runs_the_subcommand(capsys):
    # `python -m rprime.cli` runs the same dispatcher as the console script
    argv = ["vmr", "--field", QI, "--x", "300", "--m", "2", "--r", "1", "--N", "1000"]
    src = str(Path(rprime.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rprime.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, code) == (0, 0)
    assert proc.stdout.strip() == out.strip() == "37281"


def test_direct_matches_vmr(capsys):
    code, out, _ = run(capsys, "direct", "--field", QI, "--x", "50", "--m", "2", "--r", "1")
    assert code == 0
    direct_value = int(out.strip())
    code, out, _ = run(
        capsys, "vmr", "--field", QI, "--x", "50", "--m", "2", "--r", "1", "--N", "50"
    )
    assert code == 0
    assert int(out.strip()) == direct_value


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", "--field", QI, "--x", "100", "--N", "100")
    assert code == 0
    assert out.strip() == "79"


def test_count_json_metadata(capsys):
    code, out, _ = run(
        capsys, "count", "--field", QI, "--x", "100", "--N", "100", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["value"] == 79
    assert doc["field"] == "Q(i)"
    assert "tool_version" in doc


def test_table_cap_takes_an_integral_float_literal(tmp_path, capsys):
    cache = tmp_path / "qi.tab"
    code, out, _ = run(capsys, "tables", "--field", QI, "--N", "1e3", "--out", str(cache))
    assert code == 0 and "up to N=1000:" in out
    code, out, _ = run(capsys, "count", "--field", QI, "--x", "100", "--tables", str(cache))
    assert (code, out) == (0, "79\n")
    code, out, _ = run(capsys, "count", "--field", Q, "--x", "1500", "--N", "1.5e3")
    assert (code, out) == (0, "1500\n")


@pytest.mark.parametrize("cap", ["2.5", "inf", "nan", "1e3.5", "ten"])
@pytest.mark.parametrize("command", ["tables", "count"])
def test_table_cap_that_is_no_integer_is_refused(capsys, monkeypatch, command, cap):
    def refuse(*args):
        raise AssertionError("build_tables ran")

    monkeypatch.setattr("rprime.cli.build_tables", refuse)
    args = _REQUIRED_ARGS[command][2:]
    code, out, err = run(capsys, command, "--field", Q, *args, "--N", cap)
    assert code == 2 and out == ""
    assert "argument --N" in err


def test_zeta_command(capsys):
    code, out, _ = run(capsys, "zeta", "--field", Q, "--s", "2", "--tol", "1e-6")
    assert code == 0
    assert abs(float(out.strip()) - 1.6449340668) < 2e-6


def test_zeta_default_tol_unreachable_is_diagnosed(capsys):
    # x^3 - x - 1 is not abelian, so it takes the Euler ladder
    code, _, err = run(capsys, "zeta", "--field", CUBIC, "--s", "2")
    assert code == 1
    assert "unreachable: the euler route certifies only 3.120e-08" in err


@pytest.mark.parametrize(
    "path, args, route",
    [
        (Q, ("--tol", "1e-13"), "L"),
        (QI, ("--tol", "1e-13"), "L"),
        (CUBIC, ("--tol", "1e-4"), "euler"),
    ],
    ids=["Q", "Qi", "cubic"],
)
def test_zeta_json_names_the_route(capsys, path, args, route):
    code, out, _ = run(capsys, "zeta", "--field", path, "--s", "2", *args, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["route"] == route
    # the ladder's largest prime, or the L route's Euler-Maclaurin split point
    keys = ["euler_cutoff", "em_split"]
    cutoff_key, other = keys if route == "euler" else keys[::-1]
    assert doc[cutoff_key] > 0 and other not in doc
    assert doc["certified_error"] <= float(args[1])


@pytest.mark.parametrize("cap", ["1", "0", "-5", "100"])
@pytest.mark.parametrize(
    "command",
    [
        ("zeta", "--s", "2"),
        ("scan", "--m", "2", "--r", "1", "--xmin", "4", "--xmax", "64", "--points", "3", "--N", "64"),
    ],
)
def test_bad_prime_cap_is_diagnosed(capsys, command, cap):
    # the Euler ladder is fixed, so no subcommand takes --prime-cap
    code, out, err = run(capsys, *command, "--field", Q, "--prime-cap", cap)
    assert code == 2 and out == ""
    assert "unrecognized arguments: --prime-cap" in err


@pytest.mark.parametrize(
    "command",
    [
        ("zeta", "--s", "nan", "--tol", "1e-6"),
        ("zeta", "--s", "2", "--tol", "nan"),
        ("scan", "--m", "2", "--r", "1", "--xmin", "nan", "--xmax", "64", "--points", "3", "--N", "64"),
        ("scan", "--m", "2", "--r", "1", "--xmin", "-5", "--xmax", "64", "--points", "3", "--N", "64"),
        ("scan", "--m", "2", "--r", "1", "--xmin", "4", "--xmax", "inf", "--points", "3", "--N", "64"),
    ],
)
def test_bad_real_input_is_diagnosed(capsys, command):
    code, out, err = run(capsys, *command, "--field", Q)
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_scan_csv_schema_and_fit(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, _, err = run(
        capsys,
        "scan", "--field", Q, "--m", "1", "--r", "2",
        "--xmin", "64", "--xmax", "4096", "--points", "7",
        "--N", "4096", "--fit", "--out", str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 9  # header + 7 records + trailing newline
    assert lines[-1] == ""
    assert "slope" in err and "points_used" in err


def test_scan_csv_roundtrip_identical_fit(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys,
        "scan", "--field", Q, "--m", "2", "--r", "1",
        "--xmin", "32", "--xmax", "1024", "--points", "6",
        "--N", "1024", "--out", str(out_file),
    )
    assert code == 0
    records = parse_scan_csv(out_file.read_text())
    fit_direct = fit_slope(records)

    fit_out = tmp_path / "fit.txt"
    code, _, _ = run(capsys, "fit", "--in", str(out_file), "--out", str(fit_out))
    assert code == 0
    reported = dict(
        line.split(" ", 1) for line in fit_out.read_text().strip().split("\n")
    )
    assert float(reported["slope"]) == fit_direct.slope
    assert float(reported["intercept"]) == fit_direct.intercept
    assert float(reported["r_squared"]) == fit_direct.r_squared
    assert int(reported["points_used"]) == fit_direct.points_used


def test_scan_deterministic_bytes(tmp_path, capsys):
    args = (
        "scan", "--field", QI, "--m", "1", "--r", "2",
        "--xmin", "16", "--xmax", "512", "--points", "5",
        "--N", "512",
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(first))[0] == 0
    assert run(capsys, *args, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_scan_zero_error_points_reported(tmp_path, capsys, monkeypatch):
    # force E = 0 on every grid point by stubbing the main term
    import rprime.scan as scan_mod

    # V_1^1 is identically 1, so a constant stub zeroes every E
    monkeypatch.setattr(scan_mod, "main_term", lambda field, x, m, r, **kw: 1.0)
    code, out, err = run(
        capsys,
        "scan", "--field", Q, "--m", "1", "--r", "1",
        "--xmin", "4", "--xmax", "64", "--points", "5", "--N", "64", "--fit",
    )
    assert code == 0
    assert "no fit" not in out
    assert "no fit" in err and "zero_error_points 5" in err
    for line in out.strip().split("\n")[1:]:
        assert line.endswith(",")  # empty final field when E = 0


def test_scan_json_payload(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--field", Q, "--m", "1", "--r", "2",
        "--xmin", "64", "--xmax", "1024", "--points", "5",
        "--N", "1024", "--fit", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 5
    assert doc["metadata"]["field"] == "Q"
    assert doc["metadata"]["m"] == 1 and doc["metadata"]["r"] == 2
    assert doc["metadata"]["N"] == 1024
    assert "tool_version" in doc["metadata"]
    assert doc["fit"] is not None and "slope" in doc["fit"]


def test_tables_cache_and_reuse(tmp_path, capsys):
    cache = tmp_path / "qi.tab"
    code, out, _ = run(
        capsys, "tables", "--field", QI, "--N", "1000", "--out", str(cache)
    )
    assert code == 0 and cache.exists()
    code, out, _ = run(
        capsys, "count", "--field", QI, "--x", "100", "--tables", str(cache)
    )
    assert code == 0
    assert out.strip() == "79"


_REQUIRED_ARGS = {
    "tables": ("--N", "100", "--out", "never-written.tab"),
    "count": ("--N", "100", "--x", "10"),
    "vmr": ("--N", "100", "--x", "10", "--m", "2", "--r", "1"),
    "direct": ("--x", "10", "--m", "2", "--r", "1"),
    "scan": ("--N", "100", "--m", "2", "--r", "1", "--xmin", "2", "--xmax", "10", "--points", "2"),
    "zeta": ("--s", "2"),
}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("tables", "--tol", "1e-6"),
        ("tables", "--prime-cap", "100"),
        ("tables", "--format", "json"),
        ("count", "--tol", "1e-6"),
        ("count", "--prime-cap", "100"),
        ("vmr", "--tol", "-1"),
        ("vmr", "--prime-cap", "-9"),
        ("direct", "--N", "1000"),
        ("direct", "--tol", "1e-6"),
        ("direct", "--prime-cap", "100"),
        ("scan", "--tol", "1e-6"),
        ("zeta", "--N", "64"),
    ],
)
def test_flag_the_subcommand_does_not_read_is_refused(capsys, command, flag, value):
    code, out, err = run(capsys, command, "--field", Q, *_REQUIRED_ARGS[command], flag, value)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag}" in err


def test_tables_without_out_is_refused_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("build_tables ran")

    monkeypatch.setattr("rprime.cli.build_tables", refuse)
    code, out, err = run(capsys, "tables", "--field", Q, "--N", "100")
    assert code == 2 and out == ""
    assert "--out" in err


@pytest.mark.parametrize(
    "command, args",
    [
        ("count", ("--x", "500")),
        ("vmr", ("--x", "500", "--m", "2", "--r", "1")),
        ("scan", ("--m", "2", "--r", "1", "--xmin", "10", "--xmax", "500", "--points", "3")),
    ],
    ids=["count", "vmr", "scan"],
)
def test_table_cap_and_cache_are_exclusive(tmp_path, capsys, monkeypatch, command, args):
    # a cache fixes its own N, so a --N next to --tables would be ignored
    def refuse(*args):
        raise AssertionError("a table was built or loaded")

    monkeypatch.setattr("rprime.cli.build_tables", refuse)
    monkeypatch.setattr("rprime.cli.load_table", refuse)
    cache = str(tmp_path / "qi.tab")
    code, out, err = run(capsys, command, "--field", QI, *args, "--tables", cache, "--N", "5")
    assert code == 2 and out == ""
    assert "not allowed with argument" in err


def test_unknown_subcommand_fails(capsys):
    assert cli_dispatch(["frobnicate"]) != 0


def test_bad_field_file_is_diagnosed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "poly": [1, 0, 2], "poly_disc": 1}')
    code, _, err = run(capsys, "count", "--field", str(bad), "--x", "10", "--N", "10")
    assert code == 1
    assert "monic" in err


def test_parse_scan_csv_rejects_wrong_header():
    with pytest.raises(ValueError, match="header"):
        parse_scan_csv("a,b,c\n1,2,3\n")


def test_fit_refuses_a_short_row(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text(CSV_HEADER + "\n4.0,7,6.5,0.5\n")
    code, out, err = run(capsys, "fit", "--in", str(path))
    assert code == 1 and out == ""
    assert err == "error: malformed scan row: '4.0,7,6.5,0.5'\n"


def test_fit_refuses_records_that_share_one_x(tmp_path, capsys):
    # two scan rows at x = 1000 with different E leave the slope undetermined
    path = tmp_path / "one_x.csv"
    path.write_text(
        CSV_HEADER + "\n1000.0,5,3.0,2.0,3.0,0.3010299956639812\n"
        "1000.0,9,3.0,6.0,3.0,0.7781512503836436\n"
    )
    code, out, err = run(capsys, "fit", "--in", str(path))
    assert code == 1 and out == ""
    assert err == (
        "error: all 2 records with nonzero E have x = 1000.0: "
        "a slope needs at least 2 distinct x\n"
    )


def _json_lines(*lines):
    # the documents are written with indent=2 and one trailing newline
    return "\n".join(("{", *(f"  {line}" for line in lines), "}")) + "\n"


_VERSION_LINE = f'"tool_version": "{rprime.__version__}"'
_QI_TUPLE = ("--field", QI, "--x", "300", "--m", "2", "--r", "1")


@pytest.mark.parametrize(
    "argv, csv, json_text",
    [
        (
            ("count", "--field", QI, "--x", "100", "--N", "100"),
            "79\n",
            _json_lines(
                '"command": "count",', '"field": "Q(i)",', '"x": 100.0,', '"value": 79,',
                _VERSION_LINE,
            ),
        ),
        (
            ("vmr", *_QI_TUPLE, "--N", "1000"),
            "37281\n",
            _json_lines(
                '"command": "vmr",', '"field": "Q(i)",', '"x": 300.0,', '"m": 2,', '"r": 1,',
                '"value": 37281,', _VERSION_LINE,
            ),
        ),
        (
            ("direct", *_QI_TUPLE),
            "37281\n",
            _json_lines(
                '"command": "direct",', '"field": "Q(i)",', '"x": 300.0,', '"m": 2,', '"r": 1,',
                '"value": 37281,', _VERSION_LINE,
            ),
        ),
        (
            ("exponents", "--n", "3", "--m", "2", "--r", "2"),
            "exponent 76/51\nlog_power 10/17\nepsilon_flag false\n",
            _json_lines(
                '"law": "improved",', '"n": 3,', '"m": 2,', '"r": 2,', '"exponent": "76/51",',
                '"log_power": "10/17",', '"epsilon_flag": false',
            ),
        ),
        (
            ("exponents", "--n", "3", "--m", "2", "--r", "2", "--law", "sittinger"),
            "exponent 5/3\nlog_power 0\nepsilon_flag false\n",
            _json_lines(
                '"law": "sittinger",', '"n": 3,', '"m": 2,', '"r": 2,', '"exponent": "5/3",',
                '"log_power": "0",', '"epsilon_flag": false',
            ),
        ),
        (
            ("exponents", "--n", "4", "--m", "1", "--r", "2", "--law", "abelian"),
            "exponent 3/4\nlog_power 0\nepsilon_flag true\n",
            _json_lines(
                '"law": "abelian",', '"n": 4,', '"m": 1,', '"r": 2,', '"exponent": "3/4",',
                '"log_power": "0",', '"epsilon_flag": true',
            ),
        ),
    ],
    ids=["count", "vmr", "direct", "improved", "sittinger", "abelian"],
)
def test_integer_outputs_are_pinned_byte_for_byte(capsys, argv, csv, json_text):
    # key order, spacing and the trailing newline are part of the output
    assert run(capsys, *argv) == (0, csv, "")
    assert run(capsys, *argv, "--format", "csv") == (0, csv, "")
    assert run(capsys, *argv, "--format", "json") == (0, json_text, "")


def test_version_is_pinned_byte_for_byte(capsys):
    assert run(capsys, "--version") == (0, f"rprime {rprime.__version__}\n", "")
