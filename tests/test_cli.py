import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halfsign
from halfsign.cli import run


@pytest.fixture(scope="module")
def form_path(tmp_path_factory):
    """Flagship recipe expanded at a scan-friendly precision via the CLI."""
    path = tmp_path_factory.mktemp("forms") / "flagship2500.json"
    code = run(
        [
            "expand",
            "--eta",
            "2:12",
            "--theta-power",
            "1",
            "--level",
            "4",
            "--k",
            "6",
            "--prec",
            "2500",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def broken_path(form_path, tmp_path_factory):
    data = json.loads(form_path.read_text())
    data["coeffs"][9] = "10"  # a(9) = 9 truly
    path = tmp_path_factory.mktemp("forms") / "broken.json"
    path.write_text(json.dumps(data))
    return path


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "halfsign" in capsys.readouterr().out


def test_unknown_flag_exits_two(capsys):
    assert run(["--frobnicate"]) == 2
    assert run(["scan", "--frobnicate"]) == 2


def test_missing_inputs_exit_two(tmp_path, capsys):
    assert run(["verify", "--form", str(tmp_path / "nope.json")]) == 2
    assert run(["scan", "--mode", "progression", "--form", "x"]) == 2


def test_verify_without_base_index_exits_two(capsys):
    assert run(["verify", "--flagship", "--prec", "100", "--t-max", "0"]) == 2
    assert "halfsign: error: ZeroBase:" in capsys.readouterr().err


def test_verify_with_negative_depth_exits_two(capsys):
    assert run(["verify", "--flagship", "--prec", "100", "--m-max", "-1"]) == 2
    assert "m_max must be nonnegative" in capsys.readouterr().err


def test_verify_flagship_below_precision_49_uses_the_recipe(monkeypatch, capsys):
    from halfsign import flagship as flagship_mod

    def no_fixture():
        raise AssertionError("the vendored fixture was loaded")

    monkeypatch.setattr(flagship_mod, "load_fixture", no_fixture)
    assert run(["verify", "--flagship", "--prec", "48", "--p", "3", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["all_ok"] is True


def test_expand_writes_loadable_form(form_path):
    from halfsign.forms import load_form

    form = load_form(form_path)
    assert form.prec == 2500
    assert form.an(1) == 1


def test_expand_raw_delta(tmp_path):
    out = tmp_path / "delta.json"
    code = run(
        ["expand", "--eta", "1:24", "--level", "1", "--k", "12", "--prec", "60",
         "--raw", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["coeffs"][2] == "-24"


def test_verify_flagship_file(form_path, tmp_path):
    out = tmp_path / "verify.json"
    code = run(
        ["verify", "--form", str(form_path), "--p", "3", "5", "--t-max", "10",
         "--m-max", "3", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_ok"] is True
    assert report["checks"]["eigen_consistency"]["3"]["trace"] == "252"


def test_verify_detects_broken_form(broken_path, tmp_path):
    out = tmp_path / "verify_broken.json"
    code = run(
        ["verify", "--form", str(broken_path), "--p", "3", "--t-max", "5",
         "--m-max", "2", "--out", str(out)]
    )
    assert code == 1
    assert json.loads(out.read_text())["all_ok"] is False


def test_lift_crosscheck(form_path, tmp_path):
    out = tmp_path / "lift.json"
    code = run(
        ["lift", "--form", str(form_path), "--t", "1", "--n-max", "10",
         "--p-max", "40", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["values"]["3"] == "252"
    assert report["crosscheck"]["ok"] is True


def test_scan_csv_shape(form_path, tmp_path):
    out = tmp_path / "scan.csv"
    code = run(
        ["scan", "--form", str(form_path), "--t", "1", "--mode", "full",
         "--p-max", "50", "--nu-max", "200", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["p"] == "3"
    assert int(rows[0]["change_count"]) >= 1
    assert rows[0]["deligne_status"] == "strict"
    assert [row["p"] for row in rows] == [
        "3", "5", "7", "11", "13", "17", "19", "23", "29", "31", "37", "41", "43", "47"
    ]


def test_scan_progression_csv(form_path, tmp_path):
    out = tmp_path / "scan_prog.csv"
    code = run(
        ["scan", "--form", str(form_path), "--t", "1", "--mode", "progression",
         "--q", "3", "--h", "2", "--p-max", "30", "--nu-max", "120", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["mode"] == "progression(3,2)" for row in rows)
    # admissible primes are those congruent to 2 mod 3
    assert [row["p"] for row in rows] == ["5", "11", "17", "23", "29"]


@pytest.mark.parametrize("extra", [["--mode", "full", "--q", "5", "--h", "2"],
                                   ["--mode", "odd", "--q", "5"], ["--h", "2"]])
def test_scan_rejects_q_and_h_outside_progression_mode(capsys, extra):
    argv = ["scan", "--flagship", "--prec", "200", "--p-max", "13", "--nu-max", "20"]
    assert run(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--q and --h apply only to --mode progression" in captured.err


def test_flagship_prec_zero_is_rejected_not_defaulted(capsys):
    # prec 0 is a bad precision like any other, not "use the default"
    assert run(["verify", "--flagship", "--prec", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "prec must be a positive integer" in captured.err


@pytest.mark.parametrize("argv", [["verify"], ["lift", "--n-max", "6", "--p-max", "20"],
                                  ["scan", "--p-max", "13", "--nu-max", "5"]],
                         ids=["verify", "lift", "scan"])
def test_prec_applies_only_to_the_flagship(argv, form_path, capsys):
    assert run(argv + ["--form", str(form_path), "--prec", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--prec applies only to --flagship" in captured.err


def test_scan_skips_primes_beyond_precision(capsys):
    # a(47^2) = a(2209) lies beyond precision 2000: p = 47 is named on
    # stderr and the reports for the smaller primes are kept
    assert run(["scan", "--flagship", "--prec", "2000", "--p-max", "50", "--nu-max", "40"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert [row["p"] for row in rows] == [
        "3", "5", "7", "11", "13", "17", "19", "23", "29", "31", "37", "41", "43"
    ]
    assert captured.err == "halfsign: scan: skipped p = 47: a(2209) is beyond precision 2000\n"


def test_genfun_check_seed_seven(tmp_path):
    out = tmp_path / "gf.json"
    code = run(["genfun-check", "--seed", "7", "--count", "40", "--terms", "60",
                "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_ok"] is True
    assert report["count"] == 40


@pytest.mark.parametrize("count", ["-1", "0"])
def test_genfun_check_below_one_instance_exits_two(count, capsys):
    assert run(["genfun-check", "--seed", "1", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--count must be at least 1, got {count}" in captured.err


@pytest.mark.parametrize("flag, value, message", [
    ("--terms", "-1", "--terms must be at least 0, got -1"),
    ("--m-p", "0", "--m-p must be at least 1, got 0"),
    ("--m-p", "-3", "--m-p must be at least 1, got -3"),
])
def test_genfun_check_out_of_range_terms_or_m_p_exits_two(flag, value, message, capsys):
    assert run(["genfun-check", "--seed", "1", "--count", "2", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_genfun_check_accepts_zero_terms_and_m_p_one(tmp_path):
    out = tmp_path / "gf.json"
    argv = ["genfun-check", "--seed", "1", "--count", "3", "--terms", "0", "--m-p", "1"]
    assert run(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["all_ok"] is True


def test_characters_dump(tmp_path):
    out = tmp_path / "chars.json"
    assert run(["characters", "--q", "7", "--out", str(out)]) == 0
    table = json.loads(out.read_text())
    assert table["generator"] == 3
    assert table["log"]["3"] == 1
    assert len(table["value_exponents"]) == 6


def test_reports_are_deterministic(form_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scan", "--form", str(form_path), "--t", "1", "--mode", "odd",
            "--p-max", "30", "--nu-max", "150"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    ga, gb = tmp_path / "ga.json", tmp_path / "gb.json"
    assert run(["genfun-check", "--seed", "7", "--count", "25", "--out", str(ga)]) == 0
    assert run(["genfun-check", "--seed", "7", "--count", "25", "--out", str(gb)]) == 0
    assert ga.read_bytes() == gb.read_bytes()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["expand", "--eta", "2:12", "--theta-power", "1", "--prec", "60"], 0),
        (["expand", "--eta", "1:24", "--level", "1", "--k", "12", "--prec", "30", "--raw"], 0),
        (["verify", "--form", "{form}", "--p", "3", "--t-max", "5", "--m-max", "2"], 0),
        (["verify", "--form", "{broken}", "--p", "3", "--t-max", "5", "--m-max", "2"], 1),
        (["lift", "--form", "{form}", "--n-max", "6", "--p-max", "20"], 0),
        (["genfun-check", "--seed", "3", "--count", "5", "--terms", "20"], 0),
        (["scan", "--form", "{form}", "--mode", "even", "--p-max", "20", "--nu-max", "30"], 0),
        (["characters", "--q", "11"], 0),
    ],
    ids=["expand", "expand-raw", "verify", "verify-failed", "lift", "genfun-check", "scan",
         "characters"],
)
def test_stdout_and_out_file_carry_the_same_bytes(argv, code, form_path, broken_path, tmp_path,
                                                  capsys):
    argv = [{"{form}": str(form_path), "{broken}": str(broken_path)}.get(a, a) for a in argv]
    assert run(argv) == code
    stdout = capsys.readouterr().out
    out = tmp_path / "report"
    assert run(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert stdout and out.read_bytes() == stdout.encode("utf-8")
    if code:
        assert json.loads(stdout)["all_ok"] is False


@pytest.mark.parametrize("command", ["verify", "lift", "scan"])
def test_form_source_is_exactly_one_of_form_and_flagship(command, form_path, capsys):
    assert run([command, "--form", str(form_path), "--flagship"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert run([command]) == 2
    assert "one of the arguments --form --flagship is required" in capsys.readouterr().err


def _python_m_halfsign(*argv):
    src = str(Path(halfsign.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "halfsign", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)


def test_python_m_halfsign_scan(form_path):
    done = _python_m_halfsign("scan", "--form", str(form_path), "--mode", "progression",
                              "--q", "31", "--h", "30", "--p-max", "50", "--nu-max", "3")
    assert done.returncode == 0, done.stderr
    rows = list(csv.DictReader(done.stdout.splitlines()))
    assert [(row["p"], row["length"]) for row in rows] == [
        ("3", "0"), ("11", "0"), ("13", "0"), ("17", "0"), ("23", "0"), ("29", "0"), ("37", "1"),
        ("43", "0"),
    ]
    assert {row["mode"] for row in rows} == {"progression(31,30)"}

    for q, h in (("4", "3"), ("5", "7")):
        done = _python_m_halfsign("scan", "--form", str(form_path), "--mode", "progression",
                                  "--q", q, "--h", h, "--p-max", "2")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("halfsign: error: ") and "Traceback" not in done.stderr


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scan_and_genfun_check_exit_0_1_or_2_on_any_integers(data):
    def draw_int(lo, hi):
        return str(data.draw(st.integers(lo, hi)))

    if data.draw(st.booleans()):
        mode = data.draw(st.sampled_from(("full", "odd", "even", "progression")))
        argv = ["scan", "--flagship", "--prec", "200", "--mode", mode, "--t", draw_int(-3, 40),
                "--p-max", draw_int(-5, 60), "--nu-max", draw_int(-5, 300)]
        if mode == "progression" or data.draw(st.booleans()):
            argv += ["--q", draw_int(-3, 40), "--h", draw_int(-3, 40)]
    else:
        argv = ["genfun-check", "--seed", draw_int(0, 99), "--count", draw_int(-3, 3),
                "--terms", draw_int(-3, 30), "--m-p", draw_int(-2, 4)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) in (0, 1, 2)
