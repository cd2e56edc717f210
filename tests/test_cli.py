import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import halfsign
import halfsign.data
from halfsign import cli
from halfsign.characters import CharacterTable
from halfsign.flagship import FIXTURE_NAME, build_flagship
from halfsign.forms import form_to_dict, load_series, save_form
from halfsign.qseries import eta_power
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


def test_run_builds_the_parser_once_per_process(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        codes = [run(argv) for argv in (["--help"], ["--frobnicate"], ["characters", "--q", "7"],
                                        ["scan", "--help"], ["characters", "--q", "5"])]
    finally:
        cli._parser.cache_clear()
    assert codes == [0, 2, 0, 0, 0]
    assert len(built) == 1


def test_a_shared_parser_gives_each_op_the_output_of_a_fresh_one(form_path, tmp_path, monkeypatch,
                                                                 capsys):
    # each op follows one whose options it leaves at their defaults, so a value
    # kept by the shared parser from an earlier op would show in its output
    form, out = str(form_path), tmp_path / "report"
    ops = [
        ["scan", "--form", form, "--mode", "progression", "--q", "31", "--h", "30",
         "--p-max", "30", "--nu-max", "40"],
        ["scan", "--form", form, "--mode", "full", "--p-max", "30", "--nu-max", "40",
         "--out", str(out)],
        ["verify", "--form", form, "--p", "11", "--t-max", "5", "--m-max", "2"],
        ["--frobnicate"],
        ["verify", "--form", form, "--t-max", "5", "--m-max", "2", "--out", str(out)],
        ["--help"],
        ["expand", "--raw", "--eta", "2:12", "--eta", "1:24", "--prec", "30"],
        ["expand", "--raw", "--prec", "30", "--out", str(out)],
    ]

    def outcomes():
        results = []
        for argv in ops:
            out.unlink(missing_ok=True)
            code = run(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err,
                            out.read_bytes() if out.exists() else None))
        return results

    cli._parser.cache_clear()
    shared = outcomes()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", cli.build_parser)
        fresh = outcomes()
    assert [code for code, *_ in shared] == [0, 0, 0, 2, 0, 0, 0, 0]
    assert shared == fresh


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(1) or init(*a, **k)\n"
        "from halfsign import cli\n"
        "print(len(built), cli._parser.cache_info().currsize)\n"
        "cli.run(['--frobnicate'])\n"
        "print(len(built) > 0, cli._parser.cache_info().currsize)\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 0\nTrue 1\n"


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
    assert form.series.coefficient(1) == 1


def test_expand_raw_delta(tmp_path):
    out = tmp_path / "delta.json"
    code = run(
        ["expand", "--eta", "1:24", "--level", "1", "--k", "12", "--prec", "60",
         "--raw", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["coeffs"][2] == "-24"
    assert data.keys() == form_to_dict(build_flagship(60)).keys()
    assert (data["level"], data["k"], data["character"]) == (1, 12, "trivial")
    assert load_series(out) == eta_power(1, 24, 60)


def test_save_form_writes_the_bytes_of_expand_out(tmp_path):
    expanded, saved = tmp_path / "expand.json", tmp_path / "saved.json"
    assert run(["expand", "--eta", "2:12", "--theta-power", "1", "--prec", "2000",
                "--out", str(expanded)]) == 0
    save_form(build_flagship(2000), saved)
    assert saved.read_bytes() == expanded.read_bytes()


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


def test_verify_reads_a_repeated_prime_once(capsys):
    # --p 3 3 once ran p = 3 twice: one eigen entry but each identity case twice
    fixture = str(Path(halfsign.data.__file__).with_name(FIXTURE_NAME))
    assert run(["verify", "--form", fixture, "--p", "3"]) == 0
    once = capsys.readouterr().out
    assert run(["verify", "--form", fixture, "--p", "3", "3"]) == 0
    assert capsys.readouterr().out == once
    assert len(json.loads(once)["checks"]["closed_form_identities"]["cases"]) == 19
    # the first occurrences keep their order
    assert run(["verify", "--form", fixture, "--p", "5", "3", "--t-max", "5"]) == 0
    once = capsys.readouterr().out
    assert run(["verify", "--form", fixture, "--p", "5", "3", "5", "3", "--t-max", "5"]) == 0
    assert capsys.readouterr().out == once
    cases = json.loads(once)["checks"]["closed_form_identities"]["cases"]
    assert list(dict.fromkeys(case["p"] for case in cases)) == [5, 3]


def test_verify_odd_weight_theta_cubed_form(tmp_path):
    """theta(z)^3 eta(2z)^12 has k = 7, so chi1 = ((-1)^k N^2 t | .) takes
    the minus sign the flagship's k = 6 never reaches."""
    form, out = tmp_path / "theta3.json", tmp_path / "verify.json"
    code = run(
        ["expand", "--eta", "2:12", "--theta-power", "3", "--level", "4", "--k", "7",
         "--prec", "3000", "--out", str(form)]
    )
    assert code == 0
    code = run(["verify", "--form", str(form), "--p", "3", "5", "7", "11", "13", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_ok"] is True
    traces = {p: entry["trace"] for p, entry in report["checks"]["eigen_consistency"].items()}
    assert traces == {"3": "-1836", "5": "3990", "7": "-433432", "11": "1619772",
                      "13": "-10878466"}


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


def test_lift_expands_delta_only_to_the_last_prime_it_can_compare(monkeypatch, capsys):
    # at prec 10^4 and t = 1 no prime above 100 is compared; the digest is the
    # report of the run that expanded Delta to p_max = 100000
    asked = []
    delta = cli.flagship_mod.ramanujan_delta
    monkeypatch.setattr(cli.flagship_mod, "ramanujan_delta",
                        lambda prec: asked.append(prec) or delta(prec))
    fixture = Path(halfsign.data.__file__).with_name(FIXTURE_NAME)
    assert run(["lift", "--form", str(fixture), "--p-max", "100000"]) == 0
    assert asked == [100]
    digest = "e09b6a112a370386fbd0ca266254d290688fdfcac4f609fd72be8ec19e3bb0d4"
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert run(["lift", "--form", str(fixture), "--t", "0"]) == 2
    assert "InvalidInput" in capsys.readouterr().err


@pytest.mark.parametrize("t, err", [
    # t = 4 at prec 200 also fails the precision bound a(4 * 20^2) <= 200; t is checked first
    ("4", "halfsign: error: NotSquarefree: t = 4 is not squarefree\n"),
    ("0", "halfsign: error: InvalidInput: t must be positive, got 0\n"),
])
def test_lift_names_a_bad_t_before_the_precision_bound(t, err, capsys):
    assert run(["lift", "--flagship", "--prec", "200", "--t", t]) == 2
    assert capsys.readouterr().err == err


def test_lift_that_compares_no_prime_exits_two(form_path, tmp_path, capsys):
    out = tmp_path / "lift.json"
    assert run(["lift", "--form", str(form_path), "--p-max", "1", "--out", str(out)]) == 2
    assert "halfsign: error: PrecisionExceeded:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, cause", [
    (["--p-max", "1"], "no prime p <= 1 coprime to the level 4 exists"),
    (["--p-max", "2"], "no prime p <= 2 coprime to the level 4 exists"),
    # 2001 * 3^2 > 10^4: p = 3 is coprime to the level but skipped
    (["--t", "2001", "--p-max", "3", "--n-max", "1"],
     "no prime p <= 3 coprime to the level 4 fits within precision 10000"),
])
def test_lift_that_compares_no_prime_names_the_cause(args, cause, capsys):
    fixture = Path(halfsign.data.__file__).with_name(FIXTURE_NAME)
    assert run(["lift", "--form", str(fixture), *args]) == 2
    assert capsys.readouterr().err == f"halfsign: error: PrecisionExceeded: {cause}\n"


def test_verify_form_of_level_zero_with_a_table_exits_two(tmp_path, capsys):
    path = tmp_path / "level0.json"
    form = {"level": 0, "k": 6, "character": {}, "prec": 2, "coeffs": ["0", "1", "0"]}
    path.write_text(json.dumps(form))
    assert run(["verify", "--form", str(path)]) == 2
    assert "halfsign: error: InvalidLevel:" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["\u0661\u0662", "\uff11\uff12/\uff13", "12\n"],
                         ids=["arabic-indic", "fullwidth", "newline"])
def test_a_coefficient_int_reads_but_not_in_ascii_exits_two(tmp_path, capsys, literal):
    path = tmp_path / "literal.json"
    form = {"level": 4, "k": 6, "prec": 2, "coeffs": ["0", literal, "0"]}
    path.write_text(json.dumps(form))
    assert run(["verify", "--form", str(path)]) == 2
    assert "halfsign: error: ParseError: malformed rational literal" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["0", "-4"])
def test_expand_at_a_level_below_one_exits_two(level, capsys):
    assert run(["expand", "--eta", "2:12", "--theta-power", "1", "--level", level,
                "--prec", "10"]) == 2
    assert "InvalidLevel" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, error", [("--level", "6", "InvalidLevel"),
                                               ("--k", "1", "InvalidInput")])
def test_expand_checks_level_and_k_before_expanding(flag, value, error, monkeypatch, capsys):
    def no_expansion(recipe, prec):
        raise AssertionError("the recipe was expanded before the level and k checks")

    monkeypatch.setattr(cli, "expand_recipe", no_expansion)
    assert run(["expand", "--eta", "2:12", "--theta-power", "1", flag, value,
                "--prec", "200000"]) == 2
    assert f"halfsign: error: {error}:" in capsys.readouterr().err


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


@pytest.mark.parametrize("mode", [["full"], ["odd"], ["even"],
                                  ["progression", "--q", "5", "--h", "2"],
                                  ["progression", "--q", "31", "--h", "30"]])
@pytest.mark.parametrize("p_max", ["1", "97"])
def test_scan_rejects_a_negative_nu_max_before_any_prime(capsys, mode, p_max):
    # p_max = 1 reaches no prime, so only a check made before the prime loop
    # sees the bad nu_max
    fixture = Path(halfsign.data.__file__).with_name(FIXTURE_NAME)
    argv = ["scan", "--form", str(fixture), "--p-max", p_max, "--nu-max", "-1", "--mode", *mode]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "M must be nonnegative" in captured.err


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


def test_scan_names_each_prime_read_off_the_exact_recurrence(monkeypatch, capsys):
    # with no certified phase every prime falls back: stderr says so, one
    # line per prime, and the CSV is unchanged
    fixture = Path(halfsign.data.__file__).with_name(FIXTURE_NAME)
    argv = ["scan", "--form", str(fixture), "--p-max", "13", "--nu-max", "40", "--mode", "odd"]
    assert run(argv) == 0
    certified = capsys.readouterr()
    assert certified.err == ""
    monkeypatch.setattr(cli.signscan, "_phases", lambda *args: None)
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == certified.out
    assert captured.err == "".join(
        f"halfsign: scan: exact p = {p}: signs read off the exact recurrence, as the phase "
        "left one undecided\n"
        for p in (3, 5, 7, 11, 13)
    )


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


# sha256 of the `genfun-check --seed 0 --terms T` reports (100 instances) that
# the suite gave on the Fraction twisted sequence, before it read the
# recurrence's integer row
@pytest.mark.parametrize("terms, digest", [
    ("0", "d55a2313c0c7586e2fbc82540c7df7e67dcdd3a3799cd0b746d38abff7ad4926"),
    ("1", "3805afebd7bfc173b92c8fbb6585fd3483947dcb63d325878cf59fb55a2187a4"),
])
def test_genfun_check_reports_at_zero_and_one_terms_are_unchanged(terms, digest, capsys):
    assert run(["genfun-check", "--seed", "0", "--terms", terms]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of the `genfun-check --seed S` reports at the default 100 terms, the
# long rows whose tails the suite checks as the closed forms' recurrences
@pytest.mark.parametrize("seed, digest", [
    ("0", "3c499c858f910cd9ded760e47917d693bace1f488ce72391bc35b56d6591715c"),
    ("18", "9581c2adba70148784854dbc6da1f17a86980a00003e0fb93d91e48709831a8c"),
])
def test_genfun_check_reports_at_the_default_terms_are_unchanged(seed, digest, capsys):
    assert run(["genfun-check", "--seed", seed]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


_json_scalars = st.none() | st.booleans() | st.integers() | st.text()
_json_values = st.recursive(
    _json_scalars | st.lists(st.integers()) | st.lists(st.text()),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30,
)


@given(st.dictionaries(st.text(), _json_values))
@example({})
@example({"a": [], "b": {}, "c": [True, 1], "d": ["\u00e9", "\u2028", ""], "e": [[1, -2], [3]],
          "f": [None, "x"], "g": [False], "\U0001d11e": {"z": [10**40, 0]}})
@example({"rows": [[], [1]], "mixed": [[1], 2], "tuple": (1, "a", (2,)), "bools": [True, False]})
@example({"nested": {"long": list(range(-50, 50)), "rows": [["a"], ["b"]]}})
def test_report_writer_matches_stdlib_json(payload):
    assert cli._json(payload) == json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_characters_dump(tmp_path):
    out = tmp_path / "chars.json"
    assert run(["characters", "--q", "7", "--out", str(out)]) == 0
    table = json.loads(out.read_text())
    assert table["generator"] == 3
    assert table["log"]["3"] == 1
    assert len(table["value_exponents"]) == 6


@pytest.mark.parametrize("q", [2, 7, 101])
def test_characters_matrix_is_the_tables_value_exponent(q, tmp_path):
    out = tmp_path / "chars.json"
    assert run(["characters", "--q", str(q), "--out", str(out)]) == 0
    dump = json.loads(out.read_text())
    units = sorted(map(int, dump["log"]))
    table = CharacterTable.build(q)
    matrix = dump["value_exponents"]
    assert matrix == [[table.value_exponent(j, a) for a in units] for j in range(q - 1)]
    # each row is a homomorphism (Z/q)* -> Z/(q-1): e(ab) = e(a) + e(b)
    column = {a: i for i, a in enumerate(units)}
    for row in matrix:
        assert all(row[column[a * b % q]] == (row[column[a]] + row[column[b]]) % (q - 1)
                   for a in units for b in units)


def test_characters_rejects_q_above_1000(tmp_path, capsys):
    out = tmp_path / "chars.json"
    assert run(["characters", "--q", "1009", "--out", str(out)]) == 2
    assert "--q must be at most 1000, got 1009" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("q", [101, 997])
def test_characters_accepts_primes_up_to_1000(q, tmp_path):
    out = tmp_path / "chars.json"
    assert run(["characters", "--q", str(q), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["group_order"] == q - 1


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


def _python(*argv):
    src = str(Path(halfsign.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)


def _python_m_halfsign(*argv):
    return _python("-m", "halfsign", *argv)


def test_importing_the_cli_loads_no_importlib_resources():
    # -S: a site-packages .pth file may import importlib.resources itself
    done = _python("-S", "-c", "import sys, halfsign.cli; print('importlib.resources' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_importing_the_cli_adds_neither_dataclasses_nor_inspect():
    # both cost a one-shot command their import time; -S as above
    script = ("import sys\nbefore = set(sys.modules)\nimport halfsign.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    done = _python("-S", "-c", script)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_importing_the_package_loads_no_module_and_binds_only_the_version():
    # -S as above; each public name lives in the module that defines it
    script = ("import sys, halfsign\n"
              "print(sorted(m for m in sys.modules if m.startswith('halfsign.')))\n"
              "names = vars(halfsign)\n"
              "print(sorted(n for n in names if not n.startswith('_')), '__version__' in names)")
    done = _python("-S", "-c", script)
    assert (done.returncode, done.stdout) == (0, "[]\n[] True\n"), done.stderr


MODULES = sorted(p.stem for p in Path(halfsign.__file__).parent.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    done = _python("-S", "-c", f"import halfsign.{module}")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_python_m_halfsign_help_exits_zero():
    done = _python_m_halfsign("--help")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: ")


# 10^15 bytes, or list slots, lie past the 128 TiB x86-64 address space, so the
# allocation fails at once; a size a kernel could commit is not tried here
@pytest.mark.parametrize("argv", [
    ["scan", "--flagship", "--prec", "100", "--p-max", str(10**15)],
    ["expand", "--eta", "2:12", "--theta-power", "1", "--prec", str(10**15)],
    ["lift", "--flagship", "--p-max", str(10**15)],
    ["genfun-check", "--seed", "0", "--count", "1", "--terms", str(10**15)],
], ids=["scan", "expand", "lift", "genfun-check"])
def test_a_size_too_large_to_allocate_exits_two(argv):
    done = _python_m_halfsign(*argv)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "halfsign: error: MemoryError: \n")


# past sys.maxsize a size does not fit a list or bytearray index at all
@pytest.mark.parametrize("argv", [
    ["scan", "--flagship", "--prec", "100", "--p-max", str(10**20)],
    ["expand", "--eta", "2:12", "--theta-power", "1", "--prec", str(10**20)],
    ["lift", "--flagship", "--p-max", str(10**20)],
    ["genfun-check", "--seed", "0", "--count", "1", "--terms", str(10**20)],
], ids=["scan", "expand", "lift", "genfun-check"])
def test_a_size_past_the_index_range_exits_two(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("halfsign: error: OverflowError: ")
    assert captured.err.count("\n") == 1


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
