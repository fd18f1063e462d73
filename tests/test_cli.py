"""Command-line interface: parsing, exit codes, formats, determinism."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SRC_ENV
from hypgeo import (
    ETA_INJ_SPLIT,
    CausalType,
    GroupTag,
    conjugate_roots,
    covector_from_pbar3,
    exp_map,
    injectivity_radius,
    light_covector,
    maxwell_time,
    metric_from_eta,
    psl2_canonicalize,
    sample_geodesic,
)
from hypgeo.cli import COMMANDS, UsageError, main, parse_args

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capfdbinary, *args):
    code = main(list(args))
    cap = capfdbinary.readouterr()
    return code, cap.out, cap.err


def csv_rows(data: bytes):
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


# ---- parsing ---------------------------------------------------------------

def test_format_inferred_from_out_extension(tmp_path):
    cfg = parse_args(["injrad", "--eta", "-1.25", "--out", str(tmp_path / "r.json")])
    assert cfg.format == "json"
    cfg = parse_args(["injrad", "--eta", "-1.25", "--out", str(tmp_path / "r.csv")])
    assert cfg.format == "csv"
    cfg = parse_args(["injrad", "--eta", "-1.25"])
    assert cfg.format == "csv"
    # an explicit flag beats the extension
    cfg = parse_args(["injrad", "--eta", "-1.25", "--format", "csv",
                      "--out", str(tmp_path / "r.json")])
    assert cfg.format == "csv"


def test_parse_covector_components():
    cfg = parse_args(["cut-time", "--eta", "-1.25", "--p", "0.5,0.25,1.5"])
    assert cfg.p == (0.5, 0.25, 1.5)
    cfg = parse_args(["sr-compare", "--pbar3", "1.2", "--type", "tl",
                      "--eta-list", "-1.1,-1.01"])
    assert cfg.eta_list == (-1.1, -1.01)


def test_parse_negative_list_values():
    # comma lists opening with a minus sign must not be read as options
    cfg = parse_args(["cut-time", "--eta", "-1.25", "--p", "-0.5,0.25,1.5"])
    assert cfg.p == (-0.5, 0.25, 1.5)
    cfg = parse_args(["log", "--eta", "-1.25", "--target", "-1.5,0,0,-0.5"])
    assert cfg.target == (-1.5, 0.0, 0.0, -0.5)


@pytest.mark.parametrize("spaced, joined", [
    (("injrad", "--eta", "-1e6"), ("injrad", "--eta=-1e6")),
    (("cut-time", "--eta", "-1.3", "--type", "sl", "--pbar3", "-2e-3"),
     ("cut-time", "--eta=-1.3", "--type", "sl", "--pbar3=-2e-3")),
])
def test_negative_numbers_in_exponent_form_are_values(capfdbinary, spaced, joined):
    # argparse takes only -1 and -1.5 shapes for numbers, so these used to
    # exit 1 with "expected one argument"
    code, out, err = run_cli(capfdbinary, *spaced)
    assert code == 0, err
    assert (code, out) == run_cli(capfdbinary, *joined)[:2]


def test_negative_infinity_is_a_value(capfdbinary):
    code, out, err = run_cli(capfdbinary, "geodesic", "--eta", "-1.25", "--type", "tl",
                             "--pbar3", "1.5", "--t-max", "-inf")
    assert code == 2 and out == b""
    assert b"t_end must be finite" in err


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_parser_subcommands_are_the_commands_in_order(capsys):
    listed = re.search(r"\{([a-z,-]+)\}", help_text(capsys)).group(1)
    assert tuple(listed.split(",")) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_has_help(capsys, command):
    assert help_text(capsys, command).startswith(f"usage: hypgeo {command} ")


_METRIC_FLAGS = ("--I1", "--I3", "--eta")
_COVECTOR_FLAGS = ("--p", "--pbar3", "--phase", "--type")
_OUTPUT_FLAGS = ("--format", "--help", "--out")

# each subcommand's options, pinned like hypgeo.__all__: adding or
# removing a flag must be deliberate
COMMAND_FLAGS = {
    "geodesic": {*_METRIC_FLAGS, *_COVECTOR_FLAGS, *_OUTPUT_FLAGS, "--samples", "--t-max"},
    "vertical-flow": {*_METRIC_FLAGS, *_COVECTOR_FLAGS, *_OUTPUT_FLAGS, "--samples", "--t-max"},
    "maxwell": {*_METRIC_FLAGS, *_COVECTOR_FLAGS, *_OUTPUT_FLAGS},
    "conjugate": {*_METRIC_FLAGS, *_COVECTOR_FLAGS, *_OUTPUT_FLAGS, "--k-max"},
    "cut-time": {*_METRIC_FLAGS, *_COVECTOR_FLAGS, *_OUTPUT_FLAGS, "--group"},
    "cut-locus": {*_METRIC_FLAGS, *_OUTPUT_FLAGS, "--grid", "--group", "--rho-max"},
    "wavefront": {*_METRIC_FLAGS, *_OUTPUT_FLAGS, "--grid", "--group", "--t"},
    "injrad": {*_METRIC_FLAGS, *_OUTPUT_FLAGS},
    "log": {*_METRIC_FLAGS, *_OUTPUT_FLAGS, "--target"},
    "sr-compare": {*_OUTPUT_FLAGS, "--eta-list", "--pbar3", "--type"},
}


def test_command_flags_are_pinned(capsys):
    assert tuple(COMMAND_FLAGS) == COMMANDS
    for command, flags in COMMAND_FLAGS.items():
        listed = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", help_text(capsys, command)))
        assert listed == flags, command


@pytest.mark.parametrize("command", ["cut-time", "cut-locus", "wavefront"])
def test_group_help_lists_both_groups(capsys, command):
    assert "--group {psl2,sl2}" in help_text(capsys, command)


# SHA-256 of `hypgeo --help` followed by `hypgeo <command> --help` for each
# command in COMMANDS order: usage lines, flag order, defaults and help
# strings are pinned, at a fixed width so that argparse wraps alike everywhere
HELP_DIGEST = "56fe38269c09eace693ec239dee13f52baab30a098132f21626d808029aa76f2"


def test_help_text_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    texts = [help_text(capsys), *(help_text(capsys, c) for c in COMMANDS)]
    assert hashlib.sha256("".join(texts).encode("utf-8")).hexdigest() == HELP_DIGEST


def _flags_added(monkeypatch, argv):
    """The first name of each option parse_args(argv) adds, help aside."""
    added = []
    add = argparse.ArgumentParser.add_argument

    def counted(self, *names, **options):
        if "--help" not in names:
            added.append(names[0])
        return add(self, *names, **options)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    try:
        parse_args(argv)
    except UsageError:
        pass
    return added


def test_parse_args_adds_flags_only_to_the_command_it_runs(monkeypatch):
    argv = ["log", "--eta", "-1.25", "--target", "1,0,0,0"]
    assert _flags_added(monkeypatch, argv) == [
        "--I1", "--I3", "--eta", "--out", "--format", "--target"]
    # with no command named, argparse stops at the top level: no flags
    assert _flags_added(monkeypatch, ["no-such-command"]) == []
    assert _flags_added(monkeypatch, []) == []


# ---- exit codes ------------------------------------------------------------

USAGE_CASES = [
    [],
    ["no-such-command"],
    ["geodesic", "--eta", "-1.25", "--pbar3", "2", "--type", "tl"],
    ["injrad"],
    ["injrad", "--eta", "-1.25", "--I3", "4.0"],
    ["cut-time", "--eta", "-1.25", "--p", "1,0"],
    ["cut-time", "--eta", "-1.25", "--p", "1,0,zebra"],
    ["geodesic", "--eta", "-1.25", "--p", "0.5,0,1.5", "--pbar3", "2",
     "--t-max", "1"],
    ["geodesic", "--eta", "-1.25", "--type", "tl", "--t-max", "3"],
    ["geodesic", "--eta", "-1.25", "--pbar3", "2", "--type", "tl",
     "--t-max", "3", "--samples", "1"],
    ["maxwell", "--eta", "-1.25", "--pbar3", "2", "--type", "tl",
     "--t-max", "3"],
    ["wavefront", "--eta", "-1.25", "--t", "-2.0"],
    ["wavefront", "--eta", "-1.25", "--t", "3.0", "--grid", "4"],
    ["cut-locus", "--eta", "-1.25", "--grid", "1"],
    ["conjugate", "--eta", "-1.25", "--pbar3", "2", "--type", "tl",
     "--k-max", "0"],
    ["sr-compare", "--pbar3", "1.2", "--type", "tl", "--eta-list", "x"],
    ["cut-time", "--eta", "-1.25", "--pbar3", "2", "--type", "tl", "--group", "bad"],
    # the logarithm's tolerance scales with the target and is not a flag
    ["log", "--eta", "-1.25", "--target", "1,0,0,0", "--tol", "1e-10"],
    # a covector command with neither --p nor --type
    ["maxwell", "--eta", "-1.25", "--pbar3", "2"],
    ["vertical-flow", "--eta", "-1.25", "--pbar3", "2", "--type", "tl",
     "--t-max", "3", "--samples", "1"],
]


@pytest.mark.parametrize("argv", USAGE_CASES)
def test_usage_errors_exit_1(capfdbinary, argv):
    code, out, err = run_cli(capfdbinary, *argv)
    assert code == 1
    assert out == b""
    assert b"usage error" in err


DOMAIN_CASES = [
    ["injrad", "--eta", "-0.5"],
    ["injrad", "--eta", "-1.25", "--I1", "-2.0"],
    ["injrad", "--I3", "-4.0"],
    ["cut-time", "--eta", "-1.25", "--p", "1,1,1"],
    ["maxwell", "--eta", "-1.25", "--pbar3", "0.5", "--type", "tl"],
    ["log", "--eta", "-1.25", "--target", "2,0,0,0"],
    ["log", "--eta", "-1.25", "--target", "0,0,0,1"],
    ["log", "--eta", "-1.25", "--target", "nan,0,0,0"],
    ["log", "--eta", "-1.25", "--target", "inf,0,0,0"],
    ["sr-compare", "--pbar3", "1.2", "--type", "tl", "--eta-list", "-0.9"],
    ["cut-locus", "--eta", "-1.25", "--grid", "4", "--rho-max", "nan"],
    ["cut-locus", "--eta", "-1.25", "--grid", "4", "--rho-max", "inf"],
    ["cut-locus", "--eta", "-1.25", "--grid", "4", "--rho-max", "-1"],
    ["cut-locus", "--eta", "-1.25", "--grid", "4", "--rho-max", "0"],
    ["wavefront", "--eta", "-1.25", "--t", "nan", "--grid", "8"],
    ["wavefront", "--eta", "-1.25", "--t", "inf", "--grid", "8"],
    ["geodesic", "--eta", "-1.25", "--pbar3", "1.5", "--type", "tl", "--t-max", "nan"],
    ["geodesic", "--I3", "inf", "--type", "ll", "--t-max", "1"],
    # I1/I3 overflows, so eta is -inf: injrad printed a radius of 0
    ["injrad", "--I1", "1e300", "--I3", "1e-300"],
]


@pytest.mark.parametrize("argv", DOMAIN_CASES)
def test_domain_errors_exit_2(capfdbinary, argv):
    code, out, err = run_cli(capfdbinary, *argv)
    assert code == 2
    assert out == b""
    assert b"domain error" in err


# two faults each: the metric is checked first, then the covector, then
# the command's own flags; the one error line names the first fault
TWO_FAULT_CASES = [
    (["geodesic", "--eta", "-0.5", "--type", "tl", "--pbar3", "2", "--t-max", "3",
      "--samples", "1"], 2, b"eta must be < -1"),
    (["wavefront", "--eta", "-0.5", "--t", "3", "--grid", "4"], 2, b"eta must be < -1"),
    (["cut-locus", "--eta", "-0.5", "--grid", "1"], 2, b"eta must be < -1"),
    (["conjugate", "--eta", "-1.25", "--type", "tl", "--pbar3", "0.5", "--k-max", "0"],
     2, b"|pbar3| >= 1"),
    (["cut-locus", "--I3", "4", "--eta", "-1.25", "--grid", "1"], 1, b"--I3 or --eta"),
]


@pytest.mark.parametrize("argv, code, first", TWO_FAULT_CASES,
                         ids=[f"{a[0]}-{i}" for i, (a, _, _) in enumerate(TWO_FAULT_CASES)])
def test_the_first_of_two_faults_sets_the_exit_and_the_message(capfdbinary, argv, code, first):
    got, out, err = run_cli(capfdbinary, *argv)
    assert (got, out) == (code, b"")
    assert err.startswith(b"hypgeo: ") and err.count(b"\n") == 1 and first in err


def test_cut_time_where_one_plus_eta_rounds_to_eta_exits_0(capfdbinary):
    # the crossing bracket is one float here: used to exit 2 with
    # "empty phase bracket"
    code, out, err = run_cli(capfdbinary, "cut-time", "--eta", "-1e300", "--type", "tl",
                             "--pbar3", "1.5")
    assert code == 0 and err == b""
    header, row = csv_rows(out)
    assert header[:2] == ["group", "t_cut"]
    assert abs(float(row[1]) * 1e150 - math.pi) <= 1e-12 * math.pi


def test_geodesic_names_a_time_whose_turn_overflows(capfdbinary):
    # the time-like pole's turn theta is -inf: used to say "math domain error"
    code, out, err = run_cli(capfdbinary, "geodesic", "--eta", "-1e6", "--pbar3", "1",
                             "--type", "tl", "--t-max", "1e308", "--samples", "2")
    assert code == 2 and out == b""
    assert b"geodesic time 1e+308 overflows the turn" in err


def test_geodesic_infinite_t_max_names_the_end_time(capfdbinary):
    # used to say "geodesic time must be finite, got nan"
    code, out, err = run_cli(capfdbinary, "geodesic", "--eta", "-1.25", "--pbar3", "1.5",
                             "--type", "tl", "--t-max", "inf")
    assert code == 2
    assert out == b""
    assert b"end time" in err and b"got inf" in err


def test_vertical_flow_infinite_t_max_names_the_end_time(capfdbinary):
    # used to say "flow time must be finite, got nan": inf * 0 at sample 0
    code, out, err = run_cli(capfdbinary, "vertical-flow", "--eta", "-1.25", "--pbar3", "1.5",
                             "--type", "tl", "--t-max", "inf")
    assert code == 2
    assert out == b""
    assert b"t_max" in err and b"got inf" in err


def test_vertical_flow_names_a_time_whose_turn_overflows(capfdbinary):
    # the flow's turn is -inf at the last sample: used to say "math domain error"
    code, out, err = run_cli(capfdbinary, "vertical-flow", "--eta", "-1.25", "--pbar3", "1",
                             "--type", "tl", "--t-max", "1e308", "--samples", "2")
    assert code == 2 and out == b""
    assert b"flow time 1e+308 overflows the turn" in err


# ---- CSV format ------------------------------------------------------------

def test_csv_bytes_are_crlf_with_single_header(capfdbinary):
    code, out, _ = run_cli(capfdbinary, "geodesic", "--eta", "-1.25",
                           "--pbar3", "2", "--type", "tl",
                           "--t-max", "1.0", "--samples", "5")
    assert code == 0
    assert out.endswith(b"\r\n")
    lines = out.split(b"\r\n")
    assert lines.pop() == b""
    assert len(lines) == 6
    assert lines[0] == b"t,q0,q1,q2,q3"
    assert lines[1] == b"0,1,0,0,0"
    assert b"t,q0" not in b"\r\n".join(lines[1:])


def test_csv_floats_round_trip_at_17_digits(capfdbinary):
    code, out, _ = run_cli(capfdbinary, "geodesic", "--eta", "-1.25",
                           "--pbar3", "2", "--type", "tl",
                           "--t-max", "1.0", "--samples", "5")
    assert code == 0
    m = metric_from_eta(-1.25, 1.0)
    p = covector_from_pbar3(m, 2.0, 0.0, CausalType.TIME_LIKE)
    samples = sample_geodesic(m, p, 1.0, 5)
    rows = csv_rows(out)[1:]
    for row, s in zip(rows, samples):
        assert float(row[0]) == s.t
        got = tuple(float(c) for c in row[1:])
        assert got == s.point.components()


def test_csv_infinity_words(capfdbinary):
    code, out, _ = run_cli(capfdbinary, "maxwell", "--eta", "-1.25",
                           "--pbar3", "0", "--type", "sl")
    assert code == 0
    assert out == b"t_maxwell\r\ninf\r\n"


def test_csv_booleans_and_grid_order(capfdbinary):
    code, out, _ = run_cli(capfdbinary, "wavefront", "--eta", "-1.25",
                           "--t", "3.5", "--grid", "16")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["i", "j", "p1", "p2", "p3", "q0", "q1", "q2", "q3",
                       "optimal"]
    body = rows[1:]
    assert len(body) == 16 * 16
    flags = {r[9] for r in body}
    assert flags == {"true", "false"}
    indices = [(int(r[0]), int(r[1])) for r in body]
    assert indices == sorted(indices)


# ---- JSON format -----------------------------------------------------------

def test_json_payload_shape(capfdbinary):
    code, out, _ = run_cli(capfdbinary, "maxwell", "--eta", "-1.25",
                           "--pbar3", "2", "--type", "tl", "--format", "json")
    assert code == 0
    assert out.endswith(b"\n") and not out.endswith(b"\r\n")
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "maxwell"
    assert payload["columns"] == ["t_maxwell"]
    assert len(payload["rows"]) == 1
    # keys are emitted sorted, two-space indented
    assert list(payload.keys()) == sorted(payload.keys())
    assert out.startswith(b'{\n  "columns"')


def test_json_encodes_infinity_as_object(capfdbinary):
    code, out, _ = run_cli(capfdbinary, "maxwell", "--eta", "-1.25",
                           "--pbar3", "0", "--type", "sl", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [[{"finite": False, "value": None}]]


def test_json_cut_locus_structure(capfdbinary):
    code, out, _ = run_cli(capfdbinary, "cut-locus", "--eta", "-1.25",
                           "--grid", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "psl2"
    names = [s["stratum"] for s in payload["strata"]]
    assert names == ["Z", "R_eta", "ConjugateCircle"]
    for s in payload["strata"]:
        assert s["validation_error"] < 1e-8
        assert all(len(r) == len(s["columns"]) for r in s["rows"])


# ---- output file -----------------------------------------------------------

def test_out_file_matches_stdout(tmp_path, capfdbinary):
    args = ("cut-time", "--eta", "-1.6", "--pbar3", "2", "--type", "tl",
            "--group", "sl2")
    code, out, _ = run_cli(capfdbinary, *args)
    assert code == 0
    path = tmp_path / "cut.csv"
    code2, out2, _ = run_cli(capfdbinary, *args, "--out", str(path))
    assert code2 == 0
    assert out2 == b""
    assert path.read_bytes() == out


@pytest.mark.parametrize("name", ["missing/r.csv", "."])
def test_an_unwritable_out_path_is_one_line_and_exit_1(tmp_path, capfdbinary, name):
    # a missing directory, or a directory: used to print a traceback
    path = tmp_path / name
    code, out, err = run_cli(capfdbinary, "injrad", "--eta", "-1.6", "--out", str(path))
    assert code == 1
    assert out == b""
    assert err.startswith(b"hypgeo: ") and err.count(b"\n") == 1
    assert str(path).encode() in err


# ---- repeat-run determinism -------------------------------------------------

def test_wavefront_bytes_identical_across_repeated_runs(capfdbinary):
    args = ("wavefront", "--eta", "-1.25", "--t", "3.5", "--grid", "16")
    code, first, _ = run_cli(capfdbinary, *args)
    assert code == 0
    code, second, _ = run_cli(capfdbinary, *args)
    assert code == 0
    assert first == second


def test_repeated_runs_byte_identical(capfdbinary):
    args = ("cut-locus", "--eta", "-1.6", "--group", "sl2", "--grid", "8",
            "--rho-max", "1.5")
    _, first, _ = run_cli(capfdbinary, *args)
    _, second, _ = run_cli(capfdbinary, *args)
    assert first == second


# ---- per-command behavior --------------------------------------------------

def test_geodesic_light_covector(capfdbinary):
    code, out, _ = run_cli(capfdbinary, "geodesic", "--eta", "-1.25",
                           "--type", "ll", "--t-max", "2.0", "--samples", "4")
    assert code == 0
    assert len(csv_rows(out)) == 5


def test_vertical_flow_columns(capfdbinary):
    code, out, _ = run_cli(capfdbinary, "vertical-flow", "--eta", "-1.25",
                           "--pbar3", "2", "--type", "tl",
                           "--t-max", "2.0", "--samples", "4")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["t", "p1", "p2", "p3"]
    # the vertical component is preserved by the flow
    p3s = {r[3] for r in rows[1:]}
    assert len(p3s) == 1


def test_maxwell_light_sign_flag(capfdbinary):
    m = metric_from_eta(-1.25, 1.0)
    want = maxwell_time(m, light_covector(m, 0.0, -1))
    code, out, _ = run_cli(capfdbinary, "maxwell", "--eta", "-1.25",
                           "--type", "ll", "--pbar3", "-1")
    assert code == 0
    assert float(csv_rows(out)[1][0]) == want


def test_conjugate_table(capfdbinary):
    m = metric_from_eta(-1.25, 1.0)
    taus = conjugate_roots(m, 2.0, 2)
    code, out, _ = run_cli(capfdbinary, "conjugate", "--eta", "-1.25",
                           "--pbar3", "2", "--type", "tl", "--k-max", "2")
    assert code == 0
    rows = csv_rows(out)[1:]
    assert [int(r[0]) for r in rows] == list(range(1, len(taus) + 1))
    assert [float(r[1]) for r in rows] == list(taus)


def test_conjugate_non_time_like_is_infinite(capfdbinary):
    code, out, _ = run_cli(capfdbinary, "conjugate", "--eta", "-1.25",
                           "--pbar3", "0.5", "--type", "sl")
    assert code == 0
    assert csv_rows(out)[1] == ["0", "inf", "inf"]


def test_cut_time_strata(capfdbinary):
    code, out, _ = run_cli(capfdbinary, "cut-time", "--eta", "-1.25",
                           "--pbar3", "1.15", "--type", "tl")
    assert code == 0
    row = csv_rows(out)[1]
    assert row[0] == "psl2"
    assert row[4] == "M12"
    code, out, _ = run_cli(capfdbinary, "cut-time", "--eta", "-1.25",
                           "--pbar3", "2", "--type", "tl", "--group", "sl2")
    assert code == 0
    row = csv_rows(out)[1]
    assert row[0] == "sl2"
    assert row[4] == "M3"
    assert float(row[1]) <= float(row[3])


def test_injrad_cases(capfdbinary):
    for eta, case in (("-2.5", "1"), ("-1.6", "2"), ("-1.2", "3")):
        code, out, _ = run_cli(capfdbinary, "injrad", "--eta", eta)
        assert code == 0
        row = csv_rows(out)[1]
        want = injectivity_radius(metric_from_eta(float(eta), 1.0))
        assert float(row[0]) == want
        assert row[1] == case


def test_injrad_case_beside_the_junctions(capfdbinary):
    # the case column is the regime that injectivity_radius takes for the
    # metric's own eta, on either side of eta = -2 and ETA_INJ_SPLIT
    for junction in (-2.0, ETA_INJ_SPLIT):
        for eta in (math.nextafter(junction, -math.inf), junction,
                    math.nextafter(junction, 0.0)):
            m_eta = metric_from_eta(eta, 1.0).eta
            want = "1" if m_eta <= -2.0 else ("2" if m_eta <= ETA_INJ_SPLIT else "3")
            code, out, _ = run_cli(capfdbinary, "injrad", "--eta", repr(eta))
            assert code == 0
            assert csv_rows(out)[1][1] == want, eta


def test_log_round_trip(capfdbinary):
    m = metric_from_eta(-1.25, 1.0)
    p = covector_from_pbar3(m, 1.7, 0.9, CausalType.TIME_LIKE)
    q = psl2_canonicalize(exp_map(m, p, 1.3)).rep
    target = ",".join(repr(c) for c in q.components())
    code, out, _ = run_cli(capfdbinary, "log", "--eta", "-1.25",
                           "--target", target)
    assert code == 0
    row = [float(c) for c in csv_rows(out)[1]]
    assert abs(row[0] - p.p1) < 1e-8
    assert abs(row[1] - p.p2) < 1e-8
    assert abs(row[2] - p.p3) < 1e-8
    assert abs(row[3] - 1.3) < 1e-9


def test_log_inverts_far_exp_map_endpoint(capfdbinary):
    # Exp(p, 20) for eta = -1.25 and the space-like pbar3 0.05 at phase
    # 0.4, frozen: it misses the unit pseudo norm by 8.2e-8, rounding of a
    # component of size 9.3e3, and is passed on as given
    target = "9116.134930384735,5644.598382481931,9273.649504729208,-5895.604376745552"
    code, out, err = run_cli(capfdbinary, "log", "--eta", "-1.25", "--target", target)
    assert code == 0, err
    assert csv_rows(out)[1][3] == "20"


def test_log_keeps_an_exact_far_endpoint_time(capfdbinary):
    # Exp(p, 14) of the covector above; rescaling the target by
    # 1/sqrt(pseudo norm) moved it by 1.2e-10 relative and printed
    # t = 14.00000000013803
    target = "502.91209477283036,363.7458816790705,403.2178276365491,-204.88071625613193"
    code, out, err = run_cli(capfdbinary, "log", "--eta", "-1.25", "--target", target)
    assert code == 0, err
    assert abs(float(csv_rows(out)[1][3]) - 14.0) <= 1e-15 * 14.0


def test_log_of_a_far_target_with_overflowing_trials_exits_0(capfdbinary):
    # a trial step whose cosh tau overflows is a failed step, not bad input,
    # and the search goes on to the preimage (the `log` workload's seed 2,
    # op 341, generated at t = 53.05071799401598)
    target = "107203458684.24858,-152655396560.0727,59555350881.29433,123927109074.81767"
    code, out, err = run_cli(capfdbinary, "log", "--eta", "-1.4347758888779447",
                             "--target", target)
    assert code == 0, err
    assert abs(float(csv_rows(out)[1][3]) - 53.05071799401598) <= 1e-12 * 53.06


def test_log_that_fails_to_converge_exits_3(capfdbinary):
    # a near time-like target at eta -6.57 that no seeded Newton solve inverts
    target = "0.9983885241812546,-0.007586959138977674,-0.00496734965918714,-0.05746817636561652"
    code, out, err = run_cli(capfdbinary, "log", "--eta", "-6.570019537170073",
                             "--target", target)
    assert code == 3 and out == b"", err
    assert b"convergence failure" in err


def test_sr_compare_diffs_decrease(capfdbinary):
    code, out, _ = run_cli(capfdbinary, "sr-compare", "--pbar3", "1.2",
                           "--type", "tl", "--eta-list",
                           "-1.1,-1.01,-1.001,-1.0001")
    assert code == 0
    rows = csv_rows(out)[1:]
    assert len(rows) == 4
    diffs = [float(r[3]) for r in rows]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_sr_compare_gap_is_0_where_both_cut_times_are_infinite(capfdbinary):
    # the space-like equator: inf - inf used to print nan
    code, out, _ = run_cli(capfdbinary, "sr-compare", "--pbar3", "0", "--type", "sl",
                           "--eta-list", "-1.5,-1.1")
    assert code == 0
    assert out == (b"eta,riemannian_cut,sr_cut,abs_diff\r\n"
                   b"-1.5,inf,inf,0\r\n-1.1000000000000001,inf,inf,0\r\n")


def test_console_script_entry_point():
    # the installed script, or else the entry point that pyproject.toml
    # declares for it, run the way the script would run it
    exe = shutil.which("hypgeo")
    if exe is not None:
        cmd, env = [exe], None
    else:
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with open(ROOT / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["hypgeo"]
        module, func = target.split(":")
        cmd = [sys.executable, "-c",
               f"import sys; from {module} import {func}; sys.exit({func}())"]
        env = SRC_ENV
    proc = subprocess.run([*cmd, "injrad", "--eta", "-1.25"],
                          capture_output=True, env=env)
    assert proc.returncode == 0
    want = injectivity_radius(metric_from_eta(-1.25, 1.0))
    assert proc.stdout == b"radius,case\r\n%.17g,3\r\n" % want


def test_module_invocation_matches_inprocess(capfdbinary):
    args = ["maxwell", "--eta", "-1.25", "--pbar3", "2", "--type", "tl"]
    code, out, _ = run_cli(capfdbinary, *args)
    assert code == 0
    proc = subprocess.run([sys.executable, "-m", "hypgeo.cli", *args],
                          capture_output=True, env=SRC_ENV)
    assert proc.returncode == 0
    assert proc.stdout == out


def test_cli_import_does_not_load_numpy():
    # numpy is a test extra: only the RK4 oracle in tests/helpers.py uses it
    code = "import sys, hypgeo.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\n"


def _loaded_after_import(module):
    code = (f"import sys, {module}; "
            "print([m for m in ('csv', 'dataclasses', 'inspect', 'numpy') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_import_loads_no_dataclasses_inspect_or_numpy():
    # the value records are NamedTuples, so importing hypgeo pulls in
    # neither dataclasses nor the inspect module it imports
    assert _loaded_after_import("hypgeo") == b"[]\n"


def test_cli_import_loads_no_dataclasses_inspect_or_numpy():
    # the configuration is argparse's namespace and a CSV table is one join,
    # so a hypgeo process skips them, and csv, as well
    assert _loaded_after_import("hypgeo.cli") == b"[]\n"


def test_cli_import_does_not_load_json():
    # argparse does not import json and a CSV run never needs it
    code = "import sys, hypgeo.cli; print('json' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\n"


# ---- pinned output bytes ---------------------------------------------------
#
# SHA-256 of the stdout of one or two invocations of every subcommand: a
# change to their bytes (CRLF rows, 17 significant digits, sorted JSON
# keys, the numbers themselves) must be deliberate.  The numbers come from
# the platform's libm; one that rounds sin/atan differently in the last
# ulp would move them.

_LOG_TARGET_TL = "1.0591011565939845,0.20461565765782441,0.33816149123703981,-0.18581039157077983"
_LOG_TARGET_SL = "1.0491986915981739,0.9316683452740343,-0.04220945391113104,-0.87690914531313502"

PINNED_OUTPUTS = [
    (("geodesic", "--eta", "-1.37", "--pbar3", "1.45", "--type", "tl", "--t-max", "5.5",
      "--samples", "48"),
     "7bea5049d09ed1237f85dca9d1836753b70c90bcd94935660547adf3a9c3afee"),
    (("geodesic", "--eta", "-2.2", "--pbar3", "0.4", "--type", "sl", "--phase", "0.7",
      "--t-max", "3", "--samples", "16", "--format", "json"),
     "37bace0332ae75738fa2dc064285b72b4ede6b7e064df5da1e73e23151dbe7b9"),
    (("geodesic", "--eta", "-1.25", "--type", "ll", "--t-max", "2", "--samples", "8"),
     "0589244a332c24f5ea53fa30d9e18477d1aec8ef1c78a5142f555a30ae026c45"),
    (("maxwell", "--eta", "-1.25", "--pbar3", "1.4", "--type", "tl"),
     "bdd4a751dbbbc10386806ee6ed584863772ff7fb58087084ec8afef98c0be305"),
    (("maxwell", "--eta", "-1.3", "--pbar3", "1", "--type", "tl"),
     "19aa280f6e3b468e0b7ed130480e9fce148bf9fa257a95a081be212d42256f11"),
    (("maxwell", "--eta", "-2.75", "--pbar3", "300", "--type", "sl", "--format", "json"),
     "70770ba12596cb9a8820670b1ec18ab66854fc9c9bb1f863e13ddececdc466af"),
    (("maxwell", "--eta", "-1.6", "--type", "ll"),
     "f232ad20aa1fd20e7799ca8a419354649628b08659d4dc7b2217f2041083d6f6"),
    (("wavefront", "--eta", "-1.4", "--t", "3.3", "--grid", "16"),
     "490e35658900b793c1e8ada52c015bd8bcfd18d795f9384d91d11a853b67f411"),
    (("wavefront", "--eta", "-2.5", "--t", "1.7", "--grid", "8", "--group", "sl2",
      "--format", "json"),
     "852c984f5531d9135be9897a27e4c28bab042d7c29e4a0121101eb2f4966d075"),
    (("injrad", "--eta", "-1.1"),
     "ea95c347e6c069649fedc42bc34b84c99df01698c172423c37e4a8253e74e880"),
    (("injrad", "--eta", "-1.9", "--format", "json"),
     "c6231e3330d0f0de3d679343ee4f6a09596c03cc94229855cb975f8af58fe7f5"),
    (("injrad", "--I1", "2", "--I3", "0.5"),
     "d2b7651120c1a0d45cc94f983e9f6b8f4774f0acdcc44ff14618d769f5237f76"),
    (("log", "--eta", "-1.25", "--target", _LOG_TARGET_TL),
     "c189575841d99f2c7ca4b32992209c373278d4d4ff1955c674fdca10e7ad1b95"),
    (("log", "--eta", "-2.4", "--target", _LOG_TARGET_SL, "--format", "json"),
     "429d0d3f6f9ef7112426bdb1ca4969a71cd9e00b9fafe3109b95bf456dc1b365"),
    (("cut-time", "--eta", "-1.25", "--pbar3", "1.15", "--type", "tl"),
     "b1deca882c4ccca5133a45855a0bc1f64dd39c0b6891575aa5cd2c50e1eed29f"),
    (("cut-time", "--eta", "-2.75", "--pbar3", "300", "--type", "sl", "--group", "sl2",
      "--format", "json"),
     "891c35035482b7376c8a560f272fedbec264d3edc22cd8383db3f2ec0fd84b82"),
    (("cut-time", "--eta", "-1.6", "--type", "ll", "--group", "sl2"),
     "b171712ee350303a8101db400972d75f46dd3bb73db1d20bb5a39f9cf720443f"),
    (("conjugate", "--eta", "-1.25", "--pbar3", "2", "--type", "tl", "--k-max", "6"),
     "d3a04b696b1b334c15bd795e8414583e195ef535d3c6701dc59b229be8be00e9"),
    (("conjugate", "--eta", "-3.1", "--pbar3", "1.05", "--type", "tl", "--k-max", "4",
      "--format", "json"),
     "8387e1f09c840baa903555a31b93fb0c32c985bd2baf48c48aca3968540867f9"),
    (("vertical-flow", "--eta", "-1.37", "--pbar3", "1.45", "--type", "tl", "--phase", "0.3",
      "--t-max", "5.5", "--samples", "24"),
     "1d960d19d6ca240e2c1f8fe35dad117c1e068ad1bef3821ca97f992e9010a943"),
    (("vertical-flow", "--eta", "-2.2", "--pbar3", "0.4", "--type", "sl", "--t-max", "3",
      "--samples", "16", "--format", "json"),
     "ef293fe233d1a7281c4f66628c4c4f5e32abbff19eccac7375cf1d56e439327d"),
    (("sr-compare", "--pbar3", "1.2", "--type", "tl", "--eta-list", "-1.1,-1.01,-1.001,-1.0001"),
     "be2a7265f518ee64d9d2867c4296edd34e1c6734da80fb298b252b01a44075c1"),
    (("sr-compare", "--pbar3", "0.5", "--type", "sl", "--eta-list", "-1.5,-1.05,-1.005",
      "--format", "json"),
     "7a4332f459e54595fd5d8b02747701349c3a9791be564561c2aa5f435fc8fc9f"),
    (("cut-locus", "--eta", "-1.25", "--grid", "12"),
     "5e536683c8e167f0b21587420f7ae6c5046bac9a91867f3b18a0dbf4d5a14c68"),
    (("cut-locus", "--eta", "-1.8", "--grid", "9", "--group", "sl2", "--rho-max", "5",
      "--format", "json"),
     "a2321815eea280c9c54c3722a35adc19fad9cfd9972bc69aa516eb2997344de5"),
]


# the two grids at the sizes where the CSV writer's time matters, pinned
# to the bytes of the writer that formatted each cell on its own
LARGE_OUTPUTS = [
    (("wavefront", "--eta", "-1.4", "--t", "3.3", "--grid", "128"),
     "e1669adf4c29bef0b559abb5b57071c5fead14b1f25c9b564d840ad2b790ddd6"),
    (("cut-locus", "--eta", "-1.25", "--grid", "64"),
     "f0a84f4f8b1c23a271931462aead72cc396a6ceffbd512d408b5e20fc25d78d9"),
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_OUTPUTS + LARGE_OUTPUTS,
    ids=[f"{a[0]}-{i}" for i, (a, _) in enumerate(PINNED_OUTPUTS + LARGE_OUTPUTS)]
)
def test_output_bytes_are_pinned(capfdbinary, argv, digest):
    code, out, _ = run_cli(capfdbinary, *argv)
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == digest


# ---- one table in both formats ----------------------------------------------

def _json_table(payload):
    """The JSON payload as the CSV table: cut-locus's strata unnested."""
    if "strata" not in payload:
        return payload["columns"], payload["rows"]
    strata = payload["strata"]
    columns = ["stratum", *strata[0]["columns"], "validation_error"]
    rows = [[s["stratum"], *row, s["validation_error"]] for s in strata for row in s["rows"]]
    return columns, rows


def _same_cell(text, value):
    if isinstance(value, dict):
        return value == {"finite": False, "value": None} and text in ("inf", "-inf", "nan")
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, float):
        return float(text) == value
    return text == str(value)


# the pinned tables, then tables whose cells differ in kind from the first
# rows above: infinite times and index 0, stratum "none", a gap of 0
SAME_CELL_CASES = [a for a, _ in PINNED_OUTPUTS] + [
    ("conjugate", "--eta", "-1.25", "--pbar3", "0.5", "--type", "sl"),
    ("cut-time", "--eta", "-1.25", "--pbar3", "0", "--type", "sl"),
    ("sr-compare", "--pbar3", "0", "--type", "sl", "--eta-list", "-1.5,-1.1"),
]


@pytest.mark.parametrize("argv", SAME_CELL_CASES,
                         ids=[f"{a[0]}-{i}" for i, a in enumerate(SAME_CELL_CASES)])
def test_csv_and_json_hold_the_same_cells(capfdbinary, argv):
    i = argv.index("--format") if "--format" in argv else len(argv)
    csv_argv = (*argv[:i], *argv[i + 2:])
    code, csv_out, err = run_cli(capfdbinary, *csv_argv)
    assert code == 0, err
    code, json_out, err = run_cli(capfdbinary, *csv_argv, "--format", "json")
    assert code == 0, err
    header, *body = csv_rows(csv_out)
    columns, rows = _json_table(json.loads(json_out))
    assert header == columns
    assert len(body) == len(rows) > 0
    for text_row, row in zip(body, rows):
        assert len(text_row) == len(row)
        assert all(map(_same_cell, text_row, row)), (text_row, row)


# ---- any flag values ---------------------------------------------------------
#
# Every subcommand over drawn flags: each value from its flag's own range,
# then at most one value (one field of a list) replaced by any float, the
# edges drawn often: 0, the subnormal 1e-320, 1e308, inf, nan, -1e200 and
# the float below -1.  A run exits 0 with output, or 1-3 with one
# "hypgeo: " line and nothing on stdout; any other exception escapes main
# and fails the test.  Grids, samples and root counts stay small.

_EDGE = st.one_of(st.sampled_from([0.0, -0.0, 1e-320, -1e-320, 1e308, -1e308, math.inf,
                                   -math.inf, math.nan, -1e200, -1.0000000000000002]),
                  st.floats())
_ETA = st.one_of(st.sampled_from([-1.25, -1.6, -3.0]), st.floats(-6.0, -1.01))
_POSITIVE = st.floats(0.01, 6.0)
_SIGNED = st.floats(-6.0, 6.0)


def _flag(name, values, optional=False):
    pair = st.tuples(st.just(name), values.map(str))
    return st.one_of(st.just(()), pair) if optional else pair


def _list_flag(name, values):
    return _flag(name, values.map(lambda xs: ",".join(map(repr, xs))))


_METRIC = st.tuples(_flag("--I1", _POSITIVE, optional=True),
                    st.one_of(_flag("--eta", _ETA), _flag("--I3", _POSITIVE)))
_COVECTOR = st.tuples(
    st.one_of(st.tuples(_flag("--type", st.sampled_from(["tl", "sl"])), _flag("--pbar3", _SIGNED)),
              st.tuples(_flag("--type", st.just("ll")), _flag("--pbar3", _SIGNED, optional=True)),
              _list_flag("--p", st.tuples(_SIGNED, _SIGNED, _SIGNED))),
    _flag("--phase", _SIGNED, optional=True))
_GROUP_FLAG = _flag("--group", st.sampled_from(["psl2", "sl2"]), optional=True)
_SAMPLES = (_flag("--t-max", _POSITIVE), _flag("--samples", st.integers(2, 4)))

CLI_FLAGS = {
    "geodesic": (_METRIC, _COVECTOR, *_SAMPLES),
    "vertical-flow": (_METRIC, _COVECTOR, *_SAMPLES),
    "maxwell": (_METRIC, _COVECTOR),
    "conjugate": (_METRIC, _COVECTOR, _flag("--k-max", st.integers(1, 3))),
    "cut-time": (_METRIC, _COVECTOR, _GROUP_FLAG),
    "cut-locus": (_METRIC, _GROUP_FLAG, _flag("--grid", st.integers(2, 3)),
                  _flag("--rho-max", _POSITIVE, optional=True)),
    "wavefront": (_METRIC, _GROUP_FLAG, _flag("--t", _POSITIVE), _flag("--grid", st.just(8))),
    "injrad": (_METRIC,),
    "log": (_METRIC, st.one_of(
        _flag("--target", st.sampled_from([_LOG_TARGET_TL, _LOG_TARGET_SL,
                                           "1.5430806348152437,1.1752011936438014,0,0"])),
        _list_flag("--target", st.tuples(_SIGNED, _SIGNED, _SIGNED, _SIGNED)))),
    "sr-compare": (_flag("--pbar3", _SIGNED), _flag("--type", st.sampled_from(["tl", "sl"])),
                   _list_flag("--eta-list", st.lists(_ETA, min_size=1, max_size=3,
                                                     unique=True).map(sorted))),
}


def _flat(parts):
    return [x for part in parts for x in (_flat(part) if isinstance(part, tuple) else (part,))]


def _main_bytes(argv):
    """main(argv)'s exit status, stdout bytes and stderr text."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.buffer.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(data=st.data())
def test_any_flag_values_exit_0_to_3_with_one_line_errors(command, data):
    argv = [command, *_flat(data.draw(st.tuples(*CLI_FLAGS[command])))]
    k = data.draw(st.sampled_from([0, *range(2, len(argv), 2)]))  # 0: no edge
    if k:
        fields = argv[k].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = repr(data.draw(_EDGE))
        argv[k] = ",".join(fields)
    for fmt in ("csv", "json"):
        code, out, err = _main_bytes([*argv, "--format", fmt])
        assert code in (0, 1, 2, 3), argv
        if code:
            assert out == b"" and err.startswith("hypgeo: ") and err.count("\n") == 1, (argv, err)
        else:
            assert out and err == "", argv
