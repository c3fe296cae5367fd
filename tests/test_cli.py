import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contention
from contention import analysis, cli, engine
from contention.cli import _json, main
from contention.engine import LatencyStats
from contention.schedule import Schedule


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schedule_command(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--c", "1", "--k", "3")
    assert code == 0
    data = json.loads(out)
    assert data["s"] == [2, 4, 6, 8]


def test_schedule_csv(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--c", "11/10", "--k", "5", "--output-format", "csv")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [int(r["s"]) for r in rows] == [2, 4, 6, 8, 10, 13]


def _schedule_table(c, k):
    sched = Schedule(Fraction(c), k)
    return ("k", "x", "s"), zip(range(k + 1), sched.x, sched.s)


def _persistent_table(zmax):
    data = analysis.persistent_distribution(Fraction(11, 10), Fraction(3, 4), zmax).to_json()
    columns = (data["support"], data["pmf"], data["partial_expectations"])
    return ("z", "support", "pmf", "partial_expectation"), zip(range(zmax + 1), *columns)


@pytest.mark.parametrize(
    "argv, table, args",
    [
        (["schedule"], _schedule_table, ("11/10", 8)),
        (["schedule", "--c", "2", "--k", "300"], _schedule_table, ("2", 300)),  # integers past 2^64
        (["analyze", "--persistent"], _persistent_table, (200,)),
        (["analyze", "--persistent", "--zmax", "2000"], _persistent_table, (2000,)),
    ],
    ids=["schedule-golden", "schedule-k-300", "persistent-golden", "persistent-zmax-2000"],
)
def test_csv_tables_match_csv_writer(capsys, argv, table, args):
    # the CLI writes its CSV lines itself: they must be csv.writer's text
    header, rows = table(*args)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(rows)
    code, out, _ = run_cli(capsys, *argv, "--output-format", "csv")
    assert code == 0 and out == expected.getvalue()


def test_feasibility_command(capsys):
    code, out, _ = run_cli(capsys, "feasibility", "--c", "11/10", "--p", "0.75")
    assert code == 0
    data = json.loads(out)
    assert data["feasible"] is True
    exact = {name: Fraction(info["exact"]) for name, info in data["thresholds"].items()}
    assert exact == {
        "inv_1mp": Fraction(4),
        "inv_delta": Fraction(8, 5),
        "inv_beta": Fraction(64, 55),
        "persist_lb": Fraction(16, 15),
    }


def test_feasibility_p_is_rational(capsys):
    code, out, _ = run_cli(capsys, "feasibility", "--c", "11/10", "--p", "0.1")
    assert code == 0
    data = json.loads(out)
    assert data["thresholds"]["inv_1mp"]["exact"] == "10/9"
    assert data["p"] == 0.1


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--c", "11/10", "--p", "0.75", "--k1", "2")
    assert code == 0
    data = json.loads(out)
    assert data["y30_upper"] <= 2759
    assert 755.0 <= data["delta_bound"] <= 756.0


def test_analyze_persistent_command(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--persistent", "--zmax", "200")
    assert code == 0
    data = json.loads(out)
    assert data["divergent"] is True
    assert data["support"][:5] == [2, 4, 6, 8, 10]
    assert data["partial_expectations"][-1] > 2759


@pytest.mark.parametrize("c, p", [("11/10", "0.75"), ("10001/10000", "0.9921875")])
def test_persistent_report_floats_are_the_fractions_floats(capsys, c, p):
    dist = analysis.persistent_distribution(Fraction(c), Fraction(p), 400)
    pmf = [float(v) for v in dist.pmf]
    partials = [float(v) for v in dist.partial_expectations]
    code, out, _ = run_cli(capsys, "analyze", "--persistent", "--zmax", "400", "--c", c, "--p", p)
    assert code == 0
    data = json.loads(out)
    assert (data["pmf"], data["partial_expectations"]) == (pmf, partials)
    code, out, _ = run_cli(
        capsys, "analyze", "--persistent", "--zmax", "400", "--c", c, "--p", p, "--output-format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [float(r["pmf"]) for r in rows] == pmf
    assert [float(r["partial_expectation"]) for r in rows] == partials


# report-shaped JSON: str-keyed dicts, lists, tuples and every kind of leaf
_LEAVES = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf, 1e308]),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS)
@example({"a": [], "b": {}, "c": [{}, [[]], ()], "d": {"e": {"f": None}}})
@example([math.nan, math.inf, -math.inf, -0.0, 5e-324, True, False, 0, -(10**300)])
def test_json_writer_matches_json_dumps(payload):
    # json.dumps is the oracle for the CLI's own writer, as run_trial is for the engine
    assert _json(payload) == json.dumps(payload, indent=2) + "\n"


# table-shaped JSON: lists and tuples of dicts that share one key tuple, with keys that a
# %-template or a "\x00" split could misread and cells at the float and integer edges
_TABLE_KEYS = st.lists(
    st.sampled_from(["%", "%s", "%%", '"', "\x00", "lower", "\u00e9", "\ud800", ""]) | st.text(max_size=4),
    min_size=0, max_size=4, unique=True,
)
_CELLS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 10**400, -(10**400), True, False, None]),
    _LEAVES,
)


@st.composite
def _tables(draw):
    keys = draw(_TABLE_KEYS)
    rows = [{key: draw(_CELLS) for key in keys} for _ in range(draw(st.integers(0, 5)))]
    if rows and keys and draw(st.booleans()):  # a nested container sends the list to the general path
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.sampled_from(keys))] = draw(_PAYLOADS)
    table = draw(st.sampled_from([list, tuple]))(rows)
    return draw(st.sampled_from([table, {"rows": table, "n": len(rows)}, [table, table]]))


_TABLE_EXAMPLES = (
    [{}, {}],
    [{"%s": 1.5, "%%": -0.0, '"': None}, {"%s": math.nan, "%%": 10**400, '"': True}],
    ({"\x00": math.inf, "\ud800": 5e-324}, {"\x00": -math.inf, "\ud800": "\x00%s"}),
    [{"a": 1, "b": 2}, {"a": [1, {"c": 2}], "b": 3}],  # one nested container: the general path
    [{"a": 1, "b": 2}, {"b": 2, "a": 1}],  # the same keys in another order: the general path
    [{"a": 1}, ["a"]],
)


def _writes_like_json_dumps(payload, c_encoder: bool) -> bool:
    # json.dumps(indent=2) never uses the C encoder, so the oracle is the same either way
    encoder = json.encoder.c_make_encoder if c_encoder else None
    with mock.patch.object(json.encoder, "c_make_encoder", encoder):
        return _json(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("c_encoder", [True, False])
@pytest.mark.parametrize("payload", _TABLE_EXAMPLES)
def test_json_writer_matches_json_dumps_on_table_edges(payload, c_encoder):
    assert _writes_like_json_dumps(payload, c_encoder)


@pytest.mark.parametrize("c_encoder", [True, False])
@settings(max_examples=200, deadline=None)
@given(_tables())
def test_json_writer_matches_json_dumps_on_tables(c_encoder, payload):
    assert _writes_like_json_dumps(payload, c_encoder)


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS)
@example({"a": [], "b": {}, "c": [{}, [[]], ()], "d": {"e": {"f": None}}})
@example([math.nan, math.inf, -math.inf, -0.0, 5e-324, True, False, 0, -(10**300)])
def test_json_writer_matches_json_dumps_without_the_c_encoder(payload):
    # the bulk leaf encoding gives the same text from json's pure-Python encoder
    assert _writes_like_json_dumps(payload, c_encoder=False)


def test_analyze_expectations_command(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--semantics", "literal", "--K", "40")
    assert code == 0
    data = json.loads(out)
    assert data["semantics"] == "literal"
    assert all(iv["lower"] == iv["upper"] == 1.0 for iv in data["y1"])


@pytest.mark.parametrize(
    "c, p, K", [("11/10", "3/4", "60"), ("10001/10000", "0.9921875", "400")], ids=["golden", "corner-k400"]
)
def test_report_rows_are_the_rows_printed(capsys, c, p, K):
    # the library's table rows are the dicts the CLI prints, row for row and key for key
    cp, (fc, fp) = ["--c", c, "--p", p], (Fraction(c), Fraction(p))

    def printed(*argv):
        code, out, _ = run_cli(capsys, *argv, *cp)
        assert code == 0
        return json.loads(out)

    for semantics in analysis.SEMANTICS:
        table = analysis.solve_expectations(fc, fp, semantics, truncation_K=int(K))
        report = printed("analyze", "--semantics", semantics, "--K", K)
        assert [table.y1, table.y2, table.y3] == [report["y1"], report["y2"], report["y3"]]
    assert analysis.bound_report(fc, fp).y1k_upper == printed("bounds")["y1k_upper"]
    rows = printed("compare-deadline", "--t0", "5")["truncated_lower_bounds"]
    assert analysis.deadline_comparison(fc, fp, 5).truncated_lower_bounds == rows


def test_simulate_command(tmp_path, capsys):
    config = {
        "n": 3,
        "players": [
            {"type": "age_based", "c": "11/10", "p": 0.75},
            {"type": "age_based", "c": "11/10", "p": 0.75},
            {"type": "deadline", "t0": 1},
        ],
        "seed": 7,
        "slot_cap": 100000,
    }
    path = tmp_path / "game.json"
    path.write_text(json.dumps(config))
    samples = tmp_path / "samples.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(path), "--trials", "100",
        "--player", "2", "--samples-path", str(samples),
    )
    assert code == 0
    stats = LatencyStats(**json.loads(out))
    assert stats.trials == 100
    rows = list(csv.DictReader(samples.read_text().splitlines()))
    assert len(rows) == 300
    assert {r["player"] for r in rows} == {"0", "1", "2"}


def test_simulate_summary_is_the_same_on_every_python(capsys):
    # statistics.stdev rounded this root twice on 3.10 and gave ...587; the
    # exact sums give the correctly rounded ...586 on every version
    config = str(Path(__file__).resolve().parent / "golden" / "config-allp.json")
    code, out, _ = run_cli(capsys, "simulate", "--config", config, "--trials", "3", "--player", "0")
    assert code == 0
    assert float.hex(json.loads(out)["ci95_halfwidth"]) == "0x1.e23702a29632fp+2"  # 7.534607561851586


def test_compare_deadline_command(capsys):
    code, out, _ = run_cli(capsys, "compare-deadline", "--t0", "5")
    assert code == 0
    data = json.loads(out)
    assert data["xi"] == 2
    assert data["prE_lower"] == pytest.approx(0.390625)
    assert data["diverges"] is True


def test_output_path(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "feasibility", "--output-path", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["feasible"] is True


def test_infeasible_parameters_exit_nonzero(capsys):
    code, _, err = run_cli(capsys, "bounds", "--c", "13/10", "--p", "0.2")
    assert code == 1
    assert "diverges" in err


def test_missing_config_file_is_one_line_error(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code, out, err = run_cli(capsys, "simulate", "--config", str(missing))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(missing) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["feasibility", "analyze", "bounds"])
def test_zero_denominator_c_is_one_line_error(capsys, command):
    # a usage error: the usage text, then one error line naming the value
    with pytest.raises(SystemExit) as exc:
        main([command, "--c", "1/0"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: contention {command} ")
    *usage, error = err.splitlines()
    assert not any("error" in line for line in usage)
    assert error == f"contention {command}: error: argument --c: invalid parse_rational value: '1/0'"


@pytest.mark.parametrize("command", ["feasibility", "analyze", "bounds"])
@pytest.mark.parametrize("value", ["1/0", "nan"])
def test_malformed_p_is_usage_error(capsys, command, value):
    # --c is parsed as --p is; each option keeps the other at its default
    for option in ("--p", "--c"):
        with pytest.raises(SystemExit) as exc:
            main([command, option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: invalid parse_rational value: '{value}'" in err
        assert "Traceback" not in err


def test_malformed_schedule_c_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "--c", "1/0"])
    assert exc.value.code == 2
    assert "argument --c: invalid parse_rational value: '1/0'" in capsys.readouterr().err


def test_negative_zmax_grid_is_one_line_error(capsys):
    code, out, err = run_cli(capsys, "compare-deadline", "--t0", "5", "--zmax-grid", "5", "-1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "z_grid" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "c, reason",
    [("1/2", "c must be >= 1, got 1/2"), ("1e400", "no finite truncation")],
)
def test_c_outside_the_protocol_domain_is_one_line_error(capsys, c, reason):
    # c = 1/2 once printed negative latency bounds; c = 1e400 once
    # overflowed a float while formatting the contraction rate
    code, out, err = run_cli(capsys, "bounds", "--c", c, "--p", "3/4")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and reason in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, what",
    [
        (["--c", "1e400", "--zmax", "3"], "term ratio at z = 0"),
        (["--c", "1e400", "--zmax", "0"], "growth rate c*gamma"),
        (["--p", "0." + "9" * 200, "--zmax", "1"], "expected rounds 1/(1-p)^2"),
    ],
    ids=["3-term ratio at z = 0", "0-growth rate c*gamma", "1-expected rounds 1/(1-p)^2"],
)
def test_persistent_law_past_the_float_range_is_one_line_error(capsys, argv, what):
    code, out, err = run_cli(capsys, "analyze", "--persistent", *argv)
    assert code == 1 and out == ""
    assert err == f"error: {what} is too large for a float\n"


def test_enclosure_past_the_float_range_is_one_line_error(capsys):
    # E[Y_2,K] >= x_K ~ 2 * 1.1^7500, past 2^1024
    code, out, err = run_cli(capsys, "analyze", "--K", "7500")
    assert code == 1 and out == ""
    assert err == "error: an enclosure of E[Y_2,k] is too large for a float\n"


# (c, p) whose least truncation k1' is 34,658, or past the limit of 50,000:
# each of these once ran for minutes or did not end
_LONG_TRUNCATIONS = [
    (
        ["bounds", "--c", "10000000001/10000000000", "--p", "0.99999"],
        "delta_bound at index 34658 is too large for a float",
    ),
    (
        ["bounds", "--c", "1000000001/1000000000", "--p", "0.999999"],
        "least truncation k1' ~ 3.47e5 is past the limit 50000",
    ),
    (["bounds", "--c", "1", "--p", "1e-400"], "least truncation k1' ~ 3.47e399 is past the limit 50000"),
    (["bounds", "--c", "21/20", "--p", "1/10", "--k1", "1000000"], "truncation 1000000 is past the limit 50000"),
]


@pytest.mark.parametrize(
    "argv, what",
    _LONG_TRUNCATIONS,
    ids=["bounds-k1-34658", "bounds-k1-346747", "bounds-p-1e-400", "bounds-requested-k1-1000000"],
)
def test_long_truncations_are_one_line_errors(capsys, argv, what):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert code == 1 and out == ""
    assert err == f"error: {what}\n"


@pytest.mark.parametrize(
    "argv, what",
    [
        (["--c", "1", "--p", "3/4"], "c = 1 makes the geometric prefactor 1/(c-1) undefined"),
        (["--c", "3/2", "--p", "3/4"], "beta*c = 165/128 >= 1: bound diverges"),
        (["--k1", "1"], "truncation 1 too small: delta^k1' c^(k1'-1) (c+1) >= 1"),
        (["--k1", "699"], "y30_upper at index 699 is too large for a float"),
        (["--k1", "700"], "delta_bound at index 700 is too large for a float"),
        (["--c", "13/10", "--p", "0.2"], "c(1-p) = 26/25 >= 1: series diverges"),
        (["--c", "6/5", "--p", "0.05"], "contraction rate 543/500 >= 1: no finite truncation exists"),
    ],
    ids=["c-1", "beta-c", "k1-too-small", "y30-k1-699", "delta-k1-700", "series-diverges", "no-contraction"],
)
def test_bounds_errors_name_the_first_failed_check(capsys, argv, what):
    # each argv passes every check before the one it names
    assert run_cli(capsys, "bounds", *argv) == (1, "", f"error: {what}\n")


# (c, p) whose least truncation k1' is 34,658 or 49,160: the enclosures need no k1'
_FAR_FROM_THE_REFERENCE_POINT = [
    ["analyze", "--c", "10000000001/10000000000", "--p", "0.99999", "--K", "5"],
    ["analyze", "--c", "10000001/10000000", "--p", "0.0000071", "--K", "5"],
]


@pytest.mark.parametrize("argv", _FAR_FROM_THE_REFERENCE_POINT, ids=["analyze-k1-34658", "analyze-k1-49160"])
def test_enclosures_far_from_the_reference_point_are_fast_and_finite(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    rows = [row for n in (1, 2, 3) for row in json.loads(out)[f"y{n}"]]
    assert len(rows) == 18 and all(0 <= row["lower"] <= row["upper"] < math.inf for row in rows)


# at c = 1 the scheduled slots are 2, 4, 6, ..., so a schedule up to t0 would have t0/2 entries
_DEADLINE_AT_C_1 = ["compare-deadline", "--c", "1", "--p", "3/4", "--t0", str(10**30)]


def test_deadline_at_c_1_answers_at_any_t0(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *_DEADLINE_AT_C_1)
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["xi"] == 5 * 10**29 - 1 and report["prE_lower"] == 0.0
    bound = math.nextafter(-1e60, -math.inf)  # -10^60 rounded down
    assert [row["bound"] for row in report["truncated_lower_bounds"]] == [bound] * 5


def test_deadline_at_c_1_builds_no_law_up_to_zmax(capsys):
    # the factor is 0 at c = 1, so the persistent law up to z_max plays no part in a bound
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "compare-deadline", "--c", "1", "--t0", "5", "--zmax-grid", "400000")
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert json.loads(out)["truncated_lower_bounds"] == [{"z_max": 400000, "bound": -25.0}]


# valid calls whose reports hold a value past the float range
_PAST_THE_FLOAT_RANGE = [
    (["compare-deadline", "--c", "1e400", "--p", "3/4", "--t0", "5"], "truncated lower bound at z_max = 25"),
    (["feasibility", "--p", "0." + "9" * 400], "inv_1mp"),
    (["analyze", "--persistent", "--c", "2", "--p", "3/4", "--zmax", "1200"], "partial expectation at z = 1200"),
    (
        ["analyze", "--persistent", "--c", "2", "--p", "3/4", "--zmax", "1200", "--output-format", "csv"],
        "partial expectation at z = 1200",
    ),
    (
        ["compare-deadline", "--c", "2", "--p", "3/4", "--t0", "5", "--zmax-grid", "1200"],
        "truncated lower bound at z_max = 1200",
    ),
    # horizons whose tables once took 10 s or more to build, or ran out of memory, before failing
    (["analyze", "--K", "200000"], "an enclosure of E[Y_2,k]"),
    (["analyze", "--persistent", "--zmax", "40000"], "partial expectation at z = 40000"),
    (["compare-deadline", "--t0", "5", "--zmax-grid", "40000"], "truncated lower bound at z_max = 40000"),
    (["analyze", "--persistent", "--p", "0." + "9" * 200, "--zmax", "40000"], "expected rounds 1/(1-p)^2"),
    # the bound is about -t0^2 = -2^1040
    (["compare-deadline", "--t0", str(2**520), "--zmax-grid", "40000"], "truncated lower bound at z_max = 40000"),
    # at c = 1 every bound is -t0^2 = -2^1040, with xi = 2^519 - 1 counted without a schedule
    (["compare-deadline", "--c", "1", "--p", "3/4", "--t0", str(2**520)], "truncated lower bound at z_max = 25"),
]


@pytest.mark.parametrize(
    "argv, what",
    _PAST_THE_FLOAT_RANGE,
    ids=[
        "deadline-huge-c", "feasibility-p-near-1", "persistent-json", "persistent-csv", "deadline-zmax-1200",
        "analyze-K-200000", "persistent-zmax-40000", "deadline-zmax-40000", "persistent-p-near-1-zmax-40000",
        "deadline-t0-2^520-zmax-40000", "deadline-c-1-t0-2^520",
    ],
)
def test_values_past_the_float_range_are_named(capsys, argv, what):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"error: {what} is too large for a float\n"


@pytest.mark.parametrize(
    "argv", [["feasibility"], ["bounds"], ["compare-deadline", "--t0", "5"]]
)
def test_output_format_is_not_an_option_of_json_only_commands(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output-format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --output-format" in capsys.readouterr().err


def test_analyze_csv_needs_persistent(capsys):
    code, out, err = run_cli(capsys, "analyze", "--output-format", "csv")
    assert code == 1 and out == ""
    assert err == "error: --output-format csv needs --persistent\n"


def test_negative_kmax_is_one_line_error(capsys):
    code, out, err = run_cli(capsys, "bounds", "--kmax", "-1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "k_max" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "output_format, k",
    [("json", "15000"), ("csv", "15000"), ("json", "1000000"), ("csv", "1000000")],
    ids=["json", "csv", "json-k-1000000", "csv-k-1000000"],
)
def test_schedule_past_the_integer_print_limit_is_one_line_error(tmp_path, capsys, output_format, k):
    path = tmp_path / "schedule.out"
    argv = ["schedule", "--c", "2", "--k", k, "--output-format", output_format, "--output-path", str(path)]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1  # the build stops soon after the first entry past the limit
    assert code == 1 and out == "" and not path.exists()
    assert err.startswith("error: schedule entry s_14283 has more than 4300 digits")
    assert err.count("\n") == 1


def test_parse_failure_exit_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # --config required
    assert exc.value.code != 0


def _write_config(tmp_path, data):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(data))
    return str(path)


_ONE_PLAYER = {"players": [{"type": "deadline", "t0": 1}], "seed": 1}


@pytest.mark.parametrize(
    "argv, config, what",
    [
        (["simulate", "--trials", "0"], _ONE_PLAYER, "trials must be >= 1"),
        (["analyze", "--K", "0"], None, "truncation_K must be >= 1"),
        (["analyze", "--persistent", "--zmax", "-1"], None, "z_max must be >= 0"),
        (["compare-deadline", "--t0", "0"], None, "deadline must be >= 1"),
        (["bounds", "--k1", "0"], None, "truncation index must be >= 1"),
        (["schedule", "--k", "-1"], None, "horizon_k must be >= 0"),
        # a value out of range in the config is named with the config's path ({path})
        (["simulate", "--trials", "5"], {"players": [], "seed": 1}, "config {path}: need at least one player"),
        (
            ["simulate", "--trials", "5"],
            {"players": [{"type": "deadline", "t0": 3, "pre": {"type": "loud"}}], "seed": 1},
            "config {path}: unknown pre-deadline rule 'loud'",
        ),
        (["simulate", "--trials", "5"], {**_ONE_PLAYER, "slot_cap": 0}, "config {path}: slot_cap must be >= 1"),
        (["simulate", "--trials", "5"], {**_ONE_PLAYER, "n": 4}, "config {path}: profile length 1 != n=4"),
        (
            ["simulate", "--trials", "5"],
            {"players": [{"type": "constant_prob", "q": 1.5}], "seed": 1},
            "config {path}: q must be a probability in [0, 1], got 1.5",
        ),
    ],
    ids=[
        "trials-0", "K-0", "zmax-negative", "t0-0", "k1-0", "schedule-k-negative", "no-players", "unknown-pre-rule",
        "slot-cap-0", "n-mismatch", "q-1.5",
    ],
)
def test_argument_out_of_range_is_one_line_error(tmp_path, capsys, argv, config, what):
    if config is not None:
        path = _write_config(tmp_path, config)
        argv, what = [*argv, "--config", path], what.replace("{path}", path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {what}\n")


@pytest.mark.parametrize("content", [b'{"players": [', b"\xff{}"], ids=["truncated", "not-utf-8"])
def test_malformed_config_names_its_path(tmp_path, capsys, content):
    path = tmp_path / "game.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--trials", "5")
    assert code == 1 and out == ""
    assert err.startswith(f"error: config {path} is not valid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "data, key",
    [
        ({"players": [{"type": "age_based", "c": "11/10"}], "seed": 1}, "p"),
        ({"players": [{"type": "constant_prob", "q": 0.5}]}, "seed"),
        ({"seed": 1}, "players"),
        ({"players": [{"type": "deadline", "t0": 3, "pre": {"q": 0.5}}], "seed": 1}, "type"),
    ],
)
def test_missing_config_key_is_one_line_error(tmp_path, capsys, data, key):
    path = _write_config(tmp_path, data)
    code, out, err = run_cli(capsys, "simulate", "--config", path, "--trials", "5")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and repr(key) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "data, what",
    [
        ({"players": [5], "seed": 1}, "a player must be a JSON object"),
        ([1, 2], "must hold a JSON object"),
        ({"players": [{"type": "age_based", "c": "11/10", "p": None}], "seed": 1}, "wrong type"),
        # an integer field takes an integer, an integral float or integer text; int() would truncate 7.9
        ({"players": [{"type": "constant_prob", "q": 0.5}], "seed": 7.9}, "seed must be an integer, got 7.9"),
        ({"players": [{"type": "constant_prob", "q": 0.5}], "seed": True}, "seed must be an integer, got True"),
        ({"players": [{"type": "constant_prob", "q": 0.5}], "seed": "1e6"}, "seed must be an integer, got '1e6'"),
        ({"players": [{"type": "constant_prob", "q": 0.5}], "seed": 1, "n": 3.7}, "n must be an integer, got 3.7"),
        ({"players": [{"type": "constant_prob", "q": 0.5}], "seed": 1, "n": None}, "n must be an integer, got None"),
        ({"players": [{"type": "constant_prob", "q": 0.5}], "seed": 1, "slot_cap": 2.9}, "slot_cap must be an integer"),
        ({"players": [{"type": "constant_prob", "q": 0.5}], "seed": 1, "slot_cap": math.nan}, "slot_cap must be"),
        ({"players": [{"type": "constant_prob", "q": 0.5}], "seed": 1, "slot_cap": -math.inf}, "slot_cap must be"),
        ({"players": [{"type": "deadline", "t0": 2.5}], "seed": 1}, "t0 must be an integer, got 2.5"),
        ({"players": [{"type": "deadline", "t0": True}], "seed": 1}, "t0 must be an integer, got True"),
        ({"players": [{"type": "age_based", "c": True, "p": 0.75}], "seed": 1}, "c must be a finite number or text, got True"),
        ({"players": [{"type": "age_based", "c": "11/10", "p": True}], "seed": 1}, "p must be a finite number"),
        ({"players": [{"type": "constant_prob", "q": math.nan}], "seed": 1}, "q must be a finite number or text, got nan"),
        ({"players": [{"type": "deadline", "t0": 3, "pre": [1]}], "seed": 1}, "pre must be a JSON object"),
        ({"players": [{"type": "deadline", "t0": 3, "pre": None}], "seed": 1}, "pre must be a JSON object"),
        ({"players": [{"type": "deadline", "t0": 3, "pre": "quiet"}], "seed": 1}, "pre must be a JSON object"),
        # players is a list: an object, text or a number is not walked as one
        (
            {"players": {"type": "constant_prob", "q": 0.5}, "seed": 1},
            "players must be a JSON array, got {'type': 'constant_prob', 'q': 0.5}",
        ),
        ({"players": "ab", "seed": 1}, "players must be a JSON array, got 'ab'"),
        ({"players": 5, "seed": 1}, "players must be a JSON array, got 5"),
    ],
)
def test_malformed_config_is_one_line_error(tmp_path, capsys, data, what):
    path = _write_config(tmp_path, data)
    code, out, err = run_cli(capsys, "simulate", "--config", path, "--trials", "5")
    assert code == 1 and out == ""
    assert err.startswith(f"error: config {path} ") and what in err
    assert err.count("\n") == 1


_INVALID_RULES = [
    ({"type": "age_based", "c": "11/10", "p": 1.5}, "p must be a probability in [0, 1], got 1.5"),
    ({"type": "constant_prob", "q": -1}, "q must be a probability in [0, 1], got -1"),
    ({"type": "deadline", "t0": 0}, "deadline t0 must be >= 1, got 0"),
    ({"type": "age_based", "c": "1/0", "p": 0.75}, "rational '1/0' has a zero denominator"),
    ({"type": "age_based", "c": "11/10", "p": "3/2"}, "p must be a probability in [0, 1], got 3/2"),
    ({"type": "deadline", "t0": 3.5}, "t0 must be an integer, got 3.5"),
    ({"type": "deadline", "t0": math.nan}, "t0 must be an integer, got nan"),
    ({"type": "deadline", "t0": math.inf}, "t0 must be an integer, got inf"),
    ({"type": "deadline", "t0": False}, "t0 must be an integer, got False"),
    ({"type": "age_based", "c": True, "p": 0.75}, "c must be a finite number or text, got True"),
    ({"type": "age_based", "c": "11/10", "p": math.nan}, "p must be a finite number or text, got nan"),
    ({"type": "constant_prob", "q": True}, "q must be a finite number or text, got True"),
    (
        {"type": "deadline", "t0": 3, "pre": {"type": "fixed_prob", "q": False}},
        "q must be a finite number or text, got False",
    ),
    ({"type": "constant_prob", "q": 10**400}, f"q must be a probability in [0, 1], got {10**400}"),
    # a probability is shown as the config wrote it, not as the ratio of its double
    ({"type": "age_based", "c": "11/10", "p": 1.1}, "p must be a probability in [0, 1], got 1.1"),
]


@pytest.mark.parametrize(
    "spec, what", _INVALID_RULES, ids=[f"spec{i}" for i in range(14)] + ["p-1.1-as-written"]
)
def test_invalid_rule_parameter_is_one_line_error(tmp_path, capsys, spec, what):
    path = _write_config(tmp_path, {"players": [spec], "seed": 1})
    code, out, err = run_cli(capsys, "simulate", "--config", path, "--trials", "5")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f"{what}\n")


def test_rational_text_simulates_as_its_number(tmp_path, capsys):
    # p and q as "num/den" or decimal text, and an integral float as slot_cap, give the same run
    def simulate(p, q, slot_cap):
        players = [{"type": "age_based", "c": "11/10", "p": p}] * 2
        players.append({"type": "deadline", "t0": 40, "pre": {"type": "fixed_prob", "q": q}})
        path = _write_config(tmp_path, {"players": players, "seed": 7, "slot_cap": slot_cap})
        code, out, err = run_cli(capsys, "simulate", "--config", path, "--trials", "200", "--player", "2")
        assert (code, err) == (0, "")
        return out

    reference = simulate(0.75, 0.125, 1_000_000)
    assert json.loads(reference)["trials"] == 200
    for p, q, slot_cap in [("3/4", "1/8", 1_000_000), ("0.75", 0.125, 1e6), (0.75, "1/8", 1e6)]:
        assert simulate(p, q, slot_cap) == reference


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_configs_simulate(tmp_path, capsys):
    # every fenced json block in the README is a config that simulate runs
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        path = _write_config(tmp_path, json.loads(block))
        code, out, err = run_cli(capsys, "simulate", "--config", path, "--trials", "5")
        assert (code, err) == (0, ""), block
        assert json.loads(out)["trials"] == 5


@pytest.mark.parametrize("player", ["3", "-1"])
def test_player_out_of_range_is_one_line_error(tmp_path, capsys, monkeypatch, player):
    # rejected before any trial runs
    monkeypatch.setattr("contention.engine.run_trials", lambda *args: pytest.fail("simulated"))
    path = _write_config(tmp_path, {"players": [{"type": "constant_prob", "q": 0.5}] * 3, "seed": 1})
    code, out, err = run_cli(capsys, "simulate", "--config", path, "--trials", "5", "--player", player)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"--player {player}" in err
    assert err.count("\n") == 1


def test_out_of_memory_is_one_line_error(tmp_path, capsys, monkeypatch):
    def run_trials(*args):
        raise MemoryError

    monkeypatch.setattr("contention.engine.run_trials", run_trials)
    path = _write_config(tmp_path, {"players": [{"type": "constant_prob", "q": 0.5}], "seed": 1})
    code, out, err = run_cli(capsys, "simulate", "--config", path, "--trials", "5")
    assert (code, out, err) == (1, "", "error: out of memory\n")


def _fresh_process(*args, **kwargs):
    # a new interpreter that imports the package under test
    src = str(Path(contention.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, **kwargs)


def test_cli_import_does_not_load_numpy():
    # numpy would add its import time and resident memory to every run
    result = _fresh_process("-c", "import sys, contention.cli; print('numpy' in sys.modules)", check=True)
    assert result.stdout.strip() == "False"


def test_cli_import_builds_no_parser():
    # the first main call builds the parser, so importing the CLI stays cheap
    probe = "import contention.cli as cli; print(cli.build_parser.cache_info().currsize)"
    assert _fresh_process("-c", probe, check=True).stdout.strip() == "0"


def test_cached_parser_leaks_no_state_between_calls(tmp_path, capsys):
    # in turn in one process, each call prints what a fresh process prints
    config = _write_config(tmp_path, {"players": [{"type": "constant_prob", "q": 0.5}] * 3, "seed": 5})
    target = tmp_path / "report.json"
    calls = [
        ["compare-deadline", "--t0", "5"],
        ["compare-deadline", "--t0", "5", "--zmax-grid", "10", "30"],
        ["compare-deadline", "--t0", "5"],
        ["analyze", "--persistent", "--zmax", "30"],
        ["analyze", "--K", "20"],
        ["simulate", "--config", config, "--trials", "40", "--seed", "3"],
        ["simulate", "--config", config, "--trials", "40"],
        ["analyze", "--semantics", "neither"],
        ["feasibility", "--p", "0.5", "--output-path", str(target)],
        ["feasibility"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:  # an argparse usage error
            code = exc.code
        out = capsys.readouterr().out
        written = target.read_text() if "--output-path" in argv else None
        target.unlink(missing_ok=True)
        fresh = _fresh_process("-m", "contention.cli", *argv)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        if written is not None:
            assert written == target.read_text() and written.startswith("{")
    assert main(["compare-deadline", "--t0", "5"]) == 0
    bounds = json.loads(capsys.readouterr().out)["truncated_lower_bounds"]
    assert [row["z_max"] for row in bounds] == [25, 50, 100, 200, 400]


_PERSISTENT = {"type": "deadline", "t0": 1}


@pytest.mark.parametrize(
    "argv, config, what",
    [
        (["bounds", "--kmax", "2000"], None, "y1_upper at index 477 is too large for a float"),
        (["bounds", "--k1", "100000"], None, "delta_bound at index 100000 is too large for a float"),
        (["simulate", "--trials", "2"], {"players": [{"type": "deadline", "t0": 1e400}], "seed": 1}, "got inf"),
        (["simulate", "--trials", "2"], {"players": [_PERSISTENT], "seed": 1e400}, "got inf"),
        # two persistent players collide until the cap, and a censored trial counts at the cap
        (
            ["simulate", "--trials", "2"],
            {"players": [_PERSISTENT, _PERSISTENT], "seed": 1, "slot_cap": 10**400},
            "player 0's latencies are too large for a float: lower slot_cap",
        ),
    ],
    ids=["argv0-None", "argv1-None", "argv2-config2", "argv3-config3", "censored-at-slot-cap-10^400"],
)
def test_huge_numbers_are_one_line_errors(tmp_path, capsys, argv, config, what):
    if config is not None:
        argv = [*argv, "--config", _write_config(tmp_path, config)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.endswith(f"{what}\n") and err.count("\n") == 1


def test_csv_simulate_prints_its_rows_without_a_summary(tmp_path, capsys):
    # every trial is censored at a cap past the float range: the rows are fine, a summary is not
    config = _write_config(tmp_path, {"players": [_PERSISTENT, _PERSISTENT], "seed": 1, "slot_cap": 10**400})
    samples = tmp_path / "samples.csv"
    argv = ["simulate", "--config", config, "--trials", "3", "--samples-path", str(samples)]
    code, out, _ = run_cli(capsys, *argv, "--output-format", "csv")
    rows = list(csv.DictReader(out.splitlines()))
    assert code == 0 and len(rows) == 6 and all(r["latency"] == "" and r["censored"] == "1" for r in rows)
    assert samples.read_bytes() == out.encode()
    samples.unlink()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and err.endswith("player 0's latencies are too large for a float: lower slot_cap\n")
    assert not samples.exists()


@pytest.mark.parametrize("trials", [1, 255, 256, 257, 1000])  # around engine._CSV_CHUNK, the trials per chunk of rows
def test_samples_file_holds_the_csv_rows(tmp_path, capsys, trials):
    config = str(Path(__file__).resolve().parent / "golden" / "config-persistent.json")
    samples = tmp_path / "samples.csv"
    code, _, _ = run_cli(capsys, "simulate", "--config", config, "--trials", str(trials), "--samples-path", str(samples))
    rows = engine.outcomes_to_csv_rows(engine.run_trials(cli._load_config(config), trials))
    assert code == 0 and samples.read_bytes() == (engine.SAMPLES_HEADER + "".join(rows)).encode()


# --- fuzz: no input may end in a traceback ------------------------------------

CONFIG = "<config>"  # stands for the path of the fuzzed config in an argv
_JUNK = st.sampled_from([None, True, "x", "", "1/0", "nan", [], {}, 1e400, -1e400, float("nan"), 10**400])
_INT = st.integers(min_value=-3, max_value=40)
_RATIONAL = st.builds("{}/{}".format, st.integers(-4, 40), st.integers(0, 16))
_NUMBER = st.one_of(_INT, st.floats(), _RATIONAL, st.sampled_from(["11/10", "0.75", "1", "2"]), _JUNK)
_PROB = st.sampled_from([0.0, 0.125, 0.75, 1.0])
_VALID_PLAYER = st.one_of(
    st.fixed_dictionaries(
        {"type": st.just("age_based"), "c": st.sampled_from(["1", "11/10", "3/2", "2"]), "p": _PROB}
    ),
    st.fixed_dictionaries({"type": st.just("constant_prob"), "q": _PROB}),
    st.fixed_dictionaries(
        {"type": st.just("deadline"), "t0": st.integers(1, 50)},
        optional={"pre": st.sampled_from([
            {"type": "quiet"}, {"type": "fixed_prob", "q": 0.5}, {"type": "follow_age_based", "c": "1", "p": 0.5},
        ])},
    ),
)
_RULE = {"type": st.sampled_from(["age_based", "constant_prob", "deadline", "quiet", "fixed_prob", "follow_age_based"])}
_ANY_PLAYER = st.fixed_dictionaries(
    _RULE,
    optional={
        "c": _NUMBER, "p": _NUMBER, "q": _NUMBER, "t0": _NUMBER,
        "pre": st.fixed_dictionaries(_RULE, optional={"c": _NUMBER, "p": _NUMBER, "q": _NUMBER}) | _JUNK,
    },
)
_CONFIG = st.one_of(
    st.fixed_dictionaries({
        "players": st.lists(_VALID_PLAYER, min_size=1, max_size=4),
        "seed": st.integers(-1, 2**70),
        "slot_cap": st.integers(1, 1000),
    }),
    st.fixed_dictionaries(
        {
            "players": st.lists(_VALID_PLAYER | _ANY_PLAYER | _JUNK, max_size=4) | _JUNK,
            "seed": st.integers(-1, 2**70) | _JUNK,
            # no larger caps: some valid profiles never finish before the cap
            "slot_cap": st.integers(-1, 1000) | st.sampled_from([None, "x", 1e400, float("nan")]),
        },
        optional={"n": st.integers(0, 5) | _JUNK},
    ),
    _JUNK,
)


def _options(**options):
    """Any subset of the options, each with a value from its strategy."""
    return st.fixed_dictionaries({}, optional=options).map(
        lambda chosen: [token for name, value in chosen.items() for token in (name, value)]
    )


_TEXT = _RATIONAL | st.sampled_from(["0", "1", "1/2", "11/10", "3/4", "0.75", "1e400", "-1", "abc", "inf", "1/0"])
_SMALL = st.integers(-3, 30).map(str)
_ARGV = st.one_of(
    st.builds(
        lambda trials, opts: ["simulate", "--config", CONFIG, "--trials", str(trials), *opts],
        st.integers(-1, 5),  # never the default of 100,000
        _options(**{
            "--player": st.integers(-2, 5).map(str),
            "--seed": st.integers(-1, 2**70).map(str),
            "--output-format": st.sampled_from(["json", "csv"]),
        }),
    ),
    st.builds(
        lambda opts: ["bounds", *opts],
        _options(**{"--c": _TEXT, "--p": _TEXT, "--k1": _SMALL, "--kmax": _SMALL}),
    ),
    st.builds(
        lambda opts: ["feasibility", *opts],
        _options(**{"--c": _TEXT, "--p": _TEXT}),
    ),
    st.builds(
        # never the default grid, which reaches z_max = 400
        lambda t0, grid, opts: ["compare-deadline", "--t0", t0, "--zmax-grid", *grid, *opts],
        _SMALL,
        st.lists(_SMALL, max_size=3),
        _options(**{"--c": _TEXT, "--p": _TEXT}),
    ),
    st.builds(
        lambda opts: ["schedule", *opts],
        _options(**{
            "--c": _TEXT, "--k": _SMALL, "--output-format": st.sampled_from(["json", "csv"]),
        }),
    ),
    st.builds(
        lambda opts, persistent: ["analyze", *opts, *persistent],
        _options(**{
            "--c": _TEXT, "--p": _TEXT, "--zmax": _SMALL, "--K": _SMALL,
            "--semantics": st.sampled_from(["literal", "paper-series", "other"]),
            "--output-format": st.sampled_from(["json", "csv"]),
        }),
        st.sampled_from([[], ["--persistent"]]),
    ),
)


@pytest.fixture(scope="module")
def fuzz_config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@settings(max_examples=300, deadline=None)
@given(argv=_ARGV, config=_CONFIG)
@example(argv=["bounds", "--kmax", "2000"], config={})
@example(argv=["bounds", "--k1", "100000"], config={})
@example(argv=["bounds", "--c", "1/2", "--p", "1"], config={})
@example(argv=["bounds", "--c", "1/2", "--p", "3/4"], config={})
@example(argv=["bounds", "--c", "1e400", "--p", "3/4"], config={})
@example(
    argv=["simulate", "--config", CONFIG, "--trials", "2"],
    config={"players": [{"type": "deadline", "t0": 1e400}], "seed": 1},
)
@example(
    argv=["simulate", "--config", CONFIG, "--trials", "2"],
    config={"players": [{"type": "deadline", "t0": 1}], "seed": 1e400},
)
@example(argv=_PAST_THE_FLOAT_RANGE[0][0], config={})
@example(argv=_PAST_THE_FLOAT_RANGE[1][0], config={})
@example(argv=_PAST_THE_FLOAT_RANGE[2][0], config={})
@example(argv=_PAST_THE_FLOAT_RANGE[3][0], config={})
@example(argv=_PAST_THE_FLOAT_RANGE[4][0], config={})
@example(argv=_PAST_THE_FLOAT_RANGE[5][0], config={})
@example(argv=_PAST_THE_FLOAT_RANGE[6][0], config={})
@example(argv=_PAST_THE_FLOAT_RANGE[7][0], config={})
@example(argv=_PAST_THE_FLOAT_RANGE[8][0], config={})
@example(argv=_PAST_THE_FLOAT_RANGE[9][0], config={})
@example(argv=_PAST_THE_FLOAT_RANGE[10][0], config={})
@example(argv=_DEADLINE_AT_C_1, config={})
@example(argv=_LONG_TRUNCATIONS[0][0], config={})
@example(argv=_LONG_TRUNCATIONS[1][0], config={})
@example(argv=_LONG_TRUNCATIONS[2][0], config={})
@example(argv=_LONG_TRUNCATIONS[3][0], config={})
@example(argv=_FAR_FROM_THE_REFERENCE_POINT[0], config={})
@example(argv=_FAR_FROM_THE_REFERENCE_POINT[1], config={})
def test_cli_never_shows_a_traceback(fuzz_config_path, argv, config):
    fuzz_config_path.write_text(json.dumps(config))
    argv = [str(fuzz_config_path) if token == CONFIG else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    err = err.getvalue()
    assert "Traceback" not in err
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "integer division result too large for a float" not in err  # CPython's, naming nothing
