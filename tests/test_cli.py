"""Command-line surface: formats, exit codes, determinism."""

import argparse
import importlib.util
import io
import json
import math
import os
import shlex
import stat
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_bessel.bessel import MAX_ORDER_BITS, BesselOrder, kernel_mass, kernel_value, pmp_check
from padic_bessel import cli
from padic_bessel.cli import main
from padic_bessel.heat import MAX_DEPTH, solve_cauchy, z_closed
from padic_bessel.padic import Ball, PAdicVector, PrimeContext
from padic_bessel.schwartz import (
    MAX_DIGIT_TUPLES,
    MAX_INPUT_DEPTH,
    BruhatSchwartzFunction,
    FunctionFormatError,
    deserialize,
    random_test_function,
    serialize,
    too_many_digit_tuples,
)

OMEGA = BruhatSchwartzFunction.unit_ball(PrimeContext(2, 1))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kernel_table(capsys):
    code, out, _ = run(capsys, "kernel", "--p", "2", "--n", "1", "--alpha", "2", "--gamma-max", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "gamma,norm,k_alpha"
    assert len(lines) == 13  # header + 11 shells + mass footer
    footer = lines[-1].split(",")
    assert footer[0] == "mass"
    assert abs(float(footer[1]) - 1.0) <= 1e-12
    assert float(footer[2]) <= 1e-12


def test_kernel_empty_range_is_header_only(capsys):
    code, out, _ = run(capsys, "kernel", "--gamma-max", "-1")
    assert code == 0
    assert out == "gamma,norm,k_alpha\n"


def test_kernel_rejects_bad_alpha(capsys):
    code, _, err = run(capsys, "kernel", "--alpha", "0.5")
    assert code == 2
    assert "alpha" in err


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_kernel_rejects_non_finite_alpha(capsys, alpha):
    code, out, err = run(capsys, "kernel", "--alpha", alpha)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_kernel_rejects_composite_p(capsys):
    code, _, err = run(capsys, "kernel", "--p", "4")
    assert code == 2
    assert "prime" in err


def test_heat_table(capsys):
    code, out, _ = run(capsys, "heat", "--t", "1", "--gamma-max", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "gamma,norm,z_value,tail_bound"
    for row in lines[1:-1]:
        cols = row.split(",")
        assert float(cols[2]) < 0
        assert float(cols[3]) >= 0
    footer = lines[-1].split(",")
    assert footer[0] == "mass"
    assert abs(float(footer[2]) - math.exp(-1)) <= 1e-10
    assert float(footer[3]) <= 1e-10


@pytest.mark.parametrize(
    "p,n,alpha,t,gamma", [(2, 1, 2.0, 1.0, 40), (3, 1, 3.0, 0.37, 120), (3, 2, 2.5, 1.9, 300)]
)
def test_heat_table_rows_are_z_closed(capsys, p, n, alpha, t, gamma):
    # the table's running sum adds the same terms in the same order
    code, out, _ = run(
        capsys, "heat", "--p", str(p), "--n", str(n), "--alpha", str(alpha),
        "--t", str(t), "--gamma-max", str(gamma),
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:-1]]
    order = BesselOrder(alpha, PrimeContext(p, n))
    assert [float(row[2]) for row in rows] == [z_closed(g, t, order) for g in range(gamma + 1)]


@pytest.mark.parametrize(
    "p,n,alpha,gamma", [(2, 1, 2.0, 40), (3, 1, 3.0, 120), (3, 2, 2.5, 300), (5, 1, 2.0, 2000)]
)
def test_kernel_table_rows_are_kernel_value(capsys, p, n, alpha, gamma):
    # the table's running sequence gives kernel_value's floats, so the CSV
    # is the one written row by row from kernel_value
    code, out, _ = run(
        capsys, "kernel", "--p", str(p), "--n", str(n), "--alpha", str(alpha),
        "--gamma-max", str(gamma),
    )
    assert code == 0
    order = BesselOrder(alpha, PrimeContext(p, n))
    mass = kernel_mass(order)
    fmt = lambda x: format(float(x), ".17g")
    expected = ["gamma,norm,k_alpha"]
    expected += [
        f"{g},{fmt(p ** (-g))},{fmt(kernel_value(-g, order))}" for g in range(gamma + 1)
    ]
    expected.append(f"mass,{fmt(mass)},{fmt(abs(mass - 1.0))}")
    assert out == "\n".join(expected) + "\n"


@pytest.mark.parametrize("p,n,alpha,gamma", [(2, 1, 2.0, 1024), (5, 2, 3.5, 221)])
def test_heat_table_past_the_float_range(capsys, p, n, alpha, gamma):
    # p**(gamma n) alone overflows a float at these depths
    code, out, err = run(
        capsys, "heat", "--p", str(p), "--n", str(n), "--alpha", str(alpha),
        "--gamma-max", str(gamma),
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().split("\n")[1:-1]]
    assert len(rows) == gamma + 1
    assert all(math.isfinite(float(row[2])) and float(row[2]) < 0 for row in rows)


def test_heat_rejects_alpha_next_to_n(capsys):
    code, out, err = run(capsys, "heat", "--alpha", "1.0000001")
    assert code == 2
    assert out == ""
    assert err.startswith("error: heat kernel tail decays too slowly")
    assert "Traceback" not in err


def test_heat_table_at_a_time_whose_envelope_quotient_overflows(capsys):
    # the first tail envelope over tol is past the float range at t = 1e300; the
    # depth of the mass sum must still be found, not blamed on alpha
    code, out, err = run(capsys, "heat", "--t", "1e300", "--gamma-max", "3")
    assert (code, err) == (0, "")
    lines = out.strip().split("\n")
    assert lines[0] == "gamma,norm,z_value,tail_bound" and len(lines) == 6
    assert all(math.isfinite(float(x)) for line in lines[1:] for x in line.split(",")[1:])


@pytest.mark.parametrize("command", ["kernel", "heat"])
def test_tables_refuse_more_shells_than_max_depth_at_once(capsys, command):
    for gamma in (MAX_DEPTH + 1, 10**12):
        start = perf_counter()
        code, out, err = run(capsys, command, "--gamma-max", str(gamma))
        assert perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: --gamma-max {gamma} is over the limit of {MAX_DEPTH} shells\n"


def test_tables_take_the_overflow_depths(capsys):
    # the deepest rows perfbench's tables workload and its probes ask for
    code, out, _ = run(capsys, "heat", "--p", "2", "--alpha", "2.5", "--gamma-max", "1040")
    assert code == 0 and len(out.strip().split("\n")) == 1043
    code, out, _ = run(capsys, "kernel", "--p", "2", "--alpha", "2.5", "--gamma-max", "1040")
    assert code == 0 and len(out.strip().split("\n")) == 1043


def test_heat_rejects_zero_time(capsys):
    code, _, err = run(capsys, "heat", "--t", "0")
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("gamma_max", ["8", "-1"])
@pytest.mark.parametrize("t", ["inf", "nan"])
def test_heat_refuses_a_time_that_is_not_finite_before_any_row(capsys, t, gamma_max):
    # inf once ran a 100 000-shell depth search that blamed alpha, and
    # printed a bare header at --gamma-max -1
    code, out, err = run(capsys, "heat", "--t", t, "--gamma-max", gamma_max)
    assert (code, out, err) == (2, "", f"error: --t {t} must be positive and finite\n")


def test_heat_deterministic(capsys):
    _, out1, _ = run(capsys, "heat", "--t", "0.3", "--gamma-max", "12")
    _, out2, _ = run(capsys, "heat", "--t", "0.3", "--gamma-max", "12")
    assert out1 == out2


def test_fourier_unit_ball_fixed_point(tmp_path, capsys):
    src = tmp_path / "omega.json"
    src.write_text(serialize(OMEGA))
    code, out, _ = run(capsys, "fourier", "--in", str(src))
    assert code == 0
    assert out.strip() == serialize(OMEGA)


def test_fourier_roundtrip_report(tmp_path, capsys):
    from padic_bessel.schwartz import random_test_function

    f = random_test_function(11, PrimeContext(2, 1))
    src = tmp_path / "f.json"
    src.write_text(serialize(f))
    code, out, _ = run(capsys, "fourier", "--in", str(src), "--roundtrip")
    assert code == 0
    payload = json.loads(out)
    assert payload["roundtrip_defect"] <= 1e-12
    doubled = deserialize(json.dumps(payload["double_transform"]))
    assert (doubled - f.reflect()).sup_norm() <= 1e-12


def test_fourier_p_mismatch(tmp_path, capsys):
    src = tmp_path / "omega.json"
    src.write_text(serialize(OMEGA))
    code, _, err = run(capsys, "fourier", "--in", str(src), "--p", "3")
    assert code == 2
    assert "does not match" in err


def test_fourier_malformed_file(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text('{"p":4,"n":1,"terms":[]}')
    code, _, err = run(capsys, "fourier", "--in", str(src))
    assert code == 2


def test_fourier_refuses_a_term_that_is_not_an_object(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"p": 2, "n": 1, "terms": [[]]}))
    assert run(capsys, "fourier", "--in", str(src)) == (2, "", "error: each term must be an object\n")


def _single_ball_file(tmp_path, radius_exp):
    src = tmp_path / f"ball_{radius_exp}.json"
    src.write_text(
        json.dumps({"p": 2, "n": 1, "terms": [{"re": "1", "center": ["0"], "radius_exp": radius_exp}]})
    )
    return src


@pytest.mark.parametrize("radius_exp", [-1000, 5000])
def test_fourier_of_a_very_deep_or_very_large_ball(tmp_path, capsys, radius_exp):
    # the transform of 1_{B(0, 2**r)} is 2**r 1_{B(0, 2**-r)}; canonical form
    # walks one tree level per digit, past the interpreter's recursion limit
    src = _single_ball_file(tmp_path, radius_exp)
    code, out, err = run(capsys, "fourier", "--in", str(src))
    assert (code, err) == (0, "")
    ctx = PrimeContext(2, 1)
    dual = Ball(PAdicVector.zero(ctx), -radius_exp)
    assert deserialize(out) == BruhatSchwartzFunction.indicator(dual, Fraction(2) ** radius_exp)


@pytest.mark.parametrize("command", [["fourier"], ["evolve", "--t", "1"]])
def test_a_file_deeper_than_the_reader_accepts_exits_2_at_once(tmp_path, capsys, command):
    src = tmp_path / "deep.json"
    src.write_text('{"p":2,"n":1,"terms":[{"re":"1","center":["1"],"radius_exp":-1000000000}]}')
    start = perf_counter()
    code, out, err = run(capsys, *command, "--in", str(src))
    assert perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: the terms span 1000000000 p-adic digits, over the {MAX_INPUT_DEPTH} accepted\n"


@pytest.mark.parametrize(
    "term,depth",
    [
        ({"center": ["0"], "radius_exp": -1000}, 1000),
        ({"center": ["0"], "radius_exp": 10**9}, 10**9),  # a 10**9-digit measure
        ({"center": ["1/1024"], "radius_exp": 3}, 10),
        ({"center": ["5/3"], "radius_exp": -4}, 4),  # 1/3 is a 2-adic unit
        ({"re": "0", "center": ["0"], "radius_exp": -(10**9)}, 0),  # dropped by canonical form
    ],
)
def test_reader_depth_counts_canonical_digits(term, depth):
    text = json.dumps({"p": 2, "n": 1, "terms": [{"re": "1", **term}, {"re": "1", "center": ["0"], "radius_exp": 0}]})
    if depth <= MAX_INPUT_DEPTH:
        deserialize(text)
    else:
        with pytest.raises(ValueError, match=f"span {depth} p-adic digits"):
            deserialize(text)


@pytest.mark.parametrize("text", ["1e-99999999", "0.5", " 1", "1_0", "3/-4", "/2", ""])
def test_reader_takes_only_num_over_den(text):
    body = json.dumps({"p": 2, "n": 1, "terms": [{"re": "1", "center": [text], "radius_exp": 0}]})
    start = perf_counter()
    with pytest.raises(ValueError, match="malformed rational"):
        deserialize(body)
    assert perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "p,n,over",
    [(2, 8, False), (3, 5, False), (251, 1, False), (2, 9, True), (257, 1, True), (3, 6, True), (2, 10**9, True)],
)
def test_digit_tuple_bound(p, n, over):
    assert MAX_DIGIT_TUPLES == 2**8
    assert too_many_digit_tuples(p, n) is over


# 2**127 - 1 is prime, past is_prime's bound: the digit tuple bound comes first
@pytest.mark.parametrize("p,n", [(2, 9), (257, 1), (2, 10**9), (2**127 - 1, 1)])
@pytest.mark.parametrize("command", [["fourier"], ["evolve", "--t", "1"]])
def test_a_file_over_the_digit_tuple_bound_exits_2_at_once(tmp_path, capsys, p, n, command):
    src = tmp_path / "wide.json"
    src.write_text(json.dumps({"p": p, "n": n, "terms": [{"re": "1", "center": ["0"], "radius_exp": 0}]}))
    start = perf_counter()
    code, out, err = run(capsys, *command, "--in", str(src))
    assert perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: p**n = {p}**{n} is over the {MAX_DIGIT_TUPLES} digit tuples accepted\n"


def test_a_file_at_the_digit_tuple_bound_is_read(tmp_path, capsys):
    src = tmp_path / "n8.json"
    src.write_text(json.dumps({"p": 2, "n": 8, "terms": [{"re": "1", "center": ["0"] * 8, "radius_exp": 0}]}))
    code, out, err = run(capsys, "fourier", "--in", str(src))
    assert (code, err) == (0, "")
    assert deserialize(out) == BruhatSchwartzFunction.unit_ball(PrimeContext(2, 8))


@pytest.mark.parametrize(
    "suite,flags",
    [("dissipative", ["--n", "30", "--alpha", "31"]), ("pmp", ["--p", "257"]), ("heat", ["--p", "3", "--n", "6", "--alpha", "7"])],
)
def test_verify_refuses_a_space_over_the_digit_tuple_bound_before_building_a_function(capsys, monkeypatch, suite, flags):
    def refuse(*args, **kwargs):
        raise AssertionError("a function was built")

    monkeypatch.setattr(cli, "random_test_function", refuse)
    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, refuse)
    code, out, err = run(capsys, "verify", suite, *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error: p**n = ") and err.endswith(f"is over the {MAX_DIGIT_TUPLES} digit tuples accepted\n")


@pytest.mark.parametrize("field", ["n", "radius_exp"])
def test_a_boolean_in_a_function_file_exits_2(tmp_path, capsys, field):
    # JSON true would read as 1 and serialize back as true: two byte forms
    obj = {"p": 2, "n": 1, "terms": [{"re": "1", "center": ["0"], "radius_exp": 1}]}
    deserialize(json.dumps(obj))
    if field == "n":
        obj["n"] = True
    else:
        obj["terms"][0]["radius_exp"] = True
    with pytest.raises(FunctionFormatError, match=field):
        deserialize(json.dumps(obj))
    src = tmp_path / "bool.json"
    src.write_text(json.dumps(obj))
    code, out, err = run(capsys, "fourier", "--in", str(src))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field}")


def test_fourier_refuses_a_transform_over_the_cell_budget_at_once(tmp_path, capsys):
    # the transform of 1_{B(2**-20, 2**-20)} has 2**40 cells
    src = tmp_path / "deep_center.json"
    src.write_text('{"p":2,"n":1,"terms":[{"re":"1","center":["1/1048576"],"radius_exp":-20}]}')
    start = perf_counter()
    code, out, err = run(capsys, "fourier", "--in", str(src))
    assert perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: the transform would build at least 2^40 cells, over --max-cells 65536\n"


def test_fourier_cell_budget_counts_every_term_not_the_double_transform(tmp_path, capsys):
    # 1_{B(1/8, 1/8)} builds 2**6 cells of radius 1/8 with centers k/8,
    # 0 <= k < 64; its double transform is the one term 1_{B(-1/8, 1/8)},
    # never flattened, where the cell route built 2731 cells
    f = BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(PrimeContext(2, 1), Fraction(1, 8)), -3))
    src = tmp_path / "f.json"
    src.write_text(serialize(f + f.reflect()))
    code, _, err = run(capsys, "fourier", "--in", str(src), "--max-cells", "127")
    assert (code, err) == (2, "error: the transform would build 128 cells, over --max-cells 127\n")
    # more terms than the budget: refused before any exponent is read
    code, _, err = run(capsys, "fourier", "--in", str(src), "--max-cells", "1")
    assert (code, err) == (2, "error: the transform would build at least 2 cells, over --max-cells 1\n")
    src.write_text(serialize(f))
    code, out, _ = run(capsys, "fourier", "--in", str(src), "--max-cells", "64")
    assert code == 0 and len(deserialize(out).terms) == 2**6
    code, out, err = run(capsys, "fourier", "--in", str(src), "--roundtrip", "--max-cells", "64")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert deserialize(json.dumps(payload["double_transform"])) == f.reflect()
    assert payload["roundtrip_defect"] == 0
    code, _, err = run(capsys, "fourier", "--in", str(src), "--max-cells", "0")
    assert (code, err) == (2, "error: --max-cells 0 must be at least 1\n")


def test_fourier_counts_a_file_over_its_budget_without_building_a_ball(tmp_path, capsys):
    # B(0, 3^5000) + 2 B((1,1), 3^-1000) at p = 3, n = 2: 48 001 cells with
    # centers of up to 6000 digits, whose balls took about 4 s to build
    src = tmp_path / "f.json"
    src.write_text(json.dumps({"p": 3, "n": 2, "terms": [
        {"re": "1", "center": ["0", "0"], "radius_exp": 5000},
        {"re": "2", "center": ["1", "1"], "radius_exp": -1000},
    ]}))
    start = perf_counter()
    code, out, err = run(capsys, "fourier", "--in", str(src), "--max-cells", "10")
    assert perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: the transform would build at least 48001 cells, over --max-cells 10\n"


def test_fourier_roundtrip_is_one_exact_cell_at_p_3(tmp_path, capsys):
    # the cell route gave 9 inexact cells: rounded phases block merging
    f = BruhatSchwartzFunction.indicator(Ball(PAdicVector.of(PrimeContext(3, 1), Fraction(1, 3)), -1))
    src = tmp_path / "f.json"
    src.write_text(serialize(f))
    code, out, err = run(capsys, "fourier", "--in", str(src), "--roundtrip")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    doubled = deserialize(json.dumps(payload["double_transform"]))
    assert len(doubled.terms) == 1 and doubled.is_exact
    assert doubled == f.reflect()
    assert payload["roundtrip_defect"] == 0


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_verify_fourier_is_exact_at_odd_p(capsys, p, n):
    argv = ["--p", str(p), "--n", str(n), "--alpha", "3", "--trials", "12", "--seed", "4"]
    code, out, _ = run(capsys, "verify", "fourier", *argv)
    assert code == 0
    assert out.splitlines()[:2] == [
        "check=fourier_parseval trials=12 worst=0 tol=9.9999999999999998e-13 PASS",
        "check=fourier_reflection trials=12 worst=0 tol=9.9999999999999998e-13 PASS",
    ]


def test_a_file_over_the_cell_budget_exits_2_fast(tmp_path, capsys):
    # B(0, 5^5000) + 2 B((1,1), 5^-1000) at p = 5, n = 2 has 144 001
    # canonical cells, which took 28 s to read on a 2-vCPU VM
    src = tmp_path / "f.json"
    src.write_text(json.dumps({"p": 5, "n": 2, "terms": [
        {"re": "1", "center": ["0", "0"], "radius_exp": 5000},
        {"re": "2", "center": ["1", "1"], "radius_exp": -1000},
    ]}))
    for argv in (["fourier", "--in", str(src)], ["evolve", "--in", str(src), "--t", "1"]):
        start = perf_counter()
        code, out, err = run(capsys, *argv)
        assert perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: the canonical form has 144001 cells, over the 65536 accepted\n"


def test_evolve_norm_beyond_the_float_range_exits_2(tmp_path, capsys):
    # ||1_{B(0, 2**5000)}||_2 = 2**2500 has no float
    src = _single_ball_file(tmp_path, 5000)
    code, out, err = run(capsys, "evolve", "--in", str(src), "--t", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("p,center,radius_exp", [(2, "0", 0), (2, "0", -1000), (3, "1/9", -1)])
def test_evolve_norms_past_the_float_range_of_their_squares(tmp_path, capsys, p, center, radius_exp):
    # a coefficient of 10**200 has no float square, but its norms have
    # floats: every row is printed and every snapshot written
    src = tmp_path / "f.json"
    term = {"re": str(10**200), "center": [center], "radius_exp": radius_exp}
    src.write_text(json.dumps({"p": p, "n": 1, "terms": [term]}))
    prefix = tmp_path / "snap"
    code, out, err = run(
        capsys, "evolve", "--in", str(src), "--t", "0,0.5", "--alpha", "2", "--snapshots", str(prefix)
    )
    assert (code, err) == (0, "")
    header, at_zero, at_half = out.strip().split("\n")
    assert header == "time,l2_norm,sup_norm"
    l2, sup = (float(x) for x in at_zero.split(",")[1:])
    assert sup == 1e200
    assert l2 == pytest.approx(1e200 * math.sqrt(float(Fraction(p) ** radius_exp)), rel=1e-15)
    if radius_exp == 0:  # the unit ball: both norms are 10**200
        assert l2 == 1e200
    assert all(math.isfinite(float(x)) and 0 < float(x) <= 1e200 for x in at_half.split(",")[1:])
    assert len(list(tmp_path.glob("snap*"))) == 2


def test_evolve_homogeneous_snapshot(tmp_path, capsys):
    src = tmp_path / "u0.json"
    src.write_text(serialize(OMEGA))
    prefix = str(tmp_path / "snap_")
    code, out, _ = run(
        capsys,
        "evolve",
        "--in", str(src),
        "--alpha", "2",
        "--t", "0.25,0.5,1.0",
        "--snapshots", prefix,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "time,l2_norm,sup_norm"
    l2s = [float(row.split(",")[1]) for row in lines[1:]]
    assert l2s == sorted(l2s, reverse=True)  # contraction: non-increasing
    snap = deserialize((tmp_path / "snap_2.json").read_text())
    expected = OMEGA.scale(math.exp(-1.0))
    assert (snap - expected).sup_norm() <= 1e-15
    # each snapshot holds the solution's serialized text and one newline, byte for byte
    order = BesselOrder(2.0, OMEGA.ctx)
    for idx, t in enumerate((0.25, 0.5, 1.0)):
        text = serialize(solve_cauchy(OMEGA, t, order)) + "\n"
        assert (tmp_path / f"snap_{idx}.json").read_bytes() == text.encode()


def test_evolve_constant_forcing(tmp_path, capsys):
    zero_fn = BruhatSchwartzFunction.zero(PrimeContext(2, 1))
    src = tmp_path / "u0.json"
    src.write_text(serialize(zero_fn))
    forcing = tmp_path / "forcing.json"
    forcing.write_text(
        json.dumps({"schedule": [{"time": 0.0, "function": json.loads(serialize(OMEGA))}]})
    )
    prefix = str(tmp_path / "s_")
    code, out, _ = run(
        capsys,
        "evolve",
        "--in", str(src),
        "--alpha", "2",
        "--t", "1.0",
        "--forcing", str(forcing),
        "--snapshots", prefix,
    )
    assert code == 0
    snap = deserialize((tmp_path / "s_0.json").read_text())
    got = float(snap.terms[0][0].re)
    assert abs(got - (1 - math.exp(-1))) <= 1e-8


def test_evolve_last_simpson_node_is_t(tmp_path, capsys):
    # the evolve benchmark's probe; --steps is validated but not read
    src = tmp_path / "u0.json"
    src.write_text(serialize(OMEGA))
    forcing = tmp_path / "forcing.json"
    forcing.write_text(json.dumps([{"time": 0.0, "function": json.loads(serialize(OMEGA))}]))
    code, out, err = run(
        capsys, "evolve", "--in", str(src), "--forcing", str(forcing),
        "--t", "0.103", "--steps", "24",
    )
    assert code == 0, err
    assert out.startswith("time,l2_norm,sup_norm\n0.10299999999999999,")


def _forcing_file(tmp_path, time):
    forcing = tmp_path / "forcing.json"
    forcing.write_text(json.dumps([{"time": time, "function": json.loads(serialize(OMEGA))}]))
    return str(forcing)


@pytest.mark.parametrize("times", ["inf", "nan", "0.5,inf", "1e400"])
@pytest.mark.parametrize("forced", [False, True])
def test_evolve_rejects_non_finite_times(tmp_path, capsys, times, forced):
    src = tmp_path / "u0.json"
    src.write_text(serialize(OMEGA))
    forcing = ["--forcing", _forcing_file(tmp_path, 0.0)] if forced else []
    code, out, err = run(capsys, "evolve", "--in", str(src), "--t", times, *forcing)
    assert (code, out) == (2, "")
    assert err.startswith("error: --t ") and err.endswith(" must be a finite time\n")


@pytest.mark.parametrize("horizon", [[], ["--horizon", "2"]])
@pytest.mark.parametrize("times", ["-1", "0.5,-1"])
def test_evolve_names_t_for_a_negative_time(tmp_path, capsys, times, horizon):
    # without --horizon, -1 once became the horizon, and the message blamed it
    src = tmp_path / "u0.json"
    src.write_text(serialize(OMEGA))
    code, out, err = run(capsys, "evolve", "--in", str(src), "--t", times, *horizon)
    assert (code, out, err) == (2, "", "error: --t -1.0 must be nonnegative\n")


def test_evolve_at_time_zero_needs_a_horizon_and_names_t(tmp_path, capsys):
    src = tmp_path / "u0.json"
    src.write_text(serialize(OMEGA))
    code, out, err = run(capsys, "evolve", "--in", str(src), "--t", "0")
    assert (code, out) == (2, "")
    assert err == "error: --t must list a positive time when --horizon is not given\n"
    code, out, err = run(capsys, "evolve", "--in", str(src), "--t", "0", "--horizon", "1")
    assert (code, err) == (0, "") and out.startswith("time,l2_norm,sup_norm\n0,")


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--in", "{src}", "--t", "-0.5,1"],
        ["heat", "--t", "-inf"],
        ["verify", "pmp", "--trials", "1", "--tol", "-1e-3"],
        ["evolve", "--in", "{src}", "--t", "0.5", "--horizon", "-1e3"],
    ],
)
def test_a_flag_value_that_starts_with_a_dash_reaches_its_check(tmp_path, capsys, argv):
    # argparse took each of these values for an option and exited 2 with
    # "expected one argument", naming no value; the flag=value form always
    # reached the checks
    src = tmp_path / "u0.json"
    src.write_text(serialize(OMEGA))
    argv = [a.format(src=src) for a in argv]
    flag = argv[-2]
    joined = argv[:-2] + [f"{flag}={argv[-1]}"]
    got = run(capsys, *argv)
    assert got == run(capsys, *joined)
    assert "expected one argument" not in got[2]


@pytest.mark.parametrize("argv", [["heat", "--t", "--gamma-max", "3"], ["heat", "--t", "--gamma", "3"], ["heat", "--t", "-h"]])
def test_an_option_after_a_value_flag_is_still_an_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --t: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("time", [[0], None, {"t": 0}, True, False, "0", "0.5"])
def test_evolve_rejects_a_forcing_time_that_is_not_a_number(tmp_path, capsys, time):
    src = tmp_path / "u0.json"
    src.write_text(serialize(OMEGA))
    code, out, err = run(
        capsys, "evolve", "--in", str(src), "--t", "1", "--forcing", _forcing_file(tmp_path, time)
    )
    assert (code, out) == (2, "")
    assert err == f"error: forcing time {json.dumps(time)} is not a number\n"


def test_a_malformed_forcing_file_exits_2_as_a_malformed_input_file_does(tmp_path, capsys):
    good = tmp_path / "u0.json"
    good.write_text(serialize(OMEGA))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    as_forcing = run(capsys, "evolve", "--in", str(good), "--t", "1", "--forcing", str(bad))
    as_input = run(capsys, "evolve", "--in", str(bad), "--t", "1")
    assert as_forcing == as_input
    assert as_forcing[:2] == (2, "") and as_forcing[2].startswith("error: malformed JSON: ")


@pytest.mark.parametrize(
    "schedule, message",
    [
        ({"schedule": 3}, "forcing file must hold a list (or {'schedule': [...]})"),
        ([{"time": 0}], "each forcing entry needs 'time' and 'function'"),
    ],
)
def test_evolve_refuses_a_forcing_file_of_the_wrong_shape(tmp_path, capsys, schedule, message):
    src = tmp_path / "u0.json"
    src.write_text(serialize(OMEGA))
    forcing = tmp_path / "forcing.json"
    forcing.write_text(json.dumps(schedule))
    got = run(capsys, "evolve", "--in", str(src), "--t", "1", "--forcing", str(forcing))
    assert got == (2, "", f"error: {message}\n")


def test_evolve_refuses_a_time_list_without_a_time(tmp_path, capsys):
    src = tmp_path / "u0.json"
    src.write_text(serialize(OMEGA))
    got = run(capsys, "evolve", "--in", str(src), "--t", ",")
    assert got == (2, "", "error: --t must list at least one evaluation time\n")


@pytest.mark.parametrize("p,n", [(3, 1), (2, 2)])
def test_a_forcing_function_on_another_space_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch, p, n):
    src = tmp_path / "u0.json"
    src.write_text(serialize(OMEGA))
    schedule = [OMEGA, BruhatSchwartzFunction.unit_ball(PrimeContext(p, n))]
    forcing = tmp_path / "forcing.json"
    entries = [{"time": k * 0.5, "function": json.loads(serialize(f))} for k, f in enumerate(schedule)]
    forcing.write_text(json.dumps(entries))
    built = []
    reader = cli.read_object

    def read_object(obj):
        ctx, build = reader(obj)

        def counted_build():
            built.append(ctx)
            return build()

        return ctx, counted_build

    monkeypatch.setattr(cli, "read_object", read_object)
    code, out, err = run(capsys, "evolve", "--in", str(src), "--t", "1", "--forcing", str(forcing))
    assert (code, out) == (2, "")
    assert err == f"error: forcing p, n = {p}, {n} do not match the input file's 2, 1\n"
    assert built == [PrimeContext(2, 1), PrimeContext(2, 1)]  # the --in file, then the first entry


def test_evolve_time_beyond_horizon(tmp_path, capsys):
    src = tmp_path / "u0.json"
    src.write_text(serialize(OMEGA))
    code, _, err = run(
        capsys, "evolve", "--in", str(src), "--t", "2.0", "--horizon", "1.0"
    )
    assert code == 2
    assert "horizon" in err


def test_evolve_schedule_gap(tmp_path, capsys):
    src = tmp_path / "u0.json"
    src.write_text(serialize(OMEGA))
    forcing = tmp_path / "forcing.json"
    forcing.write_text(
        json.dumps([{"time": 0.5, "function": json.loads(serialize(OMEGA))}])
    )
    code, _, err = run(
        capsys, "evolve", "--in", str(src), "--t", "1.0", "--forcing", str(forcing)
    )
    assert code == 2
    assert "gap" in err


def test_verify_negdef(capsys):
    code, out, _ = run(capsys, "verify", "negdef")
    assert code == 0
    assert "negdef_shell_1" in out
    assert "worst=-0.5" in out
    assert out.strip().endswith("overall: PASS")


@pytest.mark.parametrize(
    "suite", ["heat", "fourier", "selfadjoint", "contraction", "resolvent", "dissipative", "routes"]
)
def test_verify_suites_pass(capsys, suite):
    random_inputs = [] if suite in cli.FIXED_SUITES else ["--trials", "25", "--seed", "3"]
    code, out, _ = run(capsys, "verify", suite, *random_inputs)
    assert code == 0, out
    assert out.strip().endswith("overall: PASS")


def test_verify_pmp_reports_failure_honestly(capsys):
    # sign-mixed inputs violate the maximum principle (see ledger notes);
    # the suite must say so and exit 1
    code, out, _ = run(capsys, "verify", "pmp", "--trials", "60", "--seed", "7")
    assert code == 1
    assert "FAIL" in out


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "fourier", "--trials", "20", "--seed", "5")
    _, out2, _ = run(capsys, "verify", "fourier", "--trials", "20", "--seed", "5")
    assert out1 == out2


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, "kernel", "--gamma-max", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("gamma,norm,k_alpha\n")


# -- output files, rewritten in place and cut to length (cli._emit) -------------
# each test names the mutant of scripts/mutants.py (or the writer) it kills


def test_a_shorter_rerun_into_the_same_out_leaves_no_stale_tail(tmp_path, capsys):
    # kills emit_without_ftruncate
    target = tmp_path / "k.csv"
    assert run(capsys, "kernel", "--gamma-max", "50", "--out", str(target)) == (0, "", "")
    assert run(capsys, "kernel", "--gamma-max", "3", "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == run(capsys, "kernel", "--gamma-max", "3")[1].encode()


def _evolve_into(capsys, src, folder):
    """The files of one evolve run with --out and --snapshots in folder."""
    folder.mkdir(exist_ok=True)
    argv = ["--out", str(folder / "series.csv"), "--snapshots", str(folder / "snap_")]
    assert run(capsys, "evolve", "--in", str(src), "--t", "0,0.25,1", "--alpha", "2.5", *argv) == (0, "", "")
    return {path.name: path.read_bytes() for path in sorted(folder.iterdir())}


def test_an_evolve_rerun_into_the_same_paths_writes_what_a_fresh_run_does(tmp_path, capsys):
    # kills emit_without_ftruncate on the snapshots
    large = tmp_path / "large.json"
    large.write_text(json.dumps({"p": 2, "n": 1, "terms": [
        {"re": str(k + 1), "im": "1/3", "center": [str(k)], "radius_exp": -k} for k in range(1, 9)
    ]}))
    small = tmp_path / "small.json"
    small.write_text(serialize(OMEGA))
    first = _evolve_into(capsys, large, tmp_path / "runs")
    rerun = _evolve_into(capsys, small, tmp_path / "runs")
    fresh = _evolve_into(capsys, small, tmp_path / "fresh")
    assert sorted(rerun) == ["series.csv", "snap_0.json", "snap_1.json", "snap_2.json"]
    assert all(len(first[name]) > len(fresh[name]) for name in fresh if name.startswith("snap_"))
    assert rerun == fresh


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_a_new_out_file_gets_the_mode_open_gives_it(tmp_path, capsys, umask):
    # kills emit_with_default_mode (os.open's 0o777 before the umask)
    old = os.umask(umask)
    try:
        with open(tmp_path / "by_open.csv", "w"):
            pass
        code = run(capsys, "kernel", "--gamma-max", "1", "--out", str(tmp_path / "by_cli.csv"))[0]
    finally:
        os.umask(old)
    assert code == 0
    mode = stat.S_IMODE((tmp_path / "by_cli.csv").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "by_open.csv").stat().st_mode)


def test_out_to_the_null_device_exits_0(capsys):
    # kills emit_cuts_every_file: a character device cannot be cut
    assert run(capsys, "kernel", "--gamma-max", "3", "--out", os.devnull) == (0, "", "")


def test_a_hard_link_to_the_out_file_reads_the_rerun(tmp_path, capsys):
    # the file is rewritten, not replaced: kills a writer that writes a
    # temporary file and renames it over --out
    target, link = tmp_path / "k.csv", tmp_path / "link.csv"
    assert run(capsys, "kernel", "--gamma-max", "8", "--out", str(target))[0] == 0
    os.link(target, link)
    argv = ["kernel", "--alpha", "3", "--gamma-max", "2"]
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert link.read_bytes() == run(capsys, *argv)[1].encode()


@pytest.mark.parametrize("command", ["kernel", "heat", "fourier", "evolve", "verify"])
def test_out_holds_exactly_what_the_command_prints(tmp_path, capsys, command):
    # kills a writer that changes the bytes: another encoding, translated
    # newlines, or a partial write taken for the whole
    src = _terms_file(tmp_path, [
        {"re": "3", "center": ["0"], "radius_exp": 0},
        {"re": "1", "im": "-1/2", "center": ["1"], "radius_exp": -2},
    ])
    argv = {
        "kernel": ["kernel", "--p", "3", "--alpha", "2.5", "--gamma-max", "40"],
        "heat": ["heat", "--t", "0.5", "--gamma-max", "40"],
        "fourier": ["fourier", "--in", str(src), "--roundtrip"],
        "evolve": ["evolve", "--in", str(src), "--t", "0.25,1", "--alpha", "3"],
        "verify": ["verify", "all", "--trials", "2"],
    }[command]
    code, printed, err = run(capsys, *argv)
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (code, "", err)
    assert printed and target.read_bytes() == printed.encode()


@pytest.mark.parametrize("role", ["fourier_in", "evolve_in", "evolve_forcing"])
def test_json_nested_past_the_decoder_depth_exits_2_as_malformed_json(tmp_path, capsys, role):
    # kills load_json_without_recursion_clause; at the default recursion
    # limit 1000 levels already raised RecursionError through the CLI
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    good = tmp_path / "u0.json"
    good.write_text(serialize(OMEGA))
    argv = {
        "fourier_in": ["fourier", "--in", str(deep)],
        "evolve_in": ["evolve", "--in", str(deep), "--t", "1"],
        "evolve_forcing": ["evolve", "--in", str(good), "--t", "1", "--forcing", str(deep)],
    }[role]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: malformed JSON: ")



def test_evolve_of_a_ball_2_to_the_minus_1000(tmp_path, capsys):
    # the L2 norm sums the canonical cells once; a pairing that reduced
    # every center mod every radius ran past a minute here
    src = _single_ball_file(tmp_path, -1000)
    code, out, err = run(capsys, "evolve", "--in", str(src), "--t", "1")
    assert (code, err) == (0, "")
    _, row = out.strip().split("\n")
    t, l2, sup = (float(x) for x in row.split(","))
    # T(1) barely moves a ball this small: its kernel is delta_0 + Z(., 1)
    assert t == 1.0
    assert math.isclose(l2, 2.0 ** -500, rel_tol=1e-9)
    assert math.isclose(sup, 1.0, rel_tol=1e-9)


def _terms_file(tmp_path, terms):
    src = tmp_path / "f.json"
    src.write_text(json.dumps({"p": 2, "n": 1, "terms": terms}))
    return src


def test_evolve_of_nested_balls_2_to_the_minus_1000_is_fast(tmp_path, capsys):
    # 1_{B(0,1)} + 2 * 1_{B(1, 2^-1000)}: 1001 cells, one per level; the
    # concentric route brought about 1000**2 / 2 balls and took 16.9 s on a
    # 2-vCPU VM
    src = _terms_file(tmp_path, [
        {"re": "1", "center": ["0"], "radius_exp": 0},
        {"re": "2", "center": ["1"], "radius_exp": -1000},
    ])
    start = perf_counter()
    code, out, err = run(capsys, "evolve", "--in", str(src), "--t", "1", "--alpha", "2.5")
    assert perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out == "time,l2_norm,sup_norm\n1,0.36787944117144228,2.3678794411714423\n"


@pytest.mark.parametrize("alpha", ["1e300", "1.5", "nan"])
def test_evolve_refuses_an_order_before_building_its_input(tmp_path, capsys, alpha):
    # p = 3, n = 2: B(0, 3^2000) + 2 * 1_{B((1, 1), 3^-2000)} spans 4000
    # digits, and building its canonical form takes about a second
    src = tmp_path / "f.json"
    src.write_text(json.dumps({"p": 3, "n": 2, "terms": [
        {"re": "1", "center": ["0", "0"], "radius_exp": 2000},
        {"re": "2", "center": ["1", "1"], "radius_exp": -2000},
    ]}))
    start = perf_counter()
    code, out, err = run(capsys, "evolve", "--in", str(src), "--t", "1", "--alpha", alpha)
    assert perf_counter() - start < 0.2
    assert (code, out) == (2, "")
    assert err.startswith("error: order alpha = ")


def test_a_wide_ball_beside_a_unit_ball_exits_2_fast(tmp_path, capsys):
    # 5001 cells up to radius 2^5000; the L2 norm overflows a float
    src = _terms_file(tmp_path, [
        {"re": "1", "center": ["1/3"], "radius_exp": 5000},
        {"re": "2", "center": ["1"], "radius_exp": 0},
    ])
    start = perf_counter()
    code, out, err = run(capsys, "evolve", "--in", str(src), "--t", "1", "--alpha", "2.5")
    assert perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_kernel_at_a_61_bit_prime_is_fast(capsys):
    start = perf_counter()
    code, out, err = run(capsys, "kernel", "--p", str(2**61 - 1), "--gamma-max", "1")
    assert perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out.startswith("gamma,norm,k_alpha\n")


@pytest.mark.parametrize("p,gamma", [(2**61 - 1, 20000), (2, 100000)])
def test_a_deep_exact_kernel_table_is_fast(capsys, p, gamma):
    # exact rows stop their big-integer arithmetic once they round to the limit
    start = perf_counter()
    code, out, err = run(capsys, "kernel", "--p", str(p), "--alpha", "3", "--gamma-max", str(gamma))
    assert perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == gamma + 3
    assert float(lines[-2].split(",")[2]) == float(kernel_value(-60, BesselOrder(3.0, PrimeContext(p, 1))))


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--alpha", "1e7", "--gamma-max", "2"],
        ["kernel", "--alpha", "1e8"],
        ["kernel", "--alpha", "1e300", "--gamma-max", "1"],
        ["verify", "negdef", "--alpha", "1e12"],
        ["heat", "--p", "5", "--alpha", "7100"],
    ],
)
def test_an_order_over_the_alpha_bound_exits_2_at_once(capsys, argv):
    start = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: order alpha = ")
    assert f"over the bound alpha * log2(p) <= {MAX_ORDER_BITS}" in err


def test_fourier_of_an_output_over_the_integer_text_limit_exits_2(tmp_path, capsys):
    # the transform of 1_{B(0, 2**-2000)} at n = 8 is 2**-16000 on B(0, 2**2000):
    # a denominator of 4817 digits
    src = tmp_path / "ball.json"
    src.write_text(json.dumps({"p": 2, "n": 8, "terms": [{"re": "1", "center": ["0"] * 8, "radius_exp": -2000}]}))
    code, out, err = run(capsys, "fourier", "--in", str(src))
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == (
        f"error: term 0 field 're' has a 4817-digit integer, over the limit of {limit} digits "
        "for integer text (sys.get_int_max_str_digits())\n"
    )


@pytest.mark.parametrize("p", ["3215031751", "3825123056546413051", "3317044064679887385961981"])
def test_kernel_refuses_pseudoprimes_and_undecided_p(capsys, p):
    code, out, err = run(capsys, "kernel", "--p", p, "--gamma-max", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: p = ")


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("suite", ["contraction", "pmp"])
def test_verify_rejects_trials_below_one(capsys, suite, trials):
    code, out, err = run(capsys, "verify", suite, "--trials", trials)
    assert code == 2
    assert out == ""
    assert err == f"error: --trials {trials} must be at least 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--seed", "1"],
        ["heat", "--tol", "1e-3"],
        ["fourier", "--in", "f.json", "--alpha", "2"],
        ["evolve", "--in", "u0.json", "--t", "1", "--seed", "1"],
        ["evolve", "--in", "u0.json", "--t", "1", "--max-cells", "10"],
    ],
)
def test_flags_a_command_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_verify_fourier_checks_alpha_like_every_suite(capsys):
    code, out, err = run(capsys, "verify", "fourier", "--trials", "1", "--alpha", "0.5")
    assert (code, out) == (2, "")
    assert err.startswith("error: order alpha = 0.5 must exceed")


@pytest.mark.parametrize(
    "suite,flag",
    [("heat", "--trials"), ("heat", "--seed"), ("negdef", "--trials"), ("negdef", "--seed"),
     ("negdef", "--tol")],
)
def test_verify_fixed_suites_reject_flags_they_do_not_read(capsys, suite, flag):
    code, out, err = run(capsys, "verify", suite, flag, "3")
    assert (code, out) == (2, "")
    assert err == f"error: verify {suite} does not read {flag}\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("suite", ["pmp", "heat", "all"])
def test_verify_refuses_a_tolerance_that_is_not_finite(capsys, suite, tol):
    # --tol inf passed every maximum-principle violation; nan failed every row
    code, out, err = run(capsys, "verify", suite, f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err == f"error: --tol {tol} must be a finite tolerance\n"


def test_verify_negdef_names_tol_as_unread_before_its_value(capsys):
    code, out, err = run(capsys, "verify", "negdef", "--tol", "nan")
    assert (code, out) == (2, "")
    assert err == "error: verify negdef does not read --tol\n"


def test_verify_takes_a_negative_tolerance(capsys):
    code, out, _ = run(capsys, "verify", "contraction", "--trials", "2", "--tol=-1")
    assert (code, out) == (1, "check=contraction trials=2 worst=0 tol=-1 FAIL\noverall: FAIL\n")


def test_verify_heat_takes_tol(capsys):
    code, out, _ = run(capsys, "verify", "heat", "--tol", "1e-3")
    assert code == 0
    assert out.count(" tol=0.001 PASS\n") == 3  # the sign row has no tolerance


def test_verify_takes_seed_and_tol(capsys):
    code, out, _ = run(capsys, "verify", "contraction", "--trials", "2", "--seed", "5", "--tol", "1e-3")
    assert code == 0
    assert out.startswith("check=contraction trials=2 ")
    assert " tol=0.001 PASS\n" in out


def _readme_command_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return block.replace("\\\n", " ").splitlines()


def test_readme_command_lines_parse():
    # every documented flag exists on its command, and every suite choice too
    parser = cli._build_parser()
    commands = set()
    for line in _readme_command_lines():
        words = shlex.split(line.replace("[", "").replace("]", ""))
        assert words[0] == "padic-bessel"
        choices = [w for w in words if w.startswith("{")]
        for choice in choices[0][1:-1].split(",") if choices else [None]:
            argv = [choice if w.startswith("{") else w for w in words[1:]]
            assert parser.parse_args(argv).command == argv[0]
        commands.add(words[1])
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert commands == set(subparsers.choices)


# -- fuzzing the file-driven and table commands ----------------------------------

# radii the reader refuses, and the extremes it accepts.  Beside another
# term an extreme one gives a canonical form of about (p**n - 1) * 6000 cells
# with centers of up to 6000 digits; the reader refuses one over
# schwartz.MAX_CELLS before it builds any of them
REFUSED_RADII = st.sampled_from([-(10**9), -MAX_INPUT_DEPTH - 1, 10**9])
RADII = st.one_of(st.integers(-3, 3), REFUSED_RADII)
EXTREME_RADII = st.one_of(RADII, st.sampled_from([-1000, 5000]))
RATIONALS = st.one_of(
    st.integers(-40, 40).map(str),
    st.builds(lambda a, b, k: f"{a}/{b**k}", st.integers(-40, 40), st.sampled_from([2, 3, 5]), st.integers(0, 6)),
    st.sampled_from([f"1/{2**3000}", f"7/{3**2000}", f"{5**4000}", str(10**200)]),
)
BAD_RATIONALS = ["1/0", "1e-99999999", "0.5", "x", 7, "1/1" + "0" * 5000]


def _set_term_field(obj, key, value):
    obj["terms"][0][key] = value


def _set_coordinate(obj, value):
    obj["terms"][0]["center"][0] = value


MUTATIONS = (
    [lambda obj, v=v: obj.update(p=v) for v in (4, "2", 2.0)]
    + [lambda obj, v=v: obj.update(n=v) for v in (0, 3, True)]
    + [lambda obj: obj.update(terms={}), lambda obj: obj["terms"].append([])]
    + [lambda obj, k=k: obj["terms"][0].pop(k) for k in ("center", "radius_exp")]
    + [lambda obj, v=v: _set_term_field(obj, "radius_exp", v) for v in (True, 1.5, "1", None)]
    + [lambda obj, v=v: _set_term_field(obj, "re", v) for v in BAD_RATIONALS]
    + [lambda obj, v=v: _set_coordinate(obj, v) for v in BAD_RATIONALS]
)


@st.composite
def function_files(draw):
    """A valid function file, mutated at most once into an invalid one."""
    p, n = draw(st.sampled_from([2, 3, 5])), draw(st.sampled_from([1, 2]))
    count = draw(st.integers(1, 3))
    term = st.fixed_dictionaries(
        {
            "re": RATIONALS,
            "center": st.lists(RATIONALS, min_size=n, max_size=n),
            "radius_exp": EXTREME_RADII,
        },
        optional={"im": RATIONALS},
    )
    obj = {"p": p, "n": n, "terms": draw(st.lists(term, min_size=count, max_size=count))}
    mutate = draw(st.one_of(st.none(), st.sampled_from(MUTATIONS)))
    if mutate is not None:
        mutate(obj)
    return obj


GAMMAS = st.sampled_from(["-1000000000000", "-1", "0", "7", "300", str(MAX_DEPTH + 1), "1000000000000", "x"])


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    function=function_files(),
    command=st.sampled_from(["fourier", "evolve", "kernel", "heat"]),
    gamma=GAMMAS,
    alpha=st.sampled_from(["2.5", "1.5", "nan", "1e300", "100000000"]),
    times=st.sampled_from(["1", "0,0.5", "1e300", "-1", "inf", ""]),
    forced=st.booleans(),
    roundtrip=st.booleans(),
)
def test_cli_ends_in_an_exit_code_on_mutated_input(function, command, gamma, alpha, times, forced, roundtrip):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "f.json"
        src.write_text(json.dumps(function))
        if command == "fourier":
            argv = ["fourier", "--in", str(src), "--max-cells", "256"] + ["--roundtrip"] * roundtrip
        elif command == "evolve":
            argv = ["evolve", "--in", str(src), "--t", times, "--alpha", alpha]
            if forced:
                forcing = Path(tmp) / "forcing.json"
                forcing.write_text(json.dumps([{"time": 0, "function": function}]))
                argv += ["--forcing", str(forcing)]
        else:
            argv = [command, f"--gamma-max={gamma}", "--alpha", alpha]
        code, out, err = _exit_code(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if command == "evolve" and code == 0:
        for row in out.splitlines()[1:]:
            assert all(math.isfinite(float(x)) for x in row.split(","))


# -- one parser per process ---------------------------------------------------------


def _count_parsers(monkeypatch) -> list:
    """Patch ArgumentParser to record each one built; returns the record."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_main_builds_no_parser_after_its_first_call(tmp_path, capsys, monkeypatch):
    run(capsys, "kernel", "--gamma-max", "1")
    built = _count_parsers(monkeypatch)
    src = tmp_path / "omega.json"
    src.write_text(serialize(OMEGA))
    for argv in (["kernel"], ["heat", "--t", "0"], ["fourier", "--in", str(src)], ["verify", "negdef"]):
        run(capsys, *argv)
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])
    with pytest.raises(SystemExit):
        main(["heat", "--help"])
    capsys.readouterr()
    assert built == []


def test_importing_the_cli_builds_no_parser(monkeypatch):
    built = _count_parsers(monkeypatch)
    spec = importlib.util.spec_from_file_location("cli_fresh_copy", cli.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert built == []
    fresh._build_parser()
    assert built[0] == "padic-bessel"


# commands whose defaults differ: each pair prints the same in either order
ORDER_PAIRS = [
    (["verify", "pmp", "--trials", "1", "--seed", "3"], ["verify", "heat"]),
    (["verify", "contraction", "--trials", "2", "--tol", "1e-3"], ["verify", "negdef", "--alpha", "3"]),
    (["kernel", "--gamma-max", "2"], ["heat", "--gamma-max", "2"]),
    (["heat", "--p", "3", "--alpha", "3", "--t", "0.5", "--gamma-max", "4"], ["kernel", "--gamma-max", "2"]),
    (["heat", "--t", "-1"], ["heat", "--gamma-max", "2"]),
]


@pytest.mark.parametrize("first,second", ORDER_PAIRS)
def test_commands_print_the_same_in_either_order(capsys, first, second):
    forward = [run(capsys, *first), run(capsys, *second)]
    backward = [run(capsys, *second), run(capsys, *first)]
    assert forward == backward[::-1]
    assert all(code in (0, 2) for code, _, _ in forward)


def test_tables_print_the_same_before_and_after_any_other_command(tmp_path, capsys):
    tables = (["kernel", "--gamma-max", "2"], ["heat", "--gamma-max", "2"])
    before = [run(capsys, *argv) for argv in tables]
    src = tmp_path / "omega.json"
    src.write_text(serialize(OMEGA))
    others = [
        ["kernel", "--p", "5", "--alpha", "4", "--gamma-max", "3", "--out", str(tmp_path / "k.csv")],
        ["heat", "--t", "0.25", "--n", "2", "--alpha", "3", "--gamma-max", "5"],
        ["fourier", "--in", str(src), "--roundtrip", "--max-cells", "8"],
        ["evolve", "--in", str(src), "--t", "0.5,1", "--alpha", "2.5", "--steps", "16"],
        ["verify", "heat", "--trials", "3"],
        ["verify", "pmp", "--trials", "1", "--seed", "3", "--tol", "1"],
    ]
    for other in others:
        run(capsys, *other)
        assert [run(capsys, *argv) for argv in tables] == before
    with pytest.raises(SystemExit):
        main(["kernel", "--t", "1"])
    capsys.readouterr()
    assert [run(capsys, *argv) for argv in tables] == before


def test_the_maximum_principle_search_script_counts_what_pmp_check_decides():
    script = Path(__file__).resolve().parents[1] / "scripts" / "maximum_principle_search.py"
    done = subprocess.run(
        [sys.executable, str(script), "20", "42"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0 and done.stderr == ""
    ctx = PrimeContext(2, 1)
    order = BesselOrder(2.5, ctx)
    violations = sum(not pmp_check(order, random_test_function(42 ^ i, ctx)).passed for i in range(20))
    assert done.stdout.splitlines()[0] == f"trials=20 violations={violations}"


def test_a_fresh_interpreter_runs_the_tables_without_dataclasses_inspect_or_json(capsys):
    """These modules were two thirds of a fresh process's package import;
    a table command needs none of them, and prints what it prints in-process."""
    tables = [
        ["kernel", "--p", "3", "--n", "2", "--alpha", "2.5", "--gamma-max", "40"],
        ["heat", "--p", "2", "--alpha", "2", "--t", "0.7", "--gamma-max", "60"],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "from padic_bessel import cli\n"
        f"codes = [cli.main(argv) for argv in {tables!r}]\n"
        "print(codes, sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)), file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, timeout=120)
    assert done.stderr == b"[0, 0] []\n"
    assert done.stdout == "".join(run(capsys, *argv)[1] for argv in tables).encode()


# -- one parser per call ------------------------------------------------------------

PARSED_ARGVS = [
    ["kernel", "--p", "3", "--n", "2", "--alpha", "2.5", "--gamma-max", "4", "--out", "k.csv"],
    ["kernel", "--gamma", "5"],
    ["kernel"],
    ["heat", "--p", "5", "--alpha", "3", "--t", "0.25", "--gamma-max", "7", "--out", "h.csv"],
    ["heat", "--gamma", "5", "--t", "-inf"],
    ["heat", "--t=-1e-3", "--al", "4"],
    ["fourier", "--in", "f.json", "--p", "2", "--n", "1", "--roundtrip", "--max-cells", "9", "--out", "o.json"],
    ["fourier", "--in", "-f.json", "--max", "5"],
    ["evolve", "--in", "u0.json", "--t", "0.25,0.5", "--p", "3", "--n", "2", "--alpha", "2.5",
     "--forcing", "g.json", "--steps", "16", "--horizon", "2", "--snapshots", "s_", "--out", "e.csv"],
    ["evolve", "--in", "u0.json", "--t", "-1", "--st", "8", "--hor", "-2"],
    ["verify", "all", "--p", "3", "--n", "2", "--alpha", "2.5", "--trials", "3", "--seed", "7", "--tol", "1e-9",
     "--out", "v.txt"],
    ["verify", "--tri", "2", "pmp", "--tol", "-1"],
    ["verify", "negdef"],
]


@pytest.mark.parametrize("argv", PARSED_ARGVS, ids=[" ".join(a) for a in PARSED_ARGVS])
def test_main_parses_as_the_two_level_parse(argv):
    # each command's run records the namespace main parsed instead of running
    captured = []
    restore = [(command, command.get_default("run")) for command in cli._commands().values()]
    try:
        for command, _ in restore:
            command.set_defaults(run=captured.append)
        main(argv)
        want = cli._build_parser().parse_args(argv)
    finally:
        for command, run_command in restore:
            command.set_defaults(run=run_command)
    (got,) = captured
    assert vars(got) == vars(want) and got.command == argv[0]


def _exit_of(call):
    """(exit code, stdout, stderr) of a call that exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as info:
        call()
    return info.value.code, out.getvalue(), err.getvalue()


REFUSED_ARGVS = [
    ["-h"],
    ["--help"],
    ["heat", "-h"],
    ["evolve", "--help"],
    ["heat", "--t", "x"],
    ["kernel", "--gamma-max", "1.5"],
    ["verify", "nonsense"],
    ["heat", "--bogus"],
    ["heat", "--t", "1", "extra", "words"],
    ["verify", "pmp", "--trials", "1", "again"],
    ["evolve", "--in", "u0.json"],
    ["fourier", "--in", "f.json", "--alpha", "2"],
    ["--", "heat"],
    ["--p", "2", "kernel"],
    ["bogus"],
    ["Kernel"],
    [],
]


@pytest.mark.parametrize("argv", REFUSED_ARGVS, ids=[" ".join(a) or "no arguments" for a in REFUSED_ARGVS])
def test_main_refuses_as_the_two_level_parse(argv):
    got = _exit_of(lambda: main(argv))
    assert got == _exit_of(lambda: cli._build_parser().parse_args(argv))
    assert got[0] in (0, 2)


def test_main_reads_sys_argv_without_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["padic-bessel", "kernel", "--gamma-max", "1"])
    assert main() == 0
    assert capsys.readouterr().out == run(capsys, "kernel", "--gamma-max", "1")[1]
