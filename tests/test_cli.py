import collections
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from numpy.testing import assert_allclose

from ballsep import cli, geometry, montecarlo, probability, selfcheck, specfun
from ballsep.cli import main
from ballsep.errors import InternalConsistencyError, NoConvergence
from ballsep.geometry import Ball, make_instance
from ballsep.probability import p_fully_random, p_random_bias, p_random_weight

CANONICAL = ["--c", "-2,0", "--r", "1", "--x", "2,0", "--p", "1", "--k", "2"]
# a valid instance whose bias range [-k, k] is wider than the largest double
HUGE_K = ["--c", "-1,0", "--x", "3,0", "--k", "1e308", "--samples", "10"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestExact:
    def test_canonical_json_values(self, capsys):
        code, out, _ = run(capsys, ["exact", *CANONICAL, "--format", "json"])
        assert code == 0
        record = json.loads(out)
        assert record["n"] == 2
        assert record["p_bias"] == 0.5
        assert_allclose(record["p_weight"], 2.0 / 3.0, rtol=1e-13)
        assert_allclose(record["p_full"], math.sqrt(3.0) / math.pi - 1.0 / 3.0, rtol=1e-13)

    def test_space_instance_text(self, capsys):
        code, out, _ = run(capsys, ["exact", "--c", "0,0,0", "--r", "1", "--x", "4,0,0", "--p", "1", "--k", "4"])
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert lines["p_full"].strip() == "0.0625"
        assert lines["p_bias"].strip() == "0.25"

    @pytest.mark.parametrize(
        "x, message",
        [
            ("3", "balls need dimension >= 2, got 1"),
            ("3,0", "balls need dimension >= 2, got 1"),
            # each center is read before the pair: the non-finite one is named first
            ("nan", "ball center must contain only finite values"),
        ],
    )
    def test_one_coordinate_center_exits_two(self, capsys, x, message):
        code, out, err = run(capsys, ["exact", "--c", "1", "--x", x, "--k", "5"])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_generator_matches_explicit(self, capsys):
        _, explicit, _ = run(capsys, ["exact", *CANONICAL, "--format", "json"])
        _, generated, _ = run(
            capsys, ["exact", "--dim", "2", "--sinphi", "0.5", "--format", "json"]
        )
        a, b = json.loads(explicit), json.loads(generated)
        for key in ("p_bias", "p_weight", "p_full", "sin_phi", "q", "delta", "k"):
            assert a[key] == b[key]

    def test_overlap_message_and_exit(self, capsys):
        code, _, err = run(
            capsys, ["exact", "--c", "0,0", "--r", "1", "--x", "1.5,0", "--p", "1", "--k", "9"]
        )
        assert code == 2
        assert "balls overlap or touch (delta <= 0)" in err

    def test_insufficient_k_exits_two(self, capsys):
        code, _, err = run(capsys, ["exact", *CANONICAL[:-1], "1.5"])
        assert code == 2
        assert err.startswith("error:")

    def test_missing_instance_exits_two(self, capsys):
        code, _, err = run(capsys, ["exact"])
        assert code == 2
        assert "error:" in err

    def test_mixed_entry_styles_exit_two(self, capsys):
        code, _, err = run(capsys, ["exact", *CANONICAL, "--dim", "2", "--sinphi", "0.5"])
        assert code == 2
        assert "not both" in err

    def test_generator_with_absolute_k_matches_explicit(self, capsys):
        _, generated, _ = run(capsys, ["exact", "--dim", "3", "--sinphi", "0.5", "--k", "100"])
        _, explicit, _ = run(capsys, ["exact", "--c", "-2,0,0", "--x", "2,0,0", "--k", "100"])
        assert generated == explicit
        assert "p_bias    0.01\n" in generated

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--c", "-2,0", "--k", "2"], "explicit instances need both --c and --x"),
            (["--x", "2,0", "--k", "2"], "explicit instances need both --c and --x"),
            (["--c", "-2,0", "--x", "2,0"], "explicit instances need --k"),
        ],
    )
    def test_incomplete_explicit_instance_exits_two(self, capsys, argv, message):
        code, out, err = run(capsys, ["exact", *argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--r", "nan"], "ball radius must be positive and finite, got nan"),
            (["--r", "inf"], "ball radius must be positive and finite, got inf"),
            (["--p", "-1"], "ball radius must be positive and finite, got -1.0"),
            (["--sinphi", "1e-300", "--r", "1e10"], "|c - x| overflows double precision"),
        ],
    )
    def test_bad_radius_is_named_before_centers_are_built(self, capsys, argv, message):
        code, out, err = run(capsys, ["exact", "--dim", "2", "--sinphi", "0.5", *argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["exact", "estimate", "tessellate"])
    @pytest.mark.parametrize("factor", ["1e308", "inf"])
    def test_overflowing_k_factor_is_named(self, capsys, command, factor):
        # k = k_factor * max(|c|, |x|) = k_factor * 2 is not a finite double
        argv = [command, "--dim", "2", "--sinphi", "0.5", "--k-factor", factor]
        code, out, err = run(capsys, argv + ["--width", "2"] * (command == "tessellate"))
        message = f"k_factor {float(factor)!r} overflows k = k_factor * max(|c|, |x|)"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    # (an instance whose squared norms leave the double range, the same
    # instance at unit scale); the closed forms agree within 2 ulp
    SCALED = [
        ("--c -1e200,0 --x 1e200,0 --r 1e199 --p 1e199 --k 1e200",
         "--c -1,0 --x 1,0 --r 0.1 --p 0.1 --k 1"),
        ("--c 0,0 --x 4e-300,0 --r 1e-300 --p 1e-300 --k 1e-299",
         "--c 0,0 --x 4,0 --r 1 --p 1 --k 10"),
    ]

    @pytest.mark.parametrize("scaled, unit", SCALED)
    def test_scale_free_closed_forms(self, capsys, scaled, unit):
        code, out, _ = run(capsys, ["exact", *scaled.split(), "--format", "json"])
        assert code == 0
        got = json.loads(out)
        want = json.loads(run(capsys, ["exact", *unit.split(), "--format", "json"])[1])
        for key in ("sin_phi", "q", "p_bias", "p_weight", "p_full"):
            assert abs(got[key] - want[key]) <= 2 * math.ulp(want[key]), key

    def test_unknown_flag_exits_two(self, capsys):
        code, _, err = run(capsys, ["exact", "--bogus", "1"])
        assert code == 2
        assert "usage" in err

    def test_unparsable_vector_exits_two(self, capsys):
        code, _, err = run(capsys, ["exact", "--c", "a,b", "--x", "2,0", "--k", "9"])
        assert code == 2
        assert "--c" in err

    def test_json_round_trip_re_evaluates(self, capsys):
        _, out, _ = run(capsys, ["exact", "--dim", "7", "--sinphi", "0.44", "--k-factor", "1.8", "--format", "json"])
        record = json.loads(out)
        dist = record["r"] + record["p"] + record["delta"]
        c = [0.0] * record["n"]
        c[0] = -0.5 * dist
        x = [0.0] * record["n"]
        x[0] = 0.5 * dist
        inst = make_instance(Ball(c, record["r"]), Ball(x, record["p"]), record["k"])
        assert abs(p_random_bias(inst) - record["p_bias"]) < 1e-12
        assert abs(p_random_weight(inst) - record["p_weight"]) < 1e-12
        assert abs(p_fully_random(inst) - record["p_full"]) < 1e-12

    def test_overflowing_norm_is_bad_input_without_warning(self):
        # run under -W error: a RuntimeWarning from the norm would abort
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        argv = ["exact", "--c", "-1e308,0", "--x", "1e308,0", "--k", "1e308"]
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "ballsep", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: |c - x| overflows double precision\n"

    @pytest.mark.parametrize("dim", [2**30 + 1, 1 << 61, 1 << 63])
    @pytest.mark.parametrize(
        "command", [["exact"], ["estimate", "--samples", "10"], ["tessellate", "--width", "2"]]
    )
    def test_dimension_past_the_bound_exits_two_unallocated(self, capsys, command, dim):
        # the closed forms' bound on n is checked before any center is built: 2^30 + 1
        # doubles would take 8 GB a center, whether or not the host has them
        tracemalloc.start()
        try:
            code, out, err = run(capsys, [*command, "--dim", str(dim), "--sinphi", "0.5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = f"error: dimension must be an integer from 2 to 2**30, got {dim}\n"
        assert (code, out, err) == (2, "", message)
        assert peak < 2**20

    def test_internal_value_error_is_not_bad_input(self, monkeypatch):
        def broken(inst):
            raise ValueError("math domain error")

        monkeypatch.setattr(cli, "separation_report", broken)
        with pytest.raises(ValueError, match="math domain error"):
            main(["exact", *CANONICAL])

    def test_internal_consistency_error_is_not_bad_input(self, monkeypatch):
        def broken(inst):
            raise InternalConsistencyError("fully random probability exceeds 1")

        monkeypatch.setattr(cli, "separation_report", broken)
        with pytest.raises(InternalConsistencyError, match="exceeds 1"):
            main(["exact", *CANONICAL])

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--dim", "2", "--sinphi", "0.5"],
            ["validate", "--samples", "300"],
            ["sweep", "--dim", "2..9000", "--delta", "0.5,2"],
        ],
    )
    def test_unwritable_out_exits_two(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, [*argv, "--out", str(target)])
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write --out {str(target)!r}: No such file or directory\n"

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, out, _ = run(capsys, ["exact", *CANONICAL, "--format", "csv"])
        target = tmp_path / "exact.csv"
        code = main(["exact", *CANONICAL, "--format", "csv", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        assert target.read_text(encoding="utf-8") == out


class TestEstimate:
    def test_zero_samples_message(self, capsys):
        code, _, err = run(capsys, ["estimate", *CANONICAL, "--samples", "0"])
        assert code == 2
        assert "samples must be >= 1" in err

    def test_three_rows_small_z(self, capsys):
        code, out, _ = run(
            capsys, ["estimate", *CANONICAL, "--samples", "100000", "--format", "csv"]
        )
        assert code == 0
        rows = parse_csv(out)
        assert [row["estimator"] for row in rows] == ["bias", "weight", "full"]
        for row in rows:
            assert abs(float(row["z"])) <= 4.0

    def test_byte_identical_reruns(self, capsys):
        argv = ["estimate", *CANONICAL, "--samples", "30000", "--seed", "5"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_chunks_do_not_change_output(self, capsys):
        base = ["estimate", *CANONICAL, "--samples", "131072", "--seed", "9", "--format", "csv"]
        _, one, _ = run(capsys, base)
        _, four, _ = run(capsys, [*base, "--chunks", "4"])
        assert one == four

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", *HUGE_K, "--which", "all"],
            ["estimate", *HUGE_K, "--which", "full"],
            ["estimate", *HUGE_K, "--which", "bias"],
            ["tessellate", *HUGE_K, "--width", "2"],
        ],
    )
    def test_bias_range_past_half_max_exits_two(self, capsys, argv):
        # numpy's uniform(-k, k) used to raise OverflowError with a traceback
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: bias half range 1e+308 is too wide to draw biases from: 2k overflows\n"

    def test_bias_range_past_half_max_still_draws_weights(self, capsys):
        code, out, err = run(capsys, ["estimate", *HUGE_K, "--which", "weight", "--format", "csv"])
        assert (code, err) == (0, "")
        (row,) = parse_csv(out)
        assert row["estimator"] == "weight"
        assert 0.0 <= float(row["mean"]) <= 1.0

    def test_all_rows_draw_each_block_once(self, capsys, monkeypatch):
        # weight and full rows share one weight draw per block; bias draws none
        calls = []
        sphere_block = montecarlo._sphere_block

        def counted(*args, **kwargs):
            calls.append(args[1])
            return sphere_block(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_sphere_block", counted)
        code, _, _ = run(capsys, ["estimate", *CANONICAL, "--samples", str(2 * 65536 + 5)])
        assert code == 0
        assert calls == [65536, 65536, 5]

    @pytest.mark.parametrize("chunks", ["1", "3"])
    def test_each_row_matches_its_all_row(self, capsys, chunks):
        # rank-2 core in R^50, and a last block of 70001 - 65536 samples
        base = ["estimate", "--c", ",".join(["0.3", "-1", "2"] + ["0"] * 47),
                "--x", ",".join(["2", "1.5", "-0.5"] + ["0.1"] * 47), "--r", "0.4", "--p", "0.6",
                "--k", "4", "--samples", "70001", "--seed", "13", "--chunks", chunks, "--format", "csv"]
        _, everything, _ = run(capsys, base)
        header, *rows = everything.splitlines()
        assert 0.0 < float(parse_csv(everything)[2]["mean"]) < 1.0
        for name, row in zip(("bias", "weight", "full"), rows, strict=True):
            _, one, _ = run(capsys, [*base, "--which", name])
            assert one.splitlines() == [header, row]

    def test_which_selects_single_estimator(self, capsys):
        code, out, _ = run(
            capsys,
            ["estimate", "--dim", "3", "--sinphi", "0.5", "--samples", "2000", "--which", "weight", "--format", "csv"],
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["estimator"] == "weight"
        assert float(rows[0]["exact"]) == p_random_weight_of_half()

    def test_json_writes_infinite_z_as_csv_does(self, capsys):
        # mean and std_error are 0 against an exact 3.5e-130, so z is -inf
        argv = ["estimate", "--dim", "2000", "--sinphi", "0.5", "--samples", "1000", "--which",
                "full"]
        _, csv_out, _ = run(capsys, [*argv, "--format", "csv"])
        code, out, _ = run(capsys, [*argv, "--format", "json"])
        assert code == 0

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        record = json.loads(out, parse_constant=reject)
        assert record["z"] == parse_csv(csv_out)[0]["z"] == "-inf"
        assert (record["mean"], record["std_error"]) == (0.0, 0.0)

    def test_exact_estimate_has_zero_z(self, capsys):
        # every weight separates at sin(phi) = 1e-9, so the mean has no error
        argv = ["--dim", "3", "--sinphi", "1e-9", "--which", "weight", "--samples", "100"]
        code, out, _ = run(capsys, ["estimate", *argv, "--format", "csv"])
        assert code == 0
        assert out.splitlines()[1] == "weight,1.0,0.0,1.0,0.0"

    def test_table_header(self, capsys):
        _, out, _ = run(capsys, ["estimate", *CANONICAL, "--samples", "1000"])
        assert out.splitlines()[0].split() == ["estimator", "mean", "std_error", "exact", "z"]


def p_random_weight_of_half():
    from ballsep.geometry import symmetric_instance

    return p_random_weight(symmetric_instance(3, 0.5))


def kernel_calls(monkeypatch) -> list:
    """The names of the continued-fraction kernels as ballsep calls them, in order: the
    scalar `_lentz_fraction` for a float, the array `_lentz_fractions` for a column."""
    return counted_calls(monkeypatch, specfun, ("_lentz_fraction", "_lentz_fractions"))


def counted_calls(monkeypatch, owner, names) -> list:
    """The names of the functions names of the module owner as ballsep calls them, in order."""
    calls = []
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in list(sys.modules.values()):
            if module and module.__name__.startswith("ballsep"):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
    return calls


# a symmetric instance per command, with an absolute --k that holds for it
WITH_K = [
    ("exact", "--dim", "2", "--sinphi", "0.5", "--k", "5"),
    ("estimate", "--dim", "2", "--sinphi", "0.5", "--k", "5", "--samples", "1000"),
    ("tessellate", "--dim", "2", "--sinphi", "0.5", "--k", "5", "--width", "2", "--samples", "1000"),
    ("sweep", "--dim", "2,3", "--delta", "1", "--k", "5"),
]


@pytest.mark.parametrize("factor", ["0.5", "inf", "nan", "1e308"])
@pytest.mark.parametrize("argv", WITH_K, ids=lambda argv: argv[0])
def test_k_factor_is_not_read_with_k(capsys, argv, factor):
    # --k sets the bias range, so a --k-factor that could not set it changes nothing
    want = run(capsys, [*argv, "--format", "csv"])
    assert want[0] == 0
    assert run(capsys, [*argv, "--k-factor", factor, "--format", "csv"]) == want


class TestSweep:
    def test_sorted_records_and_header(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--dim", "5,2,3", "--delta", "2,0.5"])
        assert code == 0
        header = out.splitlines()[0]
        assert header == "n,delta,r,p,k,sin_phi,q,p_bias,p_weight,p_full,envelope"
        rows = parse_csv(out)
        keys = [(int(row["n"]), float(row["delta"])) for row in rows]
        assert keys == sorted(keys)
        assert len(rows) == 6

    @pytest.mark.parametrize("delta", ["2,nan", "nan,2", "1,nan,3", "nan,nan,2", "3,2,nan"])
    def test_nan_gap_is_named_before_the_dimension(self, capsys, delta):
        # a NaN's hash is its identity, so a set of gaps used to order it by memory layout
        for _ in range(20):
            code, out, err = run(capsys, ["sweep", "--delta", delta, "--dim", "3,0"])
            assert (code, out, err) == (2, "", "error: --delta entries must be numbers, got nan\n")

    def test_dimension_range_syntax(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--dim", "2..6", "--delta", "1"])
        assert code == 0
        assert [int(row["n"]) for row in parse_csv(out)] == [2, 3, 4, 5, 6]

    def test_single_cell_matches_exact(self, capsys):
        _, sweep_out, _ = run(capsys, ["sweep", "--dim", "2", "--delta", "2"])
        _, exact_out, _ = run(capsys, ["exact", "--dim", "2", "--sinphi", "0.5", "--format", "csv"])
        sweep_row = parse_csv(sweep_out)[0]
        exact_row = parse_csv(exact_out)[0]
        for key in exact_row:
            assert sweep_row[key] == exact_row[key]

    def test_bias_linear_in_gap_at_fixed_range(self, capsys):
        _, out, _ = run(
            capsys, ["sweep", "--dim", "4", "--delta", "0.01,0.1,1,10", "--k", "6"]
        )
        for row in parse_csv(out):
            assert_allclose(
                float(row["p_bias"]), float(row["delta"]) / 12.0, rtol=1e-12
            )

    def test_json_stream_round_trips(self, capsys):
        _, out, _ = run(
            capsys, ["sweep", "--dim", "2,9", "--delta", "0.7,3", "--format", "json"]
        )
        lines = out.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            record = json.loads(line)
            dist = record["r"] + record["p"] + record["delta"]
            c = [0.0] * record["n"]
            c[0] = -0.5 * dist
            x = [0.0] * record["n"]
            x[0] = 0.5 * dist
            inst = make_instance(Ball(c, record["r"]), Ball(x, record["p"]), record["k"])
            assert abs(p_fully_random(inst) - record["p_full"]) < 1e-12

    def test_invalid_delta_exits_two(self, capsys):
        code, _, err = run(capsys, ["sweep", "--dim", "2", "--delta", "-1"])
        assert code == 2
        assert "delta" in err

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--dim", "5..2", "could not parse --dim list from '5..2'"),
            ("--dim", "2,x", "could not parse --dim list from '2,x'"),
            ("--dim", ",", "--dim list is empty"),
            ("--delta", ",", "--delta list is empty"),
            ("--delta", "inf", "--delta entries must be finite, got inf"),
            ("--r", "inf", "ball radius must be positive and finite, got inf"),
            ("--p", "nan", "ball radius must be positive and finite, got nan"),
        ],
    )
    def test_bad_lists_exit_two(self, capsys, flag, text, message):
        argv = {"--dim": "2", "--delta": "1", flag: text}
        code, out, err = run(capsys, ["sweep", *(f"{k}={v}" for k, v in argv.items())])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_overflowing_center_distance_exits_two(self, capsys):
        code, out, err = run(capsys, ["sweep", "--dim", "2", "--delta", "1e308", "--r", "1e308"])
        assert (code, out, err) == (2, "", "error: |c - x| overflows double precision\n")

    def test_trailing_comma_is_ignored(self, capsys):
        _, trailing, _ = run(capsys, ["sweep", "--dim", "2,3,", "--delta", "1"])
        _, plain, _ = run(capsys, ["sweep", "--dim", "2,3", "--delta", "1"])
        assert trailing == plain
        assert len(parse_csv(plain)) == 2

    def test_bad_k_factor_exits_two(self, capsys):
        code, _, _ = run(capsys, ["sweep", "--dim", "2", "--delta", "1", "--k-factor", "0.2"])
        assert code == 2

    @pytest.mark.parametrize("factor", ["inf", "1e308"])
    def test_overflowing_k_factor_is_named(self, capsys, factor):
        # k = --k-factor * max(|c|, |x|) = --k-factor * 2 is not a finite double
        code, out, err = run(capsys, ["sweep", "--dim", "2", "--delta", "2", "--k-factor", factor])
        message = f"--k-factor {float(factor)!r} overflows k = --k-factor * max(|c|, |x|)"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("dims", ["0,2", "-3,2"])
    def test_dimension_below_two_exits_two(self, capsys, dims):
        code, out, err = run(capsys, ["sweep", f"--dim={dims}", "--delta", "1"])
        assert (code, out) == (2, "")
        assert err == f"error: balls need dimension >= 2, got {dims.split(',')[0]}\n"

    @pytest.mark.parametrize("dims", ["1073741825", "1073741800..1073741825", "2,1073741825"])
    def test_dimension_past_two_to_the_thirty_exits_two(self, capsys, dims):
        # the bound and message of lemma_bounds and asymptotic_envelope; a range is checked at
        # its upper end, before it is expanded
        code, out, err = run(capsys, ["sweep", f"--dim={dims}", "--delta", "1"])
        message = "dimension must be an integer from 2 to 2**30, got 1073741825"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_dimension_two_to_the_thirty_runs(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--dim", "1073741823..1073741824", "--delta", "1"])
        rows = parse_csv(out)
        assert (code, [row["n"] for row in rows]) == (0, ["1073741823", "1073741824"])
        assert float(rows[1]["envelope"]) == probability.asymptotic_envelope(2**30)

    @pytest.mark.parametrize(
        "dims, deltas, rows",
        [
            ("2..1073741824", "1", 1073741823),
            ("2..2097153", "1,2,3", 3 * 2**21),
            ("2..4194305,2", "1,1", 2**22 + 1),  # listed dimensions times distinct gaps
        ],
    )
    def test_more_rows_than_the_bound_exit_two_unexpanded(self, capsys, dims, deltas, rows):
        # the rows are counted from each range's ends, so no range is expanded
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["sweep", f"--dim={dims}", "--delta", deltas])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = f"--dim and --delta list {rows} rows, more than 4194304"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert peak < 2**20

    def test_json_traced_peak_stays_near_the_csvs(self):
        # JSON rows are rendered from a generator of records: a list of every row's dict
        # traced 2.58 times the CSV peak on this grid, the generator 1.41 times
        peaks = {}
        for fmt in ("csv", "json"):
            argv = ["sweep", "--dim", "2..5001", "--delta", "0.5,2", "--format", fmt]
            gc.collect()
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["json"] <= 1.5 * peaks["csv"], peaks

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_traced_peak_does_not_grow_with_rows(self, fmt):
        # rows are evaluated, rendered and written a block of cells at a time, and a written
        # block is dropped, so ten times the rows, to a sink that keeps nothing, peak alike
        # (traced, CSV 4.1 and 4.5 MB, JSON 5.6 and 6.0 MB; when the whole grid was evaluated
        # and its text joined, 3.9 and 40.0 MB, and 5.8 and 53.2 MB)
        class Sink:
            def write(self, text):
                return len(text)

        peaks = []
        for dims in ("2..5001", "2..50001"):
            gc.collect()
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(Sink()):
                    assert main(["sweep", "--dim", dims, "--delta", "0.5,2", "--format", fmt]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0], peaks

    def test_row_bound_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_SWEEP_ROWS", 6)
        code, out, _ = run(capsys, ["sweep", "--dim", "2..4", "--delta", "1,2"])
        assert (code, len(parse_csv(out))) == (0, 6)
        code, out, err = run(capsys, ["sweep", "--dim", "2..4,4", "--delta", "1,2"])
        assert (code, out) == (2, "")
        assert err == "error: --dim and --delta list 8 rows, more than 6\n"

    def test_builds_only_planar_balls(self, capsys, monkeypatch):
        sizes = []
        validate = Ball.__post_init__

        def recorded(ball):
            validate(ball)
            sizes.append(ball.center.size)

        monkeypatch.setattr(Ball, "__post_init__", recorded)
        code, out, _ = run(capsys, ["sweep", "--dim", "10000", "--delta", "1"])
        assert code == 0
        assert parse_csv(out)[0]["n"] == "10000"
        assert sizes == [2, 2]

    def test_sweep_runs_no_scalar_incomplete_beta(self, capsys, monkeypatch):
        # every incomplete beta of a sweep is one array continued fraction
        calls = kernel_calls(monkeypatch)
        code, out, _ = run(capsys, ["sweep", "--dim", "2..50", "--delta", "0.5,2"])
        assert (code, len(parse_csv(out)), calls) == (0, 98, ["_lentz_fractions"])
        # and one instance's is one scalar continued fraction
        assert run(capsys, ["exact", "--dim", "3", "--sinphi", "0.5"])[0] == 0
        assert calls == ["_lentz_fractions", "_lentz_fraction"]

    def test_one_log_beta_per_dimension(self, capsys, monkeypatch):
        # log B(a, 1/2) and the envelope of n read lgamma at 1/2, (n - 1)/2, n/2
        # and (n + 1)/2; contiguous dimensions 2..41 share them, so one lgamma
        # per j/2 for j = 1..42, however many gaps share a dimension
        calls = []
        original = math.lgamma
        monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or original(x))
        code, out, _ = run(capsys, ["sweep", "--dim", "2..41", "--delta", "0.1,0.5,1,2,7"])
        assert (code, len(parse_csv(out))) == (0, 200)
        assert sorted(calls) == [0.5 * j for j in range(1, 43)]

    def test_out_of_range_fraction_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(specfun, "_lentz_fractions", lambda a, b, x: np.full(a.shape, np.inf))
        with pytest.raises(InternalConsistencyError, match="random-weight probability = inf"):
            main(["sweep", "--dim", "2..50", "--delta", "0.5,2"])

    # (iteration cap, argument set, cell in the error), recorded from the sweep that evaluated
    # one scalar fraction per cell; the cell named is the first unconverged one in row order.
    # A fraction that does not converge is a bug, not bad input: NoConvergence propagates
    # from the first block, before any row is written
    CAPPED = [
        (2, ("--dim", "2..50", "--delta", "0.5,2"), "x=0.3599999999999999, a=0.5, b=0.5"),
        (2, ("--dim", "2,10000,19990..20000", "--delta", "0.1,1,7"),
         "x=0.09297052154195018, a=0.5, b=0.5"),
        (2, ("--dim", "1000,2000", "--delta", "3,0.01"), "x=0.84, a=499.5, b=0.5"),
        (5, ("--dim", "2,10000,19990..20000", "--delta", "0.1,1,7"),
         "x=0.4444444444444444, a=0.5, b=0.5"),
        (8, ("--dim", "2..50", "--delta", "0.5,2"), "x=0.75, a=4.0, b=0.5"),
        (8, ("--dim", "2..300", "--delta", "0.5,1,2", "--format", "json"),
         "x=0.4444444444444444, a=0.5, b=0.5"),
        (10, ("--dim", "10,100000", "--delta", "198,2"), "x=0.75, a=4.5, b=0.5"),
    ]

    @pytest.mark.parametrize(
        "cap, argv, cell", CAPPED, ids=[f"{cap} {' '.join(argv)}" for cap, argv, _ in CAPPED]
    )
    def test_iteration_cap_names_the_parents_cell(self, capsys, monkeypatch, cap, argv, cell):
        monkeypatch.setattr(specfun, "_MAX_ITER", cap)
        message = f"incomplete beta continued fraction did not converge in {cap} iterations"
        with pytest.raises(NoConvergence) as raised:
            main(["sweep", *argv])
        assert str(raised.value) == f"{message} ({cell})"
        assert capsys.readouterr() == ("", "")

    # (exit code, SHA-1 of stdout, stderr) of each argument set, recorded
    # from the sweep that built and validated an n-dimensional instance per cell
    PINNED = {
        ("--dim", "2..5000", "--delta", "0.5,2"): (
            0, "0b17b2bd405bf34573850b35b57ee38c8d3078b7", ""),
        ("--dim", "2..300", "--delta", "0.5,1,2", "--format", "json"): (
            0, "417e01bbf1053865c8d31245f4317b10e49e920d", ""),
        ("--dim", "2,3,7,50,1000", "--delta", "0.25,3", "--r", "0.5", "--p", "2",
         "--k-factor", "1.5"): (0, "fb06792427c52d939de15d7f7864b22e9eb7af7b", ""),
        ("--dim", "2..5", "--delta", "0.5,1,2", "--k", "6"): (
            0, "59fc4b762b828ed9c0c25a8339b0d8722b03c5e1", ""),
        ("--dim", "2..5", "--delta", "0.5,1,2", "--k", "1.5"): (
            2, "da39a3ee5e6b4b0d3255bfef95601890afd80709",
            "error: bias half range 1.5 is below max(|c|, |x|) = 2.0\n"),
        ("--dim", "2,10000,19990..20000", "--delta", "0.1,1,7"): (
            0, "105afb9b8dc2c6296f80f264be96aa889a620d9d", ""),
        ("--dim", "5,3,3,2", "--delta", "2,0.5,2"): (
            0, "404043331cbb53d1665995b66f649555b762fe00", ""),
        ("--dim", "2,3", "--delta", "1,-1"): (
            2, "da39a3ee5e6b4b0d3255bfef95601890afd80709",
            "error: --delta entries must be positive, got -1.0\n"),
        ("--dim", "1,2", "--delta", "1"): (
            2, "da39a3ee5e6b4b0d3255bfef95601890afd80709",
            "error: balls need dimension >= 2, got 1\n"),
        ("--dim", "1,2", "--delta", "0,1"): (
            2, "da39a3ee5e6b4b0d3255bfef95601890afd80709",
            "error: --delta entries must be positive, got 0.0\n"),
        ("--dim", "2", "--delta", "1e-17"): (
            2, "da39a3ee5e6b4b0d3255bfef95601890afd80709",
            "error: --delta 1e-17 is lost in r + p + delta = 2.0\n"),
        ("--dim", "2", "--delta", "nan"): (
            2, "da39a3ee5e6b4b0d3255bfef95601890afd80709",
            "error: --delta entries must be numbers, got nan\n"),
    }

    @pytest.mark.parametrize("argv", list(PINNED), ids=lambda argv: " ".join(argv))
    def test_output_pinned(self, capsys, argv):
        code, out, err = run(capsys, ["sweep", *argv])
        assert (code, hashlib.sha1(out.encode()).hexdigest(), err) == self.PINNED[argv]


def _writer_text(columns, records):
    # the csv.writer rendering that `--format csv` used to come from
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for record in records:
        writer.writerow([record[name] for name in columns])
    return buffer.getvalue()


def _json_records(text):
    # one indented object or one object per line; JSON round-trips every double
    text = text.strip()
    if text.startswith("{\n"):
        return [json.loads(text)]
    return [json.loads(line) for line in text.splitlines()]


class TestCsvRendering:
    # each command's CSV against csv.writer fed the records its JSON holds
    SWEEPS = [
        ("--dim", "2,3,50", "--delta", "0.5,2", "--k", "1e308"),  # subnormal p_bias, p_full
        ("--dim", "2,7", "--delta", "1e-300,3e-300", "--r", "1e-300", "--p", "1e-300"),
        ("--dim", "2,1000,100000000", "--delta", "0.1,7"),
        ("--dim", "4", "--delta", "1"),
        ("--dim", "5,3,3,2", "--delta", "2,0.5,2,0.5"),
        ("--dim", "2..300", "--delta", "0.5,1,2", "--r", "0.5", "--p", "2", "--k-factor", "1.5"),
    ]
    COMMANDS = [
        ("exact", *CANONICAL),
        ("exact", "--dim", "7", "--sinphi", "0.3", "--r", "0.5", "--p", "2", "--k", "1e308"),
        ("estimate", "--dim", "3", "--sinphi", "0.5", "--samples", "20000", "--seed", "7"),
        ("estimate", "--dim", "2000", "--sinphi", "0.5", "--samples", "1000", "--which", "full"),
        ("tessellate", *CANONICAL, "--target", "0.99"),
        ("tessellate", "--dim", "50", "--sinphi", "0.2", "--width", "3", "--samples", "2000"),
    ]
    COLUMNS = {
        "sweep": cli._SWEEP_COLUMNS,
        "exact": cli._EXACT_COLUMNS,
        "estimate": cli._ESTIMATE_COLUMNS,
        "tessellate": cli._TESSELLATE_COLUMNS,
    }

    @pytest.mark.parametrize(
        "argv", [("sweep", *a) for a in SWEEPS] + COMMANDS, ids=lambda argv: " ".join(argv)
    )
    def test_csv_matches_csv_writer(self, capsys, argv):
        code, out, err = run(capsys, [*argv, "--format", "csv"])
        assert (code, err) == (0, "")
        records = _json_records(run(capsys, [*argv, "--format", "json"])[1])
        assert out == _writer_text(self.COLUMNS[argv[0]], records)

    def test_sweep_renders_exponents_and_subnormals(self, capsys):
        _, out, _ = run(capsys, ["sweep", *self.SWEEPS[0]])
        assert any(float(row["p_full"]) < 2.2250738585072014e-308 for row in parse_csv(out))
        _, out, _ = run(capsys, ["sweep", *self.SWEEPS[1]])
        assert "e-300" in out.splitlines()[1]

    def test_sweep_out_file_matches_csv_writer(self, capsys, tmp_path):
        argv = ["sweep", "--dim", "9,2", "--delta", "3,0.25"]
        target = tmp_path / "sweep.csv"
        assert run(capsys, [*argv, "--out", str(target)]) == (0, "", "")
        records = _json_records(run(capsys, [*argv, "--format", "json"])[1])
        expected = _writer_text(cli._SWEEP_COLUMNS, records)
        assert target.read_bytes() == expected.encode("utf-8")


class TestCoreNormsPastTheSquareRange:
    """Centers whose squared norms overflow or underflow a double still get their core."""

    INSTANCES = [
        ["--c", "1e200,0", "--x", "-1e200,0", "--k", "1e201"],
        ["--c", "1e-200,0", "--x", "-1e-200,0", "--r", "1e-201", "--p", "1e-201", "--k", "1e-199"],
        ["--c", "1e154,1e154,1", "--x", "1e154,-1e154,1", "--k", "1e155"],
    ]

    @pytest.mark.parametrize("instance", INSTANCES, ids=["1e200", "1e-200", "1e154"])
    @pytest.mark.parametrize("mode, which", [("fully-random", "full"), ("random-weight", "weight")])
    def test_estimate_and_tessellate_match_exact(self, capsys, instance, mode, which):
        code, out, err = run(capsys, ["exact", *instance, "--format", "json"])
        assert (code, err) == (0, "")
        exact = json.loads(out)[f"p_{which}"]
        shared = [*instance, "--samples", "2000", "--seed", "3", "--format", "json"]
        code, out, err = run(capsys, ["estimate", *shared, "--which", which])
        assert (code, err) == (0, "")
        row = json.loads(out)
        assert row["exact"] == exact
        assert abs(row["z"]) <= 4.0
        code, out, err = run(capsys, ["tessellate", *shared, "--mode", mode, "--width", "1"])
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["per_pair_exact"] == exact
        miss = record["estimate"] - exact
        assert miss == 0.0 if record["std_error"] == 0.0 else abs(miss / record["std_error"]) <= 4.0


class TestTessellate:
    def test_width_and_target_conflict(self, capsys):
        code, _, err = run(capsys, ["tessellate", *CANONICAL, "--width", "3", "--target", "0.9"])
        assert code == 2
        assert "exactly one" in err
        code, _, err = run(capsys, ["tessellate", *CANONICAL])
        assert code == 2
        assert "exactly one" in err

    def test_target_gives_width_19(self, capsys):
        code, out, _ = run(
            capsys, ["tessellate", *CANONICAL, "--target", "0.99", "--format", "json"]
        )
        assert code == 0
        record = json.loads(out)
        assert record["width"] == 19
        assert record["mode"] == "fully-random"
        assert record["predicted"] >= 0.99
        assert record["estimate"] >= 0.985
        assert record["samples"] == 10000

    def test_width_one_pinned(self, capsys):
        shared = ["--dim", "3", "--sinphi", "0.5", "--samples", "20000", "--seed", "11"]
        _, tess_out, _ = run(
            capsys,
            ["tessellate", *shared, "--width", "1", "--mode", "random-weight", "--format", "json"],
        )
        _, est_out, _ = run(
            capsys, ["estimate", *shared, "--which", "weight", "--format", "csv"]
        )
        assert json.loads(tess_out)["estimate"] == 0.5006
        assert float(parse_csv(est_out)[0]["mean"]) == 0.5006

    @pytest.mark.parametrize(
        "argv",
        [
            # p_full = 2.9e-67: the planning walk used to step down by one forever
            ["--dim", "1000", "--sinphi", "0.5", "--target", "0.9"],
            # 2.1e21 planes used to reach numpy and end in a traceback
            ["--dim", "50", "--sinphi", "0.9", "--target", "0.9"],
        ],
    )
    def test_unreachable_target_exits_two(self, capsys, argv):
        code, out, err = run(capsys, ["tessellate", *argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: per-pair probability ")
        assert "needs more than 2**63 - 1 planes to reach confidence 0.9" in err

    def test_width_past_one_trial_exits_two(self, capsys):
        # p_full = 3.8e-14 plans 6.1e13 planes: a 64-bit count, but not one array
        argv = ["--dim", "30", "--sinphi", "0.9", "--target", "0.9"]
        code, out, err = run(capsys, ["tessellate", *argv])
        assert (code, out) == (2, "")
        assert err == (
            "error: width 60735314490406 exceeds 2**24, the most planes one trial draws\n"
        )

    def test_certain_separation_plans_one_plane(self, capsys):
        # at sin(phi) = 1e-17, q rounds to 1 and every weight admits a bias
        argv = ["--dim", "2", "--sinphi", "1e-17", "--mode", "random-weight", "--target", "0.9"]
        code, out, err = run(capsys, ["tessellate", *argv, "--format", "json"])
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert (record["width"], record["per_pair_exact"], record["predicted"]) == (1, 1.0, 1.0)
        assert record["estimate"] == 1.0

    def test_csv_header_stable(self, capsys):
        _, out, _ = run(
            capsys, ["tessellate", *CANONICAL, "--width", "2", "--format", "csv"]
        )
        header = out.splitlines()[0]
        assert header == "mode,width,samples,per_pair_exact,predicted,estimate,std_error,target"


_report = probability._report


def _flipped_report(shape, gap):
    # the fully random probability with the subtracted term added instead, in the column
    # calls of the report the ordering chain reads
    (a, ln_a, ln_beta), (q, ln_q, ln_comp, sin_phi, scale, p_bias) = shape, gap
    if type(q) is not np.ndarray:
        return _report(shape, gap)
    incomplete = specfun._reg_inc_betas(q, ln_q, ln_comp, a, 0.5, ln_beta)
    first = specfun._each(math.exp, a * ln_q - ln_a - ln_beta)
    return p_bias, incomplete, scale * (first + sin_phi * incomplete)


class TestValidate:
    def test_fresh_build_passes(self, capsys):
        code, out, _ = run(capsys, ["validate", "--samples", "300"])
        assert code == 0
        assert "all 4 checks passed" in out
        assert "19900 cells" in out
        assert "330 cells" in out

    def test_no_random_instances_runs_the_grid(self, capsys):
        code, out, _ = run(capsys, ["validate", "--samples", "0"])
        assert code == 0
        assert "ordering chain: ok, 30 cells" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--samples", "-5"], "samples must be a non-negative int, got -5"),
            (["--seed", "-1"], "seed must be a 64-bit unsigned int, got -1"),
            (["--seed", str(1 << 64)], f"seed must be a 64-bit unsigned int, got {1 << 64}"),
        ],
    )
    def test_bad_samples_or_seed_exits_two(self, capsys, argv, message):
        code, out, err = run(capsys, ["validate", *argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_only_the_analytic_reductions_run_scalar_incomplete_betas(self, capsys, monkeypatch):
        # the grid batteries run theirs as array continued fractions: 3 sandwich chunks,
        # 2 x 2 chain chunks (the grid and one draw) and 1 reflection chunk
        calls = kernel_calls(monkeypatch)
        code, out, _ = run(capsys, ["validate", "--samples", "300"])
        assert (code, "all 4 checks passed" in out) == (0, True)
        in_validate = [name for name in calls if name == "_lentz_fraction"]
        assert calls.count("_lentz_fractions") == 8
        calls.clear()
        selfcheck.check_analytic_reductions()
        assert in_validate == calls
        assert calls.count("_lentz_fraction") == 18

    def test_traced_peak_stays_below_the_sweeps(self):
        # perfbench's closed-forms workload runs both in one process, whose peak is the larger
        # of theirs; validate's chunks keep its own below the sweep's: traced after a warm-up
        # run, 3.1 MB against 3.9 MB at 8,192 cells a chunk (3.8 MB once the chain fills every
        # chunk, at --samples 100000), where 16,384 read 4.4 MB (7.5 MB) and 4,096 2.0 MB
        peaks = []
        sweep = ["sweep", "--dim", "2..5000", "--delta", "0.5,2.0"]
        for argv in (sweep, ["validate", "--samples", "10000"]):
            gc.collect()
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0]

    def test_column_batteries_take_scalars_per_grid_point(self, capsys, monkeypatch):
        # the sandwich takes its angles as one column and a shape per n, the chain its shapes
        # (from `probability._closed_forms`, which calls no `_shape`), gaps and angles as
        # columns, the reflection the logs of its kappa and 1 - kappa columns; each chunk of
        # cells is one incomplete-beta call per closed form
        owners = {specfun: ("_kappa_logs", "_reg_inc_betas"), probability: ("_angle", "_shape")}
        calls = [counted_calls(monkeypatch, owner, names) for owner, names in owners.items()]
        cones = counted_calls(monkeypatch, geometry, ("_cone",))
        code, out, _ = run(capsys, ["validate", "--samples", "10000"])
        assert (code, "all 4 checks passed" in out) == (0, True)
        counts = collections.Counter(name for names in calls for name in names)
        # the chain's 10,000 random cells are two chunks of at most 8,192 (8,192 and 1,808),
        # so it has 3 columns: the grid and the two chunks.  1 sandwich and 3 chain angle
        # columns; 199 n of the sandwich and 18 of the analytic reductions' reports; kappa
        # logs of the 4 angle columns, 3 chain gap columns, 2 reflection columns and 18
        # reports; 3 sandwich chunks, 2 x 3 chain columns, 1 reflection chunk and 18 reports
        assert counts == {"_angle": 4, "_shape": 217, "_kappa_logs": 27, "_reg_inc_betas": 28}
        # one per chain column and per report, and one per instance built: the 30 grid
        # instances and the analytic reductions' 12
        assert len(cones) == 3 + 18 + 30 + 12

    def test_injected_fault_fails_ordering_chain(self, capsys, monkeypatch):
        monkeypatch.setattr(probability, "_report", _flipped_report)
        code, out, _ = run(capsys, ["validate", "--samples", "50"])
        assert code == 1
        assert "ordering chain: FAIL" in out
        assert "\n  ordering chain failing cell: grid " in out

    @pytest.mark.parametrize("seed", [3, 1 << 63])
    @pytest.mark.parametrize("flip", [False, True])
    def test_ordering_chain_does_not_depend_on_its_chunk(self, monkeypatch, seed, flip):
        # the chain's random stream is drawn _DRAW at a time whatever the block size is, and
        # its column path gives every cell the bits of one float call, so cells, worst and
        # failures, in order, are the same at every block size; the flipped report fails
        # grid cells and, past a single sample, about two in three random cells
        if flip:
            monkeypatch.setattr(probability, "_report", _flipped_report)
        for samples in (0, 1, 1023, 1025, 8192, 8193, 20000):
            results = []
            for chunk in (1024, 2048, 8192):
                monkeypatch.setattr(probability, "_BLOCK", chunk)
                result = selfcheck.check_ordering_chain(samples=samples, seed=seed)
                results.append((result.cells, repr(result.worst), result.failures))
            assert results[0] == results[1] == results[2]
            failures = results[0][2]
            assert bool(failures) is flip
            if samples > 1:
                assert any(line.startswith("random[") for line in failures) is flip

    @pytest.mark.parametrize(
        "radius, k, message",
        [
            (1.0, 5.0, "random[0] n=3: balls overlap or touch (delta <= 0)"),
            (0.5, 1.0, "random[0] n=3: bias half range 1.0 is below max(|c|, |x|) = 2.0"),
        ],
    )
    def test_bad_random_draw_is_internal_error(self, monkeypatch, radius, k, message):
        # the chain draws its own instances, so one that fails a check is a bug, not exit 2
        # (n, r, p, c, x, k, c.c, x.x) of one instance, its centers in the core
        core = (np.array([[0.5], [0.0]]), np.array([[2.0], [0.0]]), np.array([k]), [0.25], [4.0])
        draw = (np.array([3]), np.array([radius]), np.array([radius]), *map(np.array, core))
        monkeypatch.setattr(selfcheck, "_draw", lambda rng, m: draw)
        with pytest.raises(InternalConsistencyError) as raised:
            main(["validate", "--samples", "3"])
        assert str(raised.value) == message


class TestOutputPinned:
    # (exit code, SHA-1 of stdout, stderr) of each argument set in the
    # table, csv and json formats, recorded from the single-pair estimators
    # that ran their own block loops and from per-command format branches
    PINNED = {
        ("exact", "--c", "-2,0", "--r", "1", "--x", "2,0", "--p", "1", "--k", "2"): (
            0, "d697656a5e50f69ce6d3794024f16ba47b477760", ""),
        ("exact", "--dim", "7", "--sinphi", "0.3", "--r", "0.5", "--p", "2", "--k-factor",
         "1.5"): (0, "2973de06d290d8568a68f7aec72343ec5f4ce86f", ""),
        ("estimate", "--dim", "3", "--sinphi", "0.5", "--samples", "200000", "--seed", "7"): (
            0, "60f9845e355f0b43b1d7362eb95b38545b8e7dae", ""),
        ("estimate", "--c", "0.3,-1,2", "--x", "2,1.5,-0.5", "--r", "0.4", "--p", "0.6",
         "--k", "4", "--samples", "70000", "--seed", "13"): (
            0, "2a4ee487a974d975db868289d6cad47df6bd3ab2", ""),
        ("tessellate", "--c", "-2,0", "--r", "1", "--x", "2,0", "--p", "1", "--k", "2",
         "--target", "0.99"): (0, "96b399f61400ab759f8c109d1e35db2695588094", ""),
        ("tessellate", "--dim", "50", "--sinphi", "0.2", "--width", "3", "--mode",
         "random-weight", "--samples", "20000", "--seed", "5"): (
            0, "d30589232f3f6fdfbb77aa155a870dcfc159b9b8", ""),
        ("tessellate", "--c", "-2,0", "--r", "1", "--x", "2,0", "--p", "1", "--k", "2",
         "--width", "2", "--mode", "random-bias", "--seed", "3"): (
            0, "2189cfa2bdb8893feee8436176429dad1a40584e", ""),
        ("exact", "--c", "-2,0", "--r", "1", "--x", "2,0", "--p", "1", "--k", "2",
         "--format", "csv"): (0, "c87b0d04de33af843a90721f8937f10315977eb7", ""),
        ("exact", "--dim", "7", "--sinphi", "0.3", "--r", "0.5", "--p", "2", "--k-factor",
         "1.5", "--format", "csv"): (0, "29b3628257365b60259ce60c04d784468c82712d", ""),
        ("estimate", "--dim", "3", "--sinphi", "0.5", "--samples", "200000", "--seed", "7",
         "--format", "csv"): (0, "fcb9f6cedaab311a6583d54d0bf93dc6bae3eb44", ""),
        ("estimate", "--c", "0.3,-1,2", "--x", "2,1.5,-0.5", "--r", "0.4", "--p", "0.6",
         "--k", "4", "--samples", "70000", "--seed", "13", "--format", "csv"): (
            0, "b0a17142cf4a69c6c5762d53c191ee19518384f5", ""),
        ("tessellate", "--c", "-2,0", "--r", "1", "--x", "2,0", "--p", "1", "--k", "2",
         "--target", "0.99", "--format", "csv"): (
            0, "c3a95acc4990999f633989499c1b3bb4141b6124", ""),
        ("tessellate", "--dim", "50", "--sinphi", "0.2", "--width", "3", "--mode",
         "random-weight", "--samples", "20000", "--seed", "5", "--format", "csv"): (
            0, "6377e597c5e6882f466cf34e65aeaaa23eef922a", ""),
        ("tessellate", "--c", "-2,0", "--r", "1", "--x", "2,0", "--p", "1", "--k", "2",
         "--width", "2", "--mode", "random-bias", "--seed", "3", "--format", "csv"): (
            0, "cac35f08a2c95b803a0ebfc0df7aa16100e55188", ""),
        ("exact", "--c", "-2,0", "--r", "1", "--x", "2,0", "--p", "1", "--k", "2",
         "--format", "json"): (0, "4401cb177a1911825d035b136b268f3d73dd2e26", ""),
        ("exact", "--dim", "7", "--sinphi", "0.3", "--r", "0.5", "--p", "2", "--k-factor",
         "1.5", "--format", "json"): (0, "4cb5677f62eea07be439369e34005e1495684e8a", ""),
        ("estimate", "--dim", "3", "--sinphi", "0.5", "--samples", "200000", "--seed", "7",
         "--format", "json"): (0, "40aeaa9551291b690538366d039ef87597ceeec6", ""),
        ("estimate", "--c", "0.3,-1,2", "--x", "2,1.5,-0.5", "--r", "0.4", "--p", "0.6",
         "--k", "4", "--samples", "70000", "--seed", "13", "--format", "json"): (
            0, "d5e5b8686e60a909d9677a448602f9518d7c2d8c", ""),
        ("tessellate", "--c", "-2,0", "--r", "1", "--x", "2,0", "--p", "1", "--k", "2",
         "--target", "0.99", "--format", "json"): (
            0, "f49c9d8a0dd4f7a75e3fbb3aabf4ae340110462f", ""),
        ("tessellate", "--dim", "50", "--sinphi", "0.2", "--width", "3", "--mode",
         "random-weight", "--samples", "20000", "--seed", "5", "--format", "json"): (
            0, "e9929cb15868332fa64847d7d8c4116bf3705c6a", ""),
        ("tessellate", "--c", "-2,0", "--r", "1", "--x", "2,0", "--p", "1", "--k", "2",
         "--width", "2", "--mode", "random-bias", "--seed", "3", "--format", "json"): (
            0, "b10237e33ad7497f7170d5b0c6ac62d2a15f68e6", ""),
        ("validate", "--samples", "2000", "--seed", "1"): (
            0, "9c5e50b0784e7ec3bd64b412399a63c6153b3476", ""),
        ("validate", "--samples", "10000", "--seed", "7"): (
            0, "421b58279fba34077378d5110a04fcb4c3dced0a", ""),
        ("validate", "--samples", "0"): (0, "93c9fb2349e51d8e1a0cde7de643d468a7818d2f", ""),
        ("estimate", "--dim", "3", "--sinphi", "0.5", "--samples", "0"): (
            2, "da39a3ee5e6b4b0d3255bfef95601890afd80709",
            "error: samples must be >= 1\n"),
    }

    @pytest.mark.parametrize("argv", list(PINNED), ids=lambda argv: " ".join(argv))
    def test_output_pinned(self, capsys, argv):
        code, out, err = run(capsys, list(argv))
        assert (code, hashlib.sha1(out.encode()).hexdigest(), err) == self.PINNED[argv]


class TestFailedRunWritesNothing:
    # every input check runs before a command makes its first piece of text, and --out is
    # opened only then: a run that fails on bad input writes nothing and leaves --out as it was
    FAILING = {
        "delta after good ones": (
            ["sweep", "--dim", "2..9000", "--delta", "0.5,2,-1"],
            "--delta entries must be positive, got -1.0",
        ),
        "rows past the bound": (
            ["sweep", "--dim", "2..2097153", "--delta", "1,2,3"],
            "--dim and --delta list 6291456 rows, more than 4194304",
        ),
        "radius": (
            ["sweep", "--dim", "2..9000", "--delta", "0.5,2", "--r", "-1"],
            "ball radius must be positive and finite, got -1.0",
        ),
        "k-factor": (
            ["sweep", "--dim", "2..9000", "--delta", "0.5,2", "--k-factor", "0.5"],
            "--k-factor must be >= 1, got 0.5",
        ),
        "exact": (
            ["exact", "--c", "0,0", "--x", "1,0", "--k", "2"],
            "balls overlap or touch (delta <= 0)",
        ),
        "validate": (["validate", "--samples", "-5"], "samples must be a non-negative int, got -5"),
    }

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("case", list(FAILING))
    def test_exits_two_and_writes_nothing(self, capsys, tmp_path, case, existing):
        argv, message = self.FAILING[case]
        target = tmp_path / "out.txt"
        if existing:
            target.write_bytes(b"kept\r\n")
        code, out, err = run(capsys, [*argv, "--out", str(target)])
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert target.read_bytes() == b"kept\r\n" if existing else not target.exists()


def _mostly(ordinary, edges):
    # an ordinary value in three of the four branches, else an edge value
    ordinary = st.sampled_from(ordinary)
    return st.one_of(ordinary, ordinary, ordinary, st.sampled_from(edges))


def _lists(entry):
    lists = st.lists(entry, min_size=1, max_size=3).map(",".join)
    return _mostly([None], _MALFORMED).flatmap(lambda bad: lists if bad is None else st.just(bad))


# the edges of each flag's domain: 0, +-1, subnormals, the largest doubles, infinities,
# nan, the dimension bound 2**30 +- 1, and lists that do not parse
_EDGES = ["0", "1", "-1", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e308", "-1e308"]
_EDGES += ["inf", "-inf", "nan", "1073741823", "1073741825"]
_MALFORMED = [",", " , ", "x", "1..", "..2", "5..2", "2..x", "1e3..2", "0x10"]
_FLOATS = _mostly(["0.5", "2", "3", "0.001"], _EDGES)
_SMALL = _mostly(["1", "10", "100"], ["-1", "0", "x"])
_SEED = {"--seed": _mostly(["0", "7"], ["-1", "18446744073709551616", "1e308"])}
_SHAPE = {"--r": _FLOATS, "--p": _FLOATS, "--k": _FLOATS, "--k-factor": _FLOATS}
_SHAPE["--format"] = st.sampled_from(["csv", "json"])
# an instance builds n-vectors: at most 10**6, or past 2**30, which is refused before any
_GENERATED = {
    "--dim": _mostly(["2", "3", "50", "1000000"], ["0", "1", "-1", "1073741825", "1e308", "x"]),
    "--sinphi": _mostly(["0.1", "0.5", "0.9"], _EDGES),
}
_POINTS = {"--c": _lists(_FLOATS), "--x": _lists(_FLOATS), "--k": _FLOATS}
_INSTANCE = st.one_of(
    st.fixed_dictionaries(_GENERATED, optional=_SHAPE),
    st.fixed_dictionaries(_POINTS, optional={f: _SHAPE[f] for f in _SHAPE if f != "--k"}),
    st.fixed_dictionaries({}, optional={**_GENERATED, **_POINTS, **_SHAPE}),
)
_MONTE_CARLO = st.fixed_dictionaries({"--samples": _SMALL}, optional={**_SEED, "--chunks": _SMALL})
_MODE = {"--mode": st.sampled_from(["fully-random", "random-bias", "random-weight"])}
# 2**24 + 1 planes a trial, and past, are refused before any is drawn
_WIDTH = {"--width": _mostly(["1", "2", "5"], ["-1", "0", "16777217", "1073741825", "x"])}
_PLANES = st.one_of(
    st.fixed_dictionaries(_WIDTH, optional=_MODE),
    st.fixed_dictionaries({"--target": _mostly(["0.5", "0.9"], _EDGES)}, optional=_MODE),
    st.fixed_dictionaries({}, optional={"--width": st.just("2"), "--target": st.just("0.5")}),
)
_DIMS = _mostly(["2", "3", "7", "50"], ["0", "1", "-1", "1073741823", "1073741824", "1073741825"])
_SWEEP = {"--dim": _lists(_DIMS | st.tuples(_DIMS, _DIMS).map("..".join))}
_SWEEP["--delta"] = _lists(_FLOATS)
_FLAGS = {
    "exact": [_INSTANCE],
    "estimate": [_INSTANCE, _MONTE_CARLO],
    "tessellate": [_INSTANCE, _MONTE_CARLO, _PLANES],
    "sweep": [st.fixed_dictionaries(_SWEEP, optional=_SHAPE)],
    "validate": [st.fixed_dictionaries({}, optional={"--samples": _SMALL, **_SEED})],
}
_ARGV = st.sampled_from(list(_FLAGS)).flatmap(
    lambda command: st.tuples(*_FLAGS[command]).map(
        lambda parts: [command, *(f"{flag}={v}" for part in parts for flag, v in part.items())]
    )
)


def _raising(bug):
    def report(shape, gap):
        raise bug("injected")

    return report


class TestBugsAreNotBadInput:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(_ARGV)
    def test_every_run_exits_zero_or_names_one_error(self, capsys, argv):
        # bad input exits 2 with one error line, and nothing else ends a run but success; a
        # bug, an InternalConsistencyError or its NoConvergence, raised by the closed forms,
        # propagates unless the run exits 2 on its input first
        code = main(argv)
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if "error:" in line]
        assert (code, err) == (0, "") or (code, out, len(errors)) == (2, "", 1), (code, err)
        for bug in (InternalConsistencyError, NoConvergence):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(probability, "_report", _raising(bug))
                try:
                    patched = main(argv)
                except bug:
                    patched = None
            assert patched is None or (patched, code, capsys.readouterr().err) == (2, 2, err)

    @pytest.mark.parametrize("bug", [InternalConsistencyError, NoConvergence])
    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", *CANONICAL],
            ["estimate", *CANONICAL, "--samples", "10"],
            ["tessellate", *CANONICAL, "--target", "0.9", "--samples", "10"],
            ["sweep", "--dim", "2..9000", "--delta", "0.5,2", "--format", "json"],
            ["validate", "--samples", "10"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_bug_is_raised_before_any_output(self, capsys, monkeypatch, argv, bug):
        monkeypatch.setattr(probability, "_report", _raising(bug))
        with pytest.raises(bug, match="injected"):
            main(argv)
        assert capsys.readouterr() == ("", "")
