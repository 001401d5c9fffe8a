import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from tvkl import figures, samples, verify
from tvkl.bounds import BoundId
from tvkl.cli import _jsonable, main
from tvkl.figures import FigureId, figure_header, render_figure_csv
from tvkl.samples import SampleComplexityReport
import pins


def in_process(capsys):
    # tests/pins.py's runner for main: argv -> (exit code, stdout bytes)
    return lambda argv: (main(argv), capsys.readouterr().out.encode())


def assert_pinned(capsys, tmp_path, command):
    problem = pins.check(command, in_process(capsys), str(tmp_path))
    assert problem is None, problem


#: The command of each pinned case, noted by ``pinned`` and ``pin`` as the
#: module loads, for test_every_pin_has_a_case_and_every_case_a_pin.
CASES = []


def pinned(pattern, name=lambda match: "-".join(match.groups())):
    """Parametrize the test's ``command`` over the pins that fullmatch
    ``pattern``, each case's id ``name`` of its match (by default the words
    the groups catch, joined by "-")."""
    found = [(command, m) for command in pins.PINS if (m := re.fullmatch(pattern, command))]
    assert found, f"no pin matches {pattern!r}"
    CASES.extend(command for command, _ in found)
    return pytest.mark.parametrize("command", [pytest.param(c, id=name(m)) for c, m in found])


def pin(command):
    """One pinned command, as the default ``command`` of a test that runs
    only it: pytest takes no fixture for a defaulted argument, so the test's
    id stays bare."""
    CASES.append(command)
    return command


@pytest.fixture
def dist_files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return {
        "fair": write("fair.json", {"probs": [0.5, 0.5]}),
        "biased": write("biased.json", {"probs": [0.6, 0.4]}),
        "left": write("left.json", {"support": ["a"], "probs": [1.0]}),
        "right": write("right.json", {"support": ["b"], "probs": [1.0]}),
        "bad": write("bad.json", {"probs": [0.5, -0.5]}),
        "offsum": write("offsum.json", {"probs": [0.5, 0.6]}),
    }


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiv:
    def test_basic_report(self, capsys, dist_files):
        code, out, _ = run_cli(capsys, "div", dist_files["fair"], dist_files["biased"])
        assert code == 0
        payload = json.loads(out)
        assert payload["tv"] == pytest.approx(0.1, abs=1e-15)
        assert payload["kl"] == pytest.approx(0.020410997260127572, abs=1e-15)
        assert payload["hellinger_affinity"] == pytest.approx(
            0.9949361530051242, abs=1e-15
        )
        assert payload["min_sum"] == pytest.approx(0.9, abs=1e-15)
        assert payload["max_sum"] == pytest.approx(1.1, abs=1e-15)

    def test_identical_files(self, capsys, dist_files):
        code, out, _ = run_cli(capsys, "div", dist_files["fair"], dist_files["fair"])
        assert code == 0
        payload = json.loads(out)
        assert payload["tv"] == 0.0
        assert payload["kl"] == 0.0

    def test_disjoint_supports_print_inf(self, capsys, dist_files):
        code, out, _ = run_cli(capsys, "div", dist_files["left"], dist_files["right"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kl"] == "inf"
        assert payload["tv"] == 1.0

    def test_tv_is_clamped_to_one(self, capsys, tmp_path):
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text('{"support": ["a", "b"], "probs": [0.5000000004, 0.5000000004]}')
        q.write_text('{"support": ["c"], "probs": [1.0]}')
        code, out, _ = run_cli(capsys, "div", str(p), str(q))
        assert code == 0
        assert '"tv": 1.0,' in out

    def test_validation_error_names_field_and_exits_one(self, capsys, dist_files):
        code, _, err = run_cli(capsys, "div", dist_files["bad"], dist_files["fair"])
        assert code == 1
        assert "probs[1]" in err or "weights[1]" in err

    def test_renormalize_flag_rescues_off_sums(self, capsys, dist_files):
        code, _, err = run_cli(capsys, "div", dist_files["offsum"], dist_files["fair"])
        assert code == 1
        assert "sum" in err
        code, out, _ = run_cli(
            capsys, "--renormalize", "div", dist_files["offsum"], dist_files["fair"]
        )
        assert code == 0
        assert json.loads(out)["tv"] == pytest.approx(0.5 / 11.0, abs=1e-12)

    @pytest.mark.parametrize(
        "text",
        ['{"probs": [1%s, 1]}' % ("0" * 400), '{"probs": [1e308, 1e308]}', "[" * 100_000],
        ids=["weight-10^400", "sum-overflow", "deep-nesting"],
    )
    def test_unrepresentable_input_exits_one(self, capsys, tmp_path, dist_files, text):
        path = tmp_path / "odd.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "--renormalize", "div", str(path), dist_files["fair"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["div", "dv"])
    def test_a_file_that_is_not_utf8_exits_one(self, capsys, tmp_path, dist_files,
                                                command):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, command, str(path), dist_files["fair"])
        assert (code, out) == (1, "")
        assert err.startswith("error: distribution file: not UTF-8 text")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_file(self, capsys, dist_files):
        code, _, err = run_cli(capsys, "div", "/nonexistent.json", dist_files["fair"])
        assert code == 1
        assert err.startswith("error:")


class TestBound:
    def test_forward_table(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "forward", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        table = {line.split()[0]: line for line in lines}
        assert table["pinsker"].split()[1] == repr(1.5811388300841898)
        assert "(vacuous)" in table["pinsker"]
        assert "(vacuous)" not in table["bh"]

    def test_forward_json_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "bound", "forward", "5")
        rows = {r["bound"]: r for r in json.loads(out)}
        assert rows["bh"]["output"] == pytest.approx(0.9966253323094464)
        assert rows["weak_bh"]["vacuous"] is True

    def test_negative_zero_prints_as_zero(self, capsys):
        for direction in ("forward", "inverse"):
            negative = run_cli(capsys, "--json", "bound", direction, "-0.0")
            assert negative == run_cli(capsys, "--json", "bound", direction, "0")
            assert "-0.0" not in negative[1]

    def test_forward_accepts_inf(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "bound", "forward", "inf")
        rows = {r["bound"]: r for r in json.loads(out)}
        assert rows["bh"]["output"] == 1.0
        assert rows["pinsker"]["output"] == "inf"

    def test_inverse_values(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "inverse", "0.6", "--json")
        rows = {r["bound"]: r["output"] for r in json.loads(out)}
        assert rows["pinsker"] == pytest.approx(0.72, abs=1e-15)
        assert rows["bh"] == pytest.approx(0.4462871026284194, abs=1e-15)
        assert rows["tsybakov"] == pytest.approx(0.22314355131420976, abs=1e-15)
        assert rows["vajda"] == pytest.approx(0.6362943611198907, abs=1e-15)

    def test_out_of_range_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "bound", "inverse", "1.5")
        assert code == 1
        assert "error:" in err

    def test_non_numeric_value(self, capsys):
        code, _, err = run_cli(capsys, "bound", "forward", "abc")
        assert code == 1


class TestFigure:
    def test_headers(self):
        assert figure_header(FigureId.FIG_PINSKER) == ["kl", "trivial", "pinsker"]
        assert figure_header(FigureId.FIG_FORWARD) == [
            "kl", "trivial", "pinsker", "bh", "tsybakov",
        ]
        assert figure_header(FigureId.FIG_INVERSE) == [
            "tv", "pinsker", "bh", "tsybakov",
        ]
        assert figure_header(FigureId.FIG_WEAK) == [
            "kl", "trivial", "pinsker", "bh", "weak_bh",
        ]

    def test_emission_and_determinism(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli(capsys, "figure", "fig_forward", "--points", "101",
                       "--out", str(out_a))[0] == 0
        assert run_cli(capsys, "figure", "fig_forward", "--points", "101",
                       "--out", str(out_b))[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_text().endswith("\n")
        assert "\r" not in out_a.read_text()

    def test_cells_match_engine_exactly(self, capsys, tmp_path):
        from tvkl import forward_value
        from tvkl.bounds import BoundId

        out = tmp_path / "f.csv"
        run_cli(capsys, "figure", "fig_pinsker", "--points", "501", "--out", str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kl,trivial,pinsker"
        for line in lines[1:]:
            kl, trivial, pinsker = (float(x) for x in line.split(","))
            assert trivial == 1.0
            assert pinsker == forward_value(BoundId.PINSKER, kl)

    def test_pinsker_crosses_one_at_two(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        run_cli(capsys, "figure", "fig_pinsker", "--points", "501", "--out", str(out))
        rows = [
            [float(x) for x in line.split(",")]
            for line in out.read_text().strip().splitlines()[1:]
        ]
        for kl, _, pinsker in rows:
            if kl < 2.0:
                assert pinsker < 1.0
            elif kl == 2.0:
                assert pinsker == 1.0
            else:
                assert pinsker > 1.0

    def test_inverse_figure_has_inf_cells_at_tv_one(self, capsys, tmp_path):
        out = tmp_path / "inv.csv"
        run_cli(capsys, "figure", "fig_inverse", "--points", "11", "--out", str(out))
        last = out.read_text().strip().splitlines()[-1]
        assert last.split(",") == ["1.0", "2.0", "inf", "inf"]

    def test_failed_rename_leaves_no_file(self, monkeypatch, tmp_path):
        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(figures.os, "replace", fail)
        target = tmp_path / "f.csv"
        with pytest.raises(OSError, match="rename refused"):
            figures.write_figure_csv(FigureId.FIG_PINSKER, 11, str(target))
        assert not list(tmp_path.glob("*.tmp"))
        assert not target.exists()

    def test_unwritable_out_names_the_path(self, capsys, tmp_path):
        # the temp file beside it has a new random name on every run
        out = str(tmp_path / "missing" / "f.csv")
        runs = [run_cli(capsys, "figure", "fig_pinsker", "--out", out) for _ in range(2)]
        assert runs[0] == runs[1]
        code, stdout, err = runs[0]
        assert (code, stdout) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {out!r}\n"

    def test_render_unclamped(self):
        text = render_figure_csv(FigureId.FIG_WEAK, 51)
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        assert any(float(r[4]) > 1.0 for r in rows)  # weak_bh beyond kl = 2


class TestSamples:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "samples", "0.1", "0.01")
        assert code == 0
        assert "n_bh" in out
        assert "simplified_exceeds_exact" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "samples", "0.1", "0.01")
        payload = json.loads(out)
        assert payload["n_pinsker"] == pytest.approx(94.10613188176944)
        assert payload["n_bh"] == pytest.approx(158.1954139511516)
        assert payload["required_tv"] == pytest.approx(0.98)
        assert payload["notes"] == ["simplified_exceeds_exact"]

    def test_output_is_the_report_fields_in_order(self, capsys):
        names = [f.name for f in dataclasses.fields(SampleComplexityReport)]
        for flags in ((), ("--ceil",)):
            _, out, _ = run_cli(capsys, "--json", "samples", "0.3", "0.4", *flags)
            assert list(json.loads(out)) == names
            _, out, _ = run_cli(capsys, "samples", "0.3", "0.4", *flags)
            assert [line.split()[0] for line in out.splitlines()] == names

    def test_text_notes_dash_when_empty(self, monkeypatch, capsys):
        real = samples.report
        monkeypatch.setattr(
            samples, "report", lambda q: dataclasses.replace(real(q), notes=()))
        _, out, _ = run_cli(capsys, "samples", "0.1", "0.01")
        assert out.splitlines()[-1] == "notes            -"

    def test_ceil_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "samples", "0.1", "0.01", "--ceil")
        payload = json.loads(out)
        assert payload["n_pinsker"] == 95
        assert payload["n_bh"] == 159

    def test_ceil_leaves_an_infinite_route_as_it_is(self, capsys):
        # kl_per_toss(1e-160) is 2e-320, so every route overflows to inf
        code, out, err = run_cli(capsys, "--json", "samples", "1e-160", "0.01", "--ceil")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert [payload[k] for k in ("n_pinsker", "n_bh", "n_tsybakov")] == ["inf"] * 3
        _, out, _ = run_cli(capsys, "samples", "1e-160", "0.01", "--ceil")
        assert "n_bh             inf" in out.splitlines()

    def test_invalid_query_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "samples", "0.5", "0.01")
        assert code == 1
        assert "epsilon" in err

    def test_underflowing_epsilon_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "samples", "1e-200", "0.01")
        assert code == 1
        assert "epsilon" in err and err.count("\n") == 1


class TestVerify:
    def test_clean_suite_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "grid", "--resolution", "40",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all("violations=0" in line for line in lines)

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "verify", "random", "--trials", "20", "--atoms", "8",
            "--seed", "5",
        )
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["inequality"] for r in reports] == [
            "hellinger_chain", "dpi_quantized", "tfl_lower",
        ]
        assert all(r["violations"] == 0 for r in reports)
        keys = ["inequality", "grid", "violations", "worst_margin", "worst_point"]
        assert all(list(r) == keys for r in reports)

    def test_deterministic_output(self, capsys):
        args = ("verify", "all", "--resolution", "30", "--trials", "15",
                "--atoms", "8", "--seed", "9")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_forced_violations_exit_two(self, capsys):
        # a negative tolerance turns every nonnegative margin into a
        # violation, driving the documented failure exit code
        code, out, _ = run_cli(
            capsys, "verify", "bh", "--resolution", "20", "--tolerance", "-0.5",
        )
        assert code == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_exits_one(self, capsys, tolerance):
        code, out, err = run_cli(
            capsys, "verify", "bh", "--resolution", "20", "--tolerance", tolerance,
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "tolerance" in err

    @pytest.mark.parametrize("argv, message", [
        (("grid", "--trials", "0", "--resolution", "3"), "trials: 0 must be >= 1"),
        (("random", "--resolution", "1", "--trials", "2"), "resolution: 1 must be >= 2"),
        (("kl_finite", "--atoms", "1", "--trials", "2"), "atoms: 1 not in [2, 64]"),
    ], ids=["grid-trials", "random-resolution", "kl_finite-atoms"])
    def test_size_out_of_range_exits_one_whichever_checks_run(self, capsys, argv, message):
        assert run_cli(capsys, "verify", *argv) == (1, "", f"error: {message}\n")

    def test_negative_infinite_margin_keeps_its_sign(self, monkeypatch, capsys):
        # a bh bound that reaches 1 gives a kl_finite trial margin -inf
        monkeypatch.setitem(verify._FORWARD, BoundId.BH, lambda kl: 1.0)
        code, out, _ = run_cli(capsys, "--json", "verify", "kl_finite", "--trials", "3")
        assert code == 2
        assert json.loads(out)["worst_margin"] == "-inf"
        _, text, _ = run_cli(capsys, "verify", "kl_finite", "--trials", "3")
        assert "worst_margin=-inf " in text

    def test_kl_finite_seed_zero_passes(self, capsys):
        # its trials include a pair whose KL sum rounds below zero
        code, _, err = run_cli(capsys, "--json", "verify", "kl_finite", "--seed", "0")
        assert code == 0, err

    def test_random_seed_eight_passes(self, capsys):
        # its dpi_quantized trials include an all-atom event, whose masses
        # must both be exactly 1
        code, out, _ = run_cli(capsys, "--json", "verify", "random", "--seed", "8")
        assert code == 0
        assert all(json.loads(line)["violations"] == 0 for line in out.splitlines())

    def test_unknown_suite_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bogus")
        assert code == 1
        assert "suite" in err

    def test_all_seed_42_stdout_is_pinned(
            self, capsys, tmp_path, command=pin("--json verify all --seed 42")):
        assert_pinned(capsys, tmp_path, command)

    def test_derivation_seed_42_stdout_is_pinned(
            self, capsys, tmp_path, command=pin("--json verify derivation --seed 42")):
        assert_pinned(capsys, tmp_path, command)

    @pytest.mark.parametrize("seed", [[], ["--seed", "42"]], ids=["default", "42"])
    def test_derivation_suite_exits_zero(self, capsys, seed):
        code, out, _ = run_cli(capsys, "verify", "derivation", *seed)
        lines = out.splitlines()
        assert code == 0
        assert [line.split(":")[0] for line in lines] == [
            "bh_decomposition", "ipm_identity", "hoeffding_step",
        ]
        assert all("violations=0 " in line for line in lines)
        _, single, _ = run_cli(capsys, "verify", "bh_decomposition", *seed)
        assert single.splitlines() == lines[:1]

    @pytest.mark.parametrize("inequality", ["ipm_identity", "bh_decomposition"])
    def test_exact_identity_prints_positive_zero(self, monkeypatch, capsys, inequality):
        # on identical pairs each identity holds exactly: 0.0, never -0.0
        seeded = verify._seeded_pairs
        monkeypatch.setattr(verify, "_seeded_pairs",
                            lambda *args: ((p, p) for p, _ in seeded(*args)))
        args = ("verify", inequality, "--trials", "20", "--atoms", "8")
        code, text, _ = run_cli(capsys, *args)
        assert code == 0
        assert "violations=0 worst_margin=0.0 worst_point=[0] " in text
        _, out, _ = run_cli(capsys, "--json", *args)
        assert '"worst_margin": 0.0,' in out

    @pytest.mark.parametrize(
        "k, inequality", enumerate(["hellinger_chain", "dpi_quantized", "tfl_lower"])
    )
    def test_single_random_inequality_prints_its_suite_line(self, capsys, k, inequality):
        args = ("--seed", "5", "--trials", "50", "--atoms", "8")
        _, suite, _ = run_cli(capsys, "--json", "verify", "random", *args)
        _, single, _ = run_cli(capsys, "--json", "verify", inequality, *args)
        assert single.splitlines() == [suite.splitlines()[k]]

    def test_seed_flag_position_is_flexible(self, capsys):
        _, a, _ = run_cli(capsys, "--seed", "3", "verify", "tfl_lower",
                          "--trials", "10", "--atoms", "8")
        _, b, _ = run_cli(capsys, "verify", "tfl_lower", "--trials", "10",
                          "--atoms", "8", "--seed", "3")
        assert a == b


class TestDv:
    def test_identical_files_give_zero(self, capsys, dist_files):
        code, out, _ = run_cli(
            capsys, "dv", dist_files["fair"], dist_files["fair"], "--trials", "20",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 0.0
        assert payload["min_gap"] >= 0.0

    def test_reports_kl_value(self, capsys, dist_files):
        code, out, _ = run_cli(
            capsys, "dv", dist_files["fair"], dist_files["biased"],
            "--trials", "50", "--seed", "2",
        )
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.020410997260127572, abs=1e-13)
        assert payload["trials"] == 50
        assert payload["min_gap"] >= -1e-10

    def test_support_mismatch_exits_one(self, capsys, dist_files):
        code, _, err = run_cli(capsys, "dv", dist_files["left"], dist_files["right"])
        assert code == 1
        assert "support" in err


class TestPinnedOutputs:
    """Every pin of tests/pins.py, run in-process. The cases come from the
    table: a new pin that fits a pattern here runs with no edit. The ids are
    the inputs alone: a re-pinned output keeps its id."""

    @pinned(r"figure (\w+) --points 501 --out fig\.csv")
    def test_figure_csv(self, capsys, tmp_path, command):
        assert_pinned(capsys, tmp_path, command)

    def test_eleven_point_forward_figure(
            self, capsys, tmp_path, command=pin("figure fig_forward --points 11 --out fig.csv")):
        assert_pinned(capsys, tmp_path, command)

    @pinned(r"--json bound forward (\S+)")
    def test_bound_forward(self, capsys, tmp_path, command):
        assert_pinned(capsys, tmp_path, command)

    @pinned(r"--json bound inverse (\S+)")
    def test_bound_inverse(self, capsys, tmp_path, command):
        assert_pinned(capsys, tmp_path, command)

    @pinned(r"--json samples (\S+) (\S+)")
    def test_samples(self, capsys, tmp_path, command):
        assert_pinned(capsys, tmp_path, command)

    # named flags first: "--json--ceil-0.1-0.01"
    @pinned(r"samples (\S+) (\S+)((?: --json)?(?: --ceil)?)",
            lambda m: "-".join(filter(None, (m[3].replace(" ", ""), m[1], m[2]))))
    def test_samples_text_and_ceil(self, capsys, tmp_path, command):
        assert_pinned(capsys, tmp_path, command)

    def test_verify_all_text(
            self, capsys, tmp_path,
            command=pin("verify all --seed 42 --resolution 40 --trials 50 --atoms 8")):
        assert_pinned(capsys, tmp_path, command)

    @pinned(r"--json div (\w+)_p\.json \1_q\.json")
    def test_div(self, capsys, tmp_path, command):
        assert_pinned(capsys, tmp_path, command)

    def test_div_with_the_padded_label_on_p(
            self, capsys, tmp_path, command=pin("--json div padded_q.json padded_p.json")):
        assert_pinned(capsys, tmp_path, command)

    @pinned(r"--json dv (\w+)_p\.json \1_q\.json --trials 20")
    def test_dv(self, capsys, tmp_path, command):
        assert_pinned(capsys, tmp_path, command)

    def test_dv_text_at_the_default_seed(
            self, capsys, tmp_path, command=pin("dv fair.json biased.json --trials 50")):
        assert_pinned(capsys, tmp_path, command)


def test_every_pin_has_a_case_and_every_case_a_pin():
    assert [c for c in pins.PINS if c not in CASES] == [], "pins that no test runs"
    assert [c for c in CASES if c not in pins.PINS] == [], "commands not in pins.PINS"
    assert len(CASES) == len(set(CASES)), "a pin run by two cases"


def test_pin_runner_reports_each_failure_under_its_command(capsys):
    # a stub stands in for the command, so no process starts
    wrong, failing, no_file = ("--json bound forward 0", "samples 0.1 0.01",
                               "figure fig_pinsker --points 501 --out fig.csv")
    outcomes = {"--json": (0, b"[]\n"), "samples": (2, b""), "figure": (0, b"")}
    assert pins.check_all(lambda argv: outcomes[argv[0]], [wrong, failing, no_file]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"FAIL  {wrong}: sha256 ") and pins.PINS[wrong] in lines[0]
    assert lines[1:] == [f"FAIL  {failing}: exit 2", lines[2], "0 of 3 pins match"]
    assert lines[2].startswith(f"FAIL  {no_file}: --out: [Errno 2]")
    assert pins.check_all(in_process(capsys), [wrong]) == 0
    assert capsys.readouterr().out == f"ok    {wrong}\n1 of 1 pins match\n"


class TestJsonForm:
    @pytest.mark.parametrize(
        "value, text", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")])
    def test_non_finite_float_is_its_repr(self, value, text):
        assert _jsonable(value) == text == repr(value)
        assert _jsonable([value]) == [text]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "bh", "--resolution", "x"),
            ("verify", "bh", "--tolerance", "-inf"),
            ("nosuch",),
            (),
        ],
    )
    def test_usage_error_exits_one_with_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--resolution" in capsys.readouterr().out


class TestFlagPosition:
    """Each shared flag reads the same before and after the command name, on
    a command that reads it; given at both positions, the later value wins."""

    CASES = {
        "json": (["--json"], ["bound", "inverse", "0.5"]),
        "renormalize": (["--renormalize"], ["div", "offsum", "fair"]),
        "tolerance": (["--tolerance=-0.5"], ["verify", "bh", "--resolution", "10"]),
        "seed": (["--seed", "7"], ["dv", "fair", "biased", "--trials", "5"]),
    }

    @staticmethod
    def argv(dist_files, words):
        return [dist_files.get(w, w) for w in words]

    @pytest.mark.parametrize("flag", CASES)
    def test_same_output_before_and_after_the_command(self, capsys, dist_files, flag):
        flag_args, words = self.CASES[flag]
        command = self.argv(dist_files, words)
        before = run_cli(capsys, *flag_args, *command)
        after = run_cli(capsys, *command, *flag_args)
        assert before[:2] == after[:2]
        assert before[:2] != run_cli(capsys, *command)[:2]  # the flag is read

    @pytest.mark.parametrize("flag, first, last", [
        ("seed", "--seed=1", "--seed=7"),
        ("tolerance", "--tolerance=1", "--tolerance=-0.5"),
    ])
    def test_later_value_wins(self, capsys, dist_files, flag, first, last):
        command = self.argv(dist_files, self.CASES[flag][1])
        expected = run_cli(capsys, *command, last)
        assert run_cli(capsys, first, *command, last) == expected
        assert run_cli(capsys, last, *command, first) != expected
        assert run_cli(capsys, *command, first, last) == expected


def run_isolated(argv):
    # hypothesis examples cannot share the function-scoped capsys fixture
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and friends
            code = exc.code
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1
    assert "Traceback" not in err


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_distribution_texts = (
    st.text(max_size=40)
    | _json_values.map(json.dumps)
    | st.fixed_dictionaries(
        {"probs": st.lists(st.integers(-2, 10**400) | st.floats() | _json_values, max_size=5)},
        optional={"support": st.lists(st.text(max_size=3) | _json_values, max_size=5)},
    ).map(json.dumps)
)


@settings(deadline=None)
@given(_distribution_texts, _distribution_texts, st.booleans())
def test_div_on_any_two_files_exits_cleanly(text_p, text_q, renormalize):
    with tempfile.TemporaryDirectory() as folder:
        paths = [os.path.join(folder, name) for name in ("p.json", "q.json")]
        for path, text in zip(paths, (text_p, text_q)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        flags = ["--renormalize"] if renormalize else []
        assert_clean_exit(*run_isolated(["div", *paths, *flags]))


@given(st.sampled_from(["forward", "inverse"]), st.text(), st.booleans())
def test_bound_on_any_text_exits_cleanly(direction, text, as_json):
    flags = ["--json"] if as_json else []
    assert_clean_exit(*run_isolated(["bound", direction, text, *flags]))


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tvkl.cli", "bound", "forward", "1", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert len(rows) == 6
