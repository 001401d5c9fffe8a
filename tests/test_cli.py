import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
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

    def test_all_seed_42_stdout_is_pinned(self, capsys):
        # the stdout contract: any change to these bytes is a visible change
        code, out, _ = run_cli(capsys, "--json", "verify", "all", "--seed", "42")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2282bf19fdb597b9e73a8412b67a04fcc86b1d4fca13cc1bd8c11fd3f9884bfc"
        )

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


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _by_input(cases):
    # Each case ends with its digest; the test id is the input alone, so a
    # re-pinned output keeps its test's name.
    ids = ("-".join(filter(None, case[:-1])).replace(" ", "") for case in cases)
    return [pytest.param(*case, id=name) for case, name in zip(cases, ids)]


class TestPinnedOutputs:
    """The stdout contract for figures, bounds, samples, div, verify and
    dv: any change to these bytes is a visible change."""

    @pytest.mark.parametrize(
        "figure, digest",
        _by_input([
            ("fig_pinsker", "30bee16fb35ace633c2187581579382fc9e064ec1c5aa7fc636eb3e75d8ca41b"),
            ("fig_forward", "53043d125d1aa4a8da9b20d913a0171b67e2b8b8f9403b0b07a26578e2336171"),
            ("fig_inverse", "782861e1acd4b7fb7be0161cd3097654138ba7ab59c9e886319914b14e83a94c"),
            ("fig_weak", "0421a88f8634843064854554d55653048dfc612ffc0d5a5adfe4affe38bff7d3"),
        ]),
    )
    def test_figure_csv(self, capsys, tmp_path, figure, digest):
        out = tmp_path / "f.csv"
        code, _, _ = run_cli(capsys, "figure", figure, "--points", "501", "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "value, digest",
        _by_input([
            ("0", "d25898d4d1768f8cfff2370982057807d88801457dc7baf0f03d7e23f4f4af90"),
            ("5e-324", "cce3d8956aa6c1229f07e9314080c41481e8c220785fffbf10c1906953e5511d"),
            ("1e-300", "4e9d4b75890156776063452ae8712fd45df45b30bd4b8e8af43a33e552f577ba"),
            ("1e-12", "8099fe3a5f82e63dffd0fc26ac16cd8165c5a05fe8357d5f130a0ae5fd1c2da6"),
            ("0.02", "f4cc23613555004052f9b33e9935a3a56a7dcdae20cdf948accd242d4cf20ac1"),
            ("2", "037c2935eabf5c625d0057b2640d871722673a546e3073f318abb51892b52d50"),
            ("37", "116d2ba43895088727f899017203504690741e613d17d5eda6e26b0340fcf7ff"),
            ("50", "776597453062684e1439cf58a421d1040420391de0b962b76568f2fec6486098"),
            ("700", "0c602727bd8963a1b431e8ad4bdbe1e2a243340298f7023f4a255a14eda0ab55"),
            ("inf", "9fd4d8ebf79b5f4dc4ab1b0ab779f01f011321e55f6392b7041684555bcb3d58"),
        ]),
    )
    def test_bound_forward(self, capsys, value, digest):
        code, out, _ = run_cli(capsys, "--json", "bound", "forward", value)
        assert code == 0
        assert _sha256(out) == digest

    @pytest.mark.parametrize(
        "value, digest",
        _by_input([
            ("0", "eb2708fe03ec903699f5664b534109893602815ee0890dd2b697dabe7a4cef0c"),
            ("5e-324", "7ddfd85a4aabf6ff193f531744632f94e21d6515810adde240aee2faa7214a27"),
            ("1e-12", "c0921bb314bb299237865ac5fb2cd9ede2518a59f07712d8f7c5c3a86581ed7a"),
            ("1e-8", "6304cb86aa60d6efdcecca7e111c8e7aa30380ee43fb7ff62710f84429a6b00f"),
            ("0.45", "f7ec1717a2884182449416c217bbeb6658f2b72776a680e9807ce444af215c67"),
            ("0.5", "b56c1d4c054c5033074ab3781ac98a162e8df043b4e7a2bd20f80442e5f121f4"),
            ("0.9999999999999999",
             "4c9dc3146332398bb362eb055f60894991de8dc56414583942bb31a5ee40f61e"),
            ("1", "4d12a3fad8415bff7e3d2b6b45381613e0cf871019c72f405fe0264cc0cf9205"),
        ]),
    )
    def test_bound_inverse(self, capsys, value, digest):
        code, out, _ = run_cli(capsys, "--json", "bound", "inverse", value)
        assert code == 0
        assert _sha256(out) == digest

    @pytest.mark.parametrize(
        "epsilon, delta, digest",
        _by_input([
            ("0.1", "0.01", "e9250312ab070f091df85ca4c8c638f47a75f2cb69b9ec8ac994012f3fbb4459"),
            ("0.3", "0.4", "5b7efe11427cf2a4465191f8452c14697b059a8e2725daadd35f0848055f6576"),
            ("1e-6", "1e-9", "72fce77411e121286c7613102d05c6695a709dc2daa131d3fe682b123ab6be9c"),
        ]),
    )
    def test_samples(self, capsys, epsilon, delta, digest):
        code, out, _ = run_cli(capsys, "--json", "samples", epsilon, delta)
        assert code == 0
        assert _sha256(out) == digest

    @pytest.mark.parametrize(
        "flags, epsilon, delta, digest",
        _by_input([
            ("", "0.1", "0.01",
             "d34ccf423f8f9cb88c653bac6a5050e81bb752f40445ea2c2c2f00717a36e8eb"),
            ("", "0.3", "0.4",
             "600e757bc04c54940c0ee70e5d1c9f1e097bb255c62c943a8e525924687f1ac6"),
            ("", "1e-6", "1e-9",
             "72bebc55ac99060c8871a261d82918889deded5a1ef8358a0dc2521f31d82973"),
            ("--ceil", "0.1", "0.01",
             "79c45a8b1217a4189c367ab469a71fee55854d36dea5c413e5d115f3676a5e8a"),
            ("--ceil", "0.3", "0.4",
             "5f020d6b084333b0a375a0e85350d683bf0a39f4f1ee70b0a410c9d9cd9c8a99"),
            ("--ceil", "1e-6", "1e-9",
             "1e72a17c17d147c02847adb2989057e37f00c4c6204dbcb735ac45d3a9c49ff6"),
            ("--json --ceil", "0.1", "0.01",
             "0f2a1ade04d0ebf04a4147e38c4147383a94b1a160b71b3d0027b14beda731a5"),
            ("--json --ceil", "0.3", "0.4",
             "edb1e79e6434a8b407b8aa20738c531ff31948ba0243d7e23bf0f04bfb70f3d8"),
            ("--json --ceil", "1e-6", "1e-9",
             "a0bb33672132695b532bf7737d8e63f709470db14c46bcd8b78e49976f62e242"),
        ]),
    )
    def test_samples_text_and_ceil(self, capsys, flags, epsilon, delta, digest):
        code, out, _ = run_cli(capsys, "samples", epsilon, delta, *flags.split())
        assert code == 0
        assert _sha256(out) == digest

    def test_verify_all_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--seed", "42", "--resolution",
                               "40", "--trials", "50", "--atoms", "8")
        assert code == 0
        assert _sha256(out) == (
            "9e64e1b7c82d47a2865ee9167820f92d03caa80e6055ab35569fd84dc09a5e95"
        )

    # (p, q) as JSON objects: a relabelled q, a q-only label, and subnormal
    # weights on both sides.
    DIV_PAIRS = {
        "relabelled": (
            {"support": ["a", "b", "c", "d"], "probs": [0.1, 0.2, 0.3, 0.4]},
            {"support": ["d", "c", "b", "a"], "probs": [0.1, 0.3, 0.35, 0.25]},
        ),
        "q_only": (
            {"support": ["x", "y"], "probs": [0.7, 0.3]},
            {"support": ["y", "z", "x"], "probs": [0.2, 0.1, 0.7]},
        ),
        "subnormal": (
            {"support": ["a", "b", "c"], "probs": [1e-310, 0.5, 0.5]},
            {"support": ["a", "b", "c"], "probs": [5e-324, 0.4, 0.6]},
        ),
    }

    @pytest.mark.parametrize(
        "pair, digest",
        _by_input([
            ("relabelled", "56a17dcfebf5fabe5edd147b0943da5440f136a9346c3ae3fe003ed06caa1808"),
            ("q_only", "7a81a581d34e8da5241f8a2b43443a9923a52b0220154d8f13db02344a87b77b"),
            ("subnormal", "d2352b789b9e00c9962514af90fce6e2f0472121b2a675532dd65cd676a06284"),
        ]),
    )
    def test_div(self, capsys, tmp_path, pair, digest):
        paths = [tmp_path / "p.json", tmp_path / "q.json"]
        for path, payload in zip(paths, self.DIV_PAIRS[pair]):
            path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(capsys, "--json", "div", *map(str, paths))
        assert code == 0
        assert _sha256(out) == digest

    # Pairs whose log-ratios leave the all-normal comprehension: an atom empty
    # on both sides (after relabelling), and subnormal weights.
    DV_PAIRS = {
        "shared_zero": (
            {"support": ["a", "b", "c"], "probs": [0.5, 0.5, 0.0]},
            {"support": ["c", "b", "a"], "probs": [0.0, 0.6, 0.4]},
        ),
        "subnormal": DIV_PAIRS["subnormal"],
    }

    @pytest.mark.parametrize(
        "pair, digest",
        _by_input([
            ("shared_zero", "cacedf8ed55777d9387d7d59f4bd6cbaeefb4324c1e6809e3c3aa041e883a7c5"),
            ("subnormal", "a5bbfccee4d4ab63a058fef2b14f00247c1e3117ec74fe628178694b7dc028dd"),
        ]),
    )
    def test_dv(self, capsys, tmp_path, pair, digest):
        paths = [tmp_path / "p.json", tmp_path / "q.json"]
        for path, payload in zip(paths, self.DV_PAIRS[pair]):
            path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run_cli(capsys, "--json", "dv", *map(str, paths), "--trials", "20")
        assert code == 0
        assert _sha256(out) == digest

    def test_dv_text_at_the_default_seed(self, capsys, dist_files):
        code, out, _ = run_cli(capsys, "dv", dist_files["fair"], dist_files["biased"],
                               "--trials", "50")
        assert code == 0
        assert _sha256(out) == (
            "a069263f8a6fd9a0772a2c2a99613069ab073913c6e11cc145c28509aeda6323"
        )


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
