import contextlib
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

from tvkl.cli import main
from tvkl.figures import FigureId, figure_header, render_figure_csv


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
        assert payload["n_pinsker"] == pytest.approx(47.05306594088472)
        assert payload["n_bh"] == pytest.approx(158.19541395115158)
        assert payload["required_tv"] == pytest.approx(0.98)
        assert payload["notes"] == ["simplified_exceeds_exact"]

    def test_ceil_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "samples", "0.1", "0.01", "--ceil")
        payload = json.loads(out)
        assert payload["n_pinsker"] == 48
        assert payload["n_bh"] == 159

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
        assert all("elapsed" not in r for r in reports)

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


class TestPinnedOutputs:
    """The stdout contract for figures, bounds and samples: any change to
    these bytes is a visible change."""

    @pytest.mark.parametrize(
        "figure, digest",
        [
            ("fig_pinsker", "30bee16fb35ace633c2187581579382fc9e064ec1c5aa7fc636eb3e75d8ca41b"),
            ("fig_forward", "53043d125d1aa4a8da9b20d913a0171b67e2b8b8f9403b0b07a26578e2336171"),
            ("fig_inverse", "8e0bd918dcfcb036759196216830910abf28b6d1cfb983468cc1b6205e5bb234"),
            ("fig_weak", "0421a88f8634843064854554d55653048dfc612ffc0d5a5adfe4affe38bff7d3"),
        ],
    )
    def test_figure_csv(self, capsys, tmp_path, figure, digest):
        out = tmp_path / "f.csv"
        code, _, _ = run_cli(capsys, "figure", figure, "--points", "501", "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "value, digest",
        [
            ("0", "d25898d4d1768f8cfff2370982057807d88801457dc7baf0f03d7e23f4f4af90"),
            ("5e-324", "44911c067ad27ff29515da102d6639fb7db6b8d840a84b6b904c575fc33ee98e"),
            ("1e-300", "5faa21f926189f2c141b471b99106492a0fe8b78381deca9edefaf3abdecf70c"),
            ("1e-12", "84afe3caf9063f6391d8c4124bd2ab3e487473c6a278333fca020db83ab03b78"),
            ("0.02", "05a608f698b60be77a9a55d08395da1bcaa385a3706b635c38ffc191a42ae883"),
            ("2", "5c20d8c0246f58592da7c134739de7c03ffb41e92063ce4391e8d798648dd144"),
            ("37", "e667c01e588717d464cb74c07070bfb9d0bc3c4abe216f641fdf64e84901c550"),
            ("50", "0230843bd1f79ecc68729121780eae8b52ab659a3065dd01b8195d5520fbf4dc"),
            ("700", "b83724053b8f3faa2a635e8c1f0fc2fabb6ee6da1b4b5bb1c42b0ff84bfcae5b"),
            ("inf", "9fd4d8ebf79b5f4dc4ab1b0ab779f01f011321e55f6392b7041684555bcb3d58"),
        ],
    )
    def test_bound_forward(self, capsys, value, digest):
        code, out, _ = run_cli(capsys, "--json", "bound", "forward", value)
        assert code == 0
        assert _sha256(out) == digest

    @pytest.mark.parametrize(
        "value, digest",
        [
            ("0", "61daa9985c6793f0ff5a957b83e341749bbdbe4db441f20859c4d9b8ba9fd360"),
            ("5e-324", "650f8d0ff89f6daae390fe4ad5b62d826955db7548474701cf61650ddc7443c4"),
            ("1e-12", "fb72c496fbca8601e366c73ce15b8c784a57b9d6c5a70efd9c5b5a08b160dd59"),
            ("1e-8", "4a443e68b26772df995a234dbcd1d9bed51c4b22258f83beb311e79aa1d4d146"),
            ("0.45", "4b28bd27f2017492482ec610dc06eb85d0ebea6577c2937578cb5fe09b121815"),
            ("0.5", "b56c1d4c054c5033074ab3781ac98a162e8df043b4e7a2bd20f80442e5f121f4"),
            ("0.9999999999999999",
             "4c9dc3146332398bb362eb055f60894991de8dc56414583942bb31a5ee40f61e"),
            ("1", "4d12a3fad8415bff7e3d2b6b45381613e0cf871019c72f405fe0264cc0cf9205"),
        ],
    )
    def test_bound_inverse(self, capsys, value, digest):
        code, out, _ = run_cli(capsys, "--json", "bound", "inverse", value)
        assert code == 0
        assert _sha256(out) == digest

    @pytest.mark.parametrize(
        "epsilon, delta, digest",
        [
            ("0.1", "0.01", "60d8811df4d7b32304d3898d6cded837ccaacef9989e74f6526ef7c5699b44b5"),
            ("0.3", "0.4", "5ab9618bcb8c12cc9fe086d2c89ce4f471d6dc5176b8147a73069df4b469d256"),
            ("1e-6", "1e-9", "e62f597350ac1c95414af5b6a0bdd934d9957fa825c0cba9285d305ea0903c7d"),
        ],
    )
    def test_samples(self, capsys, epsilon, delta, digest):
        code, out, _ = run_cli(capsys, "--json", "samples", epsilon, delta)
        assert code == 0
        assert _sha256(out) == digest

    def test_verify_all_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--seed", "42", "--resolution",
                               "40", "--trials", "50", "--atoms", "8")
        assert code == 0
        assert _sha256(out) == (
            "9e64e1b7c82d47a2865ee9167820f92d03caa80e6055ab35569fd84dc09a5e95"
        )

    def test_dv_text_at_the_default_seed(self, capsys, dist_files):
        code, out, _ = run_cli(capsys, "dv", dist_files["fair"], dist_files["biased"],
                               "--trials", "50")
        assert code == 0
        assert _sha256(out) == (
            "a069263f8a6fd9a0772a2c2a99613069ab073913c6e11cc145c28509aeda6323"
        )


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
