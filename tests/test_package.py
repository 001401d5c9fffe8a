"""The package's public surface, and which modules each entry point loads.

Names load on first use, so what an entry point loads is checked in a child
interpreter: pytest's own process has imported every module already.
"""

import importlib
import json
import subprocess
import sys

import pytest

import tvkl
from tvkl.figures import FigureId

#: Each module and the names the package re-exported from it, recorded when
#: every name was imported eagerly. A name leaves only with a stated reason:
#: - samples.min_samples_pinsker, min_samples_bh, min_samples_tsybakov and
#:   required_tv: each built the whole report to return one of its fields,
#:   n_pinsker, n_bh, n_tsybakov and required_tv, which ``report`` gives.
#: - variational.TflParameter: a second form of pinsker_via_tfl's float
#:   budget that checked nothing the function does not check itself.
#: - bounds.tv_upper_pinsker, tv_upper_bh, tv_upper_tsybakov, tv_upper_weak_bh,
#:   kl_lower_pinsker, kl_lower_bh and kl_lower_tsybakov: each was one curve
#:   of ``forward_value`` or ``inverse_value`` under its own name.
#:   tv_upper_best: no caller, and a second ordering of the forward family
#:   that left vajda out. kl_lower_vajda and tv_upper_from_vajda stay: the
#:   benchmark harness reads them.
SURFACE = {
    "bounds": [
        "BoundEvaluation", "BoundId", "WEAK_BH_FACTOR", "compare_bounds",
        "forward_value", "inverse_value", "kl_lower", "kl_lower_vajda",
        "tv_upper_from_vajda",
    ],
    "distributions": [
        "Distribution", "LABEL_SEPARATOR", "MAX_PRODUCT_ATOMS", "ProductSpec",
        "SUM_TOLERANCE", "bernoulli", "dump_distribution", "dumps_distribution",
        "load_distribution", "loads_distribution", "new_distribution",
        "tensor_power",
    ],
    "divergence": [
        "EventSubset", "binary_kl", "binary_tv", "event_mass",
        "hellinger_affinity", "kl_divergence", "overlap_identities", "quantize",
        "total_variation",
    ],
    "errors": [
        "DuplicateLabelError", "EmptySupportError", "InvalidLabelError",
        "MisalignedWitnessError", "MismatchedSupportsError",
        "NegativeWeightError", "OutOfRangeError", "SumToleranceError",
        "SupportMismatchError", "TooLargeError", "TvklError",
        "UnsupportedInequalityError", "ValidationError",
    ],
    "figures": ["FigureId", "figure_header", "figure_rows", "write_figure_csv"],
    "samples": [
        "SampleComplexityQuery", "SampleComplexityReport", "kl_per_toss",
        "report",
    ],
    "variational": [
        "WitnessFunction", "dv_optimal_witness", "dv_supremum", "dv_value",
        "pinsker_via_tfl", "pinsker_via_tfl_optimal",
    ],
    "verify": [
        "InequalityId", "ScanReport", "bernoulli_margin", "falsify",
        "kl_finite_implies_tv_lt_one", "random_distribution", "run_suite",
        "scan_bernoulli",
    ],
}
NAMES = [name for names in SURFACE.values() for name in names]

#: Modules that only the divergence, distribution and verify work needs.
HEAVY = {"tvkl.distributions", "tvkl.divergence", "tvkl.variational", "tvkl.verify"}

_CHILD = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "tvkl" or m.startswith("tvkl."))
"""


def child(code):
    """Run ``code`` after ``_CHILD`` in a fresh interpreter; return the JSON
    value it prints last."""
    proc = subprocess.run([sys.executable, "-c", _CHILD + code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLoads:
    def test_import_tvkl_loads_no_submodule(self):
        assert child("import tvkl\nprint(json.dumps(loaded()))") == ["tvkl"]

    def test_cli_loads_only_what_its_parser_needs(self):
        loaded = child("import tvkl.cli\nprint(json.dumps(loaded()))")
        assert set(loaded) <= {"tvkl", "tvkl.cli", "tvkl.errors", "tvkl.figures",
                               "tvkl.bounds"}

    @pytest.mark.parametrize("argv, adds", [
        (["bound", "forward", "40"], []),
        (["figure", "fig_pinsker", "--points", "5", "--out", "OUT"], []),
        (["samples", "0.1", "0.01"], ["tvkl.samples"]),
    ], ids=["bound", "figure", "samples"])
    def test_command_loads_only_its_modules(self, tmp_path, argv, adds):
        argv = [str(tmp_path / "fig.csv") if a == "OUT" else a for a in argv]
        before, after = child(f"""
import tvkl.cli
before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = tvkl.cli.main({argv!r})
assert code == 0, code
print(json.dumps([before, loaded()]))
""")
        assert sorted(set(after) - set(before)) == adds
        assert not HEAVY & set(after)

    def test_submodule_resolves_without_import(self):
        grid, loaded = child("""
import tvkl
grid = [i.value for i in tvkl.verify.GRID_INEQUALITIES]
print(json.dumps([grid, loaded()]))
""")
        assert len(grid) == 6
        assert "tvkl.verify" in loaded

    def test_help_exits_zero_and_names_every_suite_and_figure(self):
        helps = child("""
import tvkl.cli
helps = {}
for command in ["", "div", "bound", "figure", "samples", "verify", "dv"]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            tvkl.cli.main([command, "--help"] if command else ["--help"])
        except SystemExit as exc:
            helps[command] = (exc.code, out.getvalue())
print(json.dumps(helps))
""")
        assert [code for code, _ in helps.values()] == [0] * 7
        assert "{div,bound,figure,samples,verify,dv}" in helps[""][1]
        verify_help = " ".join(helps["verify"][1].split())  # argparse wraps it
        assert "one of all, grid, random, kl_finite, derivation or a single" in verify_help
        assert "{%s}" % ",".join(f.value for f in FigureId) in helps["figure"][1]


class TestSurface:
    def test_all_is_the_recorded_surface(self):
        assert tvkl.__all__ == NAMES

    @pytest.mark.parametrize("module", SURFACE)
    def test_each_name_is_its_home_module_object(self, module):
        home = importlib.import_module(f"tvkl.{module}")
        for name in SURFACE[module]:
            assert getattr(tvkl, name) is getattr(home, name), name

    def test_star_import_binds_every_name_and_dir_lists_them(self):
        namespace = {}
        exec("from tvkl import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(NAMES)
        assert set(NAMES) <= set(dir(tvkl))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'tvkl' has no attribute 'nosuch'"):
            tvkl.nosuch
        assert not hasattr(tvkl, "cli_main")
