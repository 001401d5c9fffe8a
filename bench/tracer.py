"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of the tvkl modules (plus
``divergence._aligned`` and the ``Distribution`` constructor's validation)
and patches every name that refers to them in every loaded ``tvkl`` module,
including module-level dispatch dicts such as ``bounds._FORWARD``. Nothing in
the library changes; ``uninstall`` restores every patched slot.

A single grid suite makes about four million calls into ``bounds`` and
``divergence``, so spans are not stored one by one. Each call adds to an
aggregate keyed by (span name, parent span name): count, total time, self
time (total minus the time of child spans) and exceptions raised. Individual
spans are kept only at the report level (one per verification report) and
at the op level (recorded by the benchmark runner).
"""

from __future__ import annotations

import inspect
import sys
import time

#: Modules whose public functions are wrapped, by short name.
LAYERS = (
    "bounds",
    "distributions",
    "divergence",
    "variational",
    "verify",
    "samples",
    "figures",
    "cli",
)

#: Private functions wrapped as well, because a per-layer metric needs them.
EXTRA = {"divergence": ("_aligned",)}

#: Divergence functions that take a pair of distributions.
PAIR_FUNCTIONS = frozenset(
    "divergence." + name
    for name in (
        "total_variation",
        "kl_divergence",
        "hellinger_affinity",
        "overlap_identities",
        "quantize",
        "tv_subset_oracle",
        "bh_decomposition",
    )
)

#: Verification functions that each produce one report.
REPORT_FUNCTIONS = frozenset(
    ("verify.scan_bernoulli", "verify.falsify", "verify.kl_finite_implies_tv_lt_one")
)

#: The ten report names of ``verify all``, in suite order.
REPORT_NAMES = (
    "pinsker_binary",
    "pinsker",
    "bh",
    "tsybakov",
    "weak_bh",
    "vajda",
    "hellinger_chain",
    "dpi_quantized",
    "tfl_lower",
    "kl_finite",
)

_ROOT = "<root>"


class Tracer:
    """Collects aggregated spans and counters while installed.

    Use as a context manager around the traced job; ``metrics()`` then
    gives the per-layer numbers.
    """

    def __init__(self, tvkl):
        self._tvkl = tvkl
        self._stack = [[_ROOT, 0.0]]
        # (name, parent) -> [count, total_s, self_s, raised]
        self.agg: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = {}
        self.report_spans: list[dict] = []
        self.op_spans: list[dict] = []
        self._patched: list[tuple[object, str, object, bool]] = []
        self._aligned_last = (0, False)
        self._vajda = tvkl.bounds.kl_lower_vajda

    # -- installation ------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = getattr(self._tvkl, layer)
            names = [
                name
                for name, obj in vars(module).items()
                if inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
            ]
            names.extend(EXTRA.get(layer, ()))
            for name in names:
                fn = getattr(module, name)
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        wrappers[self._tvkl.cli.main] = self._count_stdout(
            wrappers[self._tvkl.cli.main]
        )
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tvkl" and not mod_name.startswith("tvkl."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if _is_original(value, wrappers):
                    self._patch(namespace, key, wrappers[value], True)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if _is_original(v, wrappers):
                            self._patch(value, k, wrappers[v], False)
        cls = self._tvkl.distributions.Distribution
        original = cls.__post_init__
        self._patched.append((cls, "__post_init__", original, None))
        cls.__post_init__ = self._wrap("distributions.Distribution", original)

    def _patch(self, mapping, key, wrapper, is_namespace) -> None:
        self._patched.append((mapping, key, mapping[key], is_namespace))
        mapping[key] = wrapper

    def uninstall(self) -> None:
        for target, key, original, is_namespace in reversed(self._patched):
            if is_namespace is None:
                setattr(target, key, original)
            else:
                target[key] = original
        self._patched.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        agg = self.agg
        clock = time.perf_counter
        after = self._after_hook(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                _record(agg, name, parent, clock() - start, frame, stack, 1)
                raise
            dur = clock() - start
            _record(agg, name, parent, dur, frame, stack, 0)
            if after is not None:
                after(args, kwargs, result, start, dur, parent[0])
            return result

        wrapper.__wrapped__ = fn
        wrapper.bench_span = name
        return wrapper

    def _count_stdout(self, fn):
        counters = self.counters

        def main(*args, **kwargs):
            before = _tell(sys.stdout)
            try:
                return fn(*args, **kwargs)
            finally:
                counters["cli.stdout_bytes"] = counters.get(
                    "cli.stdout_bytes", 0
                ) + (_tell(sys.stdout) - before)

        main.__wrapped__ = fn
        main.bench_span = "cli.main"
        return main

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _after_hook(self, name):
        if name == "divergence._aligned":

            def aligned(args, kwargs, result, start, dur, parent):
                labels, pw, _ = result
                self._aligned_last = (len(labels), pw is args[0].probs)
                self._add("divergence.atoms_aligned", len(labels))

            return aligned
        if name in PAIR_FUNCTIONS:

            def pair(args, kwargs, result, start, dur, parent):
                atoms, same = self._aligned_last
                kind = "same_order" if same else "relabelled"
                self._add(f"divergence.{kind}_s", dur)
                self._add(f"divergence.{kind}_atoms", atoms)

            return pair
        if name == "distributions.Distribution":

            def built(args, kwargs, result, start, dur, parent):
                self._add("distributions.atoms_validated", len(args[0].support))

            return built
        if name == "distributions.tensor_power":

            def power(args, kwargs, result, start, dur, parent):
                self._add("distributions.tensor_power_atoms", len(result))

            return power
        if name == "figures.figure_rows":

            def rows(args, kwargs, result, start, dur, parent):
                self._add("figures.rows", len(result))

            return rows
        if name == "bounds.tv_upper_from_vajda":

            def vajda(args, kwargs, result, start, dur, parent):
                kl = float(_arg(args, kwargs, 0, "kl"))
                if 0.0 < result < 1.0 and self._vajda(result) < kl:
                    self._add("bounds.vajda_below_root", 1)

            return vajda
        if name in REPORT_FUNCTIONS:

            def report(args, kwargs, result, start, dur, parent):
                if name == "verify.scan_bernoulli":
                    label = result.inequality.value
                    resolution = _arg(args, kwargs, 1, "resolution")
                    self._add("verify.cells", (resolution - 1) ** 2)
                elif name == "verify.falsify":
                    label = result.inequality.value
                    self._add("verify.trials", _arg(args, kwargs, 1, "trials"))
                else:
                    label = "kl_finite"
                    self._add("verify.trials", _arg(args, kwargs, 0, "trials"))
                self._add("verify.violations", result.violations)
                self._add(f"verify.{label}.s", dur)
                self.report_spans.append(
                    {
                        "name": f"verify.{label}",
                        "op": None,
                        "parent": parent,
                        "start": start,
                        "end": start + dur,
                    }
                )

            return report
        return None

    # -- ops ---------------------------------------------------------------

    def op_span(self, op_id, kind: str, start: float, seconds: float) -> None:
        """Record one benchmark op as a span and claim the report spans
        that ran inside it."""
        end = start + seconds
        for span in self.report_spans:
            if span["op"] is None and start <= span["start"] <= end:
                span["op"] = op_id
        self.op_spans.append(
            {"name": kind, "op": op_id, "parent": None, "start": start, "end": end}
        )

    # -- metrics -----------------------------------------------------------

    def _sum(self, field: int, match) -> float:
        return sum(rec[field] for (name, parent), rec in self.agg.items()
                   if match(name, parent))

    def metrics(self, untraced_wall_s: float, traced_wall_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        count, total, busy, raised = 0, 1, 2, 3
        c = self.counters.get

        def layer(prefix):
            return lambda name, parent: name.startswith(prefix + ".")

        def named(target, parent_name=None):
            return lambda name, parent: name == target and (
                parent_name is None or parent == parent_name
            )

        inversions = self._sum(count, named("bounds.tv_upper_from_vajda"))
        evals = self._sum(
            count, named("bounds.kl_lower_vajda", "bounds.tv_upper_from_vajda")
        )
        crashes = self._sum(
            raised,
            lambda name, parent: name.startswith("verify.")
            and not parent.startswith("verify."),
        )
        out = {
            "bounds.calls": (self._sum(count, layer("bounds")), "count"),
            "bounds.busy_s": (self._sum(busy, layer("bounds")), "s"),
            "bounds.vajda_inversions": (inversions, "count"),
            "bounds.vajda_evals_per_inversion": (_ratio(evals, inversions), "count"),
            "bounds.vajda_busy_s": (
                self._sum(total, named("bounds.tv_upper_from_vajda")), "s"),
            "bounds.vajda_below_root": (c("bounds.vajda_below_root", 0), "count"),
            "distributions.built": (
                self._sum(count, named("distributions.Distribution")), "count"),
            "distributions.atoms_validated": (
                c("distributions.atoms_validated", 0), "count"),
            "distributions.validate_s": (
                self._sum(total, named("distributions.Distribution")), "s"),
            "distributions.tensor_power_atoms": (
                c("distributions.tensor_power_atoms", 0), "count"),
            "distributions.tensor_power_s": (
                self._sum(total, named("distributions.tensor_power")), "s"),
            "divergence.binary_kl_calls": (
                self._sum(count, named("divergence.binary_kl")), "count"),
            "divergence.binary_tv_calls": (
                self._sum(count, named("divergence.binary_tv")), "count"),
            "divergence.binary_busy_s": (
                self._sum(busy, lambda name, parent: name in (
                    "divergence.binary_kl", "divergence.binary_tv")), "s"),
            "divergence.pair_calls": (
                self._sum(count, lambda name, parent: name in PAIR_FUNCTIONS),
                "count"),
            "divergence.atoms_aligned": (c("divergence.atoms_aligned", 0), "count"),
            "divergence.same_order_s_per_matom": (
                _ratio(c("divergence.same_order_s", 0),
                       c("divergence.same_order_atoms", 0) / 1e6), "s/Matom"),
            "divergence.relabelled_s_per_matom": (
                _ratio(c("divergence.relabelled_s", 0),
                       c("divergence.relabelled_atoms", 0) / 1e6), "s/Matom"),
            "variational.dv_calls": (
                self._sum(count, named("variational.dv_value")), "count"),
            "variational.busy_s": (self._sum(busy, layer("variational")), "s"),
            "verify.cells": (c("verify.cells", 0), "count"),
            "verify.trials": (c("verify.trials", 0), "count"),
            "verify.busy_s": (self._sum(busy, layer("verify")), "s"),
        }
        for report in REPORT_NAMES:
            out[f"verify.{report}.s"] = (c(f"verify.{report}.s", 0.0), "s")
        out.update(
            {
                "verify.violations": (c("verify.violations", 0), "count"),
                "verify.crashes": (crashes, "count"),
                "samples.reports": (
                    self._sum(count, named("samples.report")), "count"),
                "samples.busy_s": (self._sum(busy, layer("samples")), "s"),
                "figures.rows": (c("figures.rows", 0), "count"),
                "figures.busy_s": (self._sum(busy, layer("figures")), "s"),
                "cli.invocations": (self._sum(count, named("cli.main")), "count"),
                "cli.busy_s": (self._sum(busy, layer("cli")), "s"),
                "cli.stdout_bytes": (c("cli.stdout_bytes", 0), "bytes"),
                "trace.overhead_ratio": (
                    _ratio(traced_wall_s, untraced_wall_s), "ratio"),
            }
        )
        return out

    def table(self) -> list[dict]:
        """The aggregated spans, for the trace file."""
        return [
            {"name": name, "parent": parent, "count": rec[0], "total_s": rec[1],
             "self_s": rec[2], "raised": rec[3]}
            for (name, parent), rec in sorted(self.agg.items())
        ]


def _record(agg, name, parent, dur, frame, stack, raised) -> None:
    stack.pop()
    parent[1] += dur
    key = (name, parent[0])
    rec = agg.get(key)
    if rec is None:
        agg[key] = [1, dur, dur - frame[1], raised]
    else:
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]
        rec[3] += raised


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _is_original(value, wrappers) -> bool:
    try:
        return value in wrappers
    except TypeError:  # unhashable module globals
        return False


def _tell(stream) -> int:
    try:
        return stream.tell()
    except (OSError, ValueError):
        return 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
