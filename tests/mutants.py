"""The standing mutation list: small wrong edits of ``src/``, and of the
reference in ``tests/oracle.py``, that the tests must catch. Run as a script
(standard library only; the tests need pytest and hypothesis):

    python tests/mutants.py

For each mutant it copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory, applies the mutant there, and runs the tier-1 tests with
``-x``. The unmutated copy runs first and must pass. It prints one line per
mutant and exits 1 if a mutant survives, or if its old text does not occur
exactly once in its file (the mutant has gone stale). See R. A. DeMillo,
R. J. Lipton and F. G. Sayward, "Hints on test data selection", IEEE
Computer 1978.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIV, BOUNDS, DIST = "src/tvkl/divergence.py", "src/tvkl/bounds.py", "src/tvkl/distributions.py"
VERIFY, ORACLE = "src/tvkl/verify.py", "tests/oracle.py"

# (file, exact old text, new text, why the tests must catch it)
MUTANTS = [
    (DIV, "return math.inf if a > 0.0 else -math.inf",
     "return -math.inf if a > 0.0 else math.inf",
     "an atom on p only has log-ratio +inf, one on q only -inf"),
    (DIV, "return compress(map(mul, pw, _log_ratios(pw, qw)), pw)",
     "return map(mul, pw, _log_ratios(pw, qw))",
     "KL keeps only p's nonempty atoms: 0 log 0 = 0, not 0 * -inf"),
    (DIV, "math.fsum(chain.from_iterable(blocks))", "math.fsum(map(math.fsum, blocks))",
     "a long pair's KL rounds once, not once per block"),
    (DIV, "for i in range(0, len(pw), _BLOCK))", "for i in range(0, len(pw), _BLOCK + 1))",
     "a long pair's blocks cover each atom once"),
    (DIV, "log1p((a - b) / b) if 0.5 * b <= a <= 2.0 * b else log(a) - log(b)",
     "log(a) - log(b)",
     "near-equal weights take log1p of an exact difference (Sterbenz)"),
    (BOUNDS, "if t < 2.0**-9:", "if t < 2.0**-12:",
     "below 2^-9 vajda's log form cancels, so the series must serve it"),
    (BOUNDS, "if t < 2.0**-9:", "if t < 2.0**-3:",
     "above about 2^-5 the truncated vajda series drops more than the log form's error"),
    (DIST, "if abs(total - 1.0) > SUM_TOLERANCE:  # the base sums to S",
     "if abs(total - 1.0) > 1.0:  # the base sums to S",
     "a trusted product must sum to 1 within tolerance at every power"),
    (DIV, "return min(0.5 * math.fsum(map(abs, map(sub, pw, qw))), 1.0)",
     "return 0.5 * math.fsum(map(abs, map(sub, pw, qw)))",
     "TV is clamped to 1 when the weights sum above 1 within tolerance"),
    (DIV, "    return min(total, 1.0)", "    return total",
     "the Hellinger affinity is clamped to 1"),
    (DIV, "return min(max(mass, 0.0), 1.0)", "return max(mass, 0.0)",
     "an event's mass is clamped to 1"),
    (ORACLE, "return min(max(sums), 1.0)", "return max(sums)",
     "the subset oracle is clamped to 1, as TV is"),
    (DIST, "ref() if power == n and key == base.support else None",
     "ref() if key == base.support else None",
     "a product lends its labels only to a product of the same power"),
    (DIST, "(base.support, n, weakref.ref(product))", "(base.support, n, lambda: product)",
     "the shared-labels entry must not keep a dropped product alive"),
    (DIST, "if 0.0 in probs:", "if False:",
     "a dict key merges -0.0 with 0.0, so a base holding a zero multiplies per atom"),
    (VERIFY, "if escaped == 0.0:", "if True:",
     "E_p[V] = TV holds only when q puts no mass outside p's support"),
    (VERIFY, "[(a > b) - (a < b) for a, b in zip(pw, qw)]",
     "[(a < b) - (a > b) for a, b in zip(pw, qw)]",
     "the IPM identity's supremum is reached at sign(p - q), not at its negation"),
    (VERIFY, "else 0.0 - max(residuals)", "else -max(residuals)",
     "an exact BH split has margin 0.0, not -0.0"),
    (VERIFY, "0.0 - abs(0.5 * gap - tv)", "-abs(0.5 * gap - tv)",
     "an exact IPM identity has margin 0.0, not -0.0"),
    (VERIFY, "lower[abs(p - q)]", "lower[p - q]",
     "an inverse grid row looks its curve up by TV, |p - q|"),
]


def run_tier1(folder: Path) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(folder / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=folder, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def copy_tree(folder: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, folder / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", folder / "pyproject.toml")


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        code = run_tier1(clean)
        print(f"{'passes' if code == 0 else 'FAILS'}  the unmutated copy (exit {code})")
        if code != 0:
            return 1
        for i, (file, old, new, why) in enumerate(MUTANTS, 1):
            folder = Path(tmp) / f"m{i}"
            copy_tree(folder)
            path = folder / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"STALE    {i:2}  {file}: old text found {text.count(old)} times: {old!r}")
                bad += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            code = run_tier1(folder)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
            print(f"{verdict:8} {i:2}  {file}: {why}", flush=True)
            bad += code != 1
            shutil.rmtree(folder)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
