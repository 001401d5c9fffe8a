"""Finite discrete probability distributions.

A distribution is an ordered list of labelled atoms with nonnegative weights
summing to 1. Zero-weight atoms are kept, never pruned: support mismatch
between two distributions must stay observable downstream (it is what makes a
KL divergence infinite).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat

from .errors import (
    DuplicateLabelError,
    EmptySupportError,
    InvalidLabelError,
    NegativeWeightError,
    SumToleranceError,
    TooLargeError,
    ValidationError,
    _integer,
    _unit,
)

#: Absolute tolerance on the weight sum at construction time.
SUM_TOLERANCE = 1e-9

#: Separator joining component labels of a product atom. Forbidden in user
#: labels so that product labels flatten unambiguously.
LABEL_SEPARATOR = "·"  # "·"

#: Largest number of atoms an explicit product distribution may have.
MAX_PRODUCT_ATOMS = 2**20


@dataclass(frozen=True, slots=True)
class Distribution:
    """Immutable finite discrete distribution.

    ``support`` holds pairwise-distinct atom labels; ``probs`` holds the
    aligned weights, each >= 0, summing to 1 within ``SUM_TOLERANCE``.
    Instances are safe to share across threads.
    """

    support: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if not self.support:
            raise EmptySupportError("support: must contain at least one atom")
        if len(self.support) != len(self.probs):
            raise ValidationError(
                f"probs: {len(self.probs)} weights for {len(self.support)} labels"
            )
        if not all(map(isinstance, self.support, repeat(str))):
            for i, label in enumerate(self.support):
                if not isinstance(label, str):
                    raise InvalidLabelError(f"support[{i}]: labels must be strings")
        if len(set(self.support)) != len(self.support):
            seen = set()
            for label in self.support:
                if label in seen:
                    raise DuplicateLabelError(f"support: duplicate label {label!r}")
                seen.add(label)
        _check_weights(self.probs)
        total = _weight_sum(self.probs)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise SumToleranceError(total, SUM_TOLERANCE)

    def __len__(self) -> int:
        return len(self.support)


def _check_weights(probs) -> None:
    # Scan at C speed; only a failing scan walks the weights in Python to
    # name the first offending index.
    if (
        all(map(isinstance, probs, repeat(float)))
        and all(map(math.isfinite, probs))
        and min(probs) >= 0.0
    ):
        return
    for i, w in enumerate(probs):
        if not isinstance(w, float) or not math.isfinite(w):
            raise NegativeWeightError(f"probs[{i}]: weight {w!r} is not a finite number")
        if w < 0.0:
            raise NegativeWeightError(f"probs[{i}]: negative weight {w!r}")


def _weight_sum(probs) -> float:
    # fsum raises on an exact sum beyond the largest double.
    try:
        return math.fsum(probs)
    except OverflowError:
        raise SumToleranceError(math.inf, SUM_TOLERANCE) from None


def _float_weights(weights: tuple) -> list[float]:
    try:
        return [float(w) for w in weights]
    except OverflowError:
        raise NegativeWeightError("weights: a weight is too large for a float") from None
    except (TypeError, ValueError):
        for i, w in enumerate(weights):
            try:
                float(w)
            except (TypeError, ValueError):
                raise NegativeWeightError(
                    f"weights[{i}]: weight {w!r} is not a finite number"
                ) from None
        raise


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def new_distribution(
    weights,
    labels=None,
    renormalize: bool = False,
) -> Distribution:
    """Build a distribution from raw weights.

    Each weight is converted with ``float()``; one that ``float()`` refuses,
    or that is too large for a float, raises ``NegativeWeightError``, as does
    a weight that is not finite or is negative. With ``renormalize`` each
    weight is divided by the total, otherwise the total must already be
    within ``SUM_TOLERANCE`` of 1. Labels default to "0", "1", ... and may
    not contain the reserved product separator. Zero weights are retained.
    Every other check is the ``Distribution`` constructor's.
    """
    ws = _float_weights(tuple(weights))
    labs = _default_labels(len(ws)) if labels is None else tuple(labels)
    for i, label in enumerate(labs):
        if isinstance(label, str) and LABEL_SEPARATOR in label:
            raise InvalidLabelError(
                f"labels[{i}]: {label!r} contains the reserved separator "
                f"{LABEL_SEPARATOR!r}"
            )
    if renormalize and ws:
        _check_weights(ws)
        total = _weight_sum(ws)
        if total <= 0.0:
            raise SumToleranceError(total, SUM_TOLERANCE)
        ws = [w / total for w in ws]
    return Distribution(labs, tuple(ws))


def bernoulli(p: float) -> Distribution:
    """Two-atom distribution with weight ``p`` on label "1" and ``1 - p`` on
    label "0". Boundary values keep their zero atom."""
    p = _unit("p", p)
    return Distribution(("1", "0"), (p, 1.0 - p))


@dataclass(frozen=True, slots=True)
class ProductSpec:
    """``power`` independent copies of ``base``."""

    base: Distribution
    power: int

    def __post_init__(self):
        object.__setattr__(self, "power", _integer("power", self.power, 1))


def tensor_power(spec: ProductSpec) -> Distribution:
    """Materialise the product distribution of ``spec.power`` independent
    copies of ``spec.base``.

    Atom labels are the component labels joined by the reserved separator;
    atom weights are products of component weights. Refuses supports larger
    than ``MAX_PRODUCT_ATOMS``; divergences of larger powers should be
    obtained through KL additivity instead of materialisation.
    """
    base, n = spec.base, spec.power
    k = len(base.support)
    # k^n for n up to 21 is exact, and any k >= 2 is past the cap by then.
    if k ** min(n, MAX_PRODUCT_ATOMS.bit_length()) > MAX_PRODUCT_ATOMS:
        raise TooLargeError(
            f"power: {k}^{n} atoms exceed the cap of {MAX_PRODUCT_ATOMS}; "
            "use KL additivity instead of materialising"
        )
    # Extend the previous level by one factor at a time. Each weight is
    # still the left-to-right product w0 * w1 * ... of its components, so it
    # is bit-identical to math.prod over the combination.
    suffixes = [LABEL_SEPARATOR + b for b in base.support]
    labels, weights = base.support, base.probs
    for _ in range(n - 1):
        labels = [a + s for a in labels for s in suffixes]
        weights = [x * y for x in weights for y in base.probs]
    return Distribution(tuple(labels), tuple(weights))


# ---------------------------------------------------------------------------
# File format: JSON object with "probs" (required) and "support" (optional).
# Emission relies on repr-based shortest round-trip floats, so a dump/load
# cycle reproduces weights bit-exactly.
# ---------------------------------------------------------------------------


def from_json_dict(obj, renormalize: bool = False) -> Distribution:
    if not isinstance(obj, dict):
        raise ValidationError("distribution file: top level must be a JSON object")
    if "probs" not in obj:
        raise ValidationError('probs: missing required key "probs"')
    probs = obj["probs"]
    if not isinstance(probs, list):
        raise ValidationError("probs: must be an array of numbers")
    for i, w in enumerate(probs):
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise ValidationError(f"probs[{i}]: {w!r} is not a number")
    support = obj.get("support")
    if support is not None and not isinstance(support, list):
        raise ValidationError("support: must be an array of strings")
    return new_distribution(probs, support, renormalize=renormalize)


def to_json_dict(dist: Distribution) -> dict:
    return {"support": list(dist.support), "probs": list(dist.probs)}


def loads_distribution(text: str, renormalize: bool = False) -> Distribution:
    try:
        obj = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal beyond int's digit limit.
        raise ValidationError(f"distribution file: invalid JSON ({exc})") from exc
    except RecursionError:
        raise ValidationError("distribution file: JSON nested too deeply") from None
    return from_json_dict(obj, renormalize=renormalize)


def dumps_distribution(dist: Distribution) -> str:
    return json.dumps(to_json_dict(dist))


def load_distribution(path, renormalize: bool = False) -> Distribution:
    with open(path, encoding="utf-8") as fh:
        return loads_distribution(fh.read(), renormalize=renormalize)


def dump_distribution(dist: Distribution, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_distribution(dist))
        fh.write("\n")
