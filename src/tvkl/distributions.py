"""Finite discrete probability distributions.

A distribution is an ordered list of labelled atoms with nonnegative weights
summing to 1. Zero-weight atoms are kept, never pruned: support mismatch
between two distributions must stay observable downstream (it is what makes a
KL divergence infinite).
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from itertools import chain, repeat
from operator import truediv

from .errors import (
    DuplicateLabelError,
    EmptySupportError,
    InvalidLabelError,
    NegativeWeightError,
    SumToleranceError,
    TooLargeError,
    ValidationError,
    _integer,
    _tuple,
    _unit,
)

#: Absolute tolerance on the weight sum at construction time.
SUM_TOLERANCE = 1e-9

#: Separator joining component labels of a product atom. Forbidden in user
#: labels so that product labels flatten unambiguously.
LABEL_SEPARATOR = "·"  # "·"

#: Largest number of atoms an explicit product distribution may have.
MAX_PRODUCT_ATOMS = 2**20


class _AlignSlot:
    __slots__ = ("_align", "__weakref__")


@dataclass(frozen=True, slots=True)
class Distribution(_AlignSlot):
    """Immutable finite discrete distribution.

    ``support`` holds pairwise-distinct atom labels; ``probs`` holds the
    aligned weights, each >= 0, summing to 1 within ``SUM_TOLERANCE``. Both
    are read as tuples; a tuple is kept as it is, not copied. Instances are
    safe to share across threads: the one private slot, ``_align``, memoises
    this instance's alignment as the q of a pair (see ``divergence._aligned``),
    and it is written in one attribute store of a finished tuple. It is a
    slot of a base class, not a field, so it is outside ``dataclasses.fields``,
    ``asdict``, ``astuple`` and ``replace``, and takes no part in ``==``,
    ``hash``, ``repr`` or pickling. The base also admits weak references.
    """

    support: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        support, probs = _tuple("support", self.support), _tuple("probs", self.probs)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_align", None)
        if not support:
            raise EmptySupportError("support: must contain at least one atom")
        if len(support) != len(probs):
            raise ValidationError(f"probs: {len(probs)} weights for {len(support)} labels")
        try:
            "".join(support)  # refuses a label that is not a str, at C speed
        except TypeError:
            for i, label in enumerate(support):
                if not isinstance(label, str):
                    raise InvalidLabelError(f"support[{i}]: labels must be strings")
        if len(set(support)) != len(support):
            seen = set()
            for label in support:
                if label in seen:
                    raise DuplicateLabelError(f"support: duplicate label {label!r}")
                seen.add(label)
        total = _weight_total(probs)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise SumToleranceError(total, SUM_TOLERANCE)

    def __len__(self) -> int:
        return len(self.support)

    def __reduce__(self):
        # Pickle and copy the two public fields only, rebuilt with every check.
        return type(self), (self.support, self.probs)

    @classmethod
    def _trusted(cls, support: tuple, probs: tuple) -> Distribution:
        # An instance built without a check, for builders whose output is
        # valid by construction; each caller states why its output is.
        self = object.__new__(cls)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_align", None)
        return self


def _weight_total(probs) -> float:
    # One C-level scan a property: a finite fsum of floats rules out inf and
    # NaN, so min settles the sign. A failure walks them to name its index.
    if all(map(isinstance, probs, repeat(float))):
        try:  # fsum raises on inf - inf and on an exact sum past the largest double
            total = math.fsum(probs)
        except (OverflowError, ValueError):
            total = math.nan
        if math.isfinite(total) and min(probs) >= 0.0:
            return total
    for i, w in enumerate(probs):
        if not isinstance(w, float) or not math.isfinite(w):
            raise NegativeWeightError(f"probs[{i}]: weight {w!r} is not a finite number")
        if w < 0.0:
            raise NegativeWeightError(f"probs[{i}]: negative weight {w!r}")
    try:
        return math.fsum(probs)
    except OverflowError:
        raise SumToleranceError(math.inf, SUM_TOLERANCE) from None


def _float_weights(weights: tuple) -> tuple[float, ...]:
    try:
        return tuple(map(float, weights))
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
    ws = _float_weights(_tuple("weights", weights))
    labs = _default_labels(len(ws)) if labels is None else _tuple("labels", labels)
    try:  # the separator is one character, so it cannot straddle two labels
        clean = LABEL_SEPARATOR not in "".join(labs)
    except TypeError:  # a label that is not a str, refused by the constructor
        clean = False
    if not clean:
        for i, label in enumerate(labs):
            if isinstance(label, str) and LABEL_SEPARATOR in label:
                raise InvalidLabelError(f"labels[{i}]: {label!r} contains the reserved "
                                        f"separator {LABEL_SEPARATOR!r}")
    if renormalize and ws:
        total = _weight_total(ws)
        if total <= 0.0:
            raise SumToleranceError(total, SUM_TOLERANCE)
        ws = tuple(map(truediv, ws, repeat(total)))
    return Distribution(labs, ws)


def bernoulli(p: float) -> Distribution:
    """Two-atom distribution with weight ``p`` on label "1" and ``1 - p`` on
    label "0". Boundary values keep their zero atom."""
    p = _unit("p", p)
    # Valid by construction: p and 1 - p are floats in [0, 1] whose sum
    # rounds to within an ulp of 1.
    return Distribution._trusted(("1", "0"), (p, 1.0 - p))


@dataclass(frozen=True, slots=True)
class ProductSpec:
    """``power`` independent copies of ``base``."""

    base: Distribution
    power: int

    def __post_init__(self):
        object.__setattr__(self, "power", _integer("power", self.power, 1))


#: (base labels, power, weak reference to the product) of the last product
#: of power >= 2 built from a separator-free base.
_last_product = ((), 0, None)


def tensor_power(spec: ProductSpec) -> Distribution:
    """Materialise the product distribution of ``spec.power`` independent
    copies of ``spec.base``.

    Atom labels are the component labels joined by the reserved separator;
    atom weights are products of component weights, divided by their sum if
    a base within ``SUM_TOLERANCE`` drifts outside it at this power. Refuses
    supports larger than ``MAX_PRODUCT_ATOMS``; larger powers should use KL
    additivity instead of materialisation. While a product of equal base
    labels and power is alive, the new product shares its label tuple.
    Atoms whose weights agree but for the last factor share one float; a
    base holding a zero weight gives each atom its own, so that each zero
    keeps its sign. Weights divided by their sum are each their own float.
    """
    global _last_product
    base, n = spec.base, spec.power
    k = len(base.support)
    # k^n for n up to 21 is exact, and any k >= 2 is past the cap by then.
    if k ** min(n, MAX_PRODUCT_ATOMS.bit_length()) > MAX_PRODUCT_ATOMS:
        raise TooLargeError(
            f"power: {k}^{n} atoms exceed the cap of {MAX_PRODUCT_ATOMS}; "
            "use KL additivity instead of materialising"
        )
    # Labels depend only on the base's labels and the power, so a live
    # product of equal ones lends its tuple; the weak reference keeps no
    # product alive. Otherwise extend the previous level by one factor at a
    # time. Each weight is still the left-to-right product w0 * w1 * ... of
    # its components, so it is bit-identical to math.prod over the combination.
    key, power, ref = _last_product
    earlier = ref() if power == n and key == base.support else None
    if earlier is not None:
        labels = earlier.support
    elif k == 1:  # one atom: the levels do not grow, so join once
        labels = (LABEL_SEPARATOR.join(base.support * n),)
    else:
        suffixes = [LABEL_SEPARATOR + b for b in base.support]
        labels = base.support
        for _ in range(n - 1):
            labels = [a + s for a in labels for s in suffixes]
    # A level is kept as its distinct weights and each atom's index into
    # them: each distinct weight is multiplied by each base weight once, and
    # the last level chains one row of products per distinct weight before
    # it. A dict key merges -0.0 with 0.0, so a base holding a zero, which
    # may make both, multiplies per atom.
    probs = base.probs
    if 0.0 in probs:
        weights = probs
        for _ in range(n - 1):
            weights = [x * y for x in weights for y in probs]
    else:
        values, index = (1.0,), (0,)
        for _ in range(n - 1):
            seen = {}
            table = [[seen.setdefault(v * y, len(seen)) for y in probs] for v in values]
            values, index = list(seen), list(chain.from_iterable(map(table.__getitem__, index)))
        rows = [[v * y for y in probs] for v in values]
        weights = tuple(chain.from_iterable(map(rows.__getitem__, index)))
    total = math.fsum(weights)
    if abs(total - 1.0) > SUM_TOLERANCE:  # the base sums to S, the weights to S^n
        weights = [w / total for w in weights]
    # Valid by construction when no base label holds the reserved separator:
    # the joined labels are then distinct strings, and products of the
    # base's finite nonnegative weights are finite and nonnegative. A base
    # built directly may hold it, so its labels go through every check.
    if LABEL_SEPARATOR in "".join(base.support):
        return Distribution(tuple(labels), tuple(weights))
    product = Distribution._trusted(tuple(labels), tuple(weights))
    if n >= 2:
        _last_product = (base.support, n, weakref.ref(product))
    return product


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
    if not {int, float}.issuperset(map(type, probs)):  # a C-speed scan first
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
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"distribution file: not UTF-8 text ({exc})") from exc
    return loads_distribution(text, renormalize=renormalize)


def dump_distribution(dist: Distribution, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_distribution(dist))
        fh.write("\n")
