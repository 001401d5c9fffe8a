"""Deterministic CSV curve data for the four standard bound plots.

Each figure is a uniform abscissa grid plus one column per curve, evaluated
through the exact same code paths as the bound evaluations. Values are
unclamped (the pinsker curve happily exceeds 1). Floats are written with
repr, the shortest round-trip decimal form (+inf is "inf"), so files are
byte-stable across runs and platforms.
"""

from __future__ import annotations

import enum
import os
import tempfile

from .bounds import BoundId, forward_value, inverse_value
from .errors import _integer


class FigureId(enum.Enum):
    FIG_PINSKER = "fig_pinsker"  # pinsker against the trivial bound
    FIG_FORWARD = "fig_forward"  # the forward bound family
    FIG_INVERSE = "fig_inverse"  # the inverse (lower bound on KL) family
    FIG_WEAK = "fig_weak"  # the weak bh variant against its betters


KL_RANGE = (0.0, 5.0)
TV_RANGE = (0.0, 1.0)

# Per figure: its abscissa and curve columns.
_FIGURES = {
    FigureId.FIG_PINSKER: ("kl", (BoundId.TRIVIAL, BoundId.PINSKER)),
    FigureId.FIG_FORWARD: (
        "kl", (BoundId.TRIVIAL, BoundId.PINSKER, BoundId.BH, BoundId.TSYBAKOV)
    ),
    FigureId.FIG_INVERSE: ("tv", (BoundId.PINSKER, BoundId.BH, BoundId.TSYBAKOV)),
    FigureId.FIG_WEAK: (
        "kl", (BoundId.TRIVIAL, BoundId.PINSKER, BoundId.BH, BoundId.WEAK_BH)
    ),
}
_AXES = {"kl": (KL_RANGE, forward_value), "tv": (TV_RANGE, inverse_value)}


def figure_header(figure: FigureId) -> list[str]:
    axis, columns = _FIGURES[figure]
    return [axis] + [b.value for b in columns]


def figure_rows(figure: FigureId, points: int) -> list[list[float]]:
    """Curve values on a uniform grid of ``points`` abscissas (inclusive of
    both range endpoints)."""
    points = _integer("points", points, 2)
    axis, columns = _FIGURES[figure]
    (lo, hi), value = _AXES[axis]
    rows = []
    for i in range(points):
        x = lo + (hi - lo) * i / (points - 1)
        rows.append([x] + [value(bound, x) for bound in columns])
    return rows


def render_figure_csv(figure: FigureId, points: int) -> str:
    lines = [",".join(figure_header(figure))]
    for row in figure_rows(figure, points):
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def write_figure_csv(figure: FigureId, points: int, path) -> None:
    """Emit the figure to ``path`` atomically (temp file, then rename).

    An operating-system error names ``path``, not the temp file, so its
    message is the same on every run."""
    text = render_figure_csv(figure, points)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
