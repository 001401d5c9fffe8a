"""Shared test helpers."""

from __future__ import annotations

import os
import random

import pytest

import tvkl
from tvkl import Distribution, new_distribution
from tvkl.verify import _draw_distribution

pytest_plugins = ["pytester"]


@pytest.fixture(autouse=True, scope="session")
def child_pythonpath():
    """Child interpreters that the CLI tests start import the tvkl under
    test, whether it is installed or only on pytest's ``pythonpath``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(tvkl.__file__)),
                  prepend=os.pathsep)
        yield


def seeded_pairs(count, max_atoms, seed, min_atoms=2, concentrations=(1.0, 0.3, 3.0)):
    """Deterministic list of full-support distribution pairs on shared
    supports, with sizes spread over [min_atoms, max_atoms]."""
    rng = random.Random(seed)
    pairs = []
    for t in range(count):
        n = rng.randint(min_atoms, max_atoms)
        conc = concentrations[t % len(concentrations)]
        pairs.append(
            (_draw_distribution(rng, n, conc), _draw_distribution(rng, n, conc))
        )
    return pairs


def dist(*weights, renormalize=False) -> Distribution:
    return new_distribution(list(weights), renormalize=renormalize)
