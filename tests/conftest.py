"""Shared test helpers: deterministic random networks and bundled fixtures."""

from __future__ import annotations

import json
from importlib.resources import files

import numpy as np
import pytest

from magres import ResistanceNetwork, bundled_structure


def random_connected_network(rng: np.random.Generator, n: int) -> ResistanceNetwork:
    """Random connected network: a random spanning tree plus extra edges."""
    edges = {}
    order = rng.permutation(n)
    for k in range(1, n):
        u = int(order[k])
        v = int(order[int(rng.integers(k))])
        edges[(min(u, v), max(u, v))] = float(rng.uniform(0.1, 10.0))
    extra = int(rng.integers(0, max(1, n)))
    for _ in range(extra):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        edges.setdefault((min(u, v), max(u, v)), float(rng.uniform(0.1, 10.0)))
    return ResistanceNetwork.from_edges(n, [(u, v, c) for (u, v), c in edges.items()])


def structure_data(name: str) -> dict:
    """Parsed JSON of the bundled structure file ``magres.structures/<name>.json``."""
    text = files("magres.structures").joinpath(f"{name}.json").read_text(encoding="utf-8")
    return json.loads(text)


@pytest.fixture(scope="session")
def interval():
    return bundled_structure("interval")


@pytest.fixture(scope="session")
def circle():
    return bundled_structure("circle")


@pytest.fixture(scope="session")
def gasket():
    return bundled_structure("gasket")
