"""Closed-form and cross-level oracles: spectral decimation, level-free resistance, exact traces."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from magres import (
    ResistanceNetwork,
    bundled_structure,
    conductance_deviation,
    embed_indices,
    refine,
    resistance_matrix,
    spectrum,
    trace_to,
)

#: Spectral decimation matches a level-m value to a level-(m-1) value within this bound.
DECIMATION_TOL = 1e-8


def decimation_spectrum(level: int) -> np.ndarray:
    """Neumann gasket spectrum of the zero field, divided by ``6 * 5**level``."""
    return spectrum(bundled_structure("gasket"), level, field="zero").eigenvalues / (6.0 * 5.0**level)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_gasket_spectral_decimation(level):
    # with the structure measure, mu -> mu (5 - 4 mu) maps 3^m level-m values
    # onto the level-(m-1) spectrum, and every level-(m-1) value is reached
    mu = decimation_spectrum(level)
    coarse = decimation_spectrum(level - 1)
    gaps = np.abs((mu * (5.0 - 4.0 * mu))[:, None] - coarse[None, :])
    hits = np.min(gaps, axis=1) <= DECIMATION_TOL
    assert int(np.sum(hits)) == 3**level
    assert np.all(np.min(gaps[hits], axis=0) <= DECIMATION_TOL)


@pytest.mark.parametrize("name", ["gasket", "circle", "interval"])
@pytest.mark.parametrize("level", [2, 3, 4])
def test_resistance_metric_is_level_free(name, level):
    # compatibility: R on V_n is the same whether computed at level n or n + 1
    s = bundled_structure(name)
    coarse, fine = refine(s, level), refine(s, level + 1)
    idx = embed_indices(fine, coarse)
    R = resistance_matrix(coarse.net)
    gap = float(np.max(np.abs(resistance_matrix(fine.net)[np.ix_(idx, idx)] - R)))
    assert gap <= 1e-11 * max(1.0, float(np.max(R)))


#: Exact level-n edge conductance of each structure: the base conductance 1 over r^n.
EXACT_CONDUCTANCE = {"gasket": Fraction(5, 3), "interval": Fraction(2)}


def exact_conductances(ref) -> dict:
    """Level-n conductances as Fractions, keyed by sorted endpoint labels."""
    c = EXACT_CONDUCTANCE[ref.structure.name] ** ref.level
    assert np.all(ref.net.conductances == float(c))
    return {
        tuple(sorted((ref.names[int(i)], ref.names[int(j)]))): c
        for i, j in zip(ref.net.tails, ref.net.heads)
    }


def fraction_trace(ref, keep) -> dict:
    """Schur complement of the exact Laplacian onto ``keep``, by Gaussian elimination in Fractions.

    Returns the traced conductances ``-S_xy`` of every pair with a nonzero
    one, keyed by sorted endpoint labels.
    """
    n = ref.net.vertex_count
    L = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), c in exact_conductances(ref).items():
        i, j = ref.name_to_index[a], ref.name_to_index[b]
        L[i][j] -= c
        L[j][i] -= c
        L[i][i] += c
        L[j][j] += c
    keep = sorted(int(v) for v in keep)
    alive = set(range(n))
    for p in sorted(set(range(n)) - set(keep)):
        alive.discard(p)
        pivot = L[p][p]
        for i in alive:
            if L[i][p]:
                factor = L[i][p] / pivot
                for j in alive:
                    if L[p][j]:
                        L[i][j] -= factor * L[p][j]
    return {
        tuple(sorted((ref.names[i], ref.names[j]))): -L[i][j]
        for a, i in enumerate(keep)
        for j in keep[a + 1:]
        if L[i][j]
    }


@pytest.mark.parametrize("name", ["gasket", "interval"])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_exact_trace_is_the_coarser_network(name, level):
    s = bundled_structure(name)
    fine, coarse = refine(s, level), refine(s, level - 1)
    keep = embed_indices(fine, coarse)
    exact = fraction_trace(fine, keep)
    assert exact == exact_conductances(coarse)  # exactly, in rational arithmetic

    labels = sorted(exact_conductances(coarse).keys())
    names = sorted({x for pair in labels for x in pair})
    position = {x: k for k, x in enumerate(names)}
    exact_net = ResistanceNetwork.from_edges(
        len(names), [(position[a], position[b], float(exact[(a, b)])) for a, b in labels], tuple(names)
    )
    assert conductance_deviation(trace_to(fine.net, keep), exact_net) <= 1e-13
