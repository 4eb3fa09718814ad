"""Mutants of the carving seam, each caught by the semantic reference checks.

Each case patches one builder in `decomposer` (the seam that `carve`,
`baseline_decompose` and `estimate_padding` all read) and requires the
mutant to fail both reference checks of test_carving_reference.py: the
partitions against the sequential carving loop, and the padding successes
against carvings of that loop. A mutant that fails both shows that carving
and padding read one source. The golden digests are not consulted.
"""

from dataclasses import replace

import numpy as np
import pytest

import pathdecomp as pd
from pathdecomp import decomposer

from test_carving_reference import (
    Reference,
    assert_padding_matches_reference,
    assert_partitions_match_reference,
    spread_weights,
)

SEEDS = range(4)
TRIALS, SEED = 30, 97


def reversed_order(build):
    """The paper scheme carving its sequence last record first: the rank the
    draw gives record i becomes n_records - 1 - i."""
    def patched(*args):
        carving = build(*args)
        draw = carving.draw

        def mutant(rng):
            radius, rank = draw(rng)
            return radius, len(rank) - 1 - rank

        return replace(carving, draw=mutant)
    return patched


def permutation_as_rank(build):
    """The baseline ranking each vertex by the permutation itself, not by its
    inverse: vertex v gets rank order[v] instead of its position in order."""
    def patched(*args):
        carving = build(*args)
        draw = carving.draw

        def mutant(rng):
            radius, rank = draw(rng)
            order = np.empty_like(rank)
            order[rank] = np.arange(len(rank))
            return radius, order

        return replace(carving, draw=mutant)
    return patched


@pytest.fixture(scope="module")
def ref():
    g = spread_weights(pd.gen_grid(16, 16), 1)
    delta = pd.weighted_diameter(g) / 4
    return Reference(g, delta, pd.choose_centers(g, delta))


CHECKS = {
    "partition": lambda ref, scheme: assert_partitions_match_reference(ref, scheme, SEEDS,
                                                                       "mutant"),
    "padding": lambda ref, scheme: assert_padding_matches_reference(ref, scheme, TRIALS, SEED,
                                                                    "mutant"),
}
MUTANTS = {
    "reversed carving order": ("paper", "_sequence_carving", reversed_order),
    "permutation as rank": ("baseline", "_all_vertices_carving", permutation_as_rank),
}


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_fails_reference_check(ref, monkeypatch, mutant, check):
    scheme, name, mutate = MUTANTS[mutant]
    CHECKS[check](ref, scheme)  # the unpatched code passes
    monkeypatch.setattr(decomposer, name, mutate(getattr(decomposer, name)))
    with pytest.raises(AssertionError):
        CHECKS[check](ref, scheme)
