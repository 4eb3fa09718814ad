"""One rule per argument kind: the entries below had no refusal test.

Each case is one call with one bad argument: an integer given as a bool, a
float or a string, a real number given as a bool, or a mask over another
vertex count than the graph's. It must raise the rule's exception, with a
message that opens with the argument's name.
"""

import re

import pytest

from pathdecomp import (
    DecompositionParams,
    RngStream,
    TexpParams,
    VertexMask,
    ball,
    beta_bound,
    ceil_log2,
    components,
    derive_seed,
    farthest,
    gen_grid,
    gen_ktree,
    sssp,
    tree_centroid_find,
)
from pathdecomp.verifier import threatener_bound

GRID = gen_grid(4, 4)     # 16 vertices
PATH = gen_grid(1, 16)    # a tree of 16 vertices


def mask_over(n):
    return VertexMask(n, range(min(n, 16)))


CASES = [
    ("rows", TypeError, lambda: gen_grid(True, 3)),
    ("cols", TypeError, lambda: gen_grid(3, 3.0)),
    ("seed", TypeError, lambda: gen_grid(3, 3, "uniform", 1.5)),
    ("k", TypeError, lambda: gen_ktree(10, True)),
    ("n", TypeError, lambda: gen_ktree(10.0, 2)),
    ("seed", TypeError, lambda: RngStream("7")),
    ("seed", TypeError, lambda: RngStream(1).rekey(2.0)),
    ("index", TypeError, lambda: derive_seed(1, 2.9)),
    ("master", TypeError, lambda: derive_seed(True, 2)),
    ("k", TypeError, lambda: RngStream(1).uniforms(2.7)),
    ("k", TypeError, lambda: RngStream(1).permutation(3.0)),
    ("lo", TypeError, lambda: TexpParams(1.0, True, 2.0)),
    ("n", TypeError, lambda: ceil_log2(4.5)),
    ("p_eff", TypeError, lambda: beta_bound(True, 16)),
    ("p_eff", TypeError, lambda: threatener_bound(2.5, 16)),
    ("n", TypeError, lambda: DecompositionParams.for_graph(2.0, 1, 1, 16.0)),
    ("n", TypeError, lambda: DecompositionParams.for_baseline(2.0, 1, True)),
    ("n", TypeError, lambda: VertexMask(16.0, [0])),
    ("radius", TypeError, lambda: ball(GRID, VertexMask.full(16), 0, True)),
    ("mask", ValueError, lambda: tree_centroid_find(PATH, mask_over(9))),
    *[("mask", ValueError, call)
      for n in (9, 17)
      for call in (lambda n=n: sssp(GRID, mask_over(n), 0),
                   lambda n=n: ball(GRID, mask_over(n), 0, 1.0),
                   lambda n=n: components(GRID, mask_over(n)),
                   lambda n=n: farthest(GRID, mask_over(n), 0))],
]


@pytest.mark.parametrize("name,error,call", CASES,
                         ids=[f"{i}-{name}" for i, (name, _, _) in enumerate(CASES)])
def test_bad_argument_refused_by_name(name, error, call):
    with pytest.raises(error, match=f"^{re.escape(name)} ") as info:
        call()
    assert type(info.value) is error  # not a subclass, such as GraphError
