"""Decompose a graph and verify every guarantee.

decompose() is deterministic in (graph, delta, seed): centers are chosen
deterministically, then each center claims the unclaimed part of a random
ball in its own subgraph. The verifier then certifies the partition exactly
(validity, diameter, threateners, depth) and statistically (padding).
"""

import numpy as np

import pathdecomp as pd

g = pd.gen_grid(16, 16)
delta = 7.5
part = pd.decompose(g, delta, seed=42)
sizes = sorted((len(c.vertices) for c in part.clusters), reverse=True)
print(f"16x16 grid at delta={delta}: {len(part)} clusters, sizes {sizes[:8]}...")

print("partition valid: ", pd.check_partition(g, part) or "ok")
print("diameters <= 4*delta/5:", pd.check_cluster_diameters(g, part, delta) or "ok")

seq = pd.choose_centers(g, delta)
params = pd.DecompositionParams.for_graph(delta, 42, seq.p_eff, g.n)
print(f"params: p_eff={params.p_eff} K={params.K} lam={params.lam:.4f} "
      f"beta={pd.beta_bound(params.p_eff, g.n):.1f}")
print("recursion depth:", pd.check_recursion_depth(seq) or "ok")

threat = pd.threatener_report(g, seq, params, gamma=1 / 100)
print(f"threateners: worst {threat.worst()} vs bound {threat.bound} "
      f"-> {'ok' if threat.all_ok() else 'VIOLATION'}")

# padding, trivial regime: gamma*delta < 1 on a unit grid, balls are single
# vertices, so the padded event is sure
rep = pd.estimate_padding(g, delta, trials=2000, seed=7)
print(f"\npadding at delta={delta}: all pass = {rep.all_pass()} "
      f"(floors down to {min(r.floor for r in rep.records):.3f})")

# padding, nontrivial regime: a long strip with delta large enough that
# gamma*delta crosses whole edges, so balls really do get cut sometimes
strip = pd.gen_grid(2, 120)
big_delta = 100.0
rep2 = pd.estimate_padding(strip, big_delta, gammas=(1 / 400, 1 / 100),
                           trials=3000, seed=7)
worst = min(rep2.records, key=lambda r: r.empirical)
print(f"2x120 strip at delta={big_delta}: worst vertex {worst.vertex} at "
      f"gamma={worst.gamma}: empirical {worst.empirical:.3f}, "
      f"wilson {worst.wilson_lb:.3f}, floor {worst.floor:.3f} "
      f"-> all pass = {rep2.all_pass()}")

# determinism: same triple, same partition. The graph keeps its latest center
# sequence, so a fresh copy of the grid makes decompose choose centers anew.
again = pd.decompose(pd.gen_grid(16, 16), delta, seed=42)
print(f"\nsame (graph, delta, seed) twice -> identical partitions: "
      f"{np.array_equal(part.cluster_of, again.cluster_of)}")
