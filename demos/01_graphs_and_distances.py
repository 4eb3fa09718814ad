"""Graphs, masks, and residual distances.

The whole library runs on one substrate: an immutable weighted graph plus a
"mask" of still-alive vertices. Deleting vertices never mutates the graph; it
just shrinks the mask, and distances are recomputed inside what is left.
"""

import pathdecomp as pd

# an 8x8 unit grid: 64 vertices numbered row-major, 112 edges
g = pd.gen_grid(8, 8)
print(g)

full = pd.VertexMask.full(g.n)
sp = pd.sssp(g, full, 0)
print(f"corner to corner: d(0, 63) = {sp.dist[63]}")
print(f"one shortest path: {sp.path_to(63, g).vertices}")

# closed balls: vertices within a radius
b = pd.ball(g, full, 0, 3.0)
print(f"|B(0, 3)| = {len(b)} vertices: {sorted(b)}")

# masking out a column disconnects the grid
column = [1, 9, 17, 25, 33, 41, 49, 57]
masked = full.without(column)
comps = pd.components(g, masked)
print(f"after deleting column 1: {len(comps)} components of sizes "
      f"{[len(c) for c in comps]}")

# distances can only grow when vertices are deleted
sp_masked = pd.sssp(g, masked, 0)
grew = sum(1 for v in masked.alive if sp_masked.dist[v] > sp.dist[v])
print(f"{grew} vertices moved farther from vertex 0 under the mask")

# the farthest vertex from a source: the first half of the separator finder's
# double sweep
v, d = pd.farthest(g, full, 27)
print(f"farthest from 27: vertex {v} at distance {d}")

# round-trip through the text format: header 'n m', then 'u v w' lines
pd.dump_graph(g, "/tmp/demo_grid.txt")
again = pd.load_graph("/tmp/demo_grid.txt")
print(f"file round-trip: n={again.n}, m={len(again.edges)}")
