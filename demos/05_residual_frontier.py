#!/usr/bin/env python3
"""What the two cycles leave behind, and the hunt for a third disjoint one.

Whether LTQ_n has more than two edge-disjoint Hamiltonian cycles is not
settled here; this script only looks at what THIS pair leaves behind. A
"refuted" verdict means the residual of this pair holds no Hamiltonian
cycle: the search covered its whole space, or, before expanding a node, it
found a node of degree < 2 or a disconnected residual. It says nothing about
other pairs or about LTQ_n. "budget exhausted" proves nothing by itself; the
closing lines show why the residual is disconnected at every dim >= 5.
"""

import time

from ltqcube import edh_cycles, residual_analysis

print("Removing both cycles leaves a (dim-4)-regular residual graph:")
for dim in range(4, 9):
    analysis = residual_analysis(dim, edh_cycles(dim))
    total = dim * 2 ** (dim - 1)
    print(f"  dim {dim}: {len(analysis.unused_edges):4d} of {total:5d} edges unused, "
          f"degree histogram {analysis.degree_histogram}")

print("\ndim 4 uses every edge and dim 5 leaves a perfect matching,")
print("so neither can hide a third cycle. dim 6 leaves a 2-regular graph:")
print("a third Hamiltonian cycle exists there iff the residual is one 64-cycle.")

for dim, budget in ((5, 10_000), (6, 1_000_000), (7, 2_000_000), (8, 400_000)):
    start = time.perf_counter()
    analysis = residual_analysis(dim, edh_cycles(dim), search_budget=budget)
    elapsed = time.perf_counter() - start
    print(f"  dim {dim}: {analysis.search_verdict} after {analysis.search_expansions:,} "
          f"of {budget:,} expansions ({elapsed:.2f}s)")
    if analysis.third_cycle_found is not None:
        print("    " + " -> ".join(str(n) for n in analysis.third_cycle_found.nodes))

print("\ndims 5-8 are refuted for this pair before any expansion: dim 5 leaves")
print("nodes of degree 1, and from dim 6 on the residual is disconnected. The")
print("pair uses every edge whose labels differ highest in bit 0, 2 or 3, so no")
print("residual edge changes bit 0 or bit 2 of a label:")
for dim in range(5, 11):
    unused = residual_analysis(dim, edh_cycles(dim)).unused_edges
    kept = all((edge.a.value ^ edge.b.value) & 0b101 == 0 for edge in unused)
    print(f"  dim {dim:2d}: bits 0 and 2 constant along every residual edge: {kept}")
print("So the residual splits into at least four components, one per value of")
print("those two bits, and holds no Hamiltonian cycle at any dim >= 5: every")
print("search on it is refuted with 0 expansions, whatever its budget.")
