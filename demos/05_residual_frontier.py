#!/usr/bin/env python3
"""What the two cycles leave behind, and the hunt for a third disjoint one.

Whether more than two edge-disjoint Hamiltonian cycles exist (for dim >= 6)
is open; this script only records what a bounded search finds for THIS
pair's residual. A "refuted" verdict means the search covered its whole
space: the residual of this pair holds no Hamiltonian cycle. It says nothing
about other pairs or about LTQ_n. "budget exhausted" proves nothing.
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

print("\ndims 5-7 are refuted for this pair. dim 8 (4-regular, 256 nodes) is the")
print("first open case; raise the budget to explore further, e.g.:")
print("  residual_analysis(8, edh_cycles(8), search_budget=10_000_000)")
