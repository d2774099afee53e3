#!/usr/bin/env python3
"""Build the two edge-disjoint Hamiltonian cycles and watch the induction work."""

from ltqcube import (
    edh_cycles,
    edh_paths,
    expected_endpoints,
    verify_pair,
)

print("The dimension-4 seed: two explicit edge-disjoint Hamiltonian paths.")
seed = edh_paths(4)
for tag, member in zip(("first ", "second"), seed.members):
    print(f"  {tag}: " + " -> ".join(str(n) for n in member.nodes))

print("\nEach doubling step copies the previous path into both halves and")
print("joins the copies through a twist edge, reversing the upper one.")
print("End nodes follow a fixed pattern; the pattern itself is a twist edge:")
for dim in range(4, 10):
    start_f, end_f, start_s, end_s = expected_endpoints(dim)
    pair = edh_paths(dim)
    ok = (pair.first.start, pair.first.end, pair.second.start, pair.second.end) == (
        start_f, end_f, start_s, end_s,
    )
    print(f"  dim {dim}: {start_f} -> {end_f}   and   {start_s} -> {end_s}   (matches: {ok})")

print("\nClosing both paths yields two edge-disjoint Hamiltonian cycles.")
print("Full checker report at dimension 6:")
pair = edh_cycles(6)
report = verify_pair(6, pair.first, pair.second, "cycles")
for line in report.lines():
    print("  " + line)

print("\nThe lower half of each dimension-n path is exactly the dimension-(n-1) path:")
below = edh_paths(7)
above = edh_paths(8)
half = 1 << 7
same = [n.value for n in above.first.nodes[:half]] == [n.value for n in below.first.nodes]
print(f"  dim 8 first path, positions 0..{half - 1}, equals the dim-7 first path: {same}")
