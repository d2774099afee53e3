#!/usr/bin/env python3
"""A tour of the locally twisted cube: labels, the twist rule, and counts."""

from ltqcube import (
    NodeLabel,
    edges,
    make_label,
    neighbors,
    neighbors_recursive,
)


def half(x):
    """Which (n-1)-dimensional half holds x: its leading bit."""
    return x.value >> (x.dim - 1)


def twist(x):
    """The one neighbor of x in the other half."""
    return next(y for y in neighbors(x) if half(y) != half(x))


print("The 2-dimensional cube is a plain four-cycle:")
for bits in ("00", "01", "10", "11"):
    x = make_label(2, bits)
    print(f"  {x} ~ {sorted(str(n) for n in neighbors(x))}")

print("\nFrom dimension 3 on, the two halves are joined by a twist edge.")
print("Flipping the leading bit also re-derives bit n-2 from bit 0:")
for bits in ("0011", "0000", "0110", "1001"):
    x = make_label(4, bits)
    print(f"  {x} twists to {twist(x)}   (half {half(x)} -> {half(twist(x))})")

print("\nClosed-form neighbors versus the literal recursive definition:")
x = make_label(4, "0011")
print(f"  closed form of {x}: {sorted(str(n) for n in neighbors(x))}")
print(f"  recursion    of {x}: {sorted(str(n) for n in neighbors_recursive(x))}")

mismatches = 0
for dim in range(2, 11):
    for v in range(1 << dim):
        lab = make_label(dim, format(v, f"0{dim}b"))
        if neighbors(lab) != neighbors_recursive(lab):
            mismatches += 1
print(f"  disagreements across all nodes of dims 2..10: {mismatches}")

print("\nAdjacent labels always differ in at most two successive bits:")
x = make_label(4, "0011")
for y in sorted(neighbors(x)):
    d = x.value ^ y.value
    print(f"  {x} vs {y}: xor {d:04b}, {'one bit' if d & (d - 1) == 0 else 'two successive bits'}")

print("\nSize bookkeeping (2^n nodes, n * 2^(n-1) edges, n-regular):")
for dim in range(2, 9):
    degrees = {len(neighbors(NodeLabel(dim, v))) for v in range(1 << dim)}
    print(f"  dim {dim}: {1 << dim:4d} nodes, {len(edges(dim)):5d} edges, degrees {degrees}")
