#!/usr/bin/env python3
"""All-to-all broadcast on rings: one ring, two disjoint rings, two clashing ones."""

from ltqcube import (
    edges,
    edh_cycles,
    simulate_ring_broadcast,
    simulate_schedules,
    simulate_split_broadcast,
)


def show(title, report, dim):
    loads = sorted(set(report.per_edge_load.values()))
    print(f"  {title}")
    print(f"    steps: {report.steps}")
    print(f"    edges used: {len(report.per_edge_load)} of {len(edges(dim))}, "
          f"load per used edge: {loads}")
    print(f"    max concurrent per edge: {report.max_concurrent_per_edge}, "
          f"contention events: {report.contention_events}")
    print(f"    all messages delivered: {report.completed}")


print("A single Hamiltonian ring at dimension 5 (32 nodes, 31 steps):")
pair = edh_cycles(5)
show("single ring", simulate_ring_broadcast(pair.first), 5)

print("\nSplitting the traffic across both edge-disjoint rings:")
show("split across the pair", simulate_split_broadcast(pair), 5)

print("\nWhat contention would look like: run the SAME ring twice, concurrently.")
show("same ring twice", simulate_schedules([pair.first, pair.first]), 5)

print("\nZero contention holds at every dimension the pair exists:")
for dim in range(4, 11):
    report = simulate_split_broadcast(edh_cycles(dim))
    print(f"  dim {dim:2d}: steps {report.steps:5d}, contention {report.contention_events}, "
          f"delivered {report.completed}")
