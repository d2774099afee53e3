"""Four bytes a node: a walk's values and edge masks live in `array("I")`,
and the checkers mark bytes instead of building a Python object per node."""

import copy
import gc
import pickle
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltqcube import AdjacencyError, Cycle, LabelFormatError, MAX_DIM, NodeLabel, OverlapError, Path
from ltqcube import edh_cycles, edh_paths
from ltqcube import topology, verify_pair
from ltqcube.verify import _distinct, _no_shared_step

MIB = 1 << 20


def traced(call):
    """(bytes `call()` leaves allocated, its peak above the start), traced
    from a collected heap; the result is kept alive until both are read."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return kept - start, peak - start


def test_every_label_and_mask_fits_four_bytes():
    assert MAX_DIM <= 32
    assert max(edh_cycles(8).first._masks()) < 1 << 8
    assert edh_cycles(8).first.values.itemsize == 4


class TestValues:
    @pytest.mark.parametrize("build", [edh_paths, edh_cycles])
    def test_a_read_only_view_of_four_byte_values(self, build):
        for walk in build(6).members:
            assert type(walk.values) is memoryview and walk.values.format == "I"
            assert walk.values.readonly and walk.values.itemsize == 4
            assert walk.values is walk.values and type(walk.values[0]) is int

    def test_item_assignment_is_refused(self):
        walk = Path.from_values(4, [0, 1, 3])
        with pytest.raises(TypeError):
            walk.values[0] = 2
        assert tuple(walk.values) == (0, 1, 3)

    def test_the_array_cannot_be_resized(self):
        # the view's buffer is immutable bytes, however the walk was made, so
        # nothing can change a pair's values in place after it was checked
        walk = Cycle.from_values(4, [0, 1, 3, 2])
        made = [walk, Path(walk.nodes), pickle.loads(pickle.dumps(walk)), copy.deepcopy(walk)]
        for pair in (edh_paths(5), edh_cycles(5)):
            made += pair.members
        for each in made:
            assert type(each.values.obj) is bytes and each.values.nbytes == len(each.values.obj)
            assert memoryview(each.values.obj).readonly
        assert len(walk) == 4

    def test_a_view_equals_no_tuple(self):
        walk = Path.from_values(4, [0, 1, 3])
        assert walk.values != (0, 1, 3) and tuple(walk.values) == (0, 1, 3)
        assert walk.values == Path.from_values(4, [0, 1, 3]).values

    def test_unpickled_and_copied_walks_hold_a_view_too(self):
        walk = edh_cycles(5).second
        back = pickle.loads(pickle.dumps(walk))
        assert type(back.values) is memoryview and back.values.format == "I"
        assert back == walk and hash(back) == hash(walk)


class TestUnpicklingValidates:
    """A pickled state loads through the checks of `from_values`: it raises
    what `from_values` raises on the same values, and a state that passes
    loads as a 4-byte array."""

    @staticmethod
    def unpickled(dim, values):
        """A walk unpickled from the state `(dim, values)`, as `pickle` writes it."""
        walk = edh_cycles(dim).first
        object.__setattr__(walk, "values", tuple(values))
        return pickle.loads(pickle.dumps(walk))

    def test_a_repeated_node_raises_overlap(self):
        values = list(edh_cycles(6).first.values)
        with pytest.raises(OverlapError, match="more than once"):
            self.unpickled(6, values[:-1] + values[:1])

    def test_a_step_that_is_no_edge_raises_adjacency_not_key_error(self):
        values = list(edh_cycles(6).first.values)
        values[1], values[2] = values[2], values[1]
        with pytest.raises(AdjacencyError, match="not adjacent"):
            self.unpickled(6, values)
        with pytest.raises(AdjacencyError):
            Cycle.from_values(6, values)

    @pytest.mark.parametrize("bad", [-1, 64, 1 << 32])
    def test_a_value_outside_the_cube_raises_label_format(self, bad):
        values = [bad if v == 63 else v for v in edh_cycles(6).first.values]
        with pytest.raises(LabelFormatError, match="out of range for dim 6"):
            self.unpickled(6, values)

    def test_a_walk_of_bools_loads_as_the_walk_of_ints(self):
        # a walk validated from bools before values were arrays pickled them as given
        cycle = edh_cycles(6).first
        back = self.unpickled(6, [{0: False, 1: True}.get(v, v) for v in cycle.values])
        assert type(back.values) is memoryview and back.values.format == "I"
        assert {type(v) for v in back.values} == {int}
        assert back == cycle and hash(back) == hash(cycle)
        assert len({back, cycle}) == 1


class TestBoundedMemory:
    def test_edh_cycles_keeps_four_bytes_a_value_and_a_mask(self):
        # 2 members x 2**16 nodes x (4 + 4) bytes = 1 MiB of arrays; as tuples
        # of ints with 8-byte masks the pair kept about 6 MiB
        kept, _ = traced(lambda: edh_cycles(16))
        assert kept < 1.5 * MIB

    def test_verify_pair_marks_bytes(self):
        # over two label lists at dim 16 the peak was about 6 MiB with a set of
        # values per member and a set of step keys for the pair
        first, second = (list(member.nodes) for member in edh_cycles(16).members)
        assert verify_pair(16, first, second).passed
        _, peak = traced(lambda: verify_pair(16, first, second))
        assert peak < 4 * MIB

    def test_a_sparse_walk_in_a_large_cube_makes_no_table(self):
        # two nodes at the top of LTQ_30: a byte per value below them would be 1 GiB
        top = (1 << 30) - 1
        _, peak = traced(lambda: Path.from_values(30, [top, top - 1]))
        assert peak < MIB
        with pytest.raises(OverlapError):
            Path.from_values(30, [top, top - 1, top])
        labels = [NodeLabel(30, v) for v in (top, top - 1)]
        _, peak = traced(lambda: verify_pair(30, labels, labels[::-1], "paths"))
        assert peak < MIB
        report = verify_pair(30, labels, labels[::-1], "paths")
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert failed["pair: edge-disjoint"] == f"1 shared, e.g. {top - 1:030b} .. {top:030b}"


def walked_pairs(values, closed):
    ends = values[1:] + values[:1] if closed and len(values) > 1 else values[1:]
    return {(min(u, v), max(u, v)) for u, v in zip(values, ends)}


WALKS = st.lists(st.integers(0, 31), max_size=12)


@settings(max_examples=300, deadline=None)
@given(WALKS, st.booleans(), WALKS, st.booleans())
def test_no_shared_step_answers_only_what_it_proves(a, a_closed, b, b_closed):
    shared = walked_pairs(a, a_closed) & walked_pairs(b, b_closed)
    cleared = _no_shared_step(a, a_closed, b, b_closed)
    assert not (cleared and shared)
    if len(set(a)) == len(a) and max(b, default=0) <= max(a, default=-1):
        assert cleared == (not shared)  # a distinct, b within its array: decided in bulk


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.permutations(range(1 << n)), st.booleans(), st.permutations(range(1 << n)), st.booleans()
)))
def test_no_shared_step_decides_every_pair_of_permutations(case):
    a, a_closed, b, b_closed = case
    shared = walked_pairs(a, a_closed) & walked_pairs(b, b_closed)
    assert _no_shared_step(a, a_closed, b, b_closed) == (not shared)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 63), max_size=40))
def test_distinct_marks_agree_with_a_set(values):
    distinct = len(set(values)) == len(values)
    assert _distinct(values) <= distinct  # never a repeat called distinct
    if max(values, default=-1) < len(values) << 5:  # dense enough for the table
        assert _distinct(values) == distinct


def test_distinct_leaves_sparse_walks_to_the_counter():
    assert not _distinct([0, 1 << 20])  # distinct, but the table would be 2**20 bytes
    assert _distinct([]) and _distinct(list(range(64))[::-1])


@pytest.mark.parametrize("typecode", ["i", "l", "q"])
def test_a_signed_view_in_place_of_the_values_keeps_no_table(monkeypatch, typecode):
    # only a view of format "I" builds a table: a signed one is read label by label
    monkeypatch.setattr(topology, "_CUBE", ())
    walk = edh_cycles(6).first
    values = [-1 if v == 63 else v for v in range(64)]
    object.__setattr__(walk, "values", memoryview(array(typecode, values)).toreadonly())
    assert [label.value for label in walk.nodes] == values and topology._CUBE == ()


def test_a_value_past_the_cube_in_place_of_the_values_raises_index_error(monkeypatch):
    # 64 entries of format "I", one of them 64: the table is built from the
    # cube, not from the values, and the read through it indexes past the cube
    monkeypatch.setattr(topology, "_CUBE", ())
    walk = edh_cycles(6).first
    values = [64 if v == 63 else v for v in range(64)]
    object.__setattr__(walk, "values", memoryview(array("I", values)).toreadonly())
    with pytest.raises(IndexError):
        walk.nodes
    assert topology._CUBE == tuple(NodeLabel(6, v) for v in range(64))
