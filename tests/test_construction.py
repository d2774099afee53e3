import copy
import pickle
from array import array
from collections import Counter
from itertools import combinations, repeat
from operator import or_

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltqcube import construction, topology
from ltqcube import (
    MAX_DIM,
    AdjacencyError,
    Cycle,
    DimensionError,
    HamiltonianPair,
    InvalidPairError,
    LabelFormatError,
    LtqError,
    OverlapError,
    Path,
    edges,
    edh_cycles,
    edh_paths,
    expected_endpoints,
    is_adjacent,
    make_label,
)
from ltqcube.verify import enumerate_hamiltonian_cycles, verify_pair

FIRST_SEED = (
    "0010", "0110", "0111", "0101", "0100", "1100", "1110", "1010",
    "1000", "1001", "1011", "1101", "1111", "0011", "0001", "0000",
)
SECOND_SEED = (
    "0110", "1110", "1111", "1001", "0101", "0011", "0010", "1010",
    "1011", "0111", "0001", "1101", "1100", "1000", "0000", "0100",
)


def path_of(dim, *bits):
    return Path(tuple(make_label(dim, b) for b in bits))


class TestPathType:
    def test_rejects_non_adjacent_step(self):
        with pytest.raises(LtqError):
            path_of(4, "0000", "0101")

    def test_rejects_duplicates(self):
        with pytest.raises(OverlapError):
            path_of(4, "0000", "0001", "0000")

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionError):
            Path((make_label(4, "0000"), make_label(5, "00001")))

    @pytest.mark.parametrize(
        "nodes, kind", [([0, 1], "int"), ([make_label(4, "0000"), (4, 1)], "tuple")]
    )
    def test_rejects_what_is_no_label(self, nodes, kind):
        with pytest.raises(TypeError, match=f"^Path needs a NodeLabel, got {kind}$"):
            Path(nodes)

    def test_accessors(self):
        p = path_of(4, "0010", "0000", "0001")
        assert p.start == make_label(4, "0010")
        assert p.end == make_label(4, "0001")
        assert p.dim == 4 and len(p) == 3

    @pytest.mark.parametrize(
        "build", [lambda: Path(()), lambda: Path.from_values(4, []), lambda: Path([])]
    )
    def test_empty_path_is_refused(self, build):
        with pytest.raises(LtqError, match="^a path needs at least 1 node, got 0$"):
            build()


class TestCycleType:
    def test_canonical_rotation_and_direction(self):
        base = ("0000", "0001", "0011", "0010")
        rotations = [base[i:] + base[:i] for i in range(4)]
        reversals = [tuple(reversed(r)) for r in rotations]
        canon = {Cycle(tuple(make_label(4, b) for b in seq)).nodes
                 for seq in rotations + reversals}
        assert len(canon) == 1
        (nodes,) = canon
        assert nodes[0].value == min(n.value for n in nodes)
        assert nodes[1].value < nodes[-1].value

    def test_rejects_short_cycle(self):
        with pytest.raises(LtqError):
            Cycle((make_label(2, "00"), make_label(2, "01")))

    def test_rejects_what_is_no_label(self):
        with pytest.raises(TypeError, match="^Cycle needs a NodeLabel, got tuple$"):
            Cycle([(4, 0), (4, 1), (4, 3), (4, 2)])

    def test_rejects_broken_closure(self):
        # 0000..0100 is a fine open path but 0100 is not adjacent to 0001
        with pytest.raises(LtqError):
            Cycle(tuple(make_label(4, b) for b in ("0001", "0000", "0100")))


class TestFromValues:
    """`from_values` takes plain label values and validates like the NodeLabel constructor."""

    @pytest.mark.parametrize("kind", [Path, Cycle])
    @pytest.mark.parametrize("bits", [
        ("0000", "0001", "0011", "0010"),
        ("0011", "0001", "0000", "0010"),
        ("0000", "0101"),
        ("0000", "0001", "0000"),
        ("0001", "0000", "0100"),
        ("0000", "0001"),
    ])
    def test_same_object_or_same_error(self, kind, bits):
        def outcome(build):
            try:
                return build()
            except LtqError as exc:
                return type(exc), str(exc)

        by_labels = outcome(lambda: kind(tuple(make_label(4, b) for b in bits)))
        by_values = outcome(lambda: kind.from_values(4, [int(b, 2) for b in bits]))
        assert by_values == by_labels
        if isinstance(by_values, kind):
            assert tuple(by_values.values) == tuple(n.value for n in by_labels.nodes)

    @pytest.mark.parametrize("values", [[0, 1, 16], [-1, 0]])
    def test_rejects_values_out_of_range(self, values):
        with pytest.raises(LabelFormatError):
            Path.from_values(4, values)

    def test_rejects_bad_dim(self):
        with pytest.raises(DimensionError):
            Path.from_values(MAX_DIM + 1, [0, 1])

    @pytest.mark.parametrize("kind", [Path, Cycle])
    @pytest.mark.parametrize(
        "values", [[2.5, 0, 1], [0.0, 1.0, 3.0], [0, "1", 3], [0, 1, 3, 2.0], [0, 1, None]]
    )
    def test_rejects_non_integers(self, kind, values):
        with pytest.raises(LabelFormatError) as caught:
            kind.from_values(4, values)
        assert str(caught.value) == "label values for dim 4 must be integers"

    @pytest.mark.parametrize("value", [2.5, 3.0, "3"])
    def test_rejects_a_lone_non_integer(self, value):
        # one node has no step, so only the type check can catch it
        with pytest.raises(LabelFormatError):
            Path.from_values(4, [value])


def concat(p, q):
    """Join two paths through the edge from p's end to q's start."""
    return Path(p.nodes + q.nodes)


class TestReverseAndConcat:
    """Reversal and concatenation are one line over `Path`, with its checks."""

    def test_reverse_swaps_ends_and_keeps_edges(self):
        p = path_of(4, *FIRST_SEED)
        r = Path(p.nodes[::-1])
        assert r.start == p.end and r.end == p.start
        assert r.edge_pairs() == p.edge_pairs() and r.edge_set() == p.edge_set()
        assert Path(r.nodes[::-1]) == p

    def test_single_node_reverses_to_itself(self):
        p = path_of(4, "0101")
        assert Path(p.nodes[::-1]) == p

    def test_concat_requires_adjacent_junction(self):
        with pytest.raises(AdjacencyError) as caught:
            concat(path_of(5, "00010"), path_of(5, "10110"))
        assert str(caught.value) == "nodes 00010 and 10110 (positions 0, 1) are not adjacent"

    def test_concat_requires_disjoint_nodes(self):
        with pytest.raises(OverlapError):
            concat(path_of(4, "0000", "0001"), path_of(4, "0011", "0001"))

    def test_concat_edge_set_is_union_plus_junction(self):
        p = path_of(4, "0010", "0110", "0111")
        q = path_of(4, "0101", "0100", "1100")
        joined = concat(p, q)
        junction = {e for e in edges(4) if {e.a.bits, e.b.bits} == {"0111", "0101"}}
        assert joined.edge_set() == p.edge_set() | q.edge_set() | junction

    @given(st.integers(1, 15))
    def test_concat_recovers_any_split_of_the_seed(self, cut):
        whole = path_of(4, *FIRST_SEED)
        head = Path(whole.nodes[:cut])
        tail = Path(whole.nodes[cut:])
        assert concat(head, tail) == whole


class TestBasePair:
    def test_exact_node_sequences(self):
        pair = edh_paths(4)
        assert tuple(n.bits for n in pair.first.nodes) == FIRST_SEED
        assert tuple(n.bits for n in pair.second.nodes) == SECOND_SEED

    def test_endpoints(self):
        pair = edh_paths(4)
        assert (pair.first.start.bits, pair.first.end.bits) == ("0010", "0000")
        assert (pair.second.start.bits, pair.second.end.bits) == ("0110", "0100")

    def test_sizes_and_disjointness(self):
        pair = edh_paths(4)
        for member in pair.members:
            assert len(member) == 16
            assert len(member.edge_set()) == 15
        assert not pair.first.edge_set() & pair.second.edge_set()

    def test_sixth_edge_of_first_path(self):
        pair = edh_paths(4)
        fifth, sixth = pair.first.nodes[5], pair.first.nodes[6]
        assert {pair.first.nodes[4].bits, fifth.bits} == {"0100", "1100"}
        assert is_adjacent(fifth, sixth)


class TestExpectedEndpoints:
    def test_dim_4_seed_endpoints(self):
        got = tuple(n.bits for n in expected_endpoints(4))
        assert got == ("0010", "0000", "0110", "0100")

    def test_dim_5(self):
        got = tuple(n.bits for n in expected_endpoints(5))
        assert got == ("00010", "10010", "00110", "10110")

    def test_dim_6(self):
        got = tuple(n.bits for n in expected_endpoints(6))
        assert got == ("000010", "100010", "000110", "100110")

    @pytest.mark.parametrize("dim", range(5, 13))
    def test_each_start_end_pair_is_an_edge(self, dim):
        start_f, end_f, start_s, end_s = expected_endpoints(dim)
        assert is_adjacent(start_f, end_f)
        assert is_adjacent(start_s, end_s)

    def test_below_dim_4(self):
        with pytest.raises(DimensionError):
            expected_endpoints(3)

    @pytest.mark.parametrize("dim", [3, 4.5, 5.0, "5", MAX_DIM + 1])
    def test_refuses_what_the_construction_refuses(self, dim):
        messages = set()
        for build in (expected_endpoints, edh_paths, edh_cycles):
            with pytest.raises(DimensionError) as caught:
                build(dim)
            messages.add(str(caught.value))
        assert len(messages) == 1


class TestConstructedPaths:
    def test_dim_5_shape(self):
        pair = edh_paths(5)
        assert len(pair.first) == 32
        assert pair.first.start.bits == "00010"
        assert pair.first.end.bits == "10010"
        assert pair.second.start.bits == "00110"
        assert pair.second.end.bits == "10110"

    def test_junction_nodes_of_the_lift(self):
        # the dim-4 end nodes meet across the twist edge once lifted
        assert is_adjacent(make_label(5, "00000"), make_label(5, "10000"))
        assert is_adjacent(make_label(5, "00100"), make_label(5, "10100"))

    @pytest.mark.parametrize("dim", range(4, 13))
    def test_endpoints_match_formula(self, dim):
        pair = edh_paths(dim)
        start_f, end_f, start_s, end_s = expected_endpoints(dim)
        assert (pair.first.start, pair.first.end) == (start_f, end_f)
        assert (pair.second.start, pair.second.end) == (start_s, end_s)

    @pytest.mark.parametrize("dim", range(5, 11))
    def test_lower_half_is_previous_level(self, dim):
        below = edh_paths(dim - 1)
        pair = edh_paths(dim)
        half = 1 << (dim - 1)
        for small, big in zip(below.members, pair.members):
            assert [n.value for n in big.nodes[:half]] == [n.value for n in small.nodes]

    def test_below_dim_4(self):
        with pytest.raises(DimensionError):
            edh_paths(3)


class TestValidateOnce:
    """Only the seeds are validated step by step; the doubling carries their
    proof up to the result, one parity check per level."""

    @pytest.mark.parametrize("at", [0, 7, 14])
    @pytest.mark.parametrize("build", [edh_paths, edh_cycles])
    def test_broken_seed_is_caught(self, monkeypatch, build, at):
        seed = list(FIRST_SEED)
        seed[at], seed[at + 1] = seed[at + 1], seed[at]
        monkeypatch.setattr(construction, "_BASE_FIRST", tuple(seed))
        with pytest.raises(LtqError):
            build(6)

    def test_two_builds_share_no_array(self):
        # the seeds are validated once, but every build copies them into its own arrays
        a, b = edh_cycles(6), edh_cycles(6)
        assert a == b
        for x, y in zip(a.members, b.members):
            assert x.values.obj is not y.values.obj and x._masks() is not y._masks()

    @pytest.mark.parametrize("build", [edh_paths, edh_cycles])
    def test_dim_above_max_refused_before_building(self, build):
        with pytest.raises(DimensionError):
            build(MAX_DIM + 1)


class TestCertifiedDoubling:
    """The doubling derives each member's edge masks from the seed check and
    the parity of each junction (and of a cycle's closing edge); the
    independent checkers in `verify` measure the result, and a seed whose
    ends have the wrong parity is refused at the level it would break."""

    @pytest.mark.parametrize("dim", range(4, 17))
    @pytest.mark.parametrize("build", [edh_paths, edh_cycles])
    def test_the_checkers_pass_every_constructed_pair(self, build, dim):
        pair = build(dim)
        assert verify_pair(dim, pair.first, pair.second, pair.kind).passed

    @staticmethod
    def cut_seed(start_parity, end_parity):
        """A Hamiltonian path of LTQ_4 sharing no edge with the second seed,
        cut from the one Hamiltonian cycle that allows it, at a step from an
        `end_parity` node to a `start_parity` one."""
        second = frozenset(edh_paths(4).second.edge_pairs())
        (cycle,) = [c for c in enumerate_hamiltonian_cycles(4) if second.isdisjoint(c.edge_pairs())]
        values = list(cycle.values)
        at = next(
            i for i in range(16) if (values[i] & 1, values[i - 1] & 1) == (start_parity, end_parity)
        )
        return tuple(f"{v:04b}" for v in values[at:] + values[:at])

    def test_a_seed_ending_at_an_odd_node_is_refused_above_dim_4(self, monkeypatch):
        seed = self.cut_seed(0, 1)
        monkeypatch.setattr(construction, "_BASE_FIRST", seed)
        for build in (edh_paths, edh_cycles):
            pair = build(4)  # the seed itself is a valid member, and so is its cycle
            assert verify_pair(4, pair.first, pair.second, pair.kind).passed
        end = int(seed[-1], 2)
        message = f"^level-5 junction {end:05b} .. {end | 16:05b} is not an edge$"
        for build in (edh_paths, edh_cycles):
            with pytest.raises(AdjacencyError, match=message):
                build(6)

    def test_a_seed_starting_at_an_odd_node_closes_no_cycle(self, monkeypatch):
        seed = self.cut_seed(1, 0)
        monkeypatch.setattr(construction, "_BASE_FIRST", seed)
        pair = edh_paths(5)  # the level-5 junction leaves the even end
        assert verify_pair(5, pair.first, pair.second, "paths").passed
        start = int(seed[0], 2)
        with pytest.raises(AdjacencyError, match=f"^closing edge {start:05b} .. {start | 16:05b} "):
            edh_cycles(5)
        # the level-5 path ends at its start with bit 4 set: level 6 joins there
        message = f"^level-6 junction {start | 16:06b} .. {start | 48:06b} is not an edge$"
        for build in (edh_paths, edh_cycles):
            with pytest.raises(AdjacencyError, match=message):
                build(6)

    @pytest.mark.parametrize("dim", [4, 6])
    @pytest.mark.parametrize("build", [edh_paths, edh_cycles])
    def test_equal_seeds_share_every_edge(self, monkeypatch, build, dim):
        monkeypatch.setattr(construction, "_BASE_SECOND", construction._BASE_FIRST)
        with pytest.raises(InvalidPairError, match="share an edge"):
            build(dim)


class TestConstructedCycles:
    @pytest.mark.parametrize("dim,first_close,second_close", [
        (4, ("0010", "0000"), ("0110", "0100")),
        (5, ("00010", "10010"), ("00110", "10110")),
    ])
    def test_closing_edges_present(self, dim, first_close, second_close):
        paths = edh_paths(dim)
        cycles = edh_cycles(dim)
        for member_path, member_cycle, close in zip(
            paths.members, cycles.members, (first_close, second_close)
        ):
            closing = {e for e in edges(dim) if {e.a.bits, e.b.bits} == set(close)}
            assert closing <= member_cycle.edge_set()
            assert not closing & member_path.edge_set()
            assert member_cycle.edge_set() == member_path.edge_set() | closing

    @pytest.mark.parametrize("dim", range(4, 11))
    def test_cycle_pair_shape(self, dim):
        pair = edh_cycles(dim)
        union = pair.first.edge_set() | pair.second.edge_set()
        assert len(pair.first) == len(pair.second) == 1 << dim
        assert len(union) == 2 << dim
        assert union <= frozenset(edges(dim))

    def test_canonical_form(self):
        pair = edh_cycles(6)
        for member in pair.members:
            assert member.nodes[0].value == 0
            assert member.nodes[1].value < member.nodes[-1].value


class TestGrayCodeReading:
    """Position i of a constructed path is the reflected Gray code of its
    high bits above the dim-4 seed read forwards or backwards (see the
    module docstring)."""

    @staticmethod
    def gray(h):
        return h ^ (h >> 1)

    @pytest.mark.parametrize("dim", range(4, 19))  # bits 16 and 17 sit in the third byte
    def test_both_members(self, dim):
        pair = edh_paths(dim)
        for member, seed in zip(pair.members, (FIRST_SEED, SECOND_SEED)):
            low = [int(bits, 2) for bits in seed]
            assert list(member.values) == [
                self.gray(i >> 4) << 4 | low[(i & 15) ^ (15 if (i >> 4) & 1 else 0)]
                for i in range(1 << dim)
            ]


class TestHamiltonianPairType:
    def test_rejects_shared_edges(self):
        cycle = edh_cycles(4).first
        with pytest.raises(InvalidPairError):
            HamiltonianPair(cycle, cycle)

    def test_rejects_partial_coverage(self):
        a = Path(tuple(make_label(4, b) for b in ("0000", "0001")))
        b = Path(tuple(make_label(4, b) for b in ("0011", "0010")))
        with pytest.raises(InvalidPairError):
            HamiltonianPair(a, b)

    def test_rejects_mixed_kinds(self):
        pair = edh_paths(4)
        with pytest.raises(InvalidPairError):
            HamiltonianPair(pair.first, Cycle(pair.second.nodes))

    def test_refuses_exactly_the_pairs_that_share_an_edge(self):
        # every disjoint pair of Hamiltonian cycles of LTQ_4 and every pair
        # sharing only two edges, the fewest two of them can share
        cycles = enumerate_hamiltonian_cycles(4)
        edge_sets = [frozenset(c.edge_pairs()) for c in cycles]
        tried = Counter()
        for i, j in combinations(range(len(cycles)), 2):
            shared = len(edge_sets[i] & edge_sets[j])
            if shared > 2:
                continue
            tried[shared] += 1
            for a, b in ((cycles[i], cycles[j]), (cycles[j], cycles[i])):
                if shared:
                    with pytest.raises(InvalidPairError, match="share an edge"):
                        HamiltonianPair(a, b)
                else:
                    HamiltonianPair(a, b)
                    HamiltonianPair(Path.from_values(4, a.values), Path.from_values(4, b.values))
        assert tried[0] == 240 and tried[2] > 0 and tried[1] == 0

    def test_rejects_a_member_of_another_dim(self):
        first, other = edh_cycles(4).first, edh_cycles(5).second
        with pytest.raises(DimensionError, match="^member dim 5 does not match pair dim 4$"):
            HamiltonianPair(first, other)

    def test_kind_reporting(self):
        assert edh_paths(4).kind == "paths"
        assert edh_cycles(4).kind == "cycles"

    @pytest.mark.parametrize("build", [edh_paths, edh_cycles])
    def test_keeps_the_masks_it_validated(self, build):
        # each member keeps the masks the pair checked; an unpickled or deep-copied
        # walk computes its own, and a shallow copy shares the view and its masks
        pair = build(6)
        for member in pair.members:
            kept = member._masks()
            assert member._masks() is kept and len(kept) == 64
            copies = {"pickle": pickle.loads(pickle.dumps(member)), "copy": copy.copy(member),
                      "deepcopy": copy.deepcopy(member)}
            for how, c in copies.items():
                assert c == member and hash(c) == hash(member) and repr(c) == repr(member)
                shared = how == "copy"
                assert (c.values is member.values) == shared and (c._masks() is kept) == shared
                assert c._masks() == kept and c._masks() is c._masks()
        for other in (pickle.loads(pickle.dumps(pair)), copy.copy(pair), copy.deepcopy(pair)):
            assert other == pair and repr(other) == repr(pair)
            for c, member in zip(other.members, pair.members):
                # a shallow copy of the pair holds the same members, so the same masks
                assert c._masks() == member._masks()
                assert (c._masks() is member._masks()) == (c is member)

    def test_a_copy_made_before_the_masks_computes_them(self):
        walk = Path.from_values(6, edh_paths(6).first.values)
        shallow = copy.copy(walk)
        assert shallow.values is walk.values and shallow._masks() == edh_paths(6).first._masks()

    @pytest.mark.parametrize("build", [edh_paths, edh_cycles])
    def test_a_loaded_pair_that_shares_an_edge_is_refused(self, build):
        # loading runs the pair's checks: one member twice, or a member whose
        # values were replaced in place by the other's, never loads
        same = build(6)
        object.__setattr__(same, "second", same.first)
        replaced = build(6)
        object.__setattr__(replaced.second, "values", replaced.first.values)
        for pair in (same, replaced):
            with pytest.raises(InvalidPairError, match="^pair members share an edge$"):
                pickle.loads(pickle.dumps(pair))
            with pytest.raises(InvalidPairError, match="^pair members share an edge$"):
                copy.deepcopy(pair)


class TestDoubledHalf:
    """`_doubled_half` sets the doubling's bit in one byte column: it gives the
    bytes of the per-entry OR for every bit a constructed level can set."""

    @pytest.mark.parametrize("bit", range(4, MAX_DIM))
    def test_equals_the_entrywise_or(self, bit):
        top = (1 << bit) - 1
        values = array("I", [0, 1, 2, top, top >> 1, 1 << (bit - 1)])
        values.extend([0x5A5A5A5A & top, 0xA5A5A5A5 & top])
        expected = array("I", map(or_, values[::-1], repeat(1 << bit)))
        half = construction._doubled_half(values, bit)
        assert half == expected.tobytes() and len(values) == 8


class TestHeldCubeNeedsAPermutation:
    """A whole `.nodes` read builds the cube's labels from the cube itself,
    and only for values held as a view of format "I" as long as the cube:
    a walk whose values were swapped for a tuple builds no table, so its
    labels are read one by one, whatever it holds."""

    @pytest.fixture(autouse=True)
    def no_cube(self, monkeypatch):
        monkeypatch.setattr(topology, "_CUBE", ())

    @staticmethod
    def tampered(values):
        """A walk of dim 6 whose values were set in place to `values`, and the
        error that unpickling it raises, since loading runs its checks."""
        walk = edh_cycles(6).first
        object.__setattr__(walk, "values", tuple(values))
        with pytest.raises(LtqError) as refused:
            pickle.loads(pickle.dumps(walk))
        return walk, refused.value

    @pytest.mark.parametrize(
        "change, refusal",
        [
            ({63: 0}, OverlapError),  # a repeat, so some node is missing
            ({63: 64}, LabelFormatError),  # past the cube
            ({63: -1}, LabelFormatError),  # indexes the last slot from the end
            ({0: False, 1: True}, AdjacencyError),  # equal to 0 and 1, but not an int
        ],
    )
    def test_tampered_values_keep_no_table(self, change, refusal):
        values = [change.get(v, v) for v in range(64)]
        walk, refused = self.tampered(values)
        assert [label.value for label in walk.nodes] == values
        assert topology._CUBE == ()
        assert type(refused) is refusal

    def test_a_validated_walk_of_bools_holds_ints(self):
        # validation takes False and True as the ints they equal, and the walk
        # stores them as ints: the table a whole read keeps holds no bool
        values = [{0: False, 1: True}.get(v, v) for v in edh_cycles(6).first.values]
        assert Cycle.from_values(6, values).nodes
        assert [label.value for label in topology._CUBE] == list(range(64))
        assert {type(label.value) for label in topology._CUBE} == {int}

    def test_a_held_table_stays_after_a_tampered_read(self):
        walk, refused = self.tampered([v % 63 for v in range(64)])  # 0 twice, no 63
        assert type(refused) is OverlapError
        edh_cycles(6).second.nodes
        held = topology._CUBE
        for other in (walk, Path.from_values(6, range(1))):
            other.nodes
            assert topology._CUBE is held


class TestFailureMessages:
    """Each rejection names its first bad step, by label and input position.

    Walks are cut from `edh_paths(6).first`: dropping the node at position j
    joins positions j - 1 and j + 1, which the test first checks are not
    adjacent, so step j - 1 of the shortened walk is its only break there.
    """

    DIM = 6

    @classmethod
    def dropped(cls, *positions):
        values = list(edh_paths(cls.DIM).first.values)
        for j in positions:
            u, w = values[j - 1], values[j + 1]
            assert not is_adjacent(make_label(cls.DIM, f"{u:06b}"), make_label(cls.DIM, f"{w:06b}"))
        return [v for j, v in enumerate(values) if j not in positions]

    @staticmethod
    def step_message(values, i):
        return (
            f"nodes {values[i]:06b} and {values[i + 1]:06b} "
            f"(positions {i}, {i + 1}) are not adjacent"
        )

    @pytest.mark.parametrize("kind", [Path, Cycle])
    @pytest.mark.parametrize(
        "drop,step", [(1, 0), (32, 31), (62, 61)], ids=["first", "middle", "last"]
    )
    def test_one_break(self, kind, drop, step):
        values = self.dropped(drop)
        with pytest.raises(AdjacencyError) as caught:
            kind.from_values(self.DIM, values)
        assert str(caught.value) == self.step_message(values, step)

    @pytest.mark.parametrize("kind", [Path, Cycle])
    def test_two_breaks_name_the_first(self, kind):
        values = self.dropped(20, 40)
        with pytest.raises(AdjacencyError) as caught:
            kind.from_values(self.DIM, values)
        assert str(caught.value) == self.step_message(values, 19)

    def test_a_break_is_named_before_the_closing_edge(self):
        values = self.dropped(32)[:-1]
        assert not is_adjacent(
            make_label(self.DIM, f"{values[-1]:06b}"), make_label(self.DIM, f"{values[0]:06b}")
        )
        with pytest.raises(AdjacencyError) as caught:
            Cycle.from_values(self.DIM, values)
        assert str(caught.value) == self.step_message(values, 31)

    def test_closing_edge(self):
        values = list(edh_paths(self.DIM).first.values)[:-1]
        Path.from_values(self.DIM, values)
        with pytest.raises(AdjacencyError) as caught:
            Cycle.from_values(self.DIM, values)
        assert str(caught.value) == (
            f"closing edge {values[-1]:06b} .. {values[0]:06b} is not an edge"
        )

    @pytest.mark.parametrize("kind", [Path, Cycle])
    def test_repeated_node(self, kind):
        values = list(edh_paths(self.DIM).first.values)
        values[40] = values[3]
        with pytest.raises(OverlapError) as caught:
            kind.from_values(self.DIM, values)
        assert str(caught.value) == "sequence visits a node more than once"

    @pytest.mark.parametrize("kind", [Path, Cycle])
    @pytest.mark.parametrize("bad", [-1, 64])
    def test_value_out_of_range(self, kind, bad):
        values = list(edh_paths(self.DIM).first.values)
        values[10] = bad
        with pytest.raises(LabelFormatError) as caught:
            kind.from_values(self.DIM, values)
        assert str(caught.value) == "label values out of range for dim 6"

    def test_range_is_checked_before_repeats_and_steps(self):
        with pytest.raises(LabelFormatError):
            Path.from_values(4, [0, 0, 5, 16])
        with pytest.raises(OverlapError):
            Path.from_values(4, [0, 0, 5])
