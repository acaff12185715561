"""Property tests for the deterministic union-find.

The contract under test: the partition (and every public id) is a pure
function of the element set and the *set* of union edges — never of the
order elements were added or unions were applied.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro._util import derive_rng
from repro.resolve import UnionFind

ELEMENTS = [f"r{i:02d}" for i in range(12)]
EDGES = [
    ("r00", "r01"), ("r01", "r02"), ("r03", "r04"),
    ("r05", "r06"), ("r06", "r07"), ("r07", "r05"),  # cycle
    ("r08", "r09"), ("r09", "r10"),
]
EXPECTED = (
    ("r00", "r01", "r02"),
    ("r03", "r04"),
    ("r05", "r06", "r07"),
    ("r08", "r09", "r10"),
    ("r11",),
)


def _build(elements, edges):
    uf = UnionFind(elements)
    for a, b in edges:
        uf.union(a, b)
    return uf


class TestMembership:
    def test_add_is_idempotent(self):
        uf = UnionFind()
        assert uf.add("a") is True
        assert uf.add("a") is False
        assert len(uf) == 1
        assert uf.find("a") == "a"

    def test_union_registers_unknown_elements(self):
        uf = UnionFind()
        assert uf.union("a", "b") is True
        assert uf.connected("a", "b")
        assert set(uf) == {"a", "b"}

    def test_union_of_merged_pair_is_a_noop(self):
        uf = _build(ELEMENTS, EDGES)
        assert uf.union("r00", "r02") is False
        assert uf.components() == EXPECTED

    def test_size_of_counts_the_component(self):
        uf = _build(ELEMENTS, EDGES)
        assert [uf.size_of(e) for e in ELEMENTS] == [
            3, 3, 3, 2, 2, 3, 3, 3, 3, 3, 3, 1
        ]
        with pytest.raises(KeyError):
            uf.size_of("nope")

    def test_find_unknown_element_raises(self):
        with pytest.raises(KeyError):
            UnionFind().find("ghost")


class TestDeterminism:
    def test_components_are_canonical(self):
        uf = _build(ELEMENTS, EDGES)
        assert uf.components() == EXPECTED
        assert uf.component_of("r06") == ("r05", "r06", "r07")

    def test_find_returns_min_member_not_a_root(self):
        # Rank unions can root a component anywhere; the public id must
        # always be the smallest member regardless.
        uf = _build(ELEMENTS, EDGES)
        for component in uf.components():
            for member in component:
                assert uf.find(member) == component[0]

    @pytest.mark.parametrize("order_seed", range(5))
    def test_union_order_is_commutative(self, order_seed):
        rng = derive_rng(1234, "uf-order", order_seed)
        elements = list(ELEMENTS)
        edges = list(EDGES)
        rng.shuffle(elements)
        rng.shuffle(edges)
        # Also flip some edge orientations.
        edges = [
            (b, a) if rng.random() < 0.5 else (a, b) for a, b in edges
        ]
        shuffled = _build(elements, edges)
        assert shuffled.components() == EXPECTED
        assert shuffled.component_ids() == _build(ELEMENTS, EDGES).component_ids()

    def test_component_ids_are_stable_under_growth(self):
        # Adding an unrelated element never changes existing ids.
        uf = _build(ELEMENTS, EDGES)
        before = uf.component_ids()
        uf.add("zzz")
        after = uf.component_ids()
        del after["zzz"]
        assert after == before


class TestCopy:
    def test_copy_is_independent(self):
        uf = _build(ELEMENTS, EDGES)
        clone = uf.copy()
        clone.union("r00", "r11")
        assert clone.connected("r00", "r11")
        assert not uf.connected("r00", "r11")
        assert uf.components() == EXPECTED


# ------------------------------------------------------------ property test

_KEY = st.sampled_from([f"k{i:02d}" for i in range(14)])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _KEY),
        st.tuples(st.just("union"), _KEY, _KEY),
        st.tuples(st.just("copy")),
        st.tuples(st.just("restore")),
    ),
    max_size=40,
)


def _reference_components(elements, edges):
    """Connected components by repeated label propagation (no forest)."""
    label = {e: e for e in elements}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            low = min(label[a], label[b])
            for end in (a, b):
                if label[end] != low:
                    label[end] = low
                    changed = True
    groups = {}
    for element in elements:
        groups.setdefault(label[element], []).append(element)
    return tuple(
        sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0])
    )


def _assert_matches(uf, elements, edges):
    expected = _reference_components(elements, edges)
    assert uf.components() == expected
    assert uf.snapshot_state() == [list(c) for c in expected]
    assert set(uf) == set(elements)
    owner = {m: c for c in expected for m in c}
    for element in elements:
        assert uf.component_of(element) == owner[element]
        assert uf.find(element) == owner[element][0]
        assert uf.size_of(element) == len(owner[element])
    for a in elements:
        for b in elements:
            assert uf.connected(a, b) == (owner[a] is owner[b])
    # The member lists partition the elements exactly, one list per root.
    members = uf._members
    assert sorted(m for group in members.values() for m in group) == sorted(
        elements
    )
    assert sorted(tuple(sorted(g)) for g in members.values()) == sorted(
        expected
    )
    for root, group in members.items():
        assert root in group
        assert all(uf._find_root(m) == root for m in group)


class TestAgainstReference:
    @given(_OPS)
    @settings(max_examples=200, deadline=None)
    def test_random_operations_match_a_brute_force_reference(self, ops):
        uf = UnionFind()
        elements: list[str] = []
        edges: list[tuple[str, str]] = []
        #: (earlier union-find, its elements and edges) at each copy point:
        #: later operations on the copy must never reach the original.
        originals = []
        for op in ops:
            if op[0] == "add":
                uf.add(op[1])
                if op[1] not in elements:
                    elements.append(op[1])
            elif op[0] == "union":
                _, a, b = op
                uf.union(a, b)
                elements.extend(e for e in dict.fromkeys((a, b))
                                if e not in elements)
                edges.append((a, b))
            elif op[0] == "copy":
                originals.append((uf, list(elements), list(edges)))
                uf = uf.copy()
            else:
                restored = UnionFind()
                restored.restore_state(uf.snapshot_state())
                uf = restored
            _assert_matches(uf, elements, edges)
        for original, its_elements, its_edges in originals:
            _assert_matches(original, its_elements, its_edges)
