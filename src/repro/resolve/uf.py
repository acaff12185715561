"""Deterministic union-find (disjoint-set forest) over string keys.

The partition produced by a sequence of ``union`` calls is a pure
function of the *set* of (element, element) edges — union-find semantics
guarantee that connected components do not depend on the order unions
arrive in.  The public ids are made insertion-order-independent too:
a component's id is its lexicographically smallest member, so two stores
that ingested the same records in different orders report identical
cluster ids.  Internal parent pointers *do* depend on call order (size
unions + path compression), which is why no public method ever exposes a
raw root: everything is keyed on the canonical min-member id.

Each root owns the list of its component's members.  ``union`` hangs
the smaller component under the larger one's root and extends the
larger list with the smaller, so every element moves O(log n) times
over any union sequence, trees stay O(log n) deep, and reading one
component costs O(its size), never a scan over every element.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["UnionFind"]


class UnionFind:
    """Disjoint sets of string elements with stable, deterministic ids."""

    def __init__(self, elements: Iterable[str] = ()) -> None:
        self._parent: dict[str, str] = {}
        #: root → lexicographically smallest member of its component.
        self._min_member: dict[str, str] = {}
        #: root → every member of its component (unordered).
        self._members: dict[str, list[str]] = {}
        for element in elements:
            self.add(element)

    # ------------------------------------------------------------ membership

    def add(self, element: str) -> bool:
        """Register *element* as a singleton; False if already present."""
        if element in self._parent:
            return False
        self._parent[element] = element
        self._min_member[element] = element
        self._members[element] = [element]
        return True

    def __contains__(self, element: str) -> bool:
        return element in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def __iter__(self) -> Iterator[str]:
        return iter(self._parent)

    # ------------------------------------------------------------- structure

    def _find_root(self, element: str) -> str:
        """Root of *element*'s tree, with two-pass path compression."""
        try:
            node = self._parent[element]
        except KeyError:
            raise KeyError(f"unknown element {element!r}") from None
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        node = element
        while self._parent[node] != root:
            self._parent[node], node = root, self._parent[node]
        return root

    def find(self, element: str) -> str:
        """Canonical component id: the smallest member of the component.

        Unlike a raw root, this id does not depend on the order elements
        were added or unions were applied.
        """
        return self._min_member[self._find_root(element)]

    def union(self, a: str, b: str) -> bool:
        """Merge the components of *a* and *b*; False if already merged.

        Unknown elements are added first, so a decision stream can be
        replayed without pre-registering its endpoints.
        """
        self.add(a)
        self.add(b)
        root_a = self._find_root(a)
        root_b = self._find_root(b)
        if root_a == root_b:
            return False
        # Union by size; equal sizes break ties on the min-member id so
        # the tree shape is deterministic for a fixed call sequence.
        size_a, size_b = len(self._members[root_a]), len(self._members[root_b])
        if size_a < size_b or (
            size_a == size_b
            and self._min_member[root_b] < self._min_member[root_a]
        ):
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._min_member[root_a] = min(
            self._min_member[root_a], self._min_member.pop(root_b)
        )
        self._members[root_a].extend(self._members.pop(root_b))
        return True

    def connected(self, a: str, b: str) -> bool:
        """True when *a* and *b* are in the same component."""
        return self._find_root(a) == self._find_root(b)

    # ------------------------------------------------------------- read-outs

    def components(self) -> tuple[tuple[str, ...], ...]:
        """All components, members sorted, components sorted by their id."""
        return tuple(
            sorted(
                (tuple(sorted(members)) for members in self._members.values()),
                key=lambda component: component[0],
            )
        )

    def component_of(self, element: str) -> tuple[str, ...]:
        """Sorted members of *element*'s component, in O(its size)."""
        return tuple(sorted(self._members[self._find_root(element)]))

    def size_of(self, element: str) -> int:
        """Number of members in *element*'s component, in O(1)."""
        return len(self._members[self._find_root(element)])

    def component_ids(self) -> dict[str, str]:
        """Every element → its canonical (min-member) component id."""
        return {element: self.find(element) for element in self._parent}

    # ----------------------------------------------------------- persistence

    def snapshot_state(self) -> list[list[str]]:
        """Canonical JSON-safe dump: components as sorted member lists.

        The dump is a pure function of the partition (not of the union
        call order), so two stores holding the same components serialize
        identically.
        """
        return [list(component) for component in self.components()]

    def restore_state(self, components: Iterable[Iterable[str]]) -> None:
        """Replace the partition with a :meth:`snapshot_state` dump.

        The restored forest is flat — every member points directly at
        the component's canonical (min-member) id — which reproduces the
        partition and every public read-out in O(elements) without
        replaying a single union.  Internal tree shape differs from the
        forest that produced the dump, but tree shape was never
        observable through the public surface.
        """
        self._parent.clear()
        self._min_member.clear()
        self._members.clear()
        for members in components:
            group = [str(member) for member in members]
            if not group:
                continue
            cid = min(group)
            for member in group:
                self._parent[member] = cid
            self._min_member[cid] = cid
            self._members[cid] = group

    def copy(self) -> "UnionFind":
        """Independent copy (components and determinism preserved)."""
        clone = UnionFind()
        clone._parent = dict(self._parent)
        clone._min_member = dict(self._min_member)
        clone._members = {
            root: list(members) for root, members in self._members.items()
        }
        return clone
