"""Even plane trees, the r-index statistic, and the tree/path correspondence.

An even tree is a rooted plane tree in which every vertex has an even number
of children; with 2k children, the first k are left children and the last k
are right children.  The r-index is half the sum of the degrees of all right
children (the sum is always even).

Paths generate trees through shift and lift operations.  East steps shift:
at even x a new pair of outer leaf children of the root is added and marked
dotted, at odd x the dotted pair becomes regular.  North steps lift: at odd
x the pair of root edges next to the dotted pair moves to the outside of the
root's last child (raising the r-index by one), at even x the outer pair
moves to the outside of the root's second child (r-index unchanged), except
that the lift onto the boundary line is the identity.  The dotted flag is a
single bit on the tree because only the root's outer pair is ever dotted.

Nodes are nested tuples: a node is the tuple of its children, a leaf is ().
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NOT_IN_IMAGE, DomainError, ParseError
from .lattice import EAST, NORTH, parse_path
from .poly import Poly, histogram_poly

Node = tuple  # recursively: tuple[Node, ...]


def _freeze(node: object) -> Node:
    if not isinstance(node, (tuple, list)):
        raise ParseError(f"tree node must be a sequence of children, got {node!r}")
    return tuple(_freeze(c) for c in node)


def _check_even(node: Node) -> None:
    if len(node) % 2 != 0:
        raise ParseError(f"vertex with {len(node)} children: every degree must be even")
    for c in node:
        _check_even(c)


@dataclass(frozen=True)
class EvenTree:
    """root is the tuple of the root's children; dotted marks the outer pair."""

    root: Node = ()
    dotted: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.dotted, bool):
            raise ParseError(f"dotted flag must be a boolean, got {self.dotted!r}")
        root = _freeze(self.root)
        _check_even(root)
        if self.dotted:
            if len(root) < 2:
                raise ParseError("dotted tree needs at least two root children")
            if root[0] != ():
                raise ParseError("dotted tree must have a leaf first child")
        object.__setattr__(self, "root", root)

    @classmethod
    def _trusted(cls, root: Node, dotted: bool) -> EvenTree:
        """Wrap a nested-tuple root that already satisfies every invariant
        (even degrees, leaf first child when dotted), skipping the checks."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "root", root)
        object.__setattr__(tree, "dotted", dotted)
        return tree

    def edge_count(self) -> int:
        return _subtree_edges(self.root)


def _subtree_edges(node: Node) -> int:
    return sum(1 + _subtree_edges(c) for c in node)


def r_index(tree: EvenTree) -> int:
    """Half the sum of right-child degrees; dotted edges count as ordinary."""
    total = _right_degree_sum(tree.root)
    assert total % 2 == 0, "sum of right-child degrees must be even"
    return total // 2


def _right_degree_sum(node: Node) -> int:
    half = len(node) // 2
    total = sum(len(c) for c in node[half:])
    for c in node:
        total += _right_degree_sum(c)
    return total


def enumerate_even_trees(edge_count: int) -> list[EvenTree]:
    """All even trees with the given edge count, ordered by parenthesis encoding."""
    if edge_count < 0 or edge_count % 2 != 0:
        raise ValueError(f"edge count must be even and nonnegative, got {edge_count}")
    # forests[e]: every child sequence whose subtrees use exactly e edges;
    # nodes[e]: those of even length, the even-tree nodes with e edges below.
    forests: list[tuple[Node, ...]] = [((),)]
    nodes: list[tuple[Node, ...]] = [((),)]
    for edges in range(1, edge_count + 1):
        forests.append(
            tuple(
                (first,) + rest
                for size in range(0, edges, 2)
                for first in nodes[size]
                for rest in forests[edges - 1 - size]
            )
        )
        nodes.append(tuple(f for f in forests[edges] if len(f) % 2 == 0))
    roots = sorted(nodes[edge_count], key=_node_paren)
    return [EvenTree(root) for root in roots]


def r_index_poly(n: int) -> Poly:
    """Generating polynomial of the r-index over even trees with 2n edges."""
    if n < 1:
        raise ValueError("n must be positive")
    return histogram_poly(map(r_index, enumerate_even_trees(2 * n)))


def _node_paren(node: Node) -> str:
    return "(" + "".join(_node_paren(c) for c in node) + ")"


def paren(tree: EvenTree) -> str:
    """Balanced-parenthesis text, root children concatenated, "*" when dotted."""
    body = "".join(_node_paren(c) for c in tree.root)
    return ("*" + body) if tree.dotted else body


def tree_shift(tree: EvenTree) -> EvenTree:
    """East step: solidify the dotted pair, or add a new dotted outer leaf pair."""
    return EvenTree._trusted(_shift_root(tree.root, tree.dotted), not tree.dotted)


def _shift_root(root: Node, dotted: bool) -> Node:
    return root if dotted else ((),) + root + ((),)


def tree_lift(tree: EvenTree, i: int, j: int) -> EvenTree:
    """North step from position (i, j); the position is needed because the
    lift landing on the line x = 2y is the identity."""
    if i < 0 or j < 0 or i < 2 * (j + 1):
        raise DomainError("lift unavailable at this position")
    if tree.dotted != (i % 2 == 1):
        raise DomainError("lift unavailable: dotted state does not match position")
    expected_edges = i + 1 if i % 2 == 1 else i
    if tree.edge_count() != expected_edges:
        raise DomainError("lift unavailable: edge count does not match position")
    if len(tree.root) < 4 and (i % 2 == 1 or j != i // 2 - 1):
        raise DomainError("lift unavailable: root degree below four")
    return EvenTree._trusted(_lift_root(tree.root, i, j), tree.dotted)


def _lift_root(root: Node, i: int, j: int) -> Node:
    """The lift step on the bare root, at a position where it is available.

    Off the identity case the root has at least four children: it gains two
    per shift at even x and loses two per other lift, so at (i, j) with the
    lift available it has at least 2 * ceil(i / 2) - 2j >= 4.
    """
    if i % 2 == 1:
        # Move the two edges adjacent to the dotted pair, with their
        # subtrees, to the outside of the (dotted) last child.
        new_last = (root[1],) + root[-1] + (root[-2],)
        return (root[0],) + root[2:-2] + (new_last,)
    if j == i // 2 - 1:
        return root
    # Move the outer pair, with subtrees, to the outside of the second child.
    new_first = (root[0],) + root[1] + (root[-1],)
    return (new_first,) + root[2:-1]


def path_to_tree(path: str) -> EvenTree:
    """Fold a path into a tree: shift per east step, lift per north step."""
    parse_path(path)
    root: Node = ()
    x = y = 0
    for ch in path:
        if ch == EAST:
            root = _shift_root(root, x % 2 == 1)
            x += 1
        else:
            root = _lift_root(root, x, y)
            y += 1
    return EvenTree._trusted(root, x % 2 == 1)


def tree_to_path(tree: EvenTree, endpoint: tuple[int, int] | None = None) -> str:
    """Recover the unique path folding to this tree at the given position.

    The endpoint defaults to (e, e/2) for an undotted tree with e edges, the
    position where complete trees live.  Unstepping from (i, j): on the line
    (i = 2j) the last step was the identity lift; at odd i a leaf last child
    means the dotted pair was just added (east), otherwise the odd lift is
    inverted (north); at even i a leaf first child means the pair was just
    solidified (east), otherwise the even lift is inverted (north).
    """
    edges = tree.edge_count()
    if endpoint is None:
        if tree.dotted:
            raise DomainError("endpoint required for a dotted tree")
        endpoint = (edges, edges // 2)
    i, j = endpoint
    if i < 0 or j < 0 or i < 2 * j:
        raise DomainError(f"position ({i},{j}) lies above the line x = 2y")
    if tree.dotted != (i % 2 == 1):
        raise DomainError(f"dotted state does not match position ({i},{j})")
    if edges != (i + 1 if i % 2 == 1 else i):
        raise DomainError(f"edge count {edges} does not match position ({i},{j})")
    steps: list[str] = []
    while i > 0 or j > 0:
        if i == 2 * j:
            steps.append(NORTH)
            j -= 1
            continue
        root = tree.root
        if i % 2 == 1:
            if root[-1] == ():
                # Inverse shift: drop the dotted outer leaves.
                tree = EvenTree._trusted(root[1:-1], False)
                steps.append(EAST)
                i -= 1
            else:
                # Inverse odd lift: pull the last child's outer subtrees back
                # next to the dotted pair.
                if j < 1 or len(root[-1]) < 2:
                    raise DomainError(NOT_IN_IMAGE)
                last = root[-1]
                tree = EvenTree._trusted(
                    (root[0], last[0]) + root[1:-1] + (last[-1], last[1:-1]), True
                )
                steps.append(NORTH)
                j -= 1
        else:
            if not root:
                raise DomainError(NOT_IN_IMAGE)
            if root[0] == ():
                # Inverse shift: the outer pair was dotted before this step.
                if len(root) < 2:
                    raise DomainError(NOT_IN_IMAGE)
                tree = EvenTree._trusted(root, True)
                steps.append(EAST)
                i -= 1
            else:
                # Inverse even lift: pull the first child's outer subtrees
                # back to the root's outer positions.
                if j < 1 or len(root[0]) < 2:
                    raise DomainError(NOT_IN_IMAGE)
                first = root[0]
                tree = EvenTree._trusted(
                    (first[0], first[1:-1]) + root[1:] + (first[-1],), False
                )
                steps.append(NORTH)
                j -= 1
    if tree.root or tree.dotted:
        raise DomainError(NOT_IN_IMAGE)
    return "".join(reversed(steps))


def tree_to_json(tree: EvenTree) -> dict:
    """JSON object {"dotted": bool, "root": [...]}, nodes as child arrays."""
    return {"dotted": tree.dotted, "root": _node_to_json(tree.root)}


def _node_to_json(node: Node) -> list:
    return [_node_to_json(c) for c in node]


def tree_from_json(obj: object) -> EvenTree:
    if not isinstance(obj, dict) or set(obj) != {"dotted", "root"}:
        raise ParseError('tree JSON must be {"dotted": bool, "root": [...]}')
    return EvenTree(obj["root"], obj["dotted"])
