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

A tree is stored flat: the paren text of the root's children and the dotted
bit, so equality, hashing and every statistic are loops over one string at
any depth.  The folds work on a form in which every vertex is a deque of its
children (both folds keep leaves as the shared () until a lift grows one);
each step pushes and pops at or next to the ends of the root and of one
child, in O(1), and a fold converts to or from the text once.  path_to_tree
checks each step inside its fold loop, raising parse_path's error for the
first bad one.  One walker writes tree text (_paren_body), checking every
vertex as it goes: the public constructor hands it the nested sequences a
user gave, then checks the text itself (_check), and path_to_tree and
tree_lift hand it their working form.
"""

from __future__ import annotations

from collections import deque

from .errors import NOT_IN_IMAGE, DomainError, ParseError
from .frozen import Frozen
from .lattice import EAST, NORTH, _require_int, _step_error
from .poly import Poly, histogram_poly


class _Vertex(deque):
    """A vertex of the working form: the deque of its children.  CPython frees
    nested plain deques by C recursion, which overflows the stack on a deep
    tree; instances of a subclass are freed iteratively."""

    __slots__ = ()


class EvenTree(Frozen):
    """body is the paren text of the root's children (paren without the "*"),
    balanced and with every vertex of even degree; dotted, a bool, marks the
    outer pair, and a dotted body starts with a leaf."""

    body: str
    dotted: bool

    def __init__(self, root: object = (), dotted: bool = False) -> None:
        """Build from the root's children as nested sequences, a leaf being ()."""
        if not isinstance(dotted, bool):
            raise ParseError(f"dotted flag must be a boolean, got {dotted!r}")
        body = _paren_body(root)
        _check(body, dotted)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "dotted", dotted)

    def edge_count(self) -> int:
        return len(self.body) // 2


def _paren_body(root: object) -> str:
    """The paren text of the children of root, given as nested sequences or
    as the working form; walked with an explicit stack, the root checked
    like the other vertices."""
    out: list[str] = []
    stack = [iter((root,))]
    while stack:
        for child in stack[-1]:  # write leaves, descend into the next inner child
            if not isinstance(child, (tuple, list, _Vertex)):
                raise ParseError(f"tree node must be a sequence of children, got {child!r}")
            if child:
                out.append("(")
                stack.append(iter(child))
                break
            out.append("()")
        else:
            out.append(")")
            stack.pop()
    return "".join(out)[1:-2]  # without the root's parentheses and the last ")"


def _check(body: str, dotted: bool) -> None:
    """Refuse paren text that is unbalanced or has a vertex of odd degree, and
    a dotted tree without two root children of which the first is a leaf."""
    degrees = [0]  # children seen so far of each open vertex, the root first
    for k, ch in enumerate(body + ")"):  # the final ")" closes the root
        if ch == "(":
            degrees[-1] += 1
            degrees.append(0)
        elif ch != ")":
            raise ParseError(f"tree text: unexpected {ch!r} at index {k + dotted}")
        elif (len(degrees) == 1) != (k == len(body)):
            raise ParseError(f"tree text: unbalanced parentheses at index {k + dotted}")
        elif (degree := degrees.pop()) % 2 != 0:
            raise ParseError(f"vertex with {degree} children: every degree must be even")
    if dotted and not body.startswith("()"):
        raise ParseError("dotted tree needs at least two root children, the first a leaf")


def _nested(body: str, vertex: type, leaf: type) -> list | _Vertex:
    """The root's children as nested containers of type vertex, each leaf a
    leaf(): lists for JSON, or the working form, _Vertex with tuple leaves
    (the shared (), which a lift replaces by a vertex when it grows one)."""
    stack = [vertex()]
    for ch in body.replace("()", "."):  # "." marks a leaf
        if ch == ".":
            stack[-1].append(leaf())
        elif ch == "(":
            child = vertex()
            stack[-1].append(child)
            stack.append(child)
        else:
            stack.pop()
    return stack[0]


def r_index(tree: EvenTree) -> int:
    """Half the sum of right-child degrees; dotted edges count as ordinary."""
    total = 0
    stack: list[list[int]] = [[]]  # child degrees seen so far, per open vertex
    for ch in tree.body:
        if ch == "(":
            stack.append([])
        else:
            degrees = stack.pop()
            stack[-1].append(len(degrees))
            total += sum(degrees[len(degrees) // 2 :])
    root = stack[0]  # the root is a vertex like the others
    total += sum(root[len(root) // 2 :])
    assert total % 2 == 0, "sum of right-child degrees must be even"
    return total // 2


def enumerate_even_trees(edge_count: int) -> list[EvenTree]:
    """All even trees with the given edge count, ordered by parenthesis encoding.
    An edge count that is not an int raises TypeError."""
    _require_int(edge_count=edge_count)
    if edge_count < 0 or edge_count % 2 != 0:
        raise ValueError(f"edge count must be even and nonnegative, got {edge_count}")
    # bodies[h]: the paren text of the children of every even-tree vertex with
    # 2h edges below it; unless empty, two subtrees and then the children of
    # another such vertex.
    bodies: list[tuple[str, ...]] = [("",)]
    for half in range(1, edge_count // 2 + 1):
        bodies.append(
            tuple(
                "(" + a + ")(" + b + ")" + rest
                for ha in range(half)
                for hb in range(half - ha)
                for a in bodies[ha]
                for b in bodies[hb]
                for rest in bodies[half - 1 - ha - hb]
            )
        )
    return [EvenTree._trusted(body, False) for body in sorted(bodies[edge_count // 2])]


def r_index_poly(n: int) -> Poly:
    """Generating polynomial of the r-index over even trees with 2n edges."""
    _require_int(n=n)
    if n < 1:
        raise ValueError("n must be positive")
    return histogram_poly(map(r_index, enumerate_even_trees(2 * n)))


def paren(tree: EvenTree) -> str:
    """Balanced-parenthesis text, root children concatenated, "*" when dotted."""
    return ("*" + tree.body) if tree.dotted else tree.body


def tree_from_paren(text: str) -> EvenTree:
    """Read the text that `paren` prints, with the constructor's checks."""
    dotted = text.startswith("*")
    body = text[1:] if dotted else text
    _check(body, dotted)
    return EvenTree._trusted(body, dotted)


def tree_shift(tree: EvenTree) -> EvenTree:
    """East step: solidify the dotted pair, or add a new dotted outer leaf pair."""
    body = tree.body if tree.dotted else "()" + tree.body + "()"
    return EvenTree._trusted(body, not tree.dotted)


def tree_lift(tree: EvenTree, i: int, j: int) -> EvenTree:
    """North step from position (i, j); the position is needed because the
    lift landing on the line x = 2y is the identity."""
    if i < 0 or j < 0 or i < 2 * (j + 1):
        raise DomainError("lift unavailable at this position")
    if tree.dotted != (i % 2 == 1):
        raise DomainError("lift unavailable: dotted state does not match position")
    if tree.edge_count() != (i + 1 if i % 2 == 1 else i):
        raise DomainError("lift unavailable: edge count does not match position")
    root = _nested(tree.body, _Vertex, tuple)
    if len(root) < 4 and (i % 2 == 1 or j != i // 2 - 1):
        raise DomainError("lift unavailable: root degree below four")
    _lift(root, i, j)
    return EvenTree._trusted(_paren_body(root), tree.dotted)


def _lift(root: _Vertex, i: int, j: int) -> None:
    """The lift step on the working form, at a position where it is available.

    Off the identity case the root has at least four children: it gains two
    per shift at even x and loses two per other lift, so at (i, j) with the
    lift available it has at least 2 * ceil(i / 2) - 2j >= 4.
    """
    if i % 2 == 1:
        # Move the two edges adjacent to the dotted pair, with their
        # subtrees, to the outside of the (dotted) last child.
        last = root.pop() or _Vertex()  # a leaf () gets a vertex to grow
        last.append(root.pop())
        first = root.popleft()
        last.appendleft(root.popleft())
        root.appendleft(first)
        root.append(last)
    elif j != i // 2 - 1:
        # Move the outer pair, with subtrees, to the outside of the second child.
        first = root.popleft()
        second = root.popleft() or _Vertex()
        second.appendleft(first)
        second.append(root.pop())
        root.appendleft(second)


def path_to_tree(path: str) -> EvenTree:
    """Fold a path into a tree: shift per east step, lift per north step.

    Each step is checked as it is folded, with parse_path's errors: a north
    step from (x, y) is legal exactly when x >= 2(y + 1).
    """
    root = _Vertex()
    x = y = 0
    for ch in path:
        if ch == EAST:
            if x % 2 == 0:
                root.appendleft(())
                root.append(())
            x += 1
        elif ch == NORTH and x >= 2 * (y + 1):
            _lift(root, x, y)
            y += 1
        else:
            raise _step_error(ch, x + y)
    return EvenTree._trusted(_paren_body(root), x % 2 == 1)


def tree_to_path(tree: EvenTree, endpoint: tuple[int, int] | None = None) -> str:
    """Recover the unique path folding to this tree at the given position.

    The endpoint defaults to (e, e/2) for an undotted tree with e edges, the
    position where complete trees live.  Unstepping from (i, j): on the line
    (i = 2j) the last step was the identity lift; at odd i a leaf last child
    means the dotted pair was just added (east), otherwise the odd lift is
    inverted (north); at even i a leaf first child means the pair was just
    solidified (east), otherwise the even lift is inverted (north).  Each
    unstep keeps the edge count at i + 1 (odd i) or i (even i), so the root
    has children wherever one is read and is empty once the walk ends.
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
    root = _nested(tree.body, _Vertex, tuple)
    steps: list[str] = []
    while i > 0 or j > 0:
        if i != 2 * j:
            # The child the last lift would have grown: last at odd i, first at even i.
            grown = root[-1] if i % 2 == 1 else root[0]
            if not grown:
                # Inverse shift: drop the dotted outer leaves (odd i), or make
                # the outer pair dotted again (even i).
                if i % 2 == 1:
                    root.popleft()
                    root.pop()
                steps.append(EAST)
                i -= 1
                continue
            if j < 1 or len(grown) < 2:
                raise DomainError(NOT_IN_IMAGE)
            if i % 2 == 1:
                # Inverse odd lift: the outer subtrees go back next to the dotted pair.
                root.insert(1, grown.popleft())
                root.insert(-1, grown.pop())
            else:
                # Inverse even lift: they go back to the root's outer positions.
                root.appendleft(grown.popleft())
                root.append(grown.pop())
        steps.append(NORTH)
        j -= 1
    return "".join(reversed(steps))


def tree_to_json(tree: EvenTree) -> dict:
    """JSON object {"dotted": bool, "root": [...]}, nodes as child arrays."""
    return {"dotted": tree.dotted, "root": _nested(tree.body, list, list)}


def tree_from_json(obj: object) -> EvenTree:
    if not isinstance(obj, dict) or set(obj) != {"dotted", "root"}:
        raise ParseError('tree JSON must be {"dotted": bool, "root": [...]}')
    return EvenTree(obj["root"], obj["dotted"])
