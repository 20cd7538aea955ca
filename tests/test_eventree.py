import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import tricatalan
from tricatalan import eventree
from tricatalan.errors import DomainError, ParseError
from tricatalan.eventree import (
    EvenTree,
    enumerate_even_trees,
    paren,
    path_to_tree,
    r_index,
    r_index_poly,
    tree_from_json,
    tree_from_paren,
    tree_lift,
    tree_shift,
    tree_to_json,
    tree_to_path,
)
from tricatalan.lattice import (
    catalan3,
    enumerate_paths,
    lattice_poly,
    path_endpoint,
    weight_exponent,
)
from tricatalan.poly import Poly
from tricatalan.verify import _random_path

LEAF = ()
CHERRY = (LEAF, LEAF)


def test_construction_validates_even_degrees():
    EvenTree()
    EvenTree(CHERRY)
    with pytest.raises(ParseError):
        EvenTree((LEAF,))
    with pytest.raises(ParseError):
        EvenTree((CHERRY, (LEAF,)))


def test_dotted_invariants():
    EvenTree(CHERRY, dotted=True)
    with pytest.raises(ParseError):
        EvenTree((), dotted=True)
    with pytest.raises(ParseError):
        EvenTree((CHERRY, LEAF), dotted=True)  # first child must be a leaf
    for flag in (1, 0, None, "yes"):
        with pytest.raises(ParseError, match="boolean"):
            EvenTree(CHERRY, dotted=flag)


def test_edge_count():
    assert EvenTree().edge_count() == 0
    assert EvenTree(CHERRY).edge_count() == 2
    assert EvenTree((LEAF, CHERRY)).edge_count() == 4


def test_r_index_examples():
    assert r_index(EvenTree((LEAF, LEAF, LEAF, LEAF))) == 0
    assert r_index(EvenTree((LEAF, CHERRY))) == 1
    assert r_index(EvenTree()) == 0
    assert r_index(EvenTree((CHERRY, LEAF))) == 0


def test_enumerate_even_trees_counts():
    assert len(enumerate_even_trees(0)) == 1
    assert len(enumerate_even_trees(2)) == 1
    assert len(enumerate_even_trees(4)) == 3
    assert len(enumerate_even_trees(6)) == 12
    with pytest.raises(ValueError):
        enumerate_even_trees(3)
    with pytest.raises(ValueError):
        enumerate_even_trees(-2)


def test_enumerate_even_trees_order():
    assert [paren(t) for t in enumerate_even_trees(4)] == [
        "(()())()",
        "()(()())",
        "()()()()",
    ]


def test_r_index_poly_examples():
    assert r_index_poly(1) == Poly((1,))
    assert r_index_poly(2) == Poly((2, 1))
    assert r_index_poly(3) == Poly((5, 5, 2))
    with pytest.raises(ValueError):
        r_index_poly(0)


def test_shift_trace():
    t = tree_shift(EvenTree())
    assert t == EvenTree(CHERRY, dotted=True)
    t = tree_shift(t)
    assert t == EvenTree(CHERRY)
    t = tree_shift(t)
    assert t == EvenTree((LEAF, LEAF, LEAF, LEAF), dotted=True)
    assert paren(t) == "*()()()()"


def test_lift_even_case():
    star = EvenTree((LEAF, LEAF, LEAF, LEAF))
    lifted = tree_lift(star, 4, 0)
    assert lifted == EvenTree((CHERRY, LEAF))
    assert r_index(lifted) == 0


def test_lift_identity_on_the_line():
    t = EvenTree((CHERRY, LEAF))
    assert tree_lift(t, 4, 1) == t
    cherry = EvenTree(CHERRY)
    assert tree_lift(cherry, 2, 0) == cherry


def test_lift_odd_case_increments_r_index():
    t = EvenTree((LEAF, LEAF, LEAF, LEAF), dotted=True)
    lifted = tree_lift(t, 3, 0)
    assert paren(lifted) == "*()(()())"
    assert r_index(lifted) == r_index(t) + 1


def test_lift_unavailable():
    with pytest.raises(DomainError, match="lift unavailable"):
        tree_lift(EvenTree(), 0, 0)
    with pytest.raises(DomainError, match="lift unavailable"):
        tree_lift(EvenTree(CHERRY, dotted=True), 1, 0)
    with pytest.raises(DomainError, match="lift unavailable"):
        tree_lift(EvenTree(CHERRY), 3, 0)  # dotted state mismatch
    with pytest.raises(DomainError, match="lift unavailable"):
        tree_lift(EvenTree(CHERRY), 4, 0)  # edge count mismatch
    with pytest.raises(DomainError, match="lift unavailable: root degree below four"):
        tree_lift(EvenTree((CHERRY, LEAF)), 4, 0)


def test_fold_long_trace():
    t = path_to_tree("EEEENEEENNEN")
    assert t.edge_count() == 8
    assert not t.dotted
    assert r_index(t) == 2
    assert tree_to_path(t) == "EEEENEEENNEN"


def test_fold_examples():
    assert path_to_tree("") == EvenTree()
    assert paren(path_to_tree("EEEN")) == "*()(()())"
    four = path_to_tree("EENEEN")
    assert four == EvenTree((LEAF, LEAF, LEAF, LEAF))
    assert r_index(four) == 0


def test_fold_invariants_along_the_way():
    # Dotted exactly at odd i, leaf first child when dotted, and the edge
    # count is i (even) or i+1 (odd, dotted pair included).
    for path in enumerate_paths(7, 3):
        x = y = 0
        tree = EvenTree()
        for ch in path:
            if ch == "E":
                tree = tree_shift(tree)
                x += 1
            else:
                tree = tree_lift(tree, x, y)
                y += 1
            assert tree.dotted == (x % 2 == 1)
            if tree.dotted:
                assert tree.body.startswith("()")
            assert tree.edge_count() == (x + 1 if x % 2 == 1 else x)


def test_unstep_examples():
    assert tree_to_path(EvenTree(CHERRY), (2, 1)) == "EEN"
    assert tree_to_path(EvenTree(CHERRY)) == "EEN"  # endpoint inferred
    assert tree_to_path(EvenTree(CHERRY), (2, 0)) == "EE"
    assert tree_to_path(EvenTree()) == ""


def test_unstep_endpoint_validation():
    with pytest.raises(DomainError, match="endpoint required"):
        tree_to_path(EvenTree(CHERRY, dotted=True))
    with pytest.raises(DomainError, match="does not match"):
        tree_to_path(EvenTree(CHERRY), (4, 2))
    with pytest.raises(DomainError, match="does not match"):
        tree_to_path(EvenTree(CHERRY), (3, 1))
    with pytest.raises(DomainError, match="above the line"):
        tree_to_path(EvenTree(CHERRY), (1, 1))


def test_unstep_rejects_states_outside_the_image():
    with pytest.raises(DomainError, match="not in the image"):
        tree_to_path(EvenTree((CHERRY, LEAF)), (4, 0))


def test_roundtrip_exhaustive_small():
    for n in range(1, 5):
        paths = enumerate_paths(2 * n, n)
        trees = [path_to_tree(p) for p in paths]
        assert len(set(trees)) == len(trees)
        assert set(trees) == set(enumerate_even_trees(2 * n))
        for p, t in zip(paths, trees):
            assert r_index(t) == weight_exponent(p)
            assert tree_to_path(t) == p
        assert r_index_poly(n) == lattice_poly(2 * n, n)


def test_roundtrip_at_intermediate_positions():
    for i in range(9):
        for j in range(i // 2 + 1):
            images = []
            for p in enumerate_paths(i, j):
                t = path_to_tree(p)
                assert tree_to_path(t, (i, j)) == p
                images.append(t)
            assert len(set(images)) == len(images)


def test_long_path_roundtrip_at_its_endpoint():
    path = _random_path(random.Random(6000), 6000)
    assert tree_to_path(path_to_tree(path), path_endpoint(path)) == path


def test_fold_and_unfold_states_equal_their_revalidated_copies(monkeypatch):
    # The fold and unfold steps skip the constructor's checks, so every tree
    # they build must be one the constructor would accept, and compare and
    # hash like it (verify compares these trees as sets).
    # path_to_tree builds one tree per path; stepping each path through the
    # public tree_shift/tree_lift as well records one tree per step.
    built = []
    trusted = EvenTree._trusted

    def recording(cls, root, dotted):
        state = trusted(root, dotted)
        built.append(state)
        return state

    monkeypatch.setattr(EvenTree, "_trusted", classmethod(recording))
    for i in range(13):
        for j in range(i // 2 + 1):
            for p in enumerate_paths(i, j):
                assert tree_to_path(path_to_tree(p), (i, j)) == p
                stepped, x, y = EvenTree(), 0, 0
                for ch in p:
                    if ch == "E":
                        stepped, x = tree_shift(stepped), x + 1
                    else:
                        stepped, y = tree_lift(stepped, x, y), y + 1
                assert path_to_tree(p) == stepped
    assert len(built) > 10 ** 4
    for state in built:
        checked = EvenTree(tree_to_json(state)["root"], state.dotted)
        assert checked == state and hash(checked) == hash(state)


def test_trusted_writer_gives_the_checked_writers_text(monkeypatch):
    # The folds write their working form with _trusted_body, which checks no
    # vertex; on every fold it must write what the checking _paren_body does.
    written = []
    trusted = eventree._trusted_body

    def compared(root):
        text = trusted(root)
        assert text == eventree._paren_body(root)
        written.append(text)
        return text

    monkeypatch.setattr(eventree, "_trusted_body", compared)
    count = 0
    for i in range(13):
        for j in range(i // 2 + 1):
            for p in enumerate_paths(i, j):
                assert path_to_tree(p).body == written[-1]
                count += 1
    assert len(written) == count


def test_deep_and_long_paths_fold_and_unfold_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    k = 10 ** 5
    staircase = "E" * (2 * k) + "N" * k  # folds into a tree of depth k
    tree = path_to_tree(staircase)
    assert tree_to_path(tree) == staircase
    assert r_index(tree) == weight_exponent(staircase)
    assert hash(tree) == hash(tree_from_paren(paren(tree)))
    assert len(paren(tree)) == 4 * k
    path = _random_path(random.Random(1), 10 ** 5)
    assert tree_to_path(path_to_tree(path), path_endpoint(path)) == path


def test_unfold_peaks_no_higher_than_the_fold():
    # The unfold's working form keeps leaves as the shared (), as the fold
    # does, rather than giving every leaf a deque of its own.
    path = _random_path(random.Random(1), 10 ** 5)
    tree = path_to_tree(path)
    peaks = []
    for run in (lambda: path_to_tree(path), lambda: tree_to_path(tree, path_endpoint(path))):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    fold, unfold = peaks
    assert unfold <= fold


def test_deep_working_forms_are_freed_on_a_small_thread_stack():
    # CPython frees nested plain deques by C recursion, so a deep fold, or an
    # unfold that fails halfway, would overflow a small stack and crash.
    code = """if True:
        import threading
        from tricatalan.errors import DomainError
        from tricatalan.eventree import path_to_tree, tree_to_path
        threading.stack_size(256 * 1024)
        def work():
            deep = path_to_tree("E" * 60000 + "N" * 30000)
            try:
                tree_to_path(deep, (60000, 29998))
            except DomainError:
                print("refused")
        worker = threading.Thread(target=work)
        worker.start()
        worker.join()
    """
    env = dict(os.environ, PYTHONPATH=str(Path(tricatalan.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0 and done.stdout == "refused\n", done.stderr


def test_the_three_readers_agree_on_every_small_tree():
    for edges in range(0, 11, 2):
        for tree in enumerate_even_trees(edges):
            nested = EvenTree(tree_to_json(tree)["root"])
            for same in (nested, tree_from_paren(paren(tree)), tree_from_json(tree_to_json(tree))):
                assert same == tree and hash(same) == hash(tree)


def test_paren_reader_refuses_what_the_constructor_refuses():
    assert tree_from_paren("*()(()())") == EvenTree((LEAF, (LEAF, LEAF)), dotted=True)
    for text, message in (
        ("(()", "unbalanced"),
        ("())(", "unbalanced"),
        ("()x", "unexpected"),
        ("(())", "every degree must be even"),
        ("()()()", "every degree must be even"),
        ("*(()())()", "first a leaf"),
        ("*", "first a leaf"),
    ):
        with pytest.raises(ParseError, match=message):
            tree_from_paren(text)


def test_even_tree_count_matches_catalan3():
    for n in range(1, 7):
        assert len(enumerate_even_trees(2 * n)) == catalan3(n)


def test_json_roundtrip():
    t = path_to_tree("EEENEN")
    assert tree_to_json(t) == {"dotted": False, "root": [[], [[], []]]}
    assert tree_from_json(tree_to_json(t)) == t
    dotted = path_to_tree("EEEN")
    assert tree_from_json(tree_to_json(dotted)) == dotted


def test_json_shape_errors():
    with pytest.raises(ParseError):
        tree_from_json({"root": []})
    with pytest.raises(ParseError):
        tree_from_json({"dotted": 0, "root": []})
    with pytest.raises(ParseError):
        tree_from_json({"dotted": False, "root": [[]]})
    with pytest.raises(ParseError):
        tree_from_json({"dotted": False, "root": "()"})
