"""Package layout: one matrix format, one stage fold, one stage walk, one
type-A recogniser, plain walks and real runtime checks.

The engine stores matrices only as sparse rows; the dense view
``ExtendedQuiver.rows`` is read in ``quiver.py`` alone.  The stage models
have one path: the stage fold holds each stage's mutation order and tau_k
as its cycle, sigma_k is streamed from it in place, and one walk keeps the
predicted matrix and the pending cycles from stage to stage; no reader
replays it for one stage.  The dense forms, the table of whole per-stage
permutations, the per-stage scan of the pending cycles and the full
per-stage rebuild of the prediction, kept as references, live in
``tests/helpers.py``, and must not come back into the package; nor may a
second type-A recogniser beside the one pass that ``is_type_a`` and
``cycle_tree`` share.  Every walk is iterative, so no input is bounded by
the recursion limit, and no check is an ``assert``, which ``python -O``
strips.  The quiver builder that skips the constructor's checks is reached
only from the constructor, after them, and from the parser, which makes
them line by line.  The one mutation kernel, which changes rows in place,
is reached only from ``quiver.py``, from the two walks that own their
rows, in ``green.py`` and ``matrixmodel.py``, from the green-state store,
which copies each row it changes, and from the one test fixture that
counts the store's mutations.  A vertex given to a public
member is range-checked by one routine, ``quiver._vertices``; the message
of a vertex outside 1..n is built elsewhere only at a few named sites.
One module owns the stages: the stage parts, the fold and the sigma stream
live in ``embedding.py`` beside the geometry, and the stage models import
them from there, neither from the other nor from the pipeline.  No other
module names an embedding's private state, and a cycle label is read, and
its refusal built, in ``EmbeddedQuiver.cycle`` alone.
Every function or class the package exports is named somewhere in it
outside its own definition, and every public method or property of an
exported class is read as an attribute somewhere in it outside its own
definition, or each has a stated reason to stay public; a member whose name another class also defines
counts as read only through ``self`` in its own class or by a stated
reader.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "greenseq"
MODULES = sorted(SRC.glob("*.py"))

# names that are either test oracles in tests/helpers.py or removed, the
# latter because the API that stays gives the same facts: none is defined
# in the package
MOVED = {
    "b_matrix", "extended_part", "permute_b_matrix", "block_matrix",
    "rotation_table", "stage_rotation", "coframe", "pending_set", "_tree_shape",
    "Stage", "stage_table", "stage_permutation", "_stage_rows",
    "frontier_matrix", "FrontierMatrix", "base_c_vector", "induced_permutation",
    "all_colors", "net_arrows", "predicted_matrix", "PredictedMatrix", "pending_cycles",
    "_frontier_labels", "arrow_dict", "is_identity", "summand_of", "color_counts",
    "standard_order", "from_cycle",
}

# exported functions and classes that nothing else in the package names,
# each with the reason it stays public
UNNAMED_EXPORTS = {
    "first_mgs": "the lexicographically first maximal green sequence, the third "
                 "construction for the Donaldson-Thomas cross-check",
    "color_count": "the paper's t-colour count of a gluing, which the acceptance "
                   "test of the paper's example reads",
    "oriented_triangles": "the public face of the recogniser's 3-cycle scan, "
                          "tested against brute force on arbitrary quivers",
    "green_vertices": "the green vertices of any one state; the green-state store "
                      "reads them from interned c-vectors, and the reference "
                      "walks in the tests read them this way",
}

# public methods and properties of exported classes that nothing else in
# the package reads as an attribute, each with the reason it stays public
UNREAD_MEMBERS = {
    "Quiver.from_arrows": "the constructor that takes (src, dst) pairs and sums "
                          "repeated entries, the way the README and the tests "
                          "build quivers",
    "ExtendedQuiver.entry": "one entry of a state, range-checked, in the paper's "
                            "1-based vertex names: a composite entry or a c-vector "
                            "coordinate read without the sparse layout",
    "Permutation.apply": "the image of one vertex, range-checked, in the paper's "
                         "1-based names: a point of sigma_k or of an induced "
                         "permutation read without the 0-based images",
    "Quiver.neighbors": "the sorted neighbors of one vertex, range-checked; the "
                        "recogniser reads the adjacency unchecked, where a check "
                        "at each of its calls would cost every recognition",
    "Permutation.identity": "the identity on 1..n, the induced permutation of a "
                            "maximal green sequence that returns every vertex home",
    "Permutation.then": "composition in the right-action order the paper writes "
                        "sigma_k in; the whole-permutation reference fold composes "
                        "with it",
    "EmbeddedCycle.triple": "a cycle's vertex set in the recogniser's sorted form, "
                            "which matches an embedded cycle to the 3-cycle it "
                            "came from",
    "ExchangeGraphSlice.iso_class_count": "the cluster count of a small exchange "
                                          "graph, kept until the cluster quotient "
                                          "gives it a caller or replaces it",
    "ExtendedQuiver.quiver": "the mutable block of a state as a Quiver, how a "
                             "mutated state is compared with arrow-rule mutation",
    "TypeAReport.condition": "one named condition of an is_type_a report, how a "
                             "caller reads the witness of the condition that fails",
    "PipelineResult.sequence": "the verified sequence of mgs_for_type_a, which the "
                               "README shows as mgs_for_type_a(q).sequence",
}

# public members of exported classes whose name another class of the
# package also defines, so that a read ``x.name`` may be of the other one:
# each counts as read through ``self.name`` in its own class, or by its
# entry here, which names its reader
SHARED_NAME_READS = {
    "ModelReport.ok": "model-check in cli.py reads the verdict of verify_model's report",
    "ModelReport.text": "model-check in cli.py prints verify_model's report",
    "PermIdentityReport.text": "model-check --permutations in cli.py prints "
                               "check_permutation_identities' report",
    "StageParts.sequence": "associated_sequence and the stage fold in embedding.py "
                           "read stage_parts(e, k).sequence()",
}

# the unchecked quiver builder and the only scopes allowed to name it
BUILDER = "_fill_quiver"
BUILDER_CALLERS = {"Quiver.__post_init__", "parse_quiver"}

# the in-place mutation kernel and the only scopes allowed to name it
# ("<module>" is an import): the state-keeping wrapper, the walks and the
# green-state store, which keeps the states it makes; among the tests, only
# the fixture that counts the store's mutations
KERNEL = "_mutate_rows"
KERNEL_CALLERS = {
    "quiver.py": {"matrix_mutate", "apply_sequence"},
    "green.py": {"<module>", "verify_green", "_GreenStates.move"},
    "matrixmodel.py": {"<module>", "verify_model"},
}
KERNEL_COUNTERS = {"test_green_states.py": {"mutations"}}


# the message of a vertex refused as outside 1..n, and the only scopes
# that may build it: the shared vertex routine; the mutation kernel, which
# the walks reach unchecked; verify_green, which checks each step as its
# walk reaches it, so that a red step before a bad one is reported first;
# the parser, which names the line; and the Quiver constructor's arrow check
RANGE_MESSAGE = "out of range 1.."
RANGE_SITES = {
    ("quiver.py", "_vertices"), ("quiver.py", "_mutate_rows"), ("quiver.py", "parse_quiver"),
    ("quiver.py", "Quiver.__post_init__"), ("green.py", "verify_green"),
}

# the message of a label with no cycle, built only in the one checked read
LABEL_MESSAGE = "no cycle labelled"
LABEL_SITES = {("embedding.py", "EmbeddedQuiver.cycle")}

# an embedding's kept state, which only embedding.py reads or writes as an
# attribute: the cycles by label, the children, the geometry, the stage
# fold and the outlet list (the functions that keep the geometry and the
# fold share their names, and the stage models import the fold)
EMBEDDING_PRIVATE = ("_by_label", "_child_y", "_child_z", "_geometry", "_stage_fold", "_outlets")

# the package modules each stage model may import from: the stage facts
# come from embedding alone, so neither model imports the other, nor the
# pipeline in assocseq and what it pulls in
MODEL_IMPORTS = {"permmodel.py": {"embedding"}, "matrixmodel.py": {"embedding", "quiver"}}


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"quiver.py", "green.py", "matrixmodel.py", "permmodel.py"}


def _exports() -> list[tuple[str, ast.FunctionDef | ast.ClassDef]]:
    """(home module file, definition) of every function and class that
    ``__init__.py`` exports."""
    found = []
    for node in _tree(SRC / "__init__.py").body:
        if isinstance(node, ast.ImportFrom):
            home = f"{node.module}.py"
            defs = {
                d.name: d for d in _tree(SRC / home).body
                if isinstance(d, (ast.FunctionDef, ast.ClassDef))
            }
            found += [(home, defs[a.name]) for a in node.names if a.name in defs]
    return found


def _span(d: ast.AST) -> tuple[int, int]:
    """First and last line of a definition, its decorators included."""
    return min([d.lineno] + [dec.lineno for dec in d.decorator_list]), d.end_lineno


def test_every_export_is_named_in_the_package():
    # a function or class that __init__.py exports is named, in code or in
    # prose, somewhere in the package outside its own definition, or it
    # has a reason to stay public
    lines = {
        p.name: p.read_text(encoding="utf-8").splitlines()
        for p in MODULES if p.name != "__init__.py"
    }
    unnamed = []
    for home, d in _exports():
        start, end = _span(d)
        word = re.compile(rf"\b{d.name}\b")
        if not any(
            word.search(line)
            for name, text in lines.items()
            for i, line in enumerate(text, 1)
            if not (name == home and start <= i <= end)
        ):
            unnamed.append(d.name)
    assert sorted(unnamed) == sorted(UNNAMED_EXPORTS)


def _member_owners() -> dict[str, set[str]]:
    """Member name -> the package classes that define it: as a method, a
    class-level field or an attribute set through ``self``."""
    owners: dict[str, set[str]] = {}
    for path in MODULES:
        for cls in ast.walk(_tree(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = {d.name for d in cls.body if isinstance(d, ast.FunctionDef)}
            names.update(
                d.target.id for d in cls.body
                if isinstance(d, ast.AnnAssign) and isinstance(d.target, ast.Name)
            )
            names.update(
                node.attr for node in ast.walk(cls)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
            )
            for name in names:
                owners.setdefault(name, set()).add(f"{path.name}:{cls.name}")
    return owners


def test_every_public_member_is_read_in_the_package():
    # a public method or property of an exported class is read as an
    # attribute (``x.name``) somewhere in the package outside its own
    # definition, or it has a reason to stay public; a name that another
    # class defines too counts only through ``self.name`` in its own class
    # or by its entry in SHARED_NAME_READS
    reads = {
        p.name: [
            (node.lineno, node.attr, isinstance(node.value, ast.Name) and node.value.id == "self")
            for node in ast.walk(_tree(p)) if isinstance(node, ast.Attribute)
        ]
        for p in MODULES
    }
    owners = _member_owners()
    unread, shared = [], []
    for home, cls in _exports():
        if not isinstance(cls, ast.ClassDef):
            continue
        for d in cls.body:
            if not isinstance(d, ast.FunctionDef) or d.name.startswith("_"):
                continue
            member = f"{cls.name}.{d.name}"
            start, end = _span(d)
            found = [
                (name, line, is_self)
                for name, hits in reads.items()
                for line, attr, is_self in hits
                if attr == d.name and not (name == home and start <= line <= end)
            ]
            if len(owners[d.name]) > 1:
                own_reads = [
                    (name, line, is_self) for name, line, is_self in found
                    if name == home and is_self and cls.lineno <= line <= cls.end_lineno
                ]
                if not own_reads and found and member in SHARED_NAME_READS:
                    shared.append(member)
                else:
                    found = own_reads
            if not found:
                unread.append(member)
    assert sorted(unread) == sorted(UNREAD_MEMBERS)
    assert sorted(shared) == sorted(SHARED_NAME_READS)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "quiver.py"], ids=lambda p: p.name)
def test_dense_view_read_only_in_quiver(path):
    hits = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute) and node.attr in ("rows", "_dense"):
            hits.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id == "_dense":
            hits.append(f"line {node.lineno}: _dense")
        elif isinstance(node, ast.alias) and node.name == "_dense":
            hits.append("imports _dense")
    assert not hits, f"{path.name} reads the dense view: {hits}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_moved_names_not_defined(path):
    defined = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.append((node.lineno, node.id))
        elif isinstance(node, ast.alias):
            defined.append((0, node.asname or node.name))
    hits = sorted((line, name) for line, name in defined if name in MOVED)
    assert not hits, f"{path.name} defines {hits}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    hits = []
    for fn in ast.walk(_tree(path)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == fn.name or (
                isinstance(callee, ast.Attribute) and callee.attr == fn.name
                and isinstance(callee.value, ast.Name) and callee.value.id in ("self", "cls")
            ):
                hits.append(f"line {node.lineno}: {fn.name}")
    assert not hits, f"{path.name} recurses: {hits}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    hits = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert not hits, f"{path.name} has assert statements at lines {hits}"


def _scoped(tree: ast.AST):
    """(enclosing def or class path, node) for every node below ``tree``;
    the path is "" at module level and excludes the node's own name."""
    work = [(tree, "")]
    while work:
        node, scope = work.pop()
        for child in ast.iter_child_nodes(node):
            yield scope, child
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            work.append((child, inner))


def _uses(tree: ast.AST, name: str) -> list[tuple[str, int]]:
    """(enclosing def or class path, line) of every mention of ``name``,
    other than its own definition at module level."""
    hits = []
    for scope, child in _scoped(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if child.name == name and scope:
                hits.append((scope, child.lineno))
        elif (
            isinstance(child, ast.Name) and child.id == name
            or isinstance(child, ast.Attribute) and child.attr == name
            or isinstance(child, ast.alias) and name in (child.name, child.asname)
            or isinstance(child, ast.Constant) and child.value == name
        ):
            hits.append((scope or "<module>", child.lineno))
    return sorted(hits, key=lambda hit: hit[1])


TEST_MODULES = sorted(p for p in Path(__file__).parent.glob("*.py") if p.name != "test_layout.py")


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_only_constructor_and_parser_reach_the_builder(path):
    uses = _uses(_tree(path), BUILDER)
    if path.name == "quiver.py" and path.parent == SRC:
        assert {scope for scope, _ in uses} == BUILDER_CALLERS, uses
    else:
        assert not uses, f"{path.name} reaches {BUILDER}: {uses}"


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_only_the_walks_reach_the_kernel(path):
    uses = _uses(_tree(path), KERNEL)
    if path.parent == SRC and path.name in KERNEL_CALLERS:
        assert {scope for scope, _ in uses} == KERNEL_CALLERS[path.name], uses
    elif path.parent != SRC and path.name in KERNEL_COUNTERS:
        assert {scope for scope, _ in uses} == KERNEL_COUNTERS[path.name], uses
    else:
        assert not uses, f"{path.name} reaches {KERNEL}: {uses}"


def _message_sites(message: str) -> set[tuple[str, str]]:
    """(module file, enclosing scope) of every f-string that builds ``message``."""
    return {
        (path.name, scope) for path in MODULES for scope, node in _scoped(_tree(path))
        if isinstance(node, ast.JoinedStr) and any(
            isinstance(part, ast.Constant) and message in part.value for part in node.values
        )
    }


def test_one_routine_checks_a_vertex_range():
    # a public member takes its vertices through quiver._vertices, so no
    # copy of its range check comes back
    assert _message_sites(RANGE_MESSAGE) == RANGE_SITES


def test_one_read_checks_a_cycle_label():
    # the child lookups and the geometry read a label through
    # EmbeddedQuiver.cycle, so no copy of its refusal comes back
    assert _message_sites(LABEL_MESSAGE) == LABEL_SITES


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "embedding.py"], ids=lambda p: p.name)
def test_embedding_state_named_only_in_embedding(path):
    hits = [
        f"line {node.lineno}: .{node.attr}" for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr in EMBEDDING_PRIVATE
    ]
    assert not hits, f"{path.name} names an embedding's private state: {hits}"


@pytest.mark.parametrize("name", sorted(MODEL_IMPORTS))
def test_stage_models_import_the_stages_from_embedding(name):
    imported = {
        node.module for node in ast.walk(_tree(SRC / name))
        if isinstance(node, ast.ImportFrom) and node.level
    }
    assert imported <= MODEL_IMPORTS[name], f"{name} imports {sorted(imported)}"
