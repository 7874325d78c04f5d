"""Command-line behavior: golden outputs, exit codes, flag handling."""

from __future__ import annotations

import io
import contextlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import greenseq as gs
from greenseq.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def run(*args: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


GOLDEN_CASES = {
    "mgs_zigzag_root123.txt": ("mgs", FIXTURES / "zigzag7.quiver", "--root", "1,2,3"),
    "mgs_zigzag_root567.txt": ("mgs", FIXTURES / "zigzag7.quiver", "--root", "5,6,7"),
    "mgs_zigzag_paper_order.txt": (
        "mgs", FIXTURES / "zigzag7.quiver", "--root", "1,2,3", "--paper-order",
    ),
    "enumerate_a3cycle.txt": ("enumerate", FIXTURES / "a3cycle.quiver"),
    "verify_a3cycle_mgs.txt": ("verify", FIXTURES / "a3cycle.quiver", "--seq", "1 3 2 1"),
    "embed_tree15.txt": ("embed", FIXTURES / "tree15.quiver", "--root", "1,2,3"),
    "embed_chain10.txt": ("embed", FIXTURES / "chain10.quiver", "--root", "1,2,3"),
    "decompose_sum11.txt": ("decompose", FIXTURES / "sum11.quiver"),
    "check_type_a_zigzag.txt": ("check-type-a", FIXTURES / "zigzag7.quiver"),
    "mutate_a3cycle.txt": ("mutate", FIXTURES / "a3cycle.quiver", "--seq", "1"),
    "mutate_framed.txt": ("mutate", FIXTURES / "a3cycle.quiver", "--seq", "1", "--framed"),
    "model_check_zigzag.txt": ("model-check", FIXTURES / "zigzag7.quiver", "--root", "1,2,3"),
    "graph_a2linear.txt": ("graph", FIXTURES / "a2linear.quiver"),
    "mgs_sum26.txt": ("mgs", FIXTURES / "sum26.quiver"),
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_CASES))
def test_golden_outputs(golden):
    code, out, err = run(*GOLDEN_CASES[golden])
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


# numpy and networkx made unimportable before greenseq loads
_BARE_MAIN = (
    "import sys; sys.modules['numpy'] = sys.modules['networkx'] = None; "
    "from greenseq.cli import main; raise SystemExit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize("golden", sorted(GOLDEN_CASES))
def test_golden_outputs_without_asserts(golden):
    # python -O strips asserts, so no check may rely on them; the engine
    # needs nothing outside the standard library
    src = Path(gs.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-O", "-c", _BARE_MAIN, *map(str, GOLDEN_CASES[golden])]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == (GOLDEN / golden).read_bytes()


class TestExitCodes:
    def test_verify_violation_exits_one(self):
        code, out, _ = run("verify", FIXTURES / "a3cycle.quiver", "--seq", "1 1")
        assert code == 1
        assert "verdict: violation at step 2 (vertex 1 is red)" in out

    def test_check_type_a_failure_exits_one(self):
        code, out, _ = run("check-type-a", FIXTURES / "sum11.quiver")
        assert code == 1
        assert "verdict: not type A" in out

    def test_parse_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.quiver"
        bad.write_text("quiver 2\narrow 1 2\narrow 2 1\n")
        code, _, err = run("mgs", bad)
        assert code == 2
        assert "2-cycle" in err

    def test_vertex_count_above_limit_exits_two(self, tmp_path):
        huge = tmp_path / "huge.quiver"
        huge.write_text("quiver 1000000000\narrow 1 2\n")
        code, out, err = run("mgs", huge)
        assert code == 2 and out == ""
        assert f"exceeds the limit {gs.quiver.MAX_VERTICES}" in err

    def test_missing_file_exits_two(self):
        code, _, err = run("mgs", "no-such-file.quiver")
        assert code == 2 and "cannot read" in err

    def test_non_utf8_file_exits_two(self, tmp_path):
        f = tmp_path / "bytes.quiver"
        f.write_bytes(b"\xff\xfe")
        code, out, err = run("check-type-a", f)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {f}: ") and err.count("\n") == 1

    def test_unwritable_dot_path_exits_two(self, tmp_path):
        dot = tmp_path / "no-such-dir" / "x.dot"
        code, out, err = run("graph", FIXTURES / "a1.quiver", "--dot", dot)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {dot}: ") and err.count("\n") == 1

    def test_negative_max_len_refused_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", str(FIXTURES / "a1.quiver"), "--max-len", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --max-len: must be >= 0, got -1" in captured.err
        # zero is still a bound: the guard trips on the still-green framing
        code, out, _ = run("enumerate", FIXTURES / "a1.quiver", "--max-len", "0")
        assert code == 1 and out == "mgs count>=0 (depth guard 0 hit)\n"

    @pytest.mark.parametrize("bad", ["0", "-1"])
    def test_max_nodes_below_one_refused_by_parser(self, bad, capsys):
        # refused before any exploration, like a negative --max-len
        with pytest.raises(SystemExit) as exc:
            main(["graph", str(FIXTURES / "a1.quiver"), "--max-nodes", bad])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert f"argument --max-nodes: must be >= 1, got {bad}" in captured.err

    def test_bad_root_exits_two(self):
        code, _, err = run("embed", FIXTURES / "zigzag7.quiver", "--root", "1,2")
        assert code == 2 and "root" in err

    def test_non_leaf_root_exits_two(self):
        code, _, err = run("embed", FIXTURES / "zigzag7.quiver", "--root", "3,4,5")
        assert code == 2 and "not a leaf" in err

    def test_enumerate_non_type_a_requires_bound(self, tmp_path):
        f = tmp_path / "double.quiver"
        f.write_text("quiver 2\narrow 1 2 2\n")
        code, _, err = run("enumerate", f)
        assert code == 2 and "--max-len" in err

    def test_mgs_names_failing_condition_of_cyclic_summand(self, tmp_path):
        # a directed 4-cycle has no oriented 3-cycle, so condition (i) fails
        f = tmp_path / "square.quiver"
        f.write_text("quiver 4\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 1\n")
        code, out, err = run("mgs", f)
        assert code == 2 and out == ""
        assert err == "error: summand 1 fails condition i: non-oriented cycle through [1, 2, 3, 4]\n"

    def test_mgs_names_failing_condition_of_second_summand(self, tmp_path):
        # the 3-cycle 1 -> 2 -> 3 glued by 3 -> 4 to three 3-cycles at vertex
        # 4; the second summand numbers vertex 4 as 1
        arrows = [(1, 2), (2, 3), (3, 1), (3, 4)]
        for a, b in ((5, 6), (7, 8), (9, 10)):
            arrows += [(4, a), (a, b), (b, 4)]
        f = tmp_path / "sum.quiver"
        f.write_text("quiver 10\n" + "".join(f"arrow {s} {d}\n" for s, d in arrows))
        code, out, err = run("mgs", f)
        assert code == 2 and out == ""
        assert err == "error: summand 2 fails condition ii: vertex 1 has 6 neighbors\n"

    def test_fused_cycle_of_groups(self, tmp_path):
        # 1 => 2 fuses with the path 1 -> 3 -> 4 -> 2 into one acyclic
        # summand, which gets its source order like the Kronecker quiver;
        # the type-A check names the double arrow
        f = tmp_path / "fused.quiver"
        f.write_text("quiver 4\narrow 1 2 2\narrow 1 3\narrow 3 4\narrow 4 2\n")
        assert run("decompose", f) == (0, "summand 1: vertices {1,2,3,4} fused\n", "")
        code, out, err = run("mgs", f)
        assert code == 0 and err == ""
        assert out.splitlines() == ["mgs length=4", "1 3 4 2", "permutation: ()", "verified: true"]
        code, out, _ = run("check-type-a", f)
        assert code == 1 and "condition i: FAIL witness: double arrow 1 -> 2" in out

    def test_mgs_acyclic_summand_not_type_a_gets_source_order(self, tmp_path):
        f = tmp_path / "kronecker.quiver"
        f.write_text("quiver 2\narrow 1 2 2\n")
        code, out, _ = run("mgs", f)
        assert code == 0 and out.splitlines()[:2] == ["mgs length=2", "1 2"]

    def test_enumerate_guard_exits_one(self, tmp_path):
        f = tmp_path / "double.quiver"
        f.write_text("quiver 2\narrow 1 2 2\n")
        code, out, _ = run("enumerate", f, "--max-len", "4")
        assert code == 1 and "depth guard 4 hit" in out


class TestBehavior:
    def test_mutate_twice_roundtrips(self, tmp_path):
        code, out, _ = run("mutate", FIXTURES / "a3cycle.quiver", "--seq", "1 1")
        assert code == 0
        assert out == (FIXTURES / "a3cycle.quiver").read_text().split("\n", 1)[1]

    def test_mutate_output_reparses(self):
        _, out, _ = run("mutate", FIXTURES / "tree15.quiver", "--seq", "1 2 3")
        q = gs.parse_quiver(out)
        assert q.n == 31

    def test_graph_dot_flag_writes_file(self, tmp_path):
        dot = tmp_path / "out.dot"
        code, out, _ = run("graph", FIXTURES / "a3cycle.quiver", "--dot", dot)
        assert code == 0
        assert out.startswith("nodes=23 edges=27 sinks=4 chains=9")
        text = dot.read_text()
        assert text.startswith("digraph exchange {")
        assert text.count('role="sink"') == 4

    def test_graph_node_bound_exits_two(self):
        code, _, err = run("graph", FIXTURES / "a3cycle.quiver", "--max-nodes", "3")
        assert code == 2 and "reachable" in err

    def test_mgs_default_root_reported_deterministically(self):
        code1, out1, _ = run("mgs", FIXTURES / "zigzag7.quiver")
        code2, out2, _ = run("mgs", FIXTURES / "zigzag7.quiver", "--root", "1,2,3")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_paper_order_reverses_displayed_list(self):
        _, plain, _ = run("mgs", FIXTURES / "zigzag7.quiver", "--root", "1,2,3")
        _, paper, _ = run("mgs", FIXTURES / "zigzag7.quiver", "--root", "1,2,3", "--paper-order")
        seq = plain.splitlines()[1].split()
        assert paper.splitlines()[1].split() == seq[::-1]

    def test_enumerate_verifies_each_line(self):
        _, out, _ = run("enumerate", FIXTURES / "zig5.quiver")
        lines = out.splitlines()
        count = int(lines[0].split("=")[1])
        assert count == len(lines) - 1
        q = gs.parse_quiver((FIXTURES / "zig5.quiver").read_text())
        for line in lines[1:]:
            seq = tuple(int(tok) for tok in line.split())
            assert gs.verify_green(q, seq).is_maximal

    def test_model_check_with_permutations_flag(self):
        code, out, _ = run(
            "model-check", FIXTURES / "tree16.quiver", "--root", "1,2,3", "--permutations"
        )
        assert code == 0
        assert "k=16 model==actual: true" in out
        assert "all identities hold" in out


# Fuzzing the command line: quiver text on at most four vertices, a small
# fixture, or raw bytes, under every subcommand with a random choice of its
# flags.  Most texts are well formed, so the commands get past the parser.
# Bounds stay small so each call is quick; graph always gets --max-nodes
# because a wild quiver's green graph is infinite.
@st.composite
def _quiver_bytes(draw):
    if draw(st.integers(0, 3)):  # well formed: no loops, no 2-cycles
        n = draw(st.integers(1, 4))
        pairs = draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, n)).filter(
            lambda p: p[0] < p[1])))
        arrows = [(i, j) if draw(st.booleans()) else (j, i) for i, j in pairs]
        mults = ["", "", " 2"]
    else:  # counts, ends and multiplicities out of range too
        n = draw(st.integers(-1, 5))
        arrows = draw(st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5)), max_size=6))
        mults = ["", " 1", " 2", " 0"]
    lines = [f"quiver {n}"] + [f"arrow {s} {d}{draw(st.sampled_from(mults))}" for s, d in arrows]
    return "\n".join(lines).encode()


_SMALL_FIXTURES = st.sampled_from(
    [(FIXTURES / f"{name}.quiver").read_bytes()
     for name in ("a1", "a2linear", "a3cycle", "a3linear", "fork3")]
)


def _flags(*options, always=()):
    """argv tail holding any subset of ``options`` and every flag of ``always``,
    each a strategy for the tokens of one flag."""
    chosen = st.tuples(*(st.one_of(st.just(()), opt) for opt in options), *always)
    return chosen.map(lambda parts: [tok for part in parts for tok in part])


def _flag(name, values=None):
    return st.just((name,)) if values is None else values.map(lambda v: (name, str(v)))


def _vertex_list(min_size, max_size, sep):
    lists = st.one_of(st.lists(st.integers(1, 4), min_size=min_size, max_size=max_size),
                      st.lists(st.integers(-1, 5), min_size=min_size, max_size=max_size))
    return lists.map(lambda vs: sep.join(map(str, vs)))


_SEQ = _vertex_list(0, 8, " ")
_ROOT = _vertex_list(2, 4, ",")
_COMMANDS = {
    "mutate": _flags(_flag("--seq", _SEQ), _flag("--framed")),
    "check-type-a": _flags(),
    "decompose": _flags(),
    "embed": _flags(_flag("--root", _ROOT)),
    "mgs": _flags(_flag("--root", _ROOT), _flag("--paper-order")),
    "verify": _flags(_flag("--seq", _SEQ)),
    "enumerate": _flags(_flag("--max-len", st.integers(-2, 6)), _flag("--paper-order")),
    "graph": _flags(_flag("--dot", st.sampled_from(["{tmp}/g.dot", "{tmp}/missing/g.dot"])),
                    always=(_flag("--max-nodes", st.integers(-1, 60)),)),
    "model-check": _flags(_flag("--root", _ROOT), _flag("--permutations")),
}
_ARGV = st.sampled_from(sorted(_COMMANDS)).flatmap(
    lambda cmd: _COMMANDS[cmd].map(lambda tail: [cmd, *tail])
)


@given(data=st.one_of(_quiver_bytes(), _SMALL_FIXTURES, st.binary(max_size=40)), argv=_ARGV)
@example(data=b"\xff\xfe", argv=["check-type-a"])
@settings(max_examples=200, deadline=None)
def test_fuzz_main_exits_with_a_known_code(data, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.quiver"
        path.write_bytes(data)
        argv = [argv[0], str(path), *(tok.replace("{tmp}", tmp) for tok in argv[1:])]
        try:
            code = run(*argv)[0]
        except SystemExit as exc:  # argparse refusing a flag value
            code = exc.code
    assert code in (0, 1, 2)
