"""Command-line behavior: golden outputs, exit codes, flag handling."""

from __future__ import annotations

import io
import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

    def test_missing_file_exits_two(self):
        code, _, err = run("mgs", "no-such-file.quiver")
        assert code == 2 and "cannot read" in err

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
            assert gs.is_maximal_green(q, seq).is_maximal

    def test_model_check_with_permutations_flag(self):
        code, out, _ = run(
            "model-check", FIXTURES / "tree16.quiver", "--root", "1,2,3", "--permutations"
        )
        assert code == 0
        assert "k=16 model==actual: true" in out
        assert "all identities hold" in out
