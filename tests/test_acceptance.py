"""Acceptance gate: every shipped criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  All comparisons are exact integer equality; the timed
criteria assert their budget.
"""

from __future__ import annotations

import random
import time

import greenseq as gs
from conftest import load
from helpers import random_tree_quiver, stage_permutation, walk_pending


def _report(num: int, label: str, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {num:2d} PASS ({elapsed:6.2f}s) {label}")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_01_a3_cycle_census(a3cycle):
    t0 = time.perf_counter()
    census = gs.enumerate_mgs(a3cycle)
    by_len = {}
    for seq in census:
        by_len.setdefault(len(seq), set()).add(seq)
    assert set(by_len) == {4, 5}
    # the published six length-4 sequences, converted to application order
    assert by_len[4] == {
        (1, 3, 2, 1), (2, 1, 3, 2), (3, 2, 1, 3),
        (1, 2, 3, 1), (2, 3, 1, 2), (3, 1, 2, 3),
    }
    # the three verified length-5 sequences; the published length-5 triple
    # mutates a red vertex in either reading order and is rejected below
    assert by_len[5] == {(1, 3, 1, 2, 1), (2, 1, 2, 3, 2), (3, 2, 3, 1, 3)}
    for printed in ((3, 1, 3, 2, 1), (1, 2, 1, 3, 2), (2, 3, 2, 1, 3)):
        assert not gs.verify_green(a3cycle, printed).is_green
        assert not gs.verify_green(a3cycle, printed[::-1]).is_green
    for seq in census:
        assert gs.verify_green(a3cycle, seq).is_maximal
    _report(1, "9-sequence census of the oriented triangle", t0, budget=1.0)


def test_criterion_02_zigzag_sequences(zigzag7):
    t0 = time.perf_counter()
    e1 = gs.embed(zigzag7, (1, 2, 3))
    assert gs.associated_sequence(e1) == (1, 2, 3, 1, 4, 5, 3, 1, 6, 7, 5, 3, 1)
    e2 = gs.embed(zigzag7, (5, 6, 7))
    assert gs.associated_sequence(e2) == (6, 7, 5, 6, 3, 4, 5, 6, 1, 2, 6, 3)
    short = (7, 4, 1, 5, 2, 6, 7, 3, 4, 1, 3)
    assert gs.verify_green(zigzag7, short).is_maximal
    _report(2, "7-vertex zigzag: 13-step, 12-step, 11-step sequences", t0, budget=1.0)


def test_criterion_03_stage_table(t15):
    t0 = time.perf_counter()
    expected = {
        0: (1,),
        1: (2, 3, 1),
        2: (4, 5, 3, 1),
        3: (6, 7, 1, 4),
        4: (8, 9, 7, 1, 4),
        5: (10, 11, 4, 8),
        6: (12, 13, 11, 4, 8),
        7: (14, 15, 9, 7, 1, 13),
        8: (16, 17, 15, 9, 7, 1, 13),
        9: (18, 19, 17, 15, 9, 7, 1, 13),
        10: (20, 21, 13, 18),
        11: (22, 23, 18, 20),
        12: (24, 25, 20, 22),
        13: (26, 27, 25, 20, 22),
        14: (28, 29, 27, 25, 20, 22),
        15: (30, 31, 21, 13, 23),
    }
    for k, seq in expected.items():
        assert gs.stage_parts(t15, k).sequence() == seq, k
    _report(3, "all sixteen stage sub-sequences on the 31-vertex fixture", t0)


def test_criterion_04_outlets():
    t0 = time.perf_counter()
    assert gs.validate_embedding(gs.embed(load("chain10"), (1, 2, 3))) == (20, 21, 13, 9, 7, 5)
    assert gs.validate_embedding(gs.embed(load("chain11"), (1, 2, 3))) == (22, 23, 5)
    _report(4, "outlet lists before and after the eleventh cycle", t0)


def test_criterion_05_branches(t15):
    t0 = time.perf_counter()
    got = [(b.labels, b.terminal) for b in gs.branches(t15)]
    assert got == [
        ((1, 2, 3, 4), "branching"),
        ((5, 6), "leaf"),
        ((7, 8, 9, 10), "branching"),
        ((11, 12, 13, 14), "leaf"),
        ((15,), "leaf"),
    ]
    _report(5, "branch partition of the 31-vertex fixture", t0)


def test_criterion_06_decomposition():
    t0 = time.perf_counter()
    q = load("sum11")
    dec = gs.decompose(q)
    assert dec.summands == ((1, 2, 3, 4), (6, 7, 8, 9, 10, 11), (5,))
    first, _ = gs.subquiver(q, range(1, 5))
    second_prime, _ = gs.subquiver(q, range(5, 12))
    assert gs.color_count(first, second_prime,
                          ((1, 5), (1, 8), (1, 11), (3, 8), (4, 9), (4, 11))) == 3
    first_prime, _ = gs.subquiver(q, (1, 2, 3, 4, 6, 7, 8, 9, 10, 11))
    third, _ = gs.subquiver(q, (5,))
    assert gs.color_count(first_prime, third, ((1, 11), (5, 11))) == 2
    _report(6, "three-summand decomposition with color counts 3 and 2", t0)


def test_criterion_07_pending_tables(t16):
    t0 = time.perf_counter()
    assert t16.pending == (11, 12, 16)
    stage_table = {}
    anchors = {}
    cases = {11: {}, 12: {}, 16: {}}
    for k, entries in enumerate(walk_pending(t16)[1:], start=1):
        stage_table.setdefault(tuple(pc.label for pc in entries), []).append(k)
        for pc in entries:
            anchors[pc.label] = (pc.anchor, pc.chain[0])
            cases[pc.label][k] = pc.case
    assert {labels: tuple(ks) for labels, ks in stage_table.items()} == {
        (): (1, 2, 3, 16),
        (16,): (4, 12, 13, 14, 15),
        (12, 16): (5, 6, 7, 11),
        (11, 12, 16): (8, 9, 10),
    }
    assert anchors == {11: (8, 9), 12: (5, 6), 16: (4, 5)}
    assert cases[11] == {8: 3, 9: 1, 10: 2}
    assert cases[12] == {5: 3, **{k: 2 for k in range(6, 12)}}
    assert cases[16] == {4: 3, **{k: 1 for k in range(5, 14)}, 14: 2, 15: 2}
    _report(7, "pending-cycle set, stage table, anchors, case tables", t0)


def test_criterion_08_model_at_scale(zigzag7, tree15, tree16):
    t0 = time.perf_counter()
    for q in (zigzag7, tree15, tree16, load("a3cycle"), load("zig5")):
        for leaf in gs.leaf_cycles(gs.cycle_tree(q)):
            assert gs.verify_model(gs.embed(q, leaf)).ok
    rng = random.Random(20240)
    for _ in range(500):
        q, root = random_tree_quiver(rng, 12)
        report = gs.verify_model(gs.embed(q, root))
        assert report.ok, report.text()
    _report(8, "predicted matrices equal mutation on fixtures + 500 random", t0, budget=60.0)


def test_criterion_09_construction_at_scale():
    t0 = time.perf_counter()
    rng = random.Random(20241)
    runs = 0
    for _ in range(500):
        q, _ = random_tree_quiver(rng, 14)  # up to 29 vertices
        for leaf in gs.leaf_cycles(gs.cycle_tree(q)):
            e = gs.embed(q, leaf)
            seq = gs.associated_sequence(e)
            trace = gs.verify_green(q, seq)
            assert trace.is_green
            assert gs.green_vertices(trace.final_state) == ()
            assert trace.is_maximal
            assert stage_permutation(e, e.n_cycles) == trace.induced
            runs += 1
    assert runs >= 500
    _report(9, f"{runs} root choices: constructed sequence is maximal green", t0, budget=120.0)


def test_criterion_10_concatenation_at_scale():
    t0 = time.perf_counter()
    rng = random.Random(20242)
    for _ in range(200):
        parts = []
        for _ in range(rng.randint(2, 4)):
            parts.append(random_tree_quiver(rng, 2)[0])
        q = parts[0]
        for part in parts[1:]:
            sources = rng.sample(range(1, q.n + 1), rng.randint(1, min(3, q.n)))
            pairs = sorted({(a, q.n + rng.randint(1, part.n)) for a in sources
                            for _ in range(rng.randint(1, 2))})
            q = gs.direct_sum(q, part, pairs)
        dec = gs.decompose(q)
        seqs = []
        for p in range(len(dec.summands)):
            sub, _ = dec.part(p)
            if sub.n <= 3:
                census = gs.enumerate_mgs(sub)
                seqs.append(census[rng.randrange(len(census))])
            else:
                seqs.append(gs.first_mgs(sub))
        seq = gs.concat_mgs(dec, seqs).sequence
        assert gs.verify_green(q, seq).is_maximal
    _report(10, "200 random colored sums concatenate to verified sequences", t0, budget=60.0)


def test_criterion_11_three_part_pipeline():
    t0 = time.perf_counter()
    r1 = gs.mgs_for_type_a(load("tail10"))
    assert r1.summand_sequences[0] == (1, 2, 3, 1, 4, 5, 3, 1, 6, 7, 1, 4)
    assert r1.sequence == (1, 2, 3, 1, 4, 5, 3, 1, 6, 7, 1, 4, 10, 9, 8)
    r2 = gs.mgs_for_type_a(load("tail13"))
    assert r2.summand_sequences[0] == (
        1, 2, 3, 1, 4, 5, 3, 1, 6, 7, 1, 4, 8, 9, 4, 6, 10, 11, 7, 1, 9,
    )
    assert r2.sequence == r2.summand_sequences[0] + (12, 13)
    assert gs.mgs_for_type_a(load("spread3")).sequence == (1, 2, 3)
    q = load("sum26")
    result = gs.mgs_for_type_a(q)
    assert gs.verify_green(q, result.sequence).is_maximal
    assert result.sequence == (
        r1.sequence + tuple(v + 10 for v in r2.sequence) + (24, 25, 26)
    )
    _report(11, "three-part pipeline: exact part sequences, verified whole", t0)


def test_criterion_12_sign_coherence():
    t0 = time.perf_counter()
    rng = random.Random(20243)
    # finite-type fixtures, where every green walk terminates; entries are
    # exact Python ints with no size limit (see test_entries_exact_past_int64)
    fixtures = [load(n) for n in
                ("a3cycle", "zig5", "zigzag7", "chain10", "tree15", "tree16")]
    mutations = 0
    while mutations < 10_000:
        q = fixtures[rng.randrange(len(fixtures))]
        eq = gs.frame(q)
        while mutations < 10_000:
            greens = gs.green_vertices(eq)  # raises on any incoherent row
            if not greens:
                break
            eq = gs.matrix_mutate(eq, greens[rng.randrange(len(greens))])
            mutations += 1
            for i in range(1, eq.n + 1):
                assert gs.vertex_color(eq, i) in ("green", "red")
    _report(12, "10^4 green-prefix mutations stay sign-coherent", t0)


def test_criterion_13_census_cross_check():
    t0 = time.perf_counter()
    for name in ("a3cycle", "zig5"):
        q = load(name)
        assert q.n <= 6
        census = set(gs.enumerate_mgs(q))
        for leaf in gs.leaf_cycles(gs.cycle_tree(q)):
            assert gs.associated_sequence(gs.embed(q, leaf)) in census
    _report(13, "constructed sequences appear in the exhaustive census", t0)
