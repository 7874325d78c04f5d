"""Output checks for the greenseq benchmark, written without the package.

The oracles replay sequences with the arrow rule on a sparse signed
adjacency of the framed quiver, treated as a quiver on 2n vertices
(mutable 1..n, frozen n+1..2n).  Arrows between two frozen vertices are
never formed: no mutation at a mutable vertex reads them.  None of this
shares code with the matrix kernel the benchmark times.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

Signed = dict[int, dict[int, int]]  # b[u][w] = #(u -> w) - #(w -> u), zero entries absent


class OracleError(Exception):
    """The oracle itself met a state it cannot judge."""


def to_signed(n: int, arrows) -> Signed:
    b: Signed = {v: {} for v in range(1, n + 1)}
    for s, d, m in arrows:
        b[s][d] = b[s].get(d, 0) + m
        b[d][s] = b[d].get(s, 0) - m
    return b


def framed(n: int, arrows) -> Signed:
    b = to_signed(n, arrows)
    for i in range(1, n + 1):
        b[i][n + i] = 1
        b[n + i] = {i: -1}
    return b


def plain_mutate(b: Signed, k: int, frozen_from: int | None = None) -> None:
    """Arrow-rule mutation at ``k`` in place: add i -> j for every 2-path
    i -> k -> j (cancelling against j -> i), then reverse the arrows at k.
    Vertices >= ``frozen_from`` are frozen: no arrow joins two of them."""
    row = b[k]
    ins = [(i, -m) for i, m in row.items() if m < 0]
    outs = [(j, m) for j, m in row.items() if m > 0]
    for i, a in ins:
        bi = b[i]
        for j, c in outs:
            if frozen_from is not None and i >= frozen_from and j >= frozen_from:
                continue
            v = bi.get(j, 0) + a * c
            if v:
                bi[j] = v
                b[j][i] = -v
            else:
                del bi[j]
                del b[j][i]
    for j, m in row.items():
        row[j] = -m
        b[j][k] = m


def color(b: Signed, n: int, k: int) -> str:
    signs = {m > 0 for j, m in b[k].items() if j > n}
    if signs == {True}:
        return "green"
    if signs == {False}:
        return "red"
    raise OracleError(f"frozen arrows at vertex {k} are not sign-coherent")


@dataclass
class Replay:
    colors: list[str]  # colour of each mutated vertex just before its step
    violation: int | None  # 1-based step that mutated a red vertex
    all_red: bool
    sigma: tuple[int, ...] | None  # images of 1..n when the end is a permuted co-framing


def replay(n: int, arrows, seq) -> Replay:
    """Apply ``seq`` to the framed quiver, stopping at the first red step."""
    b = framed(n, arrows)
    colors = []
    for step, k in enumerate(seq, start=1):
        if not 1 <= k <= n:
            raise OracleError(f"step {step} mutates vertex {k} outside 1..{n}")
        colors.append(color(b, n, k))
        if colors[-1] != "green":
            return Replay(colors, step, False, None)
        plain_mutate(b, k, n + 1)
    if any(color(b, n, i) != "red" for i in range(1, n + 1)):
        return Replay(colors, None, False, None)
    images = []
    for i in range(1, n + 1):
        frozen = [(j, m) for j, m in b[i].items() if j > n]
        if len(frozen) != 1 or frozen[0][1] != -1:
            return Replay(colors, None, True, None)
        images.append(frozen[0][0] - n)
    if sorted(images) != list(range(1, n + 1)):
        return Replay(colors, None, True, None)
    b0 = to_signed(n, arrows)
    inv = {s: i + 1 for i, s in enumerate(images)}
    for i in range(1, n + 1):
        got = {j: m for j, m in b[i].items() if j <= n}
        want = {inv[w]: m for w, m in b0[images[i - 1]].items()}
        if got != want:
            return Replay(colors, None, True, None)
    return Replay(colors, None, True, tuple(images))


def cycle_string(images) -> str:
    seen: set[int] = set()
    out = []
    for start in range(1, len(images) + 1):
        if start in seen or images[start - 1] == start:
            continue
        cyc = [start]
        seen.add(start)
        v = images[start - 1]
        while v != start:
            cyc.append(v)
            seen.add(v)
            v = images[v - 1]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


@dataclass
class GreenGraph:
    nodes: int
    edges: int
    sinks: frozenset[int]
    chains: int  # source-to-sink paths = maximal green sequences
    step: dict[tuple[int, int], int]  # (node, vertex) -> node


def green_graph(n: int, arrows) -> GreenGraph:
    """Closure of green moves from the framing, nodes keyed by the exact
    mutable rows (the extended exchange matrix)."""
    def key(b: Signed):
        return tuple(sorted((i, j, m) for i in range(1, n + 1) for j, m in b[i].items()))

    start = framed(n, arrows)
    states = [start]
    index = {key(start): 0}
    step: dict[tuple[int, int], int] = {}
    succ: list[list[int]] = []
    sinks = set()
    u = 0
    while u < len(states):
        b = states[u]
        greens = [k for k in range(1, n + 1) if color(b, n, k) == "green"]
        succ.append([])
        if not greens:
            sinks.add(u)
        for k in greens:
            nb = {v: dict(r) for v, r in b.items()}
            plain_mutate(nb, k, n + 1)
            w = index.setdefault(key(nb), len(states))
            if w == len(states):
                states.append(nb)
            step[(u, k)] = w
            succ[u].append(w)
        u += 1
    paths = [0] * len(states)
    order = _topological(succ)
    for u in reversed(order):
        paths[u] = 1 if u in sinks else sum(paths[w] for w in succ[u])
    return GreenGraph(len(states), len(step), frozenset(sinks), paths[0], step)


def _topological(succ: list[list[int]]) -> list[int]:
    indeg = [0] * len(succ)
    for ws in succ:
        for w in ws:
            indeg[w] += 1
    order = [u for u in range(len(succ)) if indeg[u] == 0]
    for u in order:
        for w in succ[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != len(succ):
        raise OracleError("green-move graph has a cycle")
    return order


def is_type_a(n: int, arrows) -> bool:
    """The four structural conditions, checked from their definitions: (i)
    no double arrow, oriented triangles edge-disjoint, and as many
    independent cycles (E - V + components) as triangles; (ii) at most four
    neighbours; (iii) a 4-neighbour vertex lies on two triangles covering
    them; (iv) a 3-neighbour vertex lies on exactly one triangle."""
    out: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    nbrs: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    double = False
    for s, d, m in arrows:
        double |= m >= 2
        out[s].add(d)
        nbrs[s].add(d)
        nbrs[d].add(s)
    tris = {tuple(sorted((a, b, c))) for a in out for b in out[a] for c in out[b] if a in out[c]}
    edges = [frozenset((t[x], t[y])) for t in tris for x, y in ((0, 1), (0, 2), (1, 2))]
    parent = list(range(n + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s, d, _ in arrows:
        parent[find(s)] = find(d)
    components = sum(1 for v in range(1, n + 1) if find(v) == v)
    if double or len(set(edges)) != len(edges) or len(arrows) - n + components != len(tris):
        return False
    on = {v: [t for t in tris if v in t] for v in range(1, n + 1)}
    for v in range(1, n + 1):
        deg = len(nbrs[v])
        if deg > 4:
            return False
        if deg == 4 and (len(on[v]) != 2 or {u for t in on[v] for u in t} - {v} != nbrs[v]):
            return False
        if deg == 3 and len(on[v]) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Per-command checks.  Each returns None when the output is right, else the
# reason.  ``memo`` caches oracle work per input across passes.


def _ints(line: str) -> list[int]:
    return [int(t) for t in line.split()]


def _replay(case, seq, memo) -> Replay:
    key = ("replay", case.name, tuple(seq))
    if key not in memo:
        memo[key] = replay(case.n, case.arrows, seq)
    return memo[key]


def check_mgs(item, rc, out, err, memo) -> str | None:
    case = item.case
    lines = out.splitlines()
    if rc != 0 or len(lines) != 4:
        return f"exit {rc}, {len(lines)} lines"
    m = re.fullmatch(r"mgs length=(\d+)", lines[0])
    seq = _ints(lines[1])
    if not m or int(m.group(1)) != len(seq):
        return "length line does not match the sequence"
    if len(seq) < case.n + len(case.triangles):
        return f"length {len(seq)} below the minimum n + #3-cycles"
    r = _replay(case, seq, memo)
    if r.sigma is None:
        return "printed sequence is not a maximal green sequence"
    if lines[2] != f"permutation: {cycle_string(r.sigma)}" or lines[3] != "verified: true":
        return "wrong permutation or verdict line"
    return None


def check_verify(item, rc, out, err, memo) -> str | None:
    seq = item.seq
    r = _replay(item.case, seq, memo)
    want = [f"step {i}: vertex {k} {c}\n" for i, (k, c) in enumerate(zip(seq, r.colors), start=1)]
    if r.violation is not None:
        want.append(f"verdict: violation at step {r.violation} "
                    f"(vertex {seq[r.violation - 1]} is {r.colors[-1]})\n")
        code = 1
    else:
        want += ["verdict: all-green\n", f"maximal: {'true' if r.all_red else 'false'}\n"]
        if r.sigma:
            want.append(f"permutation: {cycle_string(r.sigma)}\n")
        code = 0
    if rc != code or out != "".join(want):
        return f"exit {rc} (want {code}) or output differs from the replay"
    return None


def _graph(case, memo) -> GreenGraph:
    key = ("graph", case.name)
    if key not in memo:
        g = green_graph(case.n, case.arrows)
        if case.known_count is not None and g.chains != case.known_count:
            raise OracleError(f"{case.name}: oracle counts {g.chains}, known {case.known_count}")
        memo[key] = g
    return memo[key]


def check_enumerate(item, rc, out, err, memo) -> str | None:
    g = _graph(item.case, memo)
    lines = out.splitlines()
    if rc != 0 or not lines or lines[0] != f"mgs count={g.chains}":
        return f"exit {rc} or count line {lines[:1]} != {g.chains}"
    seqs = [tuple(_ints(line)) for line in lines[1:]]
    if len(seqs) != g.chains or seqs != sorted(set(seqs)):
        return "listed sequences are not the sorted distinct census"
    for seq in seqs:
        u = 0
        for k in seq:
            u = g.step.get((u, k), -1)
            if u < 0:
                return f"listed sequence {seq} is not a green walk"
        if u not in g.sinks:
            return f"listed sequence {seq} is not maximal"
    return None


def check_graph(item, rc, out, err, memo) -> str | None:
    g = _graph(item.case, memo)
    lines = out.splitlines()
    summary = f"nodes={g.nodes} edges={g.edges} sinks={len(g.sinks)} chains={g.chains}"
    if rc != 0 or len(lines) != g.nodes + g.edges + 3 or lines[-1] != summary:
        return f"exit {rc} or summary {lines[-1:]} != {summary}"
    body = lines[1:-2]
    node_lines = [x for x in body if "->" not in x]
    if (lines[0] != "digraph exchange {" or lines[-2] != "}" or len(node_lines) != g.nodes
            or sum('role="source"' in x for x in node_lines) != 1
            or sum('role="sink"' in x for x in node_lines) != len(g.sinks)):
        return "DOT body does not match the oracle graph"
    return None


_CLAUSE = re.compile(r"\S+ clause \S+\): checked=\d+ violations=0")


def check_model(item, rc, out, err, memo) -> str | None:
    cycles = len(item.case.triangles)
    lines = out.splitlines()
    stages = [f"k={k} model==actual: true" for k in range(cycles + 1)]
    if rc != 0 or lines[: cycles + 1] != stages:
        return f"exit {rc} or a stage line is not true"
    rest = lines[cycles + 1:]
    if not rest or rest[-1] != "result: all identities hold" or not all(
        _CLAUSE.fullmatch(x) for x in rest[:-1]
    ):
        return "a permutation identity line is not clean"
    return None


def check_type_a(item, rc, out, err, memo) -> str | None:
    case = item.case
    lines = out.splitlines()
    verdict = "verdict: type A" if case.type_a else "verdict: not type A"
    if rc != (0 if case.type_a else 1) or len(lines) != 5 or lines[-1] != verdict:
        return f"exit {rc} or verdict {lines[-1:]} != {verdict!r}"
    flawed = {"cycle": "condition i: FAIL", "degree": "condition ii: FAIL"}.get(case.flaw)
    if flawed and not any(x.startswith(flawed) for x in lines):
        return f"expected {flawed!r}"
    return None


_SUMMAND = re.compile(r"summand (\d+): vertices \{([\d,]+)\} (irreducible|fused)")
_JUNCTION = re.compile(r"junction (\d+) -> (\d+) color f\d+")


def check_decompose(item, rc, out, err, memo) -> str | None:
    case = item.case
    if rc != 0:
        return f"exit {rc}"
    summands, junctions = [], []
    for line in out.splitlines():
        if m := _SUMMAND.fullmatch(line):
            summands.append(tuple(int(v) for v in m.group(2).split(",")))
        elif m := _JUNCTION.fullmatch(line):
            junctions.append((int(m.group(1)), int(m.group(2))))
        else:
            return f"unexpected line {line!r}"
    pos = {v: p for p, vs in enumerate(summands) for v in vs}
    if sorted(pos) != list(range(1, case.n + 1)) or len(pos) != sum(map(len, summands)):
        return "summands do not partition the vertices"
    cross = []
    for s, d, m in case.arrows:
        if pos[s] > pos[d]:
            return f"cross arrow {s} -> {d} points backward"
        if pos[s] < pos[d]:
            cross += [(s, d)] * m
    if sorted(cross) != sorted(junctions):
        return "junction lines differ from the cross arrows"
    if {frozenset(p) for p in case.parts} != {frozenset(p) for p in summands}:
        return "summands differ from the generated parts"
    return None


_CYCLE_LINE = re.compile(r"T(\d+) (up|down) x=(\d+) y=(\d+) z=(\d+) parent=(-|T(\d+)@([yz]))")


def check_embed(item, rc, out, err, memo) -> str | None:
    case = item.case
    if not case.type_a or len(case.parts) > 1:
        ok = rc == 2 and out == "" and err.startswith("error: ")
        return None if ok else f"exit {rc}: expected a clean refusal"
    lines = out.splitlines()
    cycles = len(case.triangles)
    if rc != 0 or len(lines) < cycles + 2:
        return f"exit {rc}, {len(lines)} lines"
    arrows = {(s, d) for s, d, _ in case.arrows}
    roles = {}
    for k, line in enumerate(lines[:cycles], start=1):
        m = _CYCLE_LINE.fullmatch(line)
        if not m or int(m.group(1)) != k:
            return f"bad cycle line {line!r}"
        x, y, z = (int(m.group(g)) for g in (3, 4, 5))
        if not {(x, y), (y, z), (z, x)} <= arrows:
            return f"T{k} is not an oriented 3-cycle x -> y -> z -> x"
        roles[k] = {"x": x, "y": y, "z": z}
        if (k == 1) != (m.group(7) is None):
            return f"T{k} has the wrong parent kind"
        if k > 1:
            j = int(m.group(7))
            if j >= k or roles[j][m.group(8)] != x:
                return f"T{k} does not hang on its parent"
    if {tuple(sorted(r.values())) for r in roles.values()} != set(case.triangles):
        return "embedded cycles differ from the generated ones"
    rest = lines[cycles:]
    if not rest[0].startswith("outlets: ") or not all(x.startswith("branch S(") for x in rest[1:]):
        return "outlet or branch lines malformed"
    return None


CHECKS = {
    "mgs": check_mgs,
    "verify": check_verify,
    "enumerate": check_enumerate,
    "graph": check_graph,
    "model-check": check_model,
    "check-type-a": check_type_a,
    "decompose": check_decompose,
    "embed": check_embed,
}


def corrupt(item, out: str) -> str:
    """A plausible wrong answer for the self-test: same shape, one fact off."""
    lines = out.splitlines(keepends=True)
    if item.cmd == "mgs":  # one step dropped, length line kept consistent
        seq = lines[1].split()
        del seq[len(seq) // 2]
        lines[:2] = [f"mgs length={len(seq)}\n", " ".join(seq) + "\n"]
    elif item.cmd == "enumerate":  # one sequence missing from the census
        lines = [f"mgs count={len(lines) - 2}\n"] + lines[1:-1]
    elif item.cmd == "model-check":  # one identity reported violated
        lines[-2] = lines[-2].replace("violations=0", "violations=1")
    elif item.cmd == "check-type-a":  # verdict flipped
        lines[-1] = "verdict: type A\n" if "not" in lines[-1] else "verdict: not type A\n"
    else:
        raise OracleError(f"no corruption defined for {item.cmd}")
    return "".join(lines)
