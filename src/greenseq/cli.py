"""Command-line front end.

Exit codes: 0 success, 1 failed verification (a verify/model-check run that
found violations), 2 bad input.  All output is deterministic for a fixed
input, so every subcommand is golden-file friendly.  Sequences are read and
written in application order; ``--paper-order`` only flips the displayed
order to right-to-left composition.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import assocseq, directsum, embedding, green, matrixmodel, permmodel, quiver, typea
from .quiver import QuiverError, QuiverParseError


def _read_input(path: str) -> str:
    """The UTF-8 text of ``path``, refused above ``quiver.MAX_INPUT_BYTES``:
    a file on its size, before it is read, and a pipe, which reports size
    0, once one byte past the limit has arrived.  A file of known size is
    read whole, so no buffer of the limit's size is taken for a small one."""
    limit = quiver.MAX_INPUT_BYTES
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size <= limit:
            data = f.read() if size else f.read(limit + 1)
            if len(data) <= limit:
                return data.decode("utf-8")
    shown = size if size > limit else f"more than {limit}"
    raise QuiverParseError(f"{path} has {shown} bytes, above the input limit of {limit} bytes")


def _load(path: str) -> quiver.Quiver:
    try:
        text = _read_input(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise QuiverParseError(f"cannot read {path}: {exc}") from exc
    return quiver.parse_quiver(text)


def _parse_seq(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise QuiverParseError(f"bad mutation sequence {text!r}") from None


def _parse_root(text: str) -> tuple[int, int, int]:
    parts = _parse_seq(text)
    if len(parts) != 3:
        raise QuiverParseError(f"root must be three vertices, got {text!r}")
    return parts  # type: ignore[return-value]


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seq_line(seq, paper_order: bool) -> str:
    return " ".join(map(str, reversed(seq) if paper_order else seq))


def cmd_mutate(args) -> int:
    q = _load(args.quiver)
    seq = _parse_seq(args.seq) if args.seq else ()
    if args.framed:
        eq = quiver.apply_sequence(quiver.frame(q), seq)
        sys.stdout.writelines(quiver._extended_lines(eq))
    else:
        for k in seq:
            q = quiver.mutate(q, k)
        sys.stdout.write(quiver.serialize_quiver(q))
    return 0


def cmd_check_type_a(args) -> int:
    report = typea.is_type_a(_load(args.quiver))
    sys.stdout.write(typea.type_a_report_text(report))
    return 0 if report.verdict else 1


def cmd_decompose(args) -> int:
    dec = directsum.decompose(_load(args.quiver))
    sys.stdout.write(directsum.decomposition_report(dec))
    return 0


def cmd_embed(args) -> int:
    q = _load(args.quiver)
    root = _parse_root(args.root) if args.root else None
    e = embedding.embed(q, root)
    sys.stdout.write(embedding.embedding_report(e))
    return 0


def cmd_mgs(args) -> int:
    q = _load(args.quiver)
    if args.root:
        seq = assocseq.associated_sequence(embedding.embed(q, _parse_root(args.root)))
        trace = green.verify_green(q, seq)
    else:
        trace = assocseq.mgs_for_type_a(q).trace
    if not trace.is_maximal:
        raise green.NotMaximalGreenError("constructed sequence is not a maximal green sequence")
    seq = trace.sequence
    order = " order=paper" if args.paper_order else ""
    sys.stdout.write(f"mgs length={len(seq)}{order}\n")
    sys.stdout.write(_seq_line(seq, args.paper_order) + "\n")
    sys.stdout.write(f"permutation: {trace.induced.cycle_string()}\n")
    sys.stdout.write("verified: true\n")
    return 0


def cmd_verify(args) -> int:
    q = _load(args.quiver)
    trace = green.verify_green(q, _parse_seq(args.seq))
    bad = trace.violation_step
    for index, k in enumerate(trace.sequence[:bad], start=1):
        sys.stdout.write(f"step {index}: vertex {k} {'red' if index == bad else 'green'}\n")
    if not trace.is_green:
        sys.stdout.write(
            f"verdict: violation at step {bad} (vertex {trace.sequence[bad - 1]} is red)\n"
        )
        return 1
    sys.stdout.write("verdict: all-green\n")
    sys.stdout.write(f"maximal: {'true' if trace.is_maximal else 'false'}\n")
    if trace.is_maximal:
        sys.stdout.write(f"permutation: {trace.induced.cycle_string()}\n")
    return 0


def cmd_enumerate(args) -> int:
    q = _load(args.quiver)
    try:
        census = green.enumerate_mgs(q, args.max_len)
    except typea.NotTypeAError:
        sys.stderr.write("input is not type A: pass --max-len to bound the search\n")
        return 2
    except green.DepthGuardExceeded as exc:
        census, code = exc.partial, 1
        head = f"mgs count>={len(census)} (depth guard {exc.max_len} hit)\n"
    else:
        code, head = 0, f"mgs count={len(census)}\n"
    sys.stdout.writelines([head] + [_seq_line(seq, args.paper_order) + "\n" for seq in census])
    return code


def cmd_graph(args) -> int:
    q = _load(args.quiver)
    slice_ = green.exchange_graph(q, args.max_nodes)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as f:
                f.writelines(green._dot_lines(slice_))
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {args.dot}: {exc}\n")
            return 2
    else:
        sys.stdout.writelines(green._dot_lines(slice_))
    sys.stdout.write(
        f"nodes={len(slice_.nodes)} edges={len(slice_.edges)} "
        f"sinks={len(slice_.sinks)} chains={slice_.maximal_chain_count()}\n"
    )
    return 0


def cmd_model_check(args) -> int:
    q = _load(args.quiver)
    root = _parse_root(args.root) if args.root else None
    e = embedding.embed(q, root)
    report = matrixmodel.verify_model(e)
    sys.stdout.write(report.text())
    ok = report.ok
    if args.permutations:
        perms = permmodel.check_permutation_identities(e)
        sys.stdout.write(perms.text())
        ok = ok and perms.ok
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenseq",
        description="Quiver mutation and maximal green sequences for type-A quivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mutate", help="mutate a quiver along a sequence")
    p.add_argument("quiver")
    p.add_argument("--seq", default="", help="application-order vertices, e.g. '1 2 1'")
    p.add_argument("--framed", action="store_true", help="mutate the framed matrix instead")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("check-type-a", help="structural type-A test")
    p.add_argument("quiver")
    p.set_defaults(func=cmd_check_type_a)

    p = sub.add_parser("decompose", help="split into irreducible summands")
    p.add_argument("quiver")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("embed", help="standard labelling of a tree of 3-cycles")
    p.add_argument("quiver")
    p.add_argument("--root", help="root leaf 3-cycle, e.g. 1,2,3")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("mgs", help="construct a maximal green sequence")
    p.add_argument("quiver")
    p.add_argument("--root", help="root leaf 3-cycle for irreducible input")
    p.add_argument("--paper-order", action="store_true")
    p.set_defaults(func=cmd_mgs)

    p = sub.add_parser("verify", help="check a sequence for greenness and maximality")
    p.add_argument("quiver")
    p.add_argument("--seq", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="census of all maximal green sequences")
    p.add_argument("quiver")
    p.add_argument("--max-len", type=non_negative_int, default=None)
    p.add_argument("--paper-order", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("graph", help="green part of the oriented exchange graph")
    p.add_argument("quiver")
    p.add_argument("--dot", help="write DOT here instead of stdout")
    p.add_argument("--max-nodes", type=positive_int, default=10000)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("model-check", help="compare predicted and actual matrices per stage")
    p.add_argument("quiver")
    p.add_argument("--root", help="root leaf 3-cycle")
    p.add_argument("--permutations", action="store_true", help="also check permutation identities")
    p.set_defaults(func=cmd_model_check)
    return parser


# built once: parse_args leaves the parser unchanged
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except QuiverError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
