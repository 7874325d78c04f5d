"""Span tracing of greenseq from outside the package.

``Tracer.install`` wraps every function re-exported by ``greenseq``, plus
``cli.main`` and ``ExchangeGraphSlice.maximal_chain_count``, in every
greenseq module that holds it (so the copies that sibling modules import
by name are wrapped too), and ``remove`` puts the originals back.  A span
is (name, parent span, item, start, end); spans stay in memory in flat
arrays and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = ["item"]  # id 0: the benchmark's span around one CLI call
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_item = -1
        self.graph_kept = 0  # exchange-graph states stored, past the framing
        self.apply_steps = 0  # mutations done inside apply_sequence
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # kept alive so that no id is reused

    # -- recording --------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.item.append(self.current_item)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def run_item(self, item_id: int, call):
        """Run ``call()`` as the root span of one benchmark item."""
        self.current_item = item_id
        idx = self._open(0)
        try:
            return call()
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        if name not in self.names:  # one id per name across installs
            self.names.append(name)
        name_id = self.names.index(name)
        open_, close = self._open, self._close
        post = {"green.exchange_graph": self._graph_post,
                "quiver.apply_sequence": self._apply_post}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if post:
                post(args, result)
            return result

        self._wrappers[id(traced)] = traced
        return traced

    def _graph_post(self, args, result) -> None:
        self.graph_kept += len(result.nodes) - 1

    def _apply_post(self, args, result) -> None:
        self.apply_steps += len(args[1])

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        import greenseq
        from greenseq import cli, green

        targets = {
            id(obj): obj for obj in vars(greenseq).values()
            if inspect.isfunction(obj) and obj.__module__.startswith("greenseq.")
        }
        targets[id(cli.main)] = cli.main
        wrappers = {
            key: self._wrap(fn, f"{fn.__module__.split('.', 1)[1]}.{fn.__qualname__}")
            for key, fn in targets.items()
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "greenseq" or name.startswith("greenseq.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is targets[id(value)]:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        method = green.ExchangeGraphSlice.maximal_chain_count
        self._saved.append((green.ExchangeGraphSlice, "maximal_chain_count", method))
        green.ExchangeGraphSlice.maximal_chain_count = self._wrap(
            method, "green.ExchangeGraphSlice.maximal_chain_count")

    def remove(self) -> None:
        """Restore every wrapped attribute; raise if any wrapper is left."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        import greenseq.green

        owners = [m for name, m in sys.modules.items()
                  if name == "greenseq" or name.startswith("greenseq.")]
        owners.append(greenseq.green.ExchangeGraphSlice)
        for owner in owners:
            for attr, value in vars(owner).items():
                if id(value) in self._wrappers:
                    raise RuntimeError(f"wrapper left on {owner.__name__}.{attr}")

    # -- results ----------------------------------------------------------

    def write(self, path: Path) -> None:
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int32), item=np.frombuffer(self.item, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
        )

    def per_layer(self, items: list[dict]) -> dict[str, tuple[float, str]]:
        """Per-module metrics, each a mean over the traced items.

        ``items[i]`` describes traced item i: its ``cmd``, and for mgs and
        clean verify items the ``out_len`` of the sequence printed or
        verified and the ``min_len`` n + #3-cycles.
        """
        import numpy as np

        name = np.frombuffer(self.name, np.int32)
        parent = np.frombuffer(self.parent, np.int32)
        item = np.frombuffer(self.item, np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        ids = {n: i for i, n in enumerate(self.names)}

        def pick(arr, *names):
            return float(sum(arr[ids[n]] for n in names if n in ids))

        def under(child, *parents):
            mask = name == ids.get(child, -2)
            return mask & np.isin(parent_name, [ids.get(p, -2) for p in parents])

        count = max(len(items), 1)
        per = lambda x: x / count
        ratio = lambda a, b: a / b if b else 0.0

        mutations = pick(calls, "quiver.matrix_mutate") + self.apply_steps
        mutate_self = pick(selfs, "quiver.matrix_mutate", "quiver.apply_sequence")
        walk_steps = under("quiver.matrix_mutate", "green.verify_green")
        steps_per_item = np.bincount(item[walk_steps], minlength=len(items))
        steps_in = lambda cmd: float(sum(
            steps_per_item[i] for i, it in enumerate(items) if it["cmd"] == cmd and "out_len" in it))
        out_len = lambda cmd: sum(it.get("out_len", 0) for it in items if it["cmd"] == cmd)
        search = ("green.enumerate_mgs", "green.first_mgs", "green.exchange_graph")
        expanded = float(under("quiver.matrix_mutate", *search).sum())
        kept = float(under("quiver.matrix_mutate", "green.enumerate_mgs", "green.first_mgs").sum()
                     + self.graph_kept)
        min_len = sum(it.get("min_len", 0) for it in items if it["cmd"] == "mgs")
        s, c, r = "s/item", "count/item", "ratio"
        return {
            "cli.self_s": (per(pick(selfs, "cli.main")), s),
            "quiver.parse_s": (per(pick(total, "quiver.parse_quiver")), s),
            "quiver.mutations": (per(mutations), c),
            "quiver.mutate_self_s": (per(mutate_self), s),
            "quiver.mutate_us": (1e6 * ratio(mutate_self, mutations), "us"),
            "quiver.color_reads": (per(pick(calls, "quiver.vertex_color")), c),
            "quiver.color_self_s": (per(pick(
                selfs, "quiver.vertex_color", "quiver.green_vertices", "quiver.all_colors")), s),
            "green.walks": (per(pick(calls, "green.verify_green")), c),
            "green.walk_self_s": (per(pick(
                selfs, "green.verify_green", "green.is_maximal_green", "green.induced_permutation")), s),
            "green.walk_steps_per_output_step": (ratio(steps_in("mgs"), out_len("mgs")), r),
            "green.walk_steps_per_verify_step": (ratio(steps_in("verify"), out_len("verify")), r),
            "green.states_expanded": (per(expanded), c),
            "green.states_kept": (per(kept), c),
            "green.dedup_ratio": (ratio(kept, expanded), r),
            "green.search_self_s": (per(pick(selfs, *search)), s),
            "green.chain_count_s": (per(pick(total, "green.ExchangeGraphSlice.maximal_chain_count")), s),
            "green.dot_s": (per(pick(total, "green.exchange_graph_dot")), s),
            "directsum.decompose_s": (per(pick(total, "directsum.decompose")), s),
            "directsum.concat_self_s": (per(pick(selfs, "directsum.concat_mgs")), s),
            "typea.recognitions": (per(pick(calls, "typea.is_type_a")), c),
            "typea.is_type_a_s": (per(pick(total, "typea.is_type_a")), s),
            "typea.cycle_tree_self_s": (per(pick(selfs, "typea.cycle_tree")), s),
            "embedding.embed_self_s": (per(pick(selfs, "embedding.embed")), s),
            "embedding.validate_s": (per(pick(total, "embedding.validate_embedding")), s),
            "embedding.report_s": (per(pick(total, "embedding.embedding_report")), s),
            "assocseq.construct_self_s": (per(pick(
                selfs, "assocseq.associated_sequence", "assocseq.stage_parts",
                "assocseq.mgs_for_type_a")), s),
            "assocseq.len_over_min": (ratio(out_len("mgs"), min_len), r),
            "assocseq.min_len": (per(min_len), c),
            "permmodel.check_self_s": (per(pick(selfs, "permmodel.check_permutation_identities")), s),
            "permmodel.stage_permutation_calls": (per(pick(calls, "permmodel.stage_permutation")), c),
            "matrixmodel.predicted_calls": (per(pick(calls, "matrixmodel.predicted_matrix")), c),
            "matrixmodel.predicted_self_s": (per(pick(selfs, "matrixmodel.predicted_matrix")), s),
            "matrixmodel.verify_self_s": (per(pick(selfs, "matrixmodel.verify_model")), s),
            "trace.spans": (per(float(len(dur))), c),
        }
