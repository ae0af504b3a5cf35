"""Spans and counts around the public functions of each auslab module,
recorded from outside the program by patching names where they are looked
up.

A span is (name, start, end, parent); spans are kept in memory and written
out when the run ends.  A layer's self time is its spans' durations minus
the durations of their child spans.  Functions that are called too often
for a span, and whose time no metric asks for, get a call count only.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

import workloads

SPAN, COUNT = "span", "count"

# (layer name, module, attribute path, kind).  A module-level function is
# patched in every auslab module that binds it; a method on its class.
TARGETS = [
    ("cli.main", "auslab.cli", "main", SPAN),
    ("cli.build_group", "auslab.cli", "build_group", SPAN),
    ("cli.emit", "auslab.cli", "emit", SPAN),
    ("symmetry.enumerate_subgroups", "auslab.symmetry", "enumerate_subgroups", SPAN),
    ("symmetry.generate_group", "auslab.symmetry", "generate_group", SPAN),
    ("symmetry.FiniteGroup", "auslab.symmetry", "FiniteGroup.__init__", SPAN),
    ("symmetry.Automorphism.mul", "auslab.symmetry", "Automorphism.__mul__", COUNT),
    ("symmetry.monomial_action", "auslab.symmetry", "FiniteGroup.monomial_action", COUNT),
    ("symmetry.monomial_image", "auslab.symmetry", "Automorphism.monomial_image", COUNT),
    ("symmetry.apply", "auslab.symmetry", "apply", COUNT),
    ("smash.IdealTruncation.init", "auslab.smash", "IdealTruncation.__init__", SPAN),
    ("smash.extend", "auslab.smash", "IdealTruncation.extend", SPAN),
    ("smash.block_coords", "auslab.smash", "IdealTruncation.block_coords", COUNT),
    ("smash.auslander_verdict", "auslab.smash", "auslander_verdict", SPAN),
    ("linalg.IntEchelon.insert", "auslab.linalg", "IntEchelon.insert", SPAN),
    ("linalg.FieldEchelon.insert", "auslab.linalg", "FieldEchelon.insert", SPAN),
    ("scalars.ScalarValue.mul", "auslab.scalars", "ScalarValue.__mul__", SPAN),
    ("scalars.ScalarValue.mul", "auslab.scalars", "ScalarValue.__rmul__", SPAN),
    ("scalars.ScalarValue.inverse", "auslab.scalars", "ScalarValue.inverse", SPAN),
    ("invariants.invariant_basis", "auslab.invariants", "invariant_basis", SPAN),
    ("invariants.reynolds", "auslab.invariants", "reynolds", SPAN),
    ("preproj.RelationIdealOracle.extend", "auslab.preproj", "RelationIdealOracle.extend", SPAN),
    ("preproj.hilbert", "auslab.preproj", "hilbert", SPAN),
    ("preproj.AlgebraElement.mul", "auslab.preproj", "AlgebraElement.__mul__", COUNT),
]

# Counts the wrappers derive beyond calls and self time.
DERIVED_COUNTS = (
    "cli.payload_bytes",
    "smash.blocks_saturated",
    "linalg.IntEchelon.insert.accepted",
    "linalg.FieldEchelon.insert.accepted",
    "preproj.oracle_words",
)


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Spans on one thread nest, so children never overlap."""
    out = [e - s for s, e in zip(starts, ends)]
    for idx, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= ends[idx] - starts[idx]
    return out


def check_self_time_arithmetic() -> list[str]:
    """self_times on a synthetic tree: root [0, 10] with children a [1, 4]
    and c [5, 9], and b [2, 3] under a."""
    got = self_times([-1, 0, 1, 0], [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0])
    want = [3.0, 2.0, 1.0, 4.0]
    return [] if got == want else [f"self-time arithmetic gives {got}, expected {want}"]


def _nonempty_block(n: int, d: int, c: int, memo: dict) -> bool:
    """Whether 2l = c (mod n) has a solution l in [0, d]: the block
    coordinate count of one group element is positive."""
    key = (n, min(d, n - 1), c % n)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = any((2 * l - c) % n == 0 for l in range(key[1] + 1))
    return hit


class Tracer:
    """Records one pass: install() patches the targets, uninstall() restores
    them, metrics() reduces the spans and counts to per-layer figures."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._building = 0
        self._saturated_memo: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        span_name, parent, start, end, stack = self.span_name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _echelon_insert(self, name: str, fn):
        """Counts accepted rows, and rows offered and accepted while the
        smash ideal is being built."""
        counts = self.counts

        def insert(echelon, row):
            accepted = fn(echelon, row)
            if accepted:
                counts[name + ".accepted"] += 1
            if self._building:
                counts["build.offered"] += 1
                counts["build.accepted"] += bool(accepted)
            return accepted

        return insert

    def _ideal_extend(self, fn):
        """Marks the ideal build, and counts blocks of positive dimension in
        the newly built degrees that need no elimination (saturated, or
        full because both of their left sources are)."""
        counts, memo = self.counts, self._saturated_memo

        def count_saturated(trunc, before):
            n = trunc.n
            images = [{vm[j] for vm in trunc.group.vertex_maps} for j in range(n)]
            for d in range(before + 1, trunc.built_through() + 1):
                for (i, j), block in trunc._layers[d].items():
                    if block.full and any(_nonempty_block(n, d, d + v - i, memo) for v in images[j]):
                        counts["smash.blocks_saturated"] += 1

        # A span of its own keeps this bookkeeping out of the caller's self time.
        count_saturated = self._span("trace.bookkeeping", count_saturated)

        def extend(trunc, D):
            before = trunc.built_through()
            self._building += 1
            try:
                fn(trunc, D)
            finally:
                self._building -= 1
            if trunc.built_through() > before:
                count_saturated(trunc, before)

        return extend

    def _oracle_extend(self, fn):
        """Counts n * 2^d free words for each degree d the oracle builds."""
        counts = self.counts

        def extend(oracle, d):
            before = oracle.built_through()
            fn(oracle, d)
            n = oracle.quiver.n
            counts["preproj.oracle_words"] += sum(n << k for k in range(before + 1, oracle.built_through() + 1))

        return extend

    def _emit(self, fn):
        counts = self.counts

        def emit(envelope, out_dir, filename):
            counts["cli.payload_bytes"] += workloads.payload_sha256(envelope)[1]
            return fn(envelope, out_dir, filename)

        return emit

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        specials = {
            "linalg.IntEchelon.insert": lambda fn: self._echelon_insert("linalg.IntEchelon.insert", fn),
            "linalg.FieldEchelon.insert": lambda fn: self._echelon_insert("linalg.FieldEchelon.insert", fn),
            "smash.extend": self._ideal_extend,
            "preproj.RelationIdealOracle.extend": self._oracle_extend,
            "cli.emit": self._emit,
        }
        for name, module_name, path, kind in TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[attr]
                owners = [owner]
            else:
                attr = path
                original = getattr(module, attr)
                owners = [
                    mod
                    for mod_name, mod in sys.modules.items()
                    if (mod_name == "auslab" or mod_name.startswith("auslab.")) and vars(mod).get(attr) is original
                ]
            # Bookkeeping wrappers go outside the span, so a layer's self
            # time holds only the program's work.
            inner = self._span(name, original) if kind == SPAN else self._count(name, original)
            wrapper = specials[name](inner) if name in specials else inner
            for owner in owners:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of the pass: <layer>.calls and <layer>.s (self
        time) for spans, <layer>.calls for counted calls, and the derived
        counts."""
        out: dict[str, float] = {}
        for name, _, _, kind in TARGETS:
            out[name + ".calls"] = 0
            if kind == SPAN:
                out[name + ".s"] = 0.0
        for idx, own in enumerate(self_times(self.parent, self.start, self.end)):
            name = self.names[self.span_name[idx]]
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".s"] = out.get(name + ".s", 0.0) + own
        for name in DERIVED_COUNTS:
            out[name] = 0
        out.update((k, v) for k, v in self.counts.items() if not k.startswith("build."))
        offered, accepted = self.counts["build.offered"], self.counts["build.accepted"]
        out["smash.row_yield"] = accepted / offered if offered else 0.0
        return out

    def write_spans(self, fh, pass_index: int) -> None:
        for idx in range(len(self.span_name)):
            fh.write(
                f"{pass_index}\t{idx}\t{self.parent[idx]}\t{self.names[self.span_name[idx]]}"
                f"\t{self.start[idx]:.9f}\t{self.end[idx]:.9f}\n"
            )


def write_trace(path: str, tracers: list[Tracer]) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("pass\tspan\tparent\tname\tstart_s\tend_s\n")
        for k, tracer in enumerate(tracers):
            tracer.write_spans(fh, k)
