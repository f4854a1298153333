"""Span tracing of gptlab's public functions, installed from outside the package.

A Tracer replaces each traced function at every name a gptlab module looks it
up by (drf imports switch_distribution by name, so both gptlab.switch and
gptlab.drf get the wrapper). Spans (name, start, end, parent, outputs kept)
stay in memory until the run ends. Run as a script, the module is the traced
form of `python -m gptlab.cli`; it writes its spans as JSON on the last line
of standard error (a pipe: on this kind of disk, rewriting a small file can
take longer than the command itself):

    python perfbench/spans.py [cli arguments ...]
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

TRACED = {
    "presets": ("scenario_from_json",),
    "switch": ("switch_distribution", "table_from_effects"),
    "drf": ("eval_inequality", "optimize_strategy", "mixture_dominance_check"),
    "serialize": ("dump_text",),
    "polytope": ("facets_from_effects", "enumerate_vertices", "slice_polygon"),
    "gpt": ("hull_distance", "min_tensor", "find_superposition",
            "product_superposition_witness"),
}
# points a caller keeps, for its share of hull_distance calls that removed a point
KEPT = {
    "polytope.enumerate_vertices": lambda vs: len(vs.vertices),
    "gpt.min_tensor": lambda space: len(space.states),
}
TIMED = ("presets.scenario_from_json.ms", "switch.switch_distribution.ms",
         "switch.table_from_effects.ms", "drf.eval_inequality.ms",
         "drf.optimize_strategy.self_ms", "drf.mixture_dominance_check.self_ms",
         "serialize.dump_text.ms", "polytope.facets_from_effects.ms",
         "polytope.enumerate_vertices.self_ms", "polytope.slice_polygon.self_ms",
         "gpt.hull_distance.ms", "gpt.min_tensor.self_ms", "gpt.find_superposition.ms",
         "gpt.product_superposition_witness.self_ms", "cli.main_ms")
COUNTED = ("switch.switch_distribution.calls", "switch.table_from_effects.calls",
           "drf.eval_inequality.calls", "gpt.hull_distance.calls")
RATIOS = ("polytope.enumerate_vertices.lp_removed_ratio", "gpt.min_tensor.lp_removed_ratio")

NAME, START, END, PARENT, KEPT_N = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # the slot keeps spans in start order
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            # a tuple of plain values leaves the garbage collector's tracked set,
            # so holding many spans does not slow collections during the run
            self.spans[idx] = (name, start, end, parent, None)
        if name in KEPT:
            self.spans[idx] = (name, start, end, parent, KEPT[name](out))
        return out

    def install(self) -> None:
        """Wrap every traced function at every gptlab module attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gptlab" or n.startswith("gptlab."))]
        for mod_name, names in TRACED.items():
            home = sys.modules[f"gptlab.{mod_name}"]
            for fn_name in names:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self._stack:  # outside an operation: input making or checks
                return fn(*args, **kwargs)
            return self.span(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by another process under one of ours."""
        base = len(self.spans)
        for name, start, end, up, kept in spans:
            self.spans.append((name, start, end, parent if up < 0 else up + base, kept))


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-operation totals by span name: .ms, .self_ms (minus child spans),
    .calls and the lp_removed_ratio of enumerate_vertices and min_tensor."""
    total, child, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for rec in spans:
        dur = rec[END] - rec[START]
        total[rec[NAME]] += dur
        calls[rec[NAME]] += 1
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += dur
    self_t = defaultdict(float)
    for i, rec in enumerate(spans):
        self_t[rec[NAME]] += rec[END] - rec[START] - child[i]
    lp_calls, kept = defaultdict(int), defaultdict(int)
    for i, rec in enumerate(spans):
        if rec[NAME] in KEPT:
            kept[rec[NAME]] += rec[KEPT_N]
        if rec[NAME] != "gpt.hull_distance":
            continue
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] not in KEPT:
            p = spans[p][PARENT]
        if p >= 0:
            lp_calls[spans[p][NAME]] += 1
    out = {}
    for key in TIMED:
        name, kind = key.rsplit(".", 1)
        if key == "cli.main_ms":
            name, kind = "cli.main", "ms"
        per = self_t[name] if kind == "self_ms" else total[name]
        out[key] = per * 1e3 / ops
    for key in COUNTED:
        out[key] = calls[key.rsplit(".", 1)[0]] / ops
    for key in RATIOS:
        name = key.rsplit(".", 1)[0]
        n = lp_calls[name]
        out[key] = (n - kept[name]) / n if n else 0.0
    return out


def _traced_cli(argv: list[str]) -> int:
    import gptlab.cli
    tracer = Tracer()
    tracer.install()
    code = tracer.span("cli.main", gptlab.cli.main, argv)
    sys.stderr.write(json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1:]))
