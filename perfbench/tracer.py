"""Spans around the calls into each braidfloer layer, installed from outside.

The wrappers replace module attributes that callers look up at call time
(`braidfloer.pipeline.index_pair`, `braidfloer.homology._coreduce`, ...), in
the defining module and in every braidfloer module that imported the same
function by name.  Nothing in the package is edited; `uninstall` puts every
original back and checks that no wrapper is left behind.

A span records its name, start, end, the span that caused it, the item it
belongs to and the exception type that left it, if any.  A layer's self time
is its span durations minus the time its child spans cover.  Per-cell methods
(`ComplexGeometry.decode`, `IndexPair.boundary`/`cofaces`) and the two hot
Maslov helpers are not given spans: the first are counted in their enclosing
span, the helpers only get an exact call count.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); a name of None means "count calls only"
SPANS = (
    ("braidfloer.cli", "main", "cli.main"),
    ("braidfloer.pipeline", "braid_floer_homology", "pipeline.braid_floer_homology"),
    ("braidfloer.pipeline", "_realize_cyclic", "pipeline.realize"),
    ("braidfloer.pipeline", "_realize_word", "pipeline.realize"),
    ("braidfloer.pipeline", "_homology_at", "pipeline.homology_at"),
    ("braidfloer.garside", "left_normal_form", "garside.left_normal_form"),
    ("braidfloer.garside", "twist_padding", "garside.twist_padding"),
    ("braidfloer.complex", "enumerate_component", "complex.enumerate_component"),
    ("braidfloer.complex", "index_pair", "complex.index_pair"),
    ("braidfloer.homology", "relative_homology", "homology.relative_homology"),
    ("braidfloer.homology", "_check_boundary_squared", "homology.check_boundary_squared"),
    ("braidfloer.homology", "_coreduce", "homology.coreduce"),
    ("braidfloer.homology", "_gauss_ranks", "homology.gauss_ranks"),
    ("braidfloer.maslov", "integrate_path", "maslov.integrate_path"),
    ("braidfloer.maslov", "permuted_cz_index", "maslov.permuted_cz_index"),
    ("braidfloer.maslov", "_rk4", None),
    ("braidfloer.maslov", "_smin", None),
    ("braidfloer.flow", "find_stationary", "flow.find_stationary"),
    ("braidfloer.flow", "evolve", "flow.evolve"),
)

COUNTED = {"_rk4": "maslov.rk4.calls", "_smin": "maslov.smin.calls"}

# the second _homology_at call inside one braid_floer_homology call is the
# period-(d+1) stabilization rerun
STABILIZE = "pipeline.stabilize"

# self-time metrics reported per layer, by span name
SELF_TIME = (
    "pipeline.braid_floer_homology",
    "pipeline.realize",
    "garside.left_normal_form",
    "garside.twist_padding",
    "complex.enumerate_component",
    "complex.index_pair",
    "homology.relative_homology",
    "homology.check_boundary_squared",
    "homology.coreduce",
    "homology.gauss_ranks",
    "maslov.integrate_path",
    "maslov.permuted_cz_index",
    "flow.find_stationary",
    "flow.evolve",
    "cli.main",
)

CHECKS = ("boundary_squared", "euler", "morse")


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "braidfloer" or name.startswith("braidfloer."))
    ]


class Tracer:
    """In-memory span recorder plus the exact counts taken at layer edges."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, item, name, start, end, exc)
        self.stack: list[list] = []   # open spans: [id, name, start, child_s]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.pair_sizes: list[tuple] = []  # (item, period, cubes, |N|, |N^-|)
        self.violations: list[tuple] = []  # (item, message)
        self.item = None
        self._homology_at_calls: list[int] = []
        self._patched: list[tuple] = []
        self._next_id = 0

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _exit(self, exc: str | None) -> None:
        end = time.perf_counter()
        span_id, name, start, child_s = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        self.total_s[name] += duration
        self.calls[name] += 1
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][3] += duration
        self.spans.append((span_id, parent, self.item, name, start, end, exc))

    def _span(self, fn, name: str, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "pipeline.homology_at" and tracer._homology_at_calls:
                tracer._homology_at_calls[-1] += 1
                if tracer._homology_at_calls[-1] == 2:
                    span_name = STABILIZE
            if name == "pipeline.braid_floer_homology":
                tracer._homology_at_calls.append(0)
            state = before(args) if before else None
            tracer._enter(span_name)
            exc = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                exc = type(err).__name__
                raise
            finally:
                tracer._exit(exc)
                if name == "pipeline.braid_floer_homology":
                    tracer._homology_at_calls.pop()
            if after:
                after(args, result, state)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _counter(self, fn, metric: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    # -- observers at layer edges -------------------------------------------

    def _after_component(self, args, comp, _state):
        self.counts["complex.cubes"] += len(comp.top_cells)

    def _after_index_pair(self, args, pair, _state):
        comp = args[0]
        self.counts["complex.cells_N"] += len(pair.cells)
        self.counts["complex.cells_exit"] += len(pair.exit)
        self.pair_sizes.append(
            (self.item, comp.geometry.period, len(comp.top_cells), len(pair.cells), len(pair.exit))
        )

    @staticmethod
    def _before_relative(args):
        from braidfloer import homology

        pair = args[0]
        return dict(homology.IDENTITY_CHECKS), len(pair.cells) - len(pair.exit)

    def _after_relative(self, args, _result, state):
        """Check-still-on guard: every built-in identity check ran."""
        from braidfloer import homology

        before, relative = state
        after = homology.IDENTITY_CHECKS
        for check in CHECKS:
            if check == "morse" and relative == 0:
                continue  # the Morse identity is vacuous on an empty complex
            if after.get(check, 0) <= before.get(check, 0):
                self.violations.append(
                    (self.item, f"relative_homology ran without the {check} check")
                )

    @staticmethod
    def _before_coreduce(args):
        return len(args[0])

    def _after_coreduce(self, args, removed, relative):
        self.counts["homology.relative_cells"] += relative
        self.counts["homology.core_cells"] += len(args[0])
        self.counts["homology.coreduce.removed"] += removed

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        hooks = {
            "complex.enumerate_component": (None, self._after_component),
            "complex.index_pair": (None, self._after_index_pair),
            "homology.relative_homology": (self._before_relative, self._after_relative),
            "homology.coreduce": (self._before_coreduce, self._after_coreduce),
        }
        for module_name, attr, name in SPANS:
            original = getattr(sys.modules[module_name], attr)
            if name is None:
                wrapper = self._counter(original, COUNTED[attr])
            else:
                before, after = hooks.get(name, (None, None))
                wrapper = self._span(original, name, before, after)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        """Restore every patched attribute and fail if any wrapper remains."""
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        for mod in _package_modules():
            for key, value in vars(mod).items():
                if getattr(value, "__perfbench_wrapper__", False):
                    raise AssertionError(f"tracer wrapper left on {mod.__name__}.{key}")

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit) for the traced pass."""
        out: dict[str, tuple[float, str]] = {}
        for name in SELF_TIME:
            out[f"{name}.s"] = (self.self_s.get(name, 0.0), "s")
        out["pipeline.stabilize.s"] = (self.total_s.get(STABILIZE, 0.0), "s")
        route = self.total_s.get("pipeline.braid_floer_homology", 0.0)
        out["pipeline.stabilize.share"] = (
            self.total_s.get(STABILIZE, 0.0) / route if route else 0.0, "share"
        )
        for name in ("garside.left_normal_form", "garside.twist_padding"):
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
        for name in ("complex.cubes", "complex.cells_N", "complex.cells_exit",
                     "homology.relative_cells", "homology.core_cells",
                     "maslov.rk4.calls", "maslov.smin.calls"):
            out[name] = (self.counts.get(name, 0), "count")
        n_cells = self.counts.get("complex.cells_N", 0)
        out["complex.relative_share"] = (
            (n_cells - self.counts.get("complex.cells_exit", 0)) / n_cells if n_cells else 0.0,
            "share",
        )
        relative = self.counts.get("homology.relative_cells", 0)
        out["homology.coreduce.removed_share"] = (
            self.counts.get("homology.coreduce.removed", 0) / relative if relative else 0.0,
            "share",
        )
        return out
