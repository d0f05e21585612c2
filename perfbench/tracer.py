"""Spans and counters around unitshapes' layers, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``unitshapes`` module namespace that bound it, so names copied by
``from .x import y`` are traced too (``unitshapes.curves.adaptive_quadrature``,
``unitshapes.optimize.fundamental_measure``, ...). ``uninstall`` puts the
originals back. A span records (id, name, start, end, parent id, request id);
spans stay in memory until ``write``. Self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPANNED_FUNCTIONS = (  # (module, function, span name)
    ("unitshapes.curves", "shape_from_json", "curves.shape_from_json"),
    ("unitshapes.curves", "scaled", "curves.scaled"),
    ("unitshapes.unitize", "unitize", "unitize.unitize"),
    ("unitshapes.catalog", "fundamental_measure", "catalog.fundamental_measure"),
    ("unitshapes.catalog", "build_unit_shape", "catalog.build_unit_shape"),
    ("unitshapes.catalog", "ellipse_semi_minor", "catalog.ellipse_semi_minor"),
    ("unitshapes.optimize", "minimize_1d", "optimize.minimize_1d"),
    ("unitshapes.optimize", "minimize_2d", "optimize.minimize_2d"),
    ("unitshapes.optimize", "scan", "optimize.scan"),
    ("unitshapes.solids", "solids_table", "solids.solids_table"),
    ("unitshapes.solids", "measures", "solids.measures"),
)
SPANNED_METHODS = (  # (class, method, span name)
    ("Shape", "__init__", "curves.Shape"),
    ("Shape", "area", "curves.Shape.area"),
    ("Shape", "perimeter", "curves.Shape.perimeter"),
)
# Bindings made by ``from .x import y`` that must end up traced.
SIBLING_BINDINGS = (
    ("unitshapes.curves", "adaptive_quadrature"),
    ("unitshapes.catalog", "adaptive_quadrature"),
    ("unitshapes.optimize", "fundamental_measure"),
    ("unitshapes.verify", "unitize"),
)
QUADRATURE = "quadrature.adaptive_quadrature"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.request: int | None = None
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._patches: list[tuple] = []
        self._wrappers: set[int] = set()

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span named ``name``."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            frame = [len(spans) + len(stack), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.total_s[name] += duration
                spans.append((frame[0], name, start, end, parent, self.request))

        return traced

    # -- wrappers with counters ------------------------------------------

    def _quadrature(self, fn):
        counts = self.counts

        def counted(f, *args, **kwargs):
            def integrand(t):
                counts["quadrature.adaptive_quadrature.evals"] += 1
                return f(t)

            return fn(integrand, *args, **kwargs)

        return self.span(QUADRATURE, counted)

    def _piece_measure(self, fn):
        """Count each piece measure as closed form or quadrature, by piece kind."""
        calls, counts = self.calls, self.counts

        def measured(piece, *args, **kwargs):
            before = calls[QUADRATURE]
            value = fn(piece, *args, **kwargs)
            how = "quadrature" if calls[QUADRATURE] > before else "closed_form"
            counts[f"curves.{piece.kind}.{how}"] += 1
            return value

        return measured

    def _optimizer(self, fn):
        counts = self.counts

        def optimizer(f, *args, **kwargs):
            def objective(x):
                counts["optimize.objective_evals"] += 1
                return f(x)

            result = fn(objective, *args, **kwargs)
            counts["optimize.iterations"] += result[2]
            return result

        return optimizer

    # -- installing -------------------------------------------------------

    def _rebind(self, module: str, name: str, wrapper) -> None:
        original = getattr(sys.modules[module], name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "unitshapes" or mod_name.startswith("unitshapes.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._wrappers.add(id(wrapper))
                    setattr(mod, attr, wrapper)
                    self._patches.append((setattr, mod, attr, original))

    def install(self) -> None:
        curves = sys.modules["unitshapes.curves"]
        quadrature = sys.modules["unitshapes.quadrature"]
        optimize = sys.modules["unitshapes.optimize"]
        verify = sys.modules["unitshapes.verify"]
        self._rebind(quadrature.__name__, "adaptive_quadrature", self._quadrature(quadrature.adaptive_quadrature))
        for module, name, span_name in SPANNED_FUNCTIONS:
            self._rebind(module, name, self.span(span_name, getattr(sys.modules[module], name)))
        for cls_name, method, span_name in SPANNED_METHODS:
            cls = getattr(curves, cls_name)
            self._patches.append((setattr, cls, method, cls.__dict__[method]))
            setattr(cls, method, self.span(span_name, cls.__dict__[method]))
        for method in ("length", "signed_area_term"):
            original = curves.CurvePiece.__dict__[method]
            self._patches.append((setattr, curves.CurvePiece, method, original))
            setattr(curves.CurvePiece, method, self._piece_measure(original))
        for name in ("golden_section", "nelder_mead"):
            self._rebind(optimize.__name__, name, self._optimizer(getattr(optimize, name)))
        for suite, fn in list(verify.SUITES.items()):
            self._patches.append((dict.__setitem__, verify.SUITES, suite, fn))
            verify.SUITES[suite] = self.span(f"verify.{suite}", fn)
        missed = [
            f"{m}.{n}" for m, n in SIBLING_BINDINGS if id(getattr(sys.modules[m], n)) not in self._wrappers
        ]
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracing missed sibling bindings: {missed}")

    def uninstall(self) -> None:
        while self._patches:
            setter, owner, name, original = self._patches.pop()
            setter(owner, name, original)

    # -- results ----------------------------------------------------------

    def deterministic_counts(self) -> dict:
        """Everything counted (not timed); equal across passes over the same requests."""
        return {**{f"{k}.calls": v for k, v in self.calls.items()}, **self.counts}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
