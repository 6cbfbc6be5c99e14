"""Call-count and timing spans around charprod's public functions.

The tracer wraps a fixed list of functions from the outside: no charprod
source changes.  Each wrapper replaces the original everywhere it is
looked up at call time -- module globals (including names bound by
``from ... import``), the package namespace, ``sweeps.SUITE_FUNCS`` and,
for ``FieldCtx.tables``, the class attribute -- so calls made through any
route are counted.  Suites are generators; their wrappers drain them
inside the span so the time of the checks lands in the suite's span.

Per span the tracer records ``calls`` (every call, recursive ones too),
``s`` (wall time of outermost calls) and ``self_s`` (``s`` minus the time
covered by wrapped callees).
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
import weakref
from dataclasses import dataclass, field

# (module, attribute) of every wrapped function; the span is "module.attr"
SPAN_TARGETS = (
    ("ffield", "mk_field"),
    ("ffield", "FieldCtx.tables"),
    ("charsets", "brute_product"),
    ("charsets", "enumerate_family"),
    ("charsets", "card_closed"),
    ("charsets", "vanishing_poly"),
    ("closedform", "prod_T_values"),
    ("closedform", "rescale_T"),
    ("closedform", "det_sqrt"),
    ("closedform", "normalized_frame"),
    ("correspondence", "all_orbits"),
    ("correspondence", "orbit_of_tau"),
    ("correspondence", "classify_tau"),
    ("dickson", "dickson_first"),
    ("dickson", "dickson_second"),
    ("reciprocity", "radical_tower_membership"),
    ("reciprocity", "prod_T_quadratic_irrational"),
    ("sweeps", "run_field"),
    ("sweeps", "suite_tables"),
    ("sweeps", "suite_dickson"),
    ("sweeps", "suite_cardinality"),
    ("sweeps", "suite_correspondence"),
    ("sweeps", "suite_reciprocity"),
    ("sweeps", "suite_rescaling"),
    ("sweeps", "suite_intro"),
    ("cli", "main"),
    ("cli", "closed_product"),
)


def span_name(module: str, attr: str) -> str:
    # FieldCtx.tables is reported as ffield.tables
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


SPAN_NAMES = tuple(span_name(m, a) for m, a in SPAN_TARGETS)


@dataclass
class Span:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    active: int = 0


@dataclass
class Tracer:
    spans: dict[str, Span] = field(
        default_factory=lambda: {name: Span() for name in SPAN_NAMES})
    # prod_T_values calls made inside suite_tables, and rows that suite yielded
    tables_prod_calls: int = 0
    tables_rows: int = 0
    tables_peak_bytes: int = 0
    clock: object = time.perf_counter
    _stack: list = field(default_factory=list)      # [name, child_s] frames
    _restore: list = field(default_factory=list)    # (holder, key, original) to undo

    # -- recording --------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        span = self.spans[name]
        span.calls += 1
        if name == "closedform.prod_T_values" and self.spans["sweeps.suite_tables"].active:
            self.tables_prod_calls += 1
        frame = [name, 0.0]
        self._stack.append(frame)
        span.active += 1
        t0 = self.clock()
        try:
            out = fn(*args, **kwargs)
            if name.startswith("sweeps.suite_"):
                out = list(out)
                if name == "sweeps.suite_tables":
                    self.tables_rows += len(out)
                out = iter(out)
            return out
        finally:
            dt = self.clock() - t0
            span.active -= 1
            self._stack.pop()
            span.self_s += dt - frame[1]
            if not span.active:
                span.s += dt
            if self._stack:
                self._stack[-1][1] += dt

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _wrap_tables(self, fn):
        """FieldCtx.tables, with a tracemalloc peak on each context's first call."""
        seen = weakref.WeakSet()

        @functools.wraps(fn)
        def tables(ctx):
            if ctx in seen:
                return self._call("ffield.tables", fn, (ctx,), {})
            seen.add(ctx)
            tracemalloc.start()
            try:
                return self._call("ffield.tables", fn, (ctx,), {})
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.tables_peak_bytes = max(self.tables_peak_bytes, peak)

        return tables

    # -- patching ---------------------------------------------------------

    def _set(self, holder, key, new):
        """Set ``holder.key`` (or ``holder[key]`` for a dict), noting the old value."""
        if isinstance(holder, dict):
            self._restore.append((holder, key, holder[key]))
            holder[key] = new
        else:
            self._restore.append((holder, key, getattr(holder, key)))
            setattr(holder, key, new)

    def install(self) -> "Tracer":
        """Patch every lookup site of every target; undo with ``uninstall``.

        numpy is imported here, so the first table build's memory peak
        does not include numpy's own import.
        """
        import numpy  # noqa: F401

        import charprod
        from charprod import ffield, sweeps

        modules = [charprod] + [m for name, m in sorted(sys.modules.items())
                                if name.startswith("charprod.") and m is not None]
        wrapped = {}
        for mod_name, attr in SPAN_TARGETS:
            if attr == "FieldCtx.tables":
                self._set(ffield.FieldCtx, "tables",
                          self._wrap_tables(ffield.FieldCtx.tables))
                continue
            original = getattr(sys.modules[f"charprod.{mod_name}"], attr)
            wrapped[id(original)] = self._wrap(span_name(mod_name, attr), original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrapped:
                    self._set(mod, key, wrapped[id(value)])
        for key, value in list(sweeps.SUITE_FUNCS.items()):
            if id(value) in wrapped:
                self._set(sweeps.SUITE_FUNCS, key, wrapped[id(value)])
        return self

    def uninstall(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.s"] = span.s
            out[f"{name}.self_s"] = span.self_s
        out["ffield.tables.peak_mb"] = self.tables_peak_bytes / 2**20
        out["closedform.prod_T_values.calls_per_check"] = (
            self.tables_prod_calls / self.tables_rows if self.tables_rows else 0.0)
        return out
