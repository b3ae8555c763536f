"""Tracing of one CLI job from outside the program.

``Tracer.install`` replaces every public function of the traced finslerab
modules with a wrapper that records a span (name, start, end, parent span)
in memory, in every module namespace that binds it: ``build_bundle``, for
instance, is imported by name into ``cli`` and ``classify``, and a call
through an unpatched binding would silently leave the numbers.  ``Jet``
multiplication is counted, not spanned, because it runs hundreds of
thousands of times per job.  The program itself carries no tracing code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "finslerab"
MODULES = ("dsl", "riemann", "finsler", "scurvature", "identity", "classify", "cli")

# Run once per expression node or per metric-file line; spanning them would
# cost more than the work they do.  Their time stays with the caller
# (parse_metric, validate_spec, build_bundle).
UNSPANNED = frozenset({"dsl.eval_component", "dsl.parse_expression", "dsl.expr_to_text"})
# Of the CLI only the entry point is spanned: the subcommands' own loops
# (cmd_scurv, cmd_appendix --dim-sweep) are the CLI layer's work and count
# as cli.main self time.
CLI_SPANNED = frozenset({"cli.main"})


def _spanned(qual: str) -> bool:
    if qual.startswith("cli."):
        return qual in CLI_SPANNED
    return qual not in UNSPANNED

VOLUME_FACTOR = "scurvature.volume_factor"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.originals: dict[str, object] = {}
        self.mul_calls = 0
        self.vf_args: set = set()

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for name, obj in vars(mod).items():
                qual = f"{short}.{name}"
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and _spanned(qual)
                ):
                    tracer.originals[qual] = obj
        # tracer.originals keeps every original alive, so its id stays unique
        wrappers = {id(fn): tracer._wrap(qual, fn) for qual, fn in tracer.originals.items()}
        for mod in _package_modules():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
        tracer._count_jet_mul()
        return tracer

    def _wrap(self, qual: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        vf_args = self.vf_args if qual == VOLUME_FACTOR else None
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if vf_args is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                n, b, form = bound.arguments["n"], bound.arguments["b"], bound.arguments["form"]
                vf_args.add((n, str(form).lower(), b))
            idx = len(spans)
            spans.append([qual, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _count_jet_mul(self):
        jet_cls = importlib.import_module(f"{PACKAGE}.jets").Jet
        mul = jet_cls.__mul__
        tracer = self

        def counted(a, b):
            tracer.mul_calls += 1
            return mul(a, b)

        jet_cls.__mul__ = counted
        if jet_cls.__dict__.get("__rmul__") is mul:
            jet_cls.__rmul__ = counted

    def escapes(self) -> list[str]:
        """Places that still reach an original function without its wrapper."""
        originals = {id(fn): qual for qual, fn in self.originals.items()}
        found = []

        def scan(where, namespace):
            for name, obj in namespace.items():
                if id(obj) in originals:
                    found.append(f"{where}.{name} -> {originals[id(obj)]}")
                if inspect.isfunction(obj):
                    for d in (obj.__defaults__ or ()) + tuple((obj.__kwdefaults__ or {}).values()):
                        if id(d) in originals:
                            found.append(f"default of {where}.{name} -> {originals[id(d)]}")
                elif inspect.isclass(obj) and obj.__module__.startswith(PACKAGE):
                    scan(f"{where}.{name}", dict(vars(obj)))
                elif isinstance(obj, (dict, list, tuple)):
                    items = obj.values() if isinstance(obj, dict) else obj
                    if any(id(item) in originals for item in items):
                        found.append(f"{where}.{name} holds an unwrapped traced function")

        for mod in _package_modules():
            scan(mod.__name__, dict(vars(mod)))
        return found

    def report(self) -> dict:
        """Calls and self time per traced name; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
        return {
            "traced": sorted(self.originals),
            "calls": calls,
            "self_s": self_s,
            "jet_mul_calls": self.mul_calls,
            "volume_factor_distinct": len(self.vf_args),
            "escapes": self.escapes(),
        }


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
