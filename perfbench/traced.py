"""Traced in-process run of the secantlab CLI.

    python3 traced.py OUT_JSON -- <secantlab CLI arguments>

Wraps each layer's public functions where the CLI's call chain binds them,
runs ``secantlab.cli.main`` once, writes the per-layer metrics and the
calls per hook to OUT_JSON, and exits with the CLI's exit code.

Every span records its parent, so a layer's self time is its duration minus
the time covered by its direct child spans.  The tracing overhead is the
number of spans times the cost a hook adds to one call, measured in the same
process after the run.  A hooked name that is missing, or bound to something
other than the function it should be, is a hard error: a later rename cannot
silently zero a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# label -> binding sites (module, attribute); every site must hold the same
# function object, which is replaced by one wrapper.
HOOKS = {
    "gb.buchberger": [("gb", "buchberger"), ("ideal_ops", "buchberger"),
                      ("homalg", "buchberger"), ("curves", "buchberger")],
    "ideal_ops.secant_join": [("ideal_ops", "secant_join"),
                              ("oracle", "secant_join"),
                              ("cli", "secant_join")],
    "homalg.hilbert_data": [("homalg", "hilbert_data"),
                            ("oracle", "hilbert_data"),
                            ("cli", "hilbert_data")],
    "homalg.minimal_free_resolution": [
        ("homalg", "minimal_free_resolution"),
        ("oracle", "minimal_free_resolution"),
        ("cli", "minimal_free_resolution")],
    "curves.embed": [("curves", "embed"), ("cli", "embed")],
    "curves.rational_normal_curve": [("curves", "rational_normal_curve"),
                                     ("cli", "rational_normal_curve")],
    "oracle.verify": [("oracle", "verify"), ("cli", "verify")],
    "curves.parse_curve_file": [("curves", "parse_curve_file"),
                                ("cli", "parse_curve_file")],
    "cli.parse_ideal_file": [("cli", "parse_ideal_file")],
}
METHOD_HOOKS = {"gb.normal_form": ("gb", "GroebnerBasis", "normal_form")}

BETTI = "homalg.minimal_free_resolution"
JOIN = "ideal_ops.secant_join"


class HookError(RuntimeError):
    pass


class Recorder:
    """Spans of one run, in call order: (label, parent index or -1, start,
    end, basis size for gb.buchberger else None)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, label, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                size = len(out) if label == "gb.buchberger" and out else None
                spans[sid] = (label, parent, t0, t1, size)
        return wrapper

    def summarize(self) -> tuple:
        """(calls per hook label, per-layer metrics) of the spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        context = [None] * len(spans)   # innermost Betti or join ancestor
        outer = [True] * len(spans)     # no ancestor with the same label
        for sid, (label, parent, t0, t1, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                context[sid] = context[parent]
                a = parent
                while a >= 0 and outer[sid]:
                    outer[sid] = spans[a][0] != label
                    a = spans[a][1]
            if label in (BETTI, JOIN):
                context[sid] = label
        calls = dict.fromkeys([*HOOKS, *METHOD_HOOKS], 0)
        total = dict.fromkeys(calls, 0.0)
        self_s = dict.fromkeys(calls, 0.0)
        nested = {BETTI: 0.0, JOIN: 0.0}
        basis_elems = 0
        for sid, (label, parent, t0, t1, size) in enumerate(spans):
            calls[label] += 1
            if outer[sid]:
                total[label] += t1 - t0
                self_s[label] += t1 - t0 - child[sid]
            if label == "gb.buchberger":
                basis_elems += size or 0
                if context[sid] in nested:
                    nested[context[sid]] += t1 - t0
        metrics = {
            "homalg.betti_s": total[BETTI],
            "homalg.betti_self_s": self_s[BETTI],
            "homalg.hilbert_s": total["homalg.hilbert_data"],
            "homalg.hilbert_calls": calls["homalg.hilbert_data"],
            "gb.betti.buchberger_s": nested[BETTI],
            "gb.normal_form_calls": calls["gb.normal_form"],
            "gb.normal_form_s": total["gb.normal_form"],
            "ideal_ops.secant_join_s": total[JOIN],
            "ideal_ops.secant_join_calls": calls[JOIN],
            "gb.join.buchberger_s": nested[JOIN],
            "gb.buchberger_calls": calls["gb.buchberger"],
            "gb.buchberger_s": total["gb.buchberger"],
            "gb.basis_elems": basis_elems,
            "curves.embed_s": (total["curves.embed"]
                               + total["curves.rational_normal_curve"]),
            "oracle.verify_s": total["oracle.verify"],
            "oracle.verify_self_s": self_s["oracle.verify"],
            "cli.parse_s": (total["curves.parse_curve_file"]
                            + total["cli.parse_ideal_file"]),
        }
        return calls, metrics


def install(recorder: Recorder) -> None:
    mods = {}

    def module(name):
        if name not in mods:
            mods[name] = importlib.import_module(f"secantlab.{name}")
        return mods[name]

    for label, sites in HOOKS.items():
        targets = []
        for mod, attr in sites:
            fn = getattr(module(mod), attr, None)
            if not callable(fn):
                raise HookError(f"{label}: secantlab.{mod}.{attr} is missing")
            targets.append(fn)
        if any(fn is not targets[0] for fn in targets):
            raise HookError(f"{label}: binding sites {sites} hold different "
                            "objects")
        wrapper = recorder.wrap(label, targets[0])
        for mod, attr in sites:
            setattr(module(mod), attr, wrapper)
    for label, (mod, cls, attr) in METHOD_HOOKS.items():
        owner = getattr(module(mod), cls, None)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            raise HookError(f"{label}: secantlab.{mod}.{cls}.{attr} is "
                            "missing")
        setattr(owner, attr, recorder.wrap(label, fn))


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds a hook adds to one call: a wrapped no-op against a bare one,
    measured in this process."""
    def noop():
        return None
    probe = Recorder().wrap("probe", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        probe()
    t2 = perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: traced.py OUT_JSON -- <cli arguments>")
    out_path, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    install(recorder)
    from secantlab import cli
    code = cli.main(cli_args)
    sys.stdout.flush()
    calls, metrics = recorder.summarize()
    metrics["trace.spans"] = len(recorder.spans)
    metrics["trace.overhead_s"] = len(recorder.spans) * wrapper_cost()
    with open(out_path, "w") as fh:
        json.dump({"calls": calls, "metrics": metrics}, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
