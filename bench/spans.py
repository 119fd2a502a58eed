"""Span tracing for one koszulkit process, installed from outside.

`install()` wraps the public functions and methods of each koszulkit
module (its layers) so that every call records a span: the layer, the
function, start and end, the enclosing span, and a work count for the
functions whose cost the benchmark follows.  Spans stay in memory;
`dump()` writes them once, when the traced case ends.  The program
itself is not modified.
"""

import functools
import importlib
import inspect
import json
import time

LAYERS = ("exactlin", "graded", "quadratic", "action", "duality", "cli")

# Dunder methods of Mat that carry the arithmetic of the exactlin layer.
MAT_DUNDERS = ("__matmul__", "__add__", "__sub__", "__neg__")


def _input_size(args, result):
    return args[0].rows * args[0].cols


def _output_size(args, result):
    return result.rows * result.cols


def _grow_work(args, result):
    pres, N = args[0], args[1]
    return sum(pres.n ** i for i in range(N + 1))


def _act_on_tensor_work(args, result):
    provider, r = args[0], args[2]
    return (provider.space_dim ** r) ** 2


def _complex_work(args, result):
    return len(result.blocks)


# Work counts recorded by name; every other span records only its time.
WORK = {
    "exactlin.rref": _input_size,
    "exactlin.Mat.__matmul__": _output_size,
    "exactlin.kron": _output_size,
    "quadratic.grow": _grow_work,
    "action.ActionProvider.act_on_tensor": _act_on_tensor_work,
    "duality.I_complex": _complex_work,
    "duality.P_complex": _complex_work,
    "duality.socI_complex": _complex_work,
    "duality.topP_complex": _complex_work,
}


class Tracer:
    """In-memory span store: parallel lists indexed by span id."""

    def __init__(self):
        self.names = []          # span id -> index into self.table
        self.parent = []         # span id -> parent span id or -1
        self.start = []
        self.end = []
        self.work = {}           # span id -> work count
        self.table = []          # distinct span names
        self.stack = [-1]

    def wrap(self, name, fn):
        name_id = len(self.table)
        self.table.append(name)
        work_fn = WORK.get(name)
        names, parent, start, end = (self.names, self.parent, self.start,
                                     self.end)
        stack, work = self.stack, self.work
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if work_fn is not None:
                work[sid] = work_fn(args, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"table": self.table, "name": self.names,
                       "parent": self.parent, "start": self.start,
                       "end": self.end,
                       "work": sorted(self.work.items())}, f)


def _targets(mod, layer):
    """(owner, attribute, qualified span name, function) for each public
    function of the module and each public method of its classes."""
    out = []
    for attr, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) and not attr.startswith("_"):
            out.append((mod, attr, "%s.%s" % (layer, attr), obj))
        elif inspect.isclass(obj):
            for mattr, mobj in vars(obj).items():
                if mattr.startswith("_") and mattr not in MAT_DUNDERS:
                    continue
                if isinstance(mobj, staticmethod):
                    mobj = mobj.__func__
                elif not inspect.isfunction(mobj):
                    continue
                out.append((obj, mattr, "%s.%s.%s" % (layer, attr, mattr),
                            mobj))
    return out


def install():
    """Wrap every layer's public functions; returns the Tracer."""
    tracer = Tracer()
    mods = {layer: importlib.import_module("koszulkit." + layer)
            for layer in LAYERS}
    mods["fixtures"] = importlib.import_module("koszulkit.fixtures")
    replaced = {}
    for layer in LAYERS:
        for owner, attr, name, fn in _targets(mods[layer], layer):
            wrapped = tracer.wrap(name, fn)
            if inspect.isclass(owner):
                if isinstance(vars(owner)[attr], staticmethod):
                    setattr(owner, attr, staticmethod(wrapped))
                else:
                    setattr(owner, attr, wrapped)
            else:
                replaced[id(fn)] = wrapped
    # Modules call each other through names bound at import time
    # (`from koszulkit.exactlin import rref`), so rebind every copy.
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(mod, attr, replaced[id(obj)])
    return tracer
