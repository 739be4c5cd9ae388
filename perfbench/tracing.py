"""Tracing from outside the program: wrap carlab's functions in spans.

Each target names the module that defines a function and its name.
Installing a target replaces the function at every place a caller looks it
up: the defining carlab module, every carlab module that imported the
function by name, and (for functions defined outside carlab, such as
scipy's ``splu``) every carlab module global that holds the defining
module, which is swapped for a view whose attribute is wrapped.  Spans are
kept in memory; no file of the program changes.
"""

import functools
import importlib
import sys
import time

PACKAGE = "carlab"


class Tracer:
    """In-memory span recorder with per-op counters.

    A span is [op, name, start, end, parent, child_time, outermost]; self
    time is the span minus the time its child spans cover.  A span nested
    inside an open span of the same name is recorded but not counted again
    in the inclusive totals.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        outermost = all(self.spans[i][1] != name for i in self._stack)
        self.spans.append([self.op, name, time.perf_counter(), None, parent, 0.0, outermost])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self._stack.pop()
        if span[4] is not None:
            self.spans[span[4]][5] += span[3] - span[2]

    def add(self, key, value):
        per_op = self.counters.setdefault(self.op, {})
        per_op[key] = per_op.get(key, 0) + value

    def key_set(self, key):
        return self.counters.setdefault(self.op, {}).setdefault(key, set())

    def parent_name(self, span):
        return None if span[4] is None else self.spans[span[4]][1]


def traced(fn, name, tracer, after=None):
    """Wrap fn in a span; after(tracer, args, kwargs, result) runs once the
    span has closed, records counters, and may replace the result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            result = after(tracer, args, kwargs, result)
        return result

    return wrapper


class _ModuleView:
    """Stands in for a third-party module inside carlab's namespaces, with
    some attributes wrapped and the rest delegated."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _resolve(spec):
    """'package.module:function' -> (module, name, function) or None."""
    mod_name, _, attr = spec.partition(":")
    try:
        module = importlib.import_module(mod_name)
    except ImportError:
        return None
    fn = getattr(module, attr, None)
    return (module, attr, fn) if callable(fn) else None


def install(tracer, targets):
    """Wrap every target; returns (restore, absent).

    restore() puts every original back; absent lists the target specs that
    no longer exist in the program, so the caller can report them.
    """
    patched = []  # (namespace object, attribute, previous value)
    absent = []
    views = {}  # id(third-party module) -> (module, {attribute: wrapper})

    def patch(obj, attr, value):
        patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    for name, spec, after in targets:
        found = _resolve(spec)
        if found is None:
            absent.append(spec)
            continue
        owner, attr, orig = found
        wrapper = traced(orig, name, tracer, after)
        if owner.__name__.split(".")[0] == PACKAGE:
            patch(owner, attr, wrapper)
        else:
            views.setdefault(id(owner), (owner, {}))[1][attr] = wrapper
        for module in _program_modules():
            for key, value in list(vars(module).items()):
                if value is orig and not (module is owner and key == attr):
                    patch(module, key, wrapper)

    for module in _program_modules():
        for key, value in list(vars(module).items()):
            if id(value) in views and views[id(value)][0] is value:
                patch(module, key, _ModuleView(*views[id(value)]))

    def restore():
        for obj, attr, previous in reversed(patched):
            setattr(obj, attr, previous)
        patched.clear()

    return restore, absent
