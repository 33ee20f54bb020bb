"""In-memory spans around the public functions of each mrckit layer.

`install` replaces every public function of the layer modules, and every
public method of the classes they define, with a wrapper that records a span
(name, layer, start, end, parent id). Names bound with `from ... import`
are replaced in the module that looks them up, so `mrckit.classifier.solve`
and `mrckit.estimate.solve_standard_form` are traced too. Spans stay in
memory until `write` dumps them. Nothing inside mrckit is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("dataset", "features", "estimate", "objective", "solver", "simplex",
          "classifier", "cli")


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent, layer, name, start, end, command]
        self.stack = []
        self.command = None
        self.paused = False
        self.hooks = {}          # qualified name -> fn(args, kwargs, result)

    def wrap(self, fn, layer, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = [len(tracer.spans), tracer.stack[-1] if tracer.stack else None,
                    layer, name, time.perf_counter(), None, tracer.command]
            tracer.spans.append(span)
            tracer.stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                tracer.stack.pop()
            hook = tracer.hooks.get(name)
            if hook is not None:
                tracer.paused = True
                try:
                    hook(args, kwargs, result)
                finally:
                    tracer.paused = False
            return result

        return traced

    def write(self, path):
        keys = ("id", "parent", "layer", "name", "start", "end", "command")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
            fh.write("\n")


def _layer_of(obj):
    module = getattr(obj, "__module__", "") or ""
    if not module.startswith("mrckit."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


def install(tracer):
    """Wrap the public callables of every layer where they are looked up."""
    modules = {layer: importlib.import_module(f"mrckit.{layer}") for layer in LAYERS}
    wrapped = {}

    def wrapper_for(fn, layer, name):
        if fn not in wrapped:
            wrapped[fn] = tracer.wrap(fn, layer, name)
        return wrapped[fn]

    for mod_layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            layer = _layer_of(obj)
            if layer is None or attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                setattr(module, attr, wrapper_for(obj, layer, f"{layer}.{attr}"))
        for obj in list(vars(module).values()):
            if not inspect.isclass(obj) or obj.__module__ != module.__name__:
                continue
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_") or not inspect.isfunction(raw):
                    continue
                name = f"{mod_layer}.{obj.__name__}.{attr}"
                setattr(obj, attr, wrapper_for(raw, mod_layer, name))
