"""Span probes around ssdr's layers, installed from outside the package.

Every probed function is wrapped at every binding its callers use: the
installer scans all loaded `ssdr` modules for attributes that are the
original function object (for example `ssdr.render.uniform_block` beside
`ssdr.sampling.uniform_block`, or `ssdr.volumetric.positional_encoding`
beside `ssdr.lighting.positional_encoding`) and replaces each of them.
Light-field methods are wrapped on the light's own class.  Nothing under
`src/` is edited; `Installation.restore` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys

import numpy as np


def _flops_per_row(dims) -> int:
    return sum(dims[i] * dims[i + 1] for i in range(len(dims) - 1))


def _count_uniform(tr, bound, result):
    tr.add("sampling.lanes", result.size // result.shape[-1])


def _count_brdf(tr, bound, result):
    valid = result[2]
    tr.add("brdf.lanes", valid.size)
    tr.add("brdf.valid_lanes", np.count_nonzero(valid))


def _count_ssrt(tr, bound, result):
    status = result.status
    tr.add("ssrt.rays", status.size)
    tr.add("ssrt.hit", np.count_nonzero(status == 0))
    tr.add("ssrt.exited", np.count_nonzero(status == 1))
    tr.add("ssrt.exhausted", np.count_nonzero(status == 2))
    tr.add("ssrt.u_one", np.count_nonzero(result.u == 1.0))


def _count_field_points(tr, bound, result):
    rays = np.atleast_2d(bound.arguments["p"]).shape[0]
    tr.add("volumetric.field_points", rays * bound.arguments["cfg"].n_samples)


def _mlp_counter(name, flops_per_mac):
    def count(tr, bound, result):
        rows = np.atleast_2d(result[0]).shape[0]
        tr.add(f"{name}.rows", rows)
        tr.add(f"{name}.flop",
               flops_per_mac * rows * _flops_per_row(bound.arguments["weights"].dims))
    return count


def _count_bytes(tr, bound, result):
    tr.add("io.bytes_read", os.path.getsize(bound.arguments["path"]))


def _rows_counter(name):
    def count(tr, bound, result):
        tr.add(name, np.atleast_2d(bound.arguments["p"]).shape[0])
    return count


# (defining module, attribute, span name, counter or None)
FUNCTION_PROBES = (
    ("ssdr.sampling", "uniform_block", "sampling.uniform_block", _count_uniform),
    ("ssdr.brdf", "sample_directions", "brdf.sample_directions", _count_brdf),
    ("ssdr.brdf", "mixture_pdf", "brdf.mixture_pdf", None),
    ("ssdr.brdf", "_eval_raw", "brdf.eval_raw", None),
    ("ssdr.brdf", "eval_pdf_with_partials", "brdf.eval_pdf_with_partials", None),
    ("ssdr.lighting", "traced_radiance_batch", "lighting.traced_radiance_batch", None),
    ("ssdr.lighting", "decoder_inputs", "lighting.decoder_inputs", None),
    ("ssdr.lighting", "positional_encoding", "lighting.positional_encoding", None),
    ("ssdr.ssrt", "trace_batch", "ssrt.trace_batch", _count_ssrt),
    ("ssdr.volumetric", "volume_render_batch", "volumetric.volume_render_batch",
     _count_field_points),
    ("ssdr.volumetric", "volume_render_backward", "volumetric.volume_render_backward",
     _count_field_points),
    ("ssdr.volumetric", "composite", "volumetric.composite", None),
    ("ssdr.volumetric", "composite_backward", "volumetric.composite_backward", None),
    ("ssdr.mlp", "forward", "mlp.forward", _mlp_counter("mlp.forward", 2)),
    # backward: weight gradient and input gradient, one GEMM each
    ("ssdr.mlp", "backward", "mlp.backward", _mlp_counter("mlp.backward", 4)),
    ("ssdr.render", "render_mc", "render.render_mc", None),
    ("ssdr.render", "render_backward", "render.render_backward", None),
    ("ssdr.inverse", "optimize", "inverse.optimize", None),
    ("ssdr.inverse", "loss_rerender", "inverse.loss_rerender", None),
    ("ssdr.io", "read_bundle", "io.read_bundle", None),
    ("ssdr.io", "read_pfm", "io.read_pfm", _count_bytes),
    ("ssdr.io", "read_blob", "io.read_blob", _count_bytes),
    ("ssdr.core", "validate_gbuffer", "core.validate_gbuffer", None),
    ("ssdr.cli", "resolve_light", "cli.resolve_light", None),
)

# (method name, span name, counter) wrapped on the light's class
METHOD_PROBES = (
    ("radiance", "light.radiance", _rows_counter("light.radiance.lanes")),
    ("backprop", "light.backprop", _rows_counter("light.backprop.lanes")),
)


def _wrap(tracer, span, fn, counter):
    sig = inspect.signature(fn) if counter else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counter is not None:
            counter(tracer, sig.bind(*args, **kwargs), result)
        return result

    return wrapper


def _ssdr_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ssdr" or name.startswith("ssdr."))]


class Installation:
    """The set of bindings one `install` replaced; `restore` undoes it."""

    def __init__(self):
        self._saved = []      # (owner, attribute, original or _ABSENT)
        self.originals = {}   # id(original) -> span name

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def stale_bindings(self) -> list[str]:
        """Module attributes that still hold a probed original: each one is
        a call path the trace would miss."""
        return [f"{m.__name__}.{attr}" for m in _ssdr_modules()
                for attr, val in vars(m).items() if id(val) in self.originals]

    @property
    def bindings(self) -> list[str]:
        return [f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in self._saved]


_ABSENT = object()


def install(tracer, light_cls=None) -> Installation:
    """Wrap every probed function at all its bindings, and the light's
    methods when `light_cls` is given."""
    inst = Installation()
    wrappers = {}
    for mod_name, attr, span, counter in FUNCTION_PROBES:
        original = getattr(importlib.import_module(mod_name), attr)
        inst.originals[id(original)] = span
        wrappers[id(original)] = _wrap(tracer, span, original, counter)
    for module in _ssdr_modules():
        for attr, val in list(vars(module).items()):
            if id(val) in wrappers:
                inst._saved.append((module, attr, val))
                setattr(module, attr, wrappers[id(val)])
    for attr, span, counter in METHOD_PROBES if light_cls is not None else ():
        original = getattr(light_cls, attr)
        inst._saved.append((light_cls, attr, light_cls.__dict__.get(attr, _ABSENT)))
        setattr(light_cls, attr, _wrap(tracer, span, original, counter))
    return inst
