"""Finite-difference validation of every adjoint in the package.

The render checks freeze the importance-sampled directions of the base
parameters and re-evaluate the estimator at perturbed parameters on that
fixed sample set (common random numbers).  That is exactly the function the
detached-sampling backward pass differentiates, so agreement is expected at
FD truncation error, not Monte Carlo noise.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import volumetric
from .core import Camera, GBuffer, dot, normalize, orthonormal_basis
from .lighting import LightField
from .render import (FrozenSamples, GradientImage, RenderConfig, draw_frozen_samples,
                     eval_frozen, render_backward)


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: max rel err {self.max_rel_err:.3e} (tol {self.tol:g})"


def _rel_err(fd, adj, scale):
    """|fd - adj| over the larger of |fd|, |adj| and `scale`; elementwise."""
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(adj)), scale)
    return np.abs(fd - adj) / denom


def material_differences(g: GBuffer, fs: FrozenSamples, grad: GradientImage,
                         light: LightField, cfg: RenderConfig, cls: str):
    """Central differences of every frozen pixel's channel sum with respect
    to each component of its own `cls` parameter, and the matching adjoints
    from `grad` (of the all-ones adjoint image); both (n_pix, k), for the 3
    albedo channels, the 2 normal tangent directions, or the 1 scalar.

    On a frozen sample set a pixel's value depends only on its own
    materials, so one component is shifted at every pixel at once, and two
    evaluations give that component's differences for all pixels."""
    maps = {"albedo": g.albedo, "roughness": g.roughness,
            "metallic": g.metallic, "normal": g.normal}
    if cls not in maps:
        raise ValueError(f"unknown material class {cls!r}")
    pix = (fs.gy, fs.gx)
    base = maps[cls]
    eps = 2e-6
    if cls == "albedo":
        pairs = [(base + step, base - step) for step in np.eye(3) * eps]
        adj = grad.dalbedo[pix]
    elif cls == "normal":
        tangents = orthonormal_basis(base)
        pairs = [(normalize(base + eps * tv), normalize(base - eps * tv))
                 for tv in tangents]
        adj = np.stack([dot(grad.dnormal[pix], tv[pix]) for tv in tangents], axis=1)
    else:
        pairs = [(base + eps, base - eps)]
        adj = getattr(grad, "d" + cls)[pix][:, None]

    def value(shifted):
        m = dict(maps, **{cls: shifted})
        return eval_frozen(fs, m["albedo"], m["roughness"], m["metallic"],
                           m["normal"], light, cfg).sum(axis=1)

    fd = np.stack([(value(plus) - value(minus)) / (2 * eps)
                   for plus, minus in pairs], axis=1)
    return fd, adj


def check_render_material(g: GBuffer, camera: Camera, light: LightField,
                          cfg: RenderConfig, tol: float = 1e-4,
                          classes=("albedo", "roughness", "metallic", "normal")
                          ) -> list[CheckResult]:
    """FD-vs-adjoint over every shadeable pixel for each material class;
    the cost is linear in the pixel count."""
    fs = draw_frozen_samples(g, camera, cfg)
    grad = render_backward(g, camera, light, cfg, np.ones((*g.depth.shape, 3)),
                           params=classes)

    base = eval_frozen(fs, g.albedo, g.roughness, g.metallic, g.normal,
                       light, cfg).sum(axis=1)
    scale = max(1e-7, 1e-6 * float(np.abs(base).max()))

    results = []
    for cls in classes:
        fd, adj = material_differences(g, fs, grad, light, cfg, cls)
        errs = _rel_err(fd, adj, scale)
        results.append(CheckResult(f"render/{cls}", float(np.max(errs)), tol))
    return results


def _max_fd_error(objective, base: np.ndarray, adj: np.ndarray, rng,
                  n_components: int, eps: float, scale: float) -> float:
    """Largest relative error between central differences of the scalar
    `objective` at the flat vector `base` and the adjoint `adj`, over up to
    `n_components` components drawn from `rng` without replacement."""
    comps = rng.choice(base.size, size=min(n_components, base.size), replace=False)
    errs = []
    for c in comps:
        plus = base.copy(); minus = base.copy()
        plus[c] += eps; minus[c] -= eps
        fd = (objective(plus) - objective(minus)) / (2 * eps)
        errs.append(_rel_err(fd, float(adj[c]), scale))
    return float(np.max(errs))


def check_volume_weights(weights, cfg: volumetric.VolumeConfig, n_rays: int = 4,
                         n_components: int = 48, tol: float = 1e-4) -> CheckResult:
    """FD on a seeded subset of field weights through the volume renderer."""
    seed = 11
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, 0.5, size=(n_rays, 3)) + np.array([0.0, 0.0, 2.0])
    d = normalize(rng.normal(size=(n_rays, 3)))
    dL = rng.normal(size=(n_rays, 3))
    ray_ids = np.arange(n_rays, dtype=np.uint64)

    _, state = volumetric.volume_render_batch(weights, p, d, cfg, seed, ray_ids)
    adj = volumetric.volume_render_backward(weights, p, cfg, dL, state)

    def objective(flat):
        L, _ = volumetric.volume_render_batch(weights.copy_with(flat), p, d, cfg,
                                              seed, ray_ids, keep=False)
        return float(np.sum(L * dL))

    scale = max(1e-7, 1e-6 * float(np.abs(adj).max()))
    err = _max_fd_error(objective, weights.flat, adj, rng, n_components, 1e-5, scale)
    return CheckResult("volume_render/weights", err, tol)


def check_hypernet(h: volumetric.HypernetParams, fg: np.ndarray,
                   n_components: int = 48, tol: float = 1e-4) -> CheckResult:
    """FD of the affine weight map w.r.t. the feature vector and its own
    parameters, against `hypernet_backward`."""
    eps = 1e-6
    rng = np.random.default_rng(5)
    fg = np.asarray(fg, dtype=np.float64).ravel()
    dflat = rng.normal(size=h.bias.size)
    dfg, dmat, dbias = volumetric.hypernet_backward(fg, h, dflat)

    def objective(fg_v=fg, mat=h.matrix, bias=h.bias):
        hh = volumetric.HypernetParams(h.feature_dim, h.target_dims, mat, bias)
        return float(volumetric.hypernet_forward(fg_v, hh).flat @ dflat)

    scale = 1e-6 * (1.0 + float(np.abs(dmat).max()))
    few = n_components // 3 + 1
    err = max(  # the arguments draw their components from rng in this order
        _max_fd_error(lambda v: objective(fg_v=v), fg, dfg, rng, few, eps, scale),
        _max_fd_error(lambda v: objective(mat=v.reshape(h.matrix.shape)),
                      h.matrix.ravel(), dmat.ravel(), rng, n_components, eps, scale),
        _max_fd_error(lambda v: objective(bias=v), h.bias, dbias, rng, few, eps, scale))
    return CheckResult("hypernet_forward/params", err, tol)


def check_light_params(g: GBuffer, camera: Camera, light: LightField,
                       cfg: RenderConfig, n_components: int = 12,
                       tol: float = 1e-4) -> CheckResult:
    """FD over the light field's own parameters through the frozen-sample
    estimator, against the adjoints routed by render_backward.  The
    differences perturb a copy, so `light` is never written."""
    rng = np.random.default_rng(3)
    fs = draw_frozen_samples(g, camera, cfg)
    grad = render_backward(g, camera, light, cfg, np.ones((*g.depth.shape, 3)),
                           params=("light",))
    probe = copy.copy(light)

    def objective(vec):
        probe.set_params(vec)
        return float(eval_frozen(fs, g.albedo, g.roughness, g.metallic, g.normal,
                                 probe, cfg).sum())

    scale = max(1e-7, 1e-6 * float(np.abs(grad.dlight).max()))
    err = _max_fd_error(objective, light.get_params(), grad.dlight, rng, n_components,
                        1e-5, scale)
    return CheckResult("render/light-params", err, tol)
