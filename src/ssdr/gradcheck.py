"""Finite-difference validation of every adjoint in the package.

The render checks freeze the importance-sampled directions of the base
parameters and re-evaluate the estimator at perturbed parameters on that
fixed sample set (common random numbers).  That is exactly the function the
detached-sampling backward pass differentiates, so agreement is expected at
FD truncation error, not Monte Carlo noise.  A check shades all its
perturbations in one pass of the render's row blocks and sample chunks,
which draws each chunk's samples once, so its memory is one chunk's, not
the patch's.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from . import volumetric
from .core import Camera, ContractError, GBuffer, dot, normalize, orthonormal_basis
from .lighting import LightField
from .render import (MATERIAL_NAMES, RenderConfig, _lane_layout, _shade_blocks,
                     pixel_geometry, render_backward)


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


def frozen_values(g: GBuffer, camera: Camera, shades, cfg: RenderConfig) -> list:
    """The estimator on the sample set drawn at g's maps, under each
    (G-buffer, light) pair of `shades` (common random numbers with
    detached sample locations): per pair, the (n_pix, 3) values of g's
    shadeable pixels in row-major order, stored in the lane layout (pixels
    innermost), so that a sum over all of them adds channel by channel."""
    blocks = _shade_blocks(g, camera, shades, cfg, 1)
    return [_lane_layout(np.concatenate([acc[i] for _, _, acc, _ in blocks])) / cfg.spp
            for i in range(len(shades))]


def material_differences(g: GBuffer, camera: Camera, grad: dict,
                         light: LightField, cfg: RenderConfig, classes):
    """Central differences of every shadeable pixel's channel sum with
    respect to each component of its own parameter of each class in
    `classes`, and the matching adjoints from `grad`, the `render_backward`
    result of the all-ones adjoint image.  Returns the unshifted channel
    sums (n_pix,) and a dict of class -> (differences, adjoints), both
    (n_pix, k), for the 3 albedo channels, the 2 normal tangent
    directions, or the 1 scalar.

    On a frozen sample set a pixel's value depends only on its own
    materials, so one component is shifted at every pixel at once, and two
    shaded maps give that component's differences for all pixels.  All the
    shifted maps shade the one sample set in one pass."""
    pix = np.nonzero(pixel_geometry(g, camera)[2])
    eps = 2e-6
    shades, spans = [(g, light)], {}
    for cls in classes:
        if cls not in MATERIAL_NAMES:
            raise ContractError(f"unknown material class {cls!r}")
        base, adj = getattr(g, cls), grad[cls][pix]
        if cls == "albedo":
            pairs = [(base + step, base - step) for step in np.eye(3) * eps]
        elif cls == "normal":
            tangents = orthonormal_basis(base)
            pairs = [(normalize(base + eps * tv), normalize(base - eps * tv))
                     for tv in tangents]
            adj = np.stack([dot(adj, tv[pix]) for tv in tangents], axis=1)
        else:
            pairs = [(base + eps, base - eps)]
            adj = adj[:, None]
        spans[cls] = slice(len(shades), len(shades) + 2 * len(pairs)), adj
        shades += [(replace(g, **{cls: m}), light) for pair in pairs for m in pair]

    sums = [v.sum(axis=1) for v in frozen_values(g, camera, shades, cfg)]
    diffs = {}
    for cls, (span, adj) in spans.items():
        plus, minus = sums[span][::2], sums[span][1::2]
        diffs[cls] = np.stack([(p - m) / (2 * eps) for p, m in zip(plus, minus)], axis=1), adj
    return sums[0], diffs


def check_render_material(g: GBuffer, camera: Camera, light: LightField,
                          cfg: RenderConfig, tol: float = 1e-4,
                          classes=MATERIAL_NAMES) -> list[CheckResult]:
    """FD-vs-adjoint over every shadeable pixel for each material class;
    the cost is linear in the pixel count."""
    grad = render_backward(g, camera, light, cfg, np.ones((*g.depth.shape, 3)),
                           params=classes)
    base, diffs = material_differences(g, camera, grad, light, cfg, classes)
    scale = max(1e-7, 1e-6 * float(np.abs(base).max()))

    results = []
    for cls in classes:
        fd, adj = diffs[cls]
        errs = _rel_err(fd, adj, scale)
        results.append(CheckResult(f"render/{cls}", float(np.max(errs)), tol))
    return results


def _max_fd_error(objectives, base: np.ndarray, adj: np.ndarray, rng,
                  n_components: int, eps: float, scale: float) -> float:
    """Largest relative error between central differences of a scalar
    objective at the flat vector `base` and the adjoint `adj`, over up to
    `n_components` components drawn from `rng` without replacement.
    `objectives` maps a list of vectors to the objective at each, so every
    shifted vector is evaluated in one call."""
    comps = rng.choice(base.size, size=min(n_components, base.size), replace=False)
    shifted = []
    for c in comps:
        plus = base.copy(); minus = base.copy()
        plus[c] += eps; minus[c] -= eps
        shifted += [plus, minus]
    values = objectives(shifted)
    errs = [_rel_err((values[2 * i] - values[2 * i + 1]) / (2 * eps), float(adj[c]), scale)
            for i, c in enumerate(comps)]
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
    err = _max_fd_error(lambda vecs: [objective(v) for v in vecs], weights.flat, adj,
                        rng, n_components, 1e-5, scale)
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
        hh = volumetric.HypernetParams(h.target_dims, mat, bias)
        return float(volumetric.hypernet_forward(fg_v, hh).flat @ dflat)

    scale = 1e-6 * (1.0 + float(np.abs(dmat).max()))
    few = n_components // 3 + 1
    err = max(  # the arguments draw their components from rng in this order
        _max_fd_error(lambda vs: [objective(fg_v=v) for v in vs], fg, dfg, rng, few,
                      eps, scale),
        _max_fd_error(lambda vs: [objective(mat=v.reshape(h.matrix.shape)) for v in vs],
                      h.matrix.ravel(), dmat.ravel(), rng, n_components, eps, scale),
        _max_fd_error(lambda vs: [objective(bias=v) for v in vs], h.bias, dbias, rng, few,
                      eps, scale))
    return CheckResult("hypernet_forward/params", err, tol)


def check_light_params(g: GBuffer, camera: Camera, light: LightField,
                       cfg: RenderConfig, n_components: int = 12,
                       tol: float = 1e-4) -> CheckResult:
    """FD over the light field's own parameters through the frozen-sample
    estimator, against the adjoints routed by render_backward.  The
    differences perturb copies, so `light` is never written.  A light
    without parameters is a ContractError."""
    if light.n_params == 0:
        raise ContractError("selected light gradients but the light field has no parameters")
    rng = np.random.default_rng(3)
    grad = render_backward(g, camera, light, cfg, np.ones((*g.depth.shape, 3)),
                           params=("light",))

    def objectives(vecs):
        shades = []
        for vec in vecs:
            probe = copy.copy(light)
            probe.set_params(vec)
            shades.append((g, probe))
        return [float(v.sum()) for v in frozen_values(g, camera, shades, cfg)]

    scale = max(1e-7, 1e-6 * float(np.abs(grad["light"]).max()))
    err = _max_fd_error(objectives, light.get_params(), grad["light"], rng, n_components,
                        1e-5, scale)
    return CheckResult("render/light-params", err, tol)
