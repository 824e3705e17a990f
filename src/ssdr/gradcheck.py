"""Finite-difference validation of the render's adjoints: the material maps
and the light's parameters.

The checks freeze the importance-sampled directions of the base
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

from .brdf import ROUGHNESS_FLOOR
from .core import Camera, ContractError, GBuffer, dot, normalize, orthonormal_basis
from .lighting import LightField
from .render import (MATERIAL_NAMES, RenderConfig, _shade_blocks, pixel_geometry,
                     render_backward)


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
    shadeable pixels in row-major order."""
    blocks = _shade_blocks(g, camera, shades, cfg, 1)
    return [np.concatenate([acc[i] for _, _, acc, _ in blocks]) / cfg.spp
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
    shifted maps shade the one sample set in one pass.  `brdf` clips
    roughness to [ROUGHNESS_FLOOR, 1], so a pixel whose roughness sits at
    or beyond a bound takes the one-sided difference into that interval:
    the second-order one from the unshifted shade and the shades at
    r -+ eps and r -+ 2 eps, minus at or above 1 and plus at or below the
    floor.  (The first-order one, from r and r -+ eps alone, has a
    truncation error of eps f''/2, which on cornell-like is 0.3% of the
    small roughness derivatives.)  The other pixels keep their central
    differences."""
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
        elif cls == "roughness":  # the shift that would leave [floor, 1] goes 2 eps in
            pairs = [(np.where(base >= 1.0, base - 2 * eps, base + eps),
                      np.where(base <= ROUGHNESS_FLOOR, base + 2 * eps, base - eps))]
            adj = adj[:, None]
        else:
            pairs = [(base + eps, base - eps)]
            adj = adj[:, None]
        spans[cls] = slice(len(shades), len(shades) + 2 * len(pairs)), adj
        shades += [(replace(g, **{cls: m}), light) for pair in pairs for m in pair]

    sums = [v.sum(axis=1) for v in frozen_values(g, camera, shades, cfg)]
    diffs = {}
    for cls, (span, adj) in spans.items():
        plus, minus = sums[span][::2], sums[span][1::2]
        fd = [(p - m) / (2 * eps) for p, m in zip(plus, minus)]
        if cls == "roughness":
            r, f0, (p, m) = g.roughness[pix], sums[0], (plus[0], minus[0])
            fd = [np.where(r >= 1.0, (4 * (f0 - m) - (f0 - p)) / (2 * eps),
                           np.where(r <= ROUGHNESS_FLOOR, (4 * (p - f0) - (m - f0)) / (2 * eps),
                                    fd[0]))]
        diffs[cls] = np.stack(fd, axis=1), adj
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
