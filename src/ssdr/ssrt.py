"""Screen-space ray marching against a depth map.

A ray is projected onto the image and walked pixel by pixel (2D DDA).  Depth
comparisons happen in disparity (1/z): disparity is exactly linear both
along the projected ray and across any planar surface, so the interpolated
comparison is perspective-correct and free of staircase self-intersections.
The first step where the ray reaches the surface terminates the march and a
short binary search refines the crossing.  Crossings with a depth gap beyond
`thickness` are still reported as hits but carry that large gap, so the tanh
uncertainty discounts them downstream instead of a hard cutoff.
Non-positive or non-finite depths mark "no geometry" (disparity zero) and
never generate hits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (Camera, ContractError, bilinear, check_unit, has_geometry,
                   nearest_pixel, project)

_Z_EPS = 1e-4


class Status(enum.IntEnum):
    HIT = 0
    EXITED_VIEW = 1
    EXHAUSTED_STEPS = 2


@dataclass(frozen=True)
class SsrtConfig:
    max_steps: int = 256
    stride: float = 1.0          # pixels per step
    thickness: float = 0.05      # meters; beyond this a crossing counts as occluded
    refinement_steps: int = 8

    def __post_init__(self):
        if self.max_steps < 1 or self.stride < 0.5 or self.thickness <= 0:
            raise ContractError("invalid ssrt config")


@dataclass
class SsrtHitBatch:
    status: np.ndarray   # (N,) int, a Status
    pixel: np.ndarray    # (N, 2) continuous pixel coords of the termination point
    delta_d: np.ndarray  # (N,) |ray depth - surface depth| at termination
    u: np.ndarray        # (N,) tanh uncertainty; exactly 1.0 iff status != HIT


_ONE_BELOW_1 = float(np.nextafter(1.0, 0.0))


def uncertainty(delta_d) -> np.ndarray:
    """u = tanh(10 * delta_d), capped one ulp below 1 so that exact u == 1
    is reserved for rays that found no surface at all."""
    delta_d = np.asarray(delta_d, dtype=np.float64)
    if np.any(delta_d < 0):
        raise ContractError("depth gap must be non-negative")
    return np.minimum(np.tanh(10.0 * delta_d), _ONE_BELOW_1)


def disparity_map(depth: np.ndarray) -> np.ndarray:
    """1/depth with sentinel pixels (no geometry) mapped to disparity 0."""
    depth = np.asarray(depth, dtype=np.float64)
    geom = has_geometry(depth)
    return np.where(geom, 1.0 / np.where(geom, depth, 1.0), 0.0)


def _depth_of(disp: np.ndarray) -> np.ndarray:
    """1/disparity, with disparity 0 (no geometry) at infinite depth."""
    return np.where(disp > 0, 1.0 / np.where(disp > 0, disp, 1.0), np.inf)


def trace_batch(depth: np.ndarray, camera: Camera, p: np.ndarray, dirs: np.ndarray,
                cfg: SsrtConfig) -> SsrtHitBatch:
    """March N rays in lockstep. p, dirs: (N, 3); dirs unit length (see
    `core.check_unit`)."""
    depth = np.asarray(depth, dtype=np.float64)
    disp = disparity_map(depth)
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    n = p.shape[0]
    if not np.all(np.isfinite(p)):
        raise ContractError("non-finite ray origin")
    check_unit("trace direction", dirs)
    z0 = p[:, 2]
    if np.any(z0 <= 0):
        raise ContractError("ray origin must be in front of the camera")

    finite_depth = depth[has_geometry(depth)]
    z_far = 2.0 * (finite_depth.max() if finite_depth.size else 10.0) + 10.0 * cfg.thickness

    # clip the 3D segment so both endpoints project (z in [eps, ~z_far])
    dz = dirs[:, 2]
    lateral = 4.0 * np.maximum(z0, z_far) * max(camera.width / camera.fx,
                                                camera.height / camera.fy) + 1.0
    t1 = np.where(dz < -1e-12, (_Z_EPS - z0) / np.where(dz < -1e-12, dz, -1.0), lateral)
    t1 = np.where(dz > 1e-12,
                  np.maximum((z_far - z0) / np.where(dz > 1e-12, dz, 1.0), 1e-6), t1)
    t1 = np.maximum(t1, 1e-6)

    p_end = p + t1[:, None] * dirs
    a2d, _ = project(camera, p)
    b2d, _ = project(camera, p_end)
    iz0 = 1.0 / z0
    iz1 = 1.0 / p_end[:, 2]
    delta = b2d - a2d
    seglen = np.linalg.norm(delta, axis=-1)

    status = np.full(n, int(Status.EXITED_VIEW), dtype=np.int64)
    s_lo = np.zeros(n)
    s_hi = np.zeros(n)
    found = np.zeros(n, dtype=bool)

    # degenerate lanes: the ray projects to (almost) a single pixel
    degen = seglen < 1e-9
    degen_surf = np.full(n, np.inf)
    if np.any(degen):
        surf_z = _depth_of(bilinear(disp, a2d[:, 0], a2d[:, 1]))
        zmin = np.minimum(z0, p_end[:, 2])
        zmax = np.maximum(z0, p_end[:, 2])
        hit_d = degen & np.isfinite(surf_z) & (surf_z >= zmin) & (surf_z <= zmax)
        found |= hit_d
        degen_surf = np.where(hit_d, surf_z, degen_surf)

    # Liang-Barsky clip of the 2D segment to the sampleable rectangle
    lo = np.zeros(2)
    hi = np.array([camera.width - 1.0, camera.height - 1.0])
    s_enter = np.zeros(n)
    s_exit = np.ones(n)
    for axis in range(2):
        d_a = delta[:, axis]
        p_a = a2d[:, axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lo = (lo[axis] - p_a) / d_a
            t_hi = (hi[axis] - p_a) / d_a
        t_min = np.where(d_a != 0, np.minimum(t_lo, t_hi),
                         np.where((p_a >= lo[axis]) & (p_a <= hi[axis]), 0.0, 1.0))
        t_max = np.where(d_a != 0, np.maximum(t_lo, t_hi),
                         np.where((p_a >= lo[axis]) & (p_a <= hi[axis]), 1.0, 0.0))
        s_enter = np.maximum(s_enter, np.clip(t_min, 0.0, 1.0))
        s_exit = np.minimum(s_exit, np.clip(t_max, 0.0, 1.0))

    stride_s = cfg.stride / np.maximum(seglen, 1e-9)
    marchable = ~degen & (s_exit > s_enter)
    s_cur = s_enter + stride_s  # self-intersection offset
    prev_s = s_enter.copy()
    active = marchable & (s_cur <= s_exit) & ~found
    exhausted = np.zeros(n, dtype=bool)

    # crossing test: the ray has reached the surface when its disparity
    # drops to (or below) the interpolated surface disparity; void pixels
    # have disparity 0, which no ray in front of the camera can reach
    def crossed(s):
        px = a2d + s[:, None] * delta
        inv_ray = iz0 + s * (iz1 - iz0)
        inv_surf = bilinear(disp, px[:, 0], px[:, 1])
        return (inv_surf > 0) & (inv_ray <= inv_surf)

    for step in range(cfg.max_steps):
        if not np.any(active):
            break
        s_step = np.minimum(s_cur, s_exit)
        cross = active & crossed(s_step)
        s_lo = np.where(cross, prev_s, s_lo)
        s_hi = np.where(cross, s_step, s_hi)
        found |= cross
        at_end = active & ~cross & (s_cur >= s_exit)
        if step == cfg.max_steps - 1:
            exhausted = active & ~cross & ~at_end
        active = active & ~cross & ~at_end
        prev_s = np.where(active, s_step, prev_s)
        s_cur = s_cur + stride_s

    # binary-search refinement between the last miss and the first crossing
    if np.any(found & ~degen):
        ref_lo = s_lo.copy()
        ref_hi = s_hi.copy()
        for _ in range(cfg.refinement_steps):
            mid = 0.5 * (ref_lo + ref_hi)
            c = crossed(mid)
            ref_hi = np.where(found & c, mid, ref_hi)
            ref_lo = np.where(found & ~c, mid, ref_lo)
        s_hi = ref_hi

    status[found] = int(Status.HIT)
    status[~found & exhausted] = int(Status.EXHAUSTED_STEPS)

    s_final = np.where(found, s_hi, np.minimum(np.maximum(s_exit, 0.0), 1.0))
    px_final = a2d + s_final[:, None] * delta
    px_final[:, 0] = np.clip(px_final[:, 0], 0.0, camera.width - 1.0)
    px_final[:, 1] = np.clip(px_final[:, 1], 0.0, camera.height - 1.0)
    inv_ray = iz0 + s_final * (iz1 - iz0)
    ray_z = 1.0 / np.maximum(inv_ray, 1e-12)
    ray_z = np.where(degen & found, degen_surf, ray_z)

    # the depth gap compares against the depth stored AT the hit pixel, so
    # a crossing inside the interpolation smear of a depth discontinuity
    # (disocclusion) still reads as a large, untrustworthy gap
    z_pix = depth[nearest_pixel(px_final, depth.shape)]
    delta_d = np.where(found & has_geometry(z_pix), np.abs(ray_z - z_pix), np.inf)

    u_hit = uncertainty(np.where(np.isfinite(delta_d), delta_d, 1e9))
    u = np.where(found, u_hit, 1.0)

    return SsrtHitBatch(status=status, pixel=px_final, delta_d=delta_d, u=u)
