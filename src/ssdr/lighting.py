"""In-view lighting: positional encoding, feature grids, analytic light
fields for oracle tests, and the traced radiance decoder.

Direction convention: the light direction `d` always points from the shaded
point `p` toward the source, so the screen-space trace marches along +d and
volume marching steps p + t*d.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import brdf, mlp, ssrt
from .core import (Camera, ContractError, GBuffer, as_rgb, bilinear, nearest_pixel,
                   normalize)
from .mlp import MlpWeights


def positional_encoding(x: np.ndarray, bands: int,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Sinusoidal lift, component-major: per input component
    [x, sin(2^0 pi x), cos(2^0 pi x), ..., sin(2^(L-1) pi x), cos(...)]
    with L = `bands` >= 1; x (..., D) gives (..., D * (2L + 1)).

    sin and cos run once per input, at a0 = fl(pi x).  Band k + 1 comes
    from band k by the doubling identities

        s' = 2 s c,    c' = (c - s)(c + s).

    Since fl(x * 2^k pi) = 2^k a0 exactly, the x column and band 0 have the
    bits of sin/cos(x * 2^k * pi) evaluated directly, and band k >= 1 is
    within 2^k * 4 eps (eps = 2^-52) of them, absolutely: a doubling step
    doubles the error it is given and adds at most 1.5 eps of its own.  So
    the whole encoding is within 2^(L+1) eps of the direct evaluation.

    Given `out`, a C-contiguous float64 array of the result's shape, the
    encoding is written there and `out` is returned.
    """
    if bands < 1:
        raise ContractError("need at least one frequency band")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ContractError("positional encoding requires finite input")
    width = 2 * bands + 1
    shape = (*x.shape[:-1], x.shape[-1] * width)
    if out is not None and (out.shape != shape or not out.flags.c_contiguous):
        raise ContractError(f"encoding out must be a C-contiguous {shape} array")
    enc = np.empty((*x.shape, width)) if out is None else out.reshape(*x.shape, width)
    enc[..., 0] = x
    a = x * np.pi
    s, c = np.sin(a), np.cos(a)
    enc[..., 1], enc[..., 2] = s, c
    for k in range(1, bands):
        s, c = 2.0 * (s * c), (c - s) * (c + s)
        enc[..., 2 * k + 1], enc[..., 2 * k + 2] = s, c
    return enc.reshape(shape) if out is None else out


@dataclass
class FeatureGrid:
    """Multi-channel image sampled bilinearly; nodes sit at integer pixel
    coordinates, so sampling at an integer position returns the stored value
    exactly."""

    data: np.ndarray  # (H, W, C)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ContractError("feature grid must be (H, W, C)")
        if not np.all(np.isfinite(self.data)):
            raise ContractError("feature grid contains non-finite values")

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def sample(self, px: np.ndarray) -> np.ndarray:
        """Bilinear sample at continuous pixel coords (N, 2), clamped."""
        px = np.atleast_2d(np.asarray(px, dtype=np.float64))
        return bilinear(self.data, px[:, 0], px[:, 1])


# ---------------------------------------------------------------------------
# light field oracles


class LightField:
    """Queryable incident radiance: radiance(p, d) with d toward the source.

    Parameterized fields additionally expose a flat parameter vector and a
    backprop hook so the render adjoint can route gradients into them.

    set_params(vec) rebinds the field's parameter arrays to new ones and
    never writes into the arrays it held, so a shallow `copy.copy` of a
    field can be fitted or perturbed without touching the original.

    radiance_vjp(p, d) returns (L, pullback): L is radiance(p, d), and
    pullback(dL) is backprop(p, d, dL), the parameter adjoint of L
    contracted with dL (N, 3).  The pullback is valid only for the (p, d) it
    was made from and the parameters at that time; a field may keep its
    forward state in it (the learned field does, so its forward pass runs
    once), and that state lives until the pullback is dropped.
    """

    n_params: int = 0

    def radiance(self, p: np.ndarray, d: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def get_params(self) -> np.ndarray:
        return np.zeros(0)

    def set_params(self, vec: np.ndarray) -> None:
        if np.asarray(vec).size:
            raise ContractError("light field has no parameters")

    def backprop(self, p, d, dL) -> np.ndarray:
        return np.zeros(self.n_params)

    def radiance_vjp(self, p, d):
        return self.radiance(p, d), functools.partial(self.backprop, p, d)


# (what an analytic light parameter must be, the test of its float64 array)
_RGB = ("a number or three finite numbers",
        lambda a: a.shape in ((), (3,)) and np.all(np.isfinite(a)))
_DIRECTION = ("three finite numbers of nonzero length",
              lambda a: a.shape == (3,) and 0.0 < np.sqrt(a @ a) < np.inf)
_ANGLE = ("a positive angle in radians", lambda a: a.shape == () and 0.0 < a < np.inf)


# What np.asarray(value, dtype=np.float64) raises for a value that is not
# numbers; OverflowError for an integer beyond the float range.
_NOT_NUMBERS = (TypeError, ValueError, OverflowError)


def _light_param(value, name: str, rule) -> np.ndarray:
    """`value` as a new float64 array if it passes `rule`; anything else
    is a ContractError naming the parameter."""
    what, ok = rule
    try:
        a = np.array(value, dtype=np.float64)
    except _NOT_NUMBERS:
        a = None
    if a is None or not ok(a):
        raise ContractError(f"light parameter {name!r} must be {what}, got {value!r}")
    return a


class ConstantLight(LightField):
    """L(p, d) = value everywhere; parameterized by its RGB value."""

    n_params = 3

    def __init__(self, value):
        self.value = as_rgb(_light_param(value, "value", _RGB))

    def radiance(self, p, d):
        n = np.atleast_2d(d).shape[0]
        return np.broadcast_to(self.value, (n, 3)).copy()

    def get_params(self):
        return self.value.copy()

    def set_params(self, vec):
        self.value = np.asarray(vec, dtype=np.float64).reshape(3).copy()

    def backprop(self, p, d, dL):
        return np.asarray(dL, dtype=np.float64).reshape(-1, 3).sum(axis=0)


SKY_UP = (0.0, -1.0, 0.0)   # the sky lights' default up: view space has y down


class SkyGradientLight(LightField):
    """Direction-only field blending horizon to zenith color with d.up."""

    n_params = 6

    def __init__(self, zenith, horizon, up=SKY_UP):
        self.zenith = as_rgb(_light_param(zenith, "zenith", _RGB))
        self.horizon = as_rgb(_light_param(horizon, "horizon", _RGB))
        self.up = normalize(_light_param(up, "up", _DIRECTION))

    def _t(self, d):
        d = np.atleast_2d(np.asarray(d, dtype=np.float64))
        return np.clip(d @ self.up, 0.0, 1.0)

    def radiance(self, p, d):
        t = self._t(d)[:, None]
        return self.horizon * (1.0 - t) + self.zenith * t

    def get_params(self):
        return np.concatenate([self.zenith, self.horizon])

    def set_params(self, vec):
        vec = np.asarray(vec, dtype=np.float64).reshape(6)
        self.zenith = vec[:3].copy()
        self.horizon = vec[3:].copy()

    def backprop(self, p, d, dL):
        t = self._t(d)[:, None]
        dL = np.asarray(dL, dtype=np.float64).reshape(-1, 3)
        return np.concatenate([(dL * t).sum(axis=0), (dL * (1.0 - t)).sum(axis=0)])


class SkyDiscLight(LightField):
    """Sky gradient plus a compact bright source: a smooth angular disc.
    Not parameterized."""

    def __init__(self, zenith, horizon, disc_direction, disc_radius, disc_color,
                 up=SKY_UP):
        self.sky = SkyGradientLight(zenith, horizon, up)
        self.disc_direction = normalize(_light_param(disc_direction, "disc_direction",
                                                     _DIRECTION))
        self.disc_radius = float(_light_param(disc_radius, "disc_radius", _ANGLE))
        self.disc_color = as_rgb(_light_param(disc_color, "disc_color", _RGB))

    def radiance(self, p, d):
        base = self.sky.radiance(p, d)
        d = np.atleast_2d(np.asarray(d, dtype=np.float64))
        c = d @ self.disc_direction
        cos_in = np.cos(self.disc_radius)
        cos_out = np.cos(1.5 * self.disc_radius)
        w = np.clip((c - cos_out) / (cos_in - cos_out), 0.0, 1.0)
        w = w * w * (3.0 - 2.0 * w)
        return base + w[:, None] * self.disc_color


# Lanes per GridLight.radiance block.  It bounds the call's temporaries
# (a few hundred bytes per lane) whatever the caller's chunk size; every
# lane is computed on its own, so the block size changes no bit.
_LANE_BLOCK = 8192


class GridLight(LightField):
    """5D sampled radiance field over (x, y, z, theta, phi).

    values: (nx, ny, nz, ntheta, nphi, 3); positions interpolate trilinearly
    inside `bounds` (2, 3), a finite array with lo <= hi on every axis (lo ==
    hi is a flat extent); directions bilinearly with theta = polar angle
    from +z in [0, pi] and phi = atan2(y, x) wrapped to [0, 2pi).

    The output bits depend on the order of the float operations, which is
    fixed: the 32 corners are visited depth-first over (x, y, z, theta,
    phi), the lower node first on each axis; each corner weight is the
    product (((wx * wy) * wz) * wt) * wp, with w = 1 - f for the lower node
    and f for the upper; and the weighted corner values are added to a zero
    accumulator in that corner order.  The upper node of a single-node axis
    has weight 0 and is skipped; it would add only zeros.
    """

    def __init__(self, values: np.ndarray, bounds: np.ndarray):
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim != 6 or self.values.shape[-1] != 3:
            raise ContractError("grid light values must be (nx,ny,nz,nt,np,3)")
        if not np.all(np.isfinite(self.values)):
            raise ContractError("grid light contains non-finite values")
        try:
            self.bounds = np.asarray(bounds, dtype=np.float64)
        except _NOT_NUMBERS:
            raise ContractError(f"grid light bounds must be numbers, got {bounds!r}") from None
        if self.bounds.shape != (2, 3) or not np.all(np.isfinite(self.bounds)):
            raise ContractError(f"grid light bounds must be a finite (2, 3) array, "
                                f"got {bounds!r}")
        if np.any(self.bounds[0] > self.bounds[1]):
            raise ContractError(f"grid light bounds need lo <= hi on every axis, "
                                f"got {self.bounds.tolist()}")

    def _axis_coords(self, x, lo, hi, n):
        if n == 1:
            return np.zeros_like(x), np.zeros_like(x, dtype=np.int64)
        t = np.clip((x - lo) / max(hi - lo, 1e-30), 0.0, 1.0) * (n - 1)
        i0 = np.clip(np.floor(t).astype(np.int64), 0, n - 2)
        return t - i0, i0

    def _axes(self, p, d):
        """Per axis, in corner order (x, y, z, theta, phi): the (weight,
        flat offset) of its lower node, weight 1 - f, and of its upper node,
        weight f.  A single-node axis lists its lower node only, since f is
        0 there."""
        nx, ny, nz, nt, nph = self.values.shape[:5]
        coords = [self._axis_coords(p[:, ax], self.bounds[0, ax], self.bounds[1, ax], n)
                  for ax, n in enumerate((nx, ny, nz))]
        theta = np.arccos(np.clip(d[:, 2], -1.0, 1.0))
        coords.append(self._axis_coords(theta, 0.0, np.pi, nt))
        strides = (ny * nz * nt * nph, nz * nt * nph, nt * nph, nph)
        axes = [[(1.0 - f, i * s), (f, (i + 1) * s)][:min(n, 2)]
                for (f, i), n, s in zip(coords, (nx, ny, nz, nt), strides)]
        phi = np.mod(np.arctan2(d[:, 1], d[:, 0]), 2.0 * np.pi)
        if nph == 1:
            axes.append([(np.ones_like(phi), np.zeros_like(phi, dtype=np.int64))])
        else:
            tp = phi / (2.0 * np.pi) * nph
            ip0 = np.floor(tp).astype(np.int64) % nph
            fp = tp - np.floor(tp)
            axes.append([(1.0 - fp, ip0), (fp, (ip0 + 1) % nph)])  # wraps at the seam
        return axes

    @staticmethod
    def _corner_sum(vals, axes):
        """Sum of the weighted corner values, (3, lanes), in the order of the
        class docstring.  vals is the channel-major (3, M) node table; each
        level of the depth-first walk owns one weight and one offset
        buffer."""
        lanes = axes[0][0][0].shape[0]
        acc = np.zeros((3, lanes))
        w = np.empty((4, lanes))
        off = np.empty((4, lanes), dtype=np.int64)
        v = np.empty((3, lanes))
        for wx, ox in axes[0]:
            for wy, oy in axes[1]:
                np.multiply(wx, wy, out=w[0])
                np.add(ox, oy, out=off[0])
                for wz, oz in axes[2]:
                    np.multiply(w[0], wz, out=w[1])
                    np.add(off[0], oz, out=off[1])
                    for wt, ot in axes[3]:
                        np.multiply(w[1], wt, out=w[2])
                        np.add(off[1], ot, out=off[2])
                        for wp, op in axes[4]:
                            np.multiply(w[2], wp, out=w[3])
                            np.add(off[2], op, out=off[3])
                            # offsets are in range by construction; "clip"
                            # only spares the buffered bounds check
                            np.take(vals, off[3], axis=1, out=v, mode="clip")
                            v *= w[3]
                            acc += v
        return acc

    def radiance(self, p, d):
        p, d = np.broadcast_arrays(np.atleast_2d(np.asarray(p, dtype=np.float64)),
                                   np.atleast_2d(np.asarray(d, dtype=np.float64)))
        # read on every call, so a later edit of `values` is always seen
        vals = np.ascontiguousarray(self.values.reshape(-1, 3).T)
        out = np.empty((p.shape[0], 3))
        for s in range(0, p.shape[0], _LANE_BLOCK):
            blk = slice(s, s + _LANE_BLOCK)
            out[blk] = self._corner_sum(vals, self._axes(p[blk], d[blk])).T
        return out

    def node_position(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """(position, direction) of grid node (ix,iy,iz,it,ip); test helper."""
        ix, iy, iz, it, ip = idx
        shape = self.values.shape
        pos = np.empty(3)
        for ax, i in enumerate((ix, iy, iz)):
            n = shape[ax]
            t = 0.0 if n == 1 else i / (n - 1)
            pos[ax] = self.bounds[0, ax] + t * (self.bounds[1, ax] - self.bounds[0, ax])
        theta = 0.0 if shape[3] == 1 else it / (shape[3] - 1) * np.pi
        phi = 0.0 if shape[4] == 1 else ip / shape[4] * 2.0 * np.pi
        st = np.sin(theta)
        return pos, np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def analytic_lightfield(kind: str, **params) -> LightField:
    """Factory for the in-memory light fields used in tests and the CLI; a
    missing (or null) parameter is a ContractError naming it.  Grid files
    are read by `io.read_grid_light`."""
    def need(key):
        if params.get(key) is None:
            raise ContractError(f"{kind!r} light field needs {key!r}")
        return params[key]

    if kind == "constant":
        return ConstantLight(need("value"))
    if kind == "sky":
        return SkyGradientLight(need("zenith"), need("horizon"),
                                params.get("up", SKY_UP))
    if kind == "sky_disc":
        return SkyDiscLight(need("zenith"), need("horizon"),
                            need("disc_direction"), need("disc_radius"),
                            need("disc_color"), params.get("up", SKY_UP))
    if kind == "grid":
        return GridLight(need("values"), need("bounds"))
    raise ContractError(f"unknown light field kind {kind!r}")


# ---------------------------------------------------------------------------
# traced in-view radiance decoding


DIRECTION_BANDS = 6   # frequency bands of the decoder's direction encoding


def decoder_input_dim(feature_channels: int) -> int:
    # encoded direction + local feature + (K_d 3, K_s 3, N 3, R 1)
    return 3 * (2 * DIRECTION_BANDS + 1) + feature_channels + 10


def default_decoder_dims(feature_channels: int):
    """Reference decoder architecture: 4 layers of 128 hidden units."""
    return (decoder_input_dim(feature_channels), 128, 128, 128, 3)


def gbuffer_light_inputs(g: GBuffer, px: np.ndarray) -> np.ndarray:
    """(K_d, K_s, N, R) sampled at the nearest pixel of continuous coords."""
    at = nearest_pixel(np.atleast_2d(np.asarray(px, dtype=np.float64)), g.depth.shape)
    a, m = g.albedo[at], g.metallic[at]
    return np.concatenate([a * (1.0 - m[:, None]), brdf.f0_of(a, m), g.normal[at],
                           g.roughness[at][:, None]], axis=1)


def decoder_inputs(grid: FeatureGrid, g: GBuffer, camera: Camera,
                   p: np.ndarray, d: np.ndarray):
    """Trace rays and assemble the decoder input rows; returns (x, hits).
    Each row is [encoded d, feature at the hit, K_d, K_s, N, R at the hit]."""
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    d = np.atleast_2d(np.asarray(d, dtype=np.float64))
    hits = ssrt.trace_batch(g.depth, camera, p, d, ssrt.SsrtConfig())
    enc = positional_encoding(d, DIRECTION_BANDS)
    feats = grid.sample(hits.pixel)
    aux = gbuffer_light_inputs(g, hits.pixel)
    return np.concatenate([enc, feats, aux], axis=1), hits


def traced_radiance_batch(grid: FeatureGrid, g: GBuffer, weights: MlpWeights,
                          camera: Camera, p: np.ndarray, d: np.ndarray, keep: bool = True):
    """Trace each ray to its in-view source point and decode HDR radiance.

    Returns (radiance (N, 3), hits, (y, cache)).  Radiance passes through
    softplus, so it is non-negative for any weights; the hit record feeds
    the downstream uncertainty blend, and the decoder's output y with its
    MLP cache is the state its adjoint needs.  With keep=False that state
    is None and the MLP keeps no cache (see `mlp.forward`).
    """
    weights.require("decoder", decoder_input_dim(grid.channels), 3)
    x, hits = decoder_inputs(grid, g, camera, p, d)
    y, cache = mlp.forward(weights, x, keep=keep)
    return mlp.softplus(y), hits, ((y, cache) if keep else None)
