"""Out-of-view lighting: a tiny positional-encoding MLP queried as a density
and color field, volume rendered along the light ray, and blended with the
traced in-view prediction through the tanh depth-gap uncertainty.  The
field's weights always come from a hypernetwork, an affine map of a global
scene feature; fixed weights are the hypernetwork of an empty feature.

The field takes no view direction.  Density goes through softplus, color
through sigmoid scaled by `RADIANCE_SCALE`, so HDR radiance stays
non-negative for arbitrary weights.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import mlp, sampling
from .core import ContractError, as_rgb
from .lighting import (FeatureGrid, LightField, decoder_input_dim, field_input_dim,
                       positional_encoding, rebuild_encoding, traced_radiance_batch)
from .mlp import MlpWeights

RADIANCE_SCALE = 5.0   # the field's color is sigmoid(y) * RADIANCE_SCALE


@dataclass(frozen=True)
class VolumeConfig:
    t_near: float = 0.05
    t_far: float = 20.0
    n_samples: int = 64

    def __post_init__(self):
        if not (self.t_near < self.t_far) or self.n_samples < 2:
            raise ContractError("invalid volume config")


def default_field_dims(bands: int):
    """Reference field architecture: a small 4-layer, 64-unit network."""
    return (field_input_dim(bands), 64, 64, 64, 4)


def field_bands(weights: MlpWeights) -> int:
    """The band count L >= 1 of field weights, read from their input
    width field_input_dim(L); weights of another input width, or of an
    output other than 4, are a ContractError naming the field."""
    bands, rest = divmod(weights.dims[0] - 3, 6)
    if bands < 1 or rest or weights.dims[-1] != 4:
        raise ContractError(f"field weights shaped {weights.dims}, need input "
                            "3(2L + 1) for a band count L >= 1, output 4")
    return bands


def field_eval(weights: MlpWeights, x: np.ndarray, keep: bool = True):
    """Density (N,) and color (N, 3) of the field at points x (N, 3), and
    what their adjoint needs: returns (sigma, color, net), where net is
    y's density column, the MLP cache and the unscaled color raw_col, of
    which color is raw_col * RADIANCE_SCALE.  The cache keeps band 0 of the
    encoding, x, sin(pi x) and cos(pi x) per component, in place of the
    whole: its first entry rebuilds the encoding when called
    (`rebuild_encoding`, see `mlp.backward`).  With keep=False net is None
    and the MLP keeps no cache (see `mlp.forward`).  The points are encoded
    with the band count of the weights (`field_bands`)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    bands = field_bands(weights)
    enc = positional_encoding(x, bands)
    y, cache = mlp.forward(weights, enc, keep=keep)
    raw_col = mlp.sigmoid(y[:, 1:4])
    net = None
    if keep:
        band0 = enc.T.reshape(3, -1, x.shape[0])[:, :3].copy()
        cache[0] = functools.partial(rebuild_encoding, band0, bands)
        net = (y[:, 0].copy(), cache, raw_col)
    return mlp.softplus(y[:, 0]), raw_col * RADIANCE_SCALE, net


# ---------------------------------------------------------------------------
# hypernetwork


@dataclass
class HypernetParams:
    """Affine map from a global scene feature of F numbers to the P flat
    weights of a network shaped `target_dims`; F is the matrix's width.  A
    matrix that is not (P, F) or a bias that is not (P,) is a
    ContractError."""

    target_dims: tuple[int, ...]
    matrix: np.ndarray  # (P, F)
    bias: np.ndarray    # (P,)

    def __post_init__(self):
        self.target_dims = tuple(int(d) for d in self.target_dims)
        p = mlp.param_count(self.target_dims)
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != p or self.bias.shape != (p,):
            raise ContractError(f"a hypernetwork of {p} weights needs a ({p}, F) matrix "
                                f"and a ({p},) bias, got {self.matrix.shape} and "
                                f"{self.bias.shape}")

    @classmethod
    def fixed(cls, weights: MlpWeights) -> "HypernetParams":
        """The hypernetwork of a zero-length feature (F = 0) whose output is
        `weights`: a (P, 0) matrix and `weights.flat` as the bias.  Its
        forward is zeros(P) + bias, the bias bit for bit, except that a
        -0.0 weight comes back as +0.0."""
        return cls(weights.dims, np.zeros((weights.flat.size, 0)), weights.flat)

    @classmethod
    def random(cls, feature_dim: int, target_dims, seed: int, scale: float = 0.1):
        rng = np.random.default_rng(seed)
        p = mlp.param_count(target_dims)
        return cls(target_dims, rng.normal(0.0, scale, size=(p, feature_dim)),
                   rng.normal(0.0, scale, size=p))


def hypernet_forward(fg: np.ndarray, h: HypernetParams) -> MlpWeights:
    fg = np.asarray(fg, dtype=np.float64).ravel()
    if fg.size != h.matrix.shape[1]:
        raise ContractError(f"feature size {fg.size} != {h.matrix.shape[1]}")
    return MlpWeights(h.target_dims, h.matrix @ fg + h.bias)


def hypernet_backward(fg: np.ndarray, h: HypernetParams, dflat: np.ndarray):
    """Adjoints of hypernet_forward: returns (dfg, dmatrix, dbias)."""
    fg = np.asarray(fg, dtype=np.float64).ravel()
    dflat = np.asarray(dflat, dtype=np.float64).ravel()
    return h.matrix.T @ dflat, np.outer(dflat, fg), dflat.copy()


# ---------------------------------------------------------------------------
# volume rendering


def stratified_ts(t_near: float, t_far: float, jitter: np.ndarray):
    """Jittered sample positions (N, S) and segment lengths, last segment
    closed at t_far."""
    n_samples = jitter.shape[-1]
    width = (t_far - t_near) / n_samples
    base = t_near + width * np.arange(n_samples)
    t = base + width * jitter
    deltas = np.empty_like(t)
    deltas[..., :-1] = t[..., 1:] - t[..., :-1]
    deltas[..., -1] = t_far - t[..., -1]
    return t, deltas


def composite(sigma: np.ndarray, color: np.ndarray, deltas: np.ndarray):
    """Alpha compositing: L = sum_i T_i (1 - exp(-sigma_i delta_i)) c_i.

    Returns (L (N,3), weights (N,S)); the weights are non-negative and sum
    to at most 1 per ray (remainder transmitted).
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=np.float64))
    deltas = np.atleast_2d(np.asarray(deltas, dtype=np.float64))
    color = np.asarray(color, dtype=np.float64)
    tau = sigma * deltas
    trans = np.exp(-np.cumsum(tau, axis=-1) + tau)  # T_i excludes own segment
    w = trans * (1.0 - np.exp(-tau))
    return np.sum(w[..., None] * color, axis=-2), w


def composite_backward(sigma, color, deltas, w, dL):
    """Adjoints (dsigma, dcolor) of `composite` for fixed deltas."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=np.float64))
    deltas = np.atleast_2d(np.asarray(deltas, dtype=np.float64))
    dL = np.asarray(dL, dtype=np.float64)
    dcolor = w[..., None] * dL[..., None, :]
    g = np.sum(color * dL[..., None, :], axis=-1)      # (N, S)
    tau = sigma * deltas
    trans = np.exp(-np.cumsum(tau, axis=-1) + tau)
    # suffix sum of g_j w_j over j > i
    gw = g * w
    suffix = np.cumsum(gw[..., ::-1], axis=-1)[..., ::-1] - gw
    dsigma = deltas * (g * trans * np.exp(-tau) - suffix)
    return dsigma, dcolor


# Field points per block of a `volume_render_batch` query, kept or not.
# Render and fit march the same blocks, so they run GEMMs of the same
# shapes and agree bit for bit by construction; the size only bounds the
# memory of a block.
_POINT_BLOCK = 4096


def volume_render_batch(weights: MlpWeights, p: np.ndarray, d: np.ndarray,
                        cfg: VolumeConfig, seed: int, ray_ids: np.ndarray,
                        keep: bool = True):
    """Stratified volume rendering of N rays; jitter keyed by (seed, ray_id).

    The rays are marched in balanced blocks of at most
    max(1, _POINT_BLOCK // n_samples) rays.  Returns (L (N, 3), state),
    the state holding, per block, its ray slice and what
    `volume_render_backward` needs: the densities, the segment lengths, the
    composite weights and the field's `net` (`field_eval`), from whose
    raw_col the adjoint forms the colors again.  With keep=False the state
    is None and the field keeps no MLP cache: the query's memory is one
    block's, whatever N is."""
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    d = np.atleast_2d(np.asarray(d, dtype=np.float64))
    ray_ids = np.asarray(ray_ids, dtype=np.uint64)
    n = p.shape[0]
    k = max(1, -(-n // max(1, _POINT_BLOCK // cfg.n_samples)))
    L = np.empty((n, 3))
    state = []
    for i in range(k):
        blk = slice(n * i // k, n * (i + 1) // k)
        jitter = sampling.uniform_block(seed, ray_ids[blk], 0, cfg.n_samples)
        t, deltas = stratified_ts(cfg.t_near, cfg.t_far, jitter)
        # march from p toward the source along +d
        x = p[blk, None, :] + t[:, :, None] * d[blk, None, :]
        sigma, color, net = field_eval(weights, x.reshape(-1, 3), keep)
        sigma = sigma.reshape(t.shape)
        color = color.reshape(*t.shape, 3)
        L[blk], w = composite(sigma, color, deltas)
        if keep:
            state.append((blk, sigma, deltas, w, net))
    return L, (state if keep else None)


# Unread `p` and `cfg` stay for perfbench's `_count_field_points` (ROADMAP item 1).
def volume_render_backward(weights: MlpWeights, p: np.ndarray, cfg: VolumeConfig,
                           dL: np.ndarray, state) -> np.ndarray:
    """d(volume_render_batch)/d(weights.flat), contracted with dL (N, 3).

    `state` is the one `volume_render_batch` returned for the same
    arguments; its blocks are pulled back in order and their weight
    adjoints summed."""
    dflat = np.zeros(weights.flat.size)
    for blk, sigma, deltas, w, (y0, cache, raw_col) in state:
        # the forward's color, formed again and not held past the call
        dsigma, dcolor = composite_backward(
            sigma, (raw_col * RADIANCE_SCALE).reshape(*sigma.shape, 3), deltas, w, dL[blk])
        dy = np.empty((y0.size, 4))
        dy[:, 0] = dsigma.reshape(-1) * mlp.sigmoid(y0)
        dy[:, 1:4] = dcolor.reshape(-1, 3) * RADIANCE_SCALE * raw_col * (1.0 - raw_col)
        dflat += mlp.backward(weights, cache, dy)[1]
    return dflat


def blend(l_ssrt, l_oov, u):
    """Uncertainty blend: (1 - u) * traced + u * out-of-view, u in [0, 1]."""
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0) or np.any(u > 1):
        raise ContractError("blend factor outside [0, 1]")
    a = as_rgb(l_ssrt) if np.ndim(l_ssrt) <= 1 else np.asarray(l_ssrt, dtype=np.float64)
    b = as_rgb(l_oov) if np.ndim(l_oov) <= 1 else np.asarray(l_oov, dtype=np.float64)
    uu = u[..., None] if np.ndim(u) == a.ndim - 1 else u
    return (1.0 - uu) * a + uu * b


# ---------------------------------------------------------------------------
# full learned light path: traced + volumetric, blended by uncertainty


def _ray_ids(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Deterministic per-ray stream ids from the ray's bit patterns, so
    queries stay pure and common random numbers survive re-evaluation."""
    bits = np.concatenate([np.ascontiguousarray(p, dtype=np.float64).view(np.uint64),
                           np.ascontiguousarray(d, dtype=np.float64).view(np.uint64)],
                          axis=-1)
    acc = np.zeros(bits.shape[0], dtype=np.uint64)
    for k in range(bits.shape[1]):
        acc = sampling._mix(acc ^ (bits[:, k] + np.uint64(0x9E3779B97F4A7C15)))
    return acc


class BlendedLightField(LightField):
    """The learned lighting path: screen-space traced radiance where the
    depth map supports it, the volumetric field elsewhere, mixed by the
    tanh depth-gap uncertainty of each trace.

    The field's weights are `hypernet`'s output for `global_feature`; fixed
    weights are `HypernetParams.fixed(weights)` with the default empty
    feature.  Parameters (for recovery/fitting) are the concatenation of
    the decoder weights and the hypernetwork's matrix and bias.  The
    field's band count is read from its weights (`field_bands`).  A
    feature that does not fit the hypernetwork, decoder weights that do not
    fit the feature grid, or field weights that fit no band count, are a
    ContractError here, before any query.
    """

    def __init__(self, feature_grid: FeatureGrid, gbuffer, camera,
                 decoder_weights: MlpWeights, hypernet: HypernetParams,
                 global_feature=(), volume_cfg: VolumeConfig = VolumeConfig(),
                 seed: int = 7):
        self.grid = feature_grid
        self.gbuffer = gbuffer
        self.camera = camera
        self.decoder = decoder_weights
        self.hypernet = hypernet
        self.global_feature = np.asarray(global_feature, dtype=np.float64).ravel()
        self.volume = hypernet_forward(self.global_feature, hypernet)
        self.volume_cfg = volume_cfg
        sampling.check_seed(seed)
        self.seed = seed
        decoder_weights.require("decoder", decoder_input_dim(feature_grid.channels), 3)
        field_bands(self.volume)

    # -- parameter vector plumbing ------------------------------------
    @property
    def n_params(self) -> int:
        return self.decoder.flat.size + self.hypernet.matrix.size + self.hypernet.bias.size

    def get_params(self) -> np.ndarray:
        return np.concatenate([self.decoder.flat, self.hypernet.matrix.ravel(),
                               self.hypernet.bias])

    def set_params(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64).ravel()
        if vec.size != self.n_params:
            raise ContractError("parameter vector size mismatch")
        nd = self.decoder.flat.size
        nm = nd + self.hypernet.matrix.size
        self.decoder = self.decoder.copy_with(vec[:nd].copy())
        self.hypernet = HypernetParams(self.hypernet.target_dims,
                                       vec[nd:nm].reshape(self.hypernet.matrix.shape).copy(),
                                       vec[nm:].copy())
        self.volume = hypernet_forward(self.global_feature, self.hypernet)

    # -- queries -------------------------------------------------------
    def radiance(self, p, d, keep=None):
        """The blended radiance along d from p.  A `keep` list receives the
        forward state `backprop` needs: the trace, the decoder's output and
        MLP cache, and the volume state of `volume_render_batch`.  Without
        it the forwards keep no state."""
        p = np.atleast_2d(np.asarray(p, dtype=np.float64))
        d = np.atleast_2d(np.asarray(d, dtype=np.float64))
        want = keep is not None
        ids = _ray_ids(p, d)
        l_vol, vol_state = volume_render_batch(self.volume, p, d, self.volume_cfg,
                                               self.seed, ids, keep=want)
        l_tr, hits, dec_state = traced_radiance_batch(
            self.grid, self.gbuffer, self.decoder, self.camera, p, d, keep=want)
        if want:
            keep.append((hits, *dec_state, vol_state))
        return blend(l_tr, l_vol, hits.u)

    def radiance_vjp(self, p, d):
        """One forward pass for both the radiance and its pullback, which
        keeps the state of that pass (see `LightField`)."""
        keep = []
        L = self.radiance(p, d, keep)
        return L, functools.partial(self.backprop, p, d, state=keep[0])

    def backprop(self, p, d, dL, state=None) -> np.ndarray:
        """Parameter adjoints of radiance(p, d) contracted with dL (N, 3).

        The trace geometry and its uncertainty are constants of the blend.
        `state` is the forward state `radiance_vjp` kept for the same (p, d);
        without it the forward pass is run again."""
        p = np.atleast_2d(np.asarray(p, dtype=np.float64))
        d = np.atleast_2d(np.asarray(d, dtype=np.float64))
        dL = np.asarray(dL, dtype=np.float64).reshape(p.shape[0], 3)
        if state is None:
            keep = []
            self.radiance(p, d, keep)
            state = keep[0]
        hits, y, cache, vol_state = state

        w_tr = (1.0 - hits.u)[:, None]
        dy = dL * w_tr * mlp.sigmoid(y)
        _, d_decoder = mlp.backward(self.decoder, cache, dy)

        d_vol = volume_render_backward(self.volume, p, self.volume_cfg,
                                       dL * hits.u[:, None], vol_state)
        _, dmat, dbias = hypernet_backward(self.global_feature, self.hypernet, d_vol)
        return np.concatenate([d_decoder, dmat.ravel(), dbias])
