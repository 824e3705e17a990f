"""GGX microfacet BRDF under the metallic-roughness workflow.

f(v, d) = (1 - metallic) * albedo / pi
        + specular * F_schlick(v.h) * D_ggx(h) * G_smith(v, d) / (4 (n.v)(n.d))

with F0 = lerp(0.04, albedo, metallic) and alpha = clamp(R, 0.01, 1)^2.
Importance sampling mixes a cosine-weighted diffuse lobe with Walter-style
NDF half-vector sampling; `pdf` is the exact mixture density of `sample`.

All operations broadcast over leading axes; directions are unit (..., 3)
arrays.  `v` points from the surface toward the eye, `d` toward the light.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError, as_rgb, dot, luminance, normalize, orthonormal_basis
from .sampling import SamplerState, uniform_block

ROUGHNESS_FLOOR = 0.01
_LUM = np.array([0.2126, 0.7152, 0.0722])


@dataclass(frozen=True)
class BrdfParams:
    """Per-point material. `specular` scales the microfacet term and its
    sampling weight (1 = physical; 0 = pure Lambertian, used by oracles)."""

    albedo: np.ndarray
    roughness: float
    metallic: float
    specular: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "albedo", as_rgb(self.albedo))


@dataclass
class BrdfSample:
    direction: np.ndarray   # d_i, unit, toward the light
    pdf: float              # mixture density, sr^-1; 0 marks an invalid sample
    value: np.ndarray       # f evaluated at d_i
    lobe: str               # "diffuse" | "specular"


def _alpha(roughness) -> np.ndarray:
    r = np.clip(np.asarray(roughness, dtype=np.float64), ROUGHNESS_FLOOR, 1.0)
    return r * r


def ggx_d(cos_nm, alpha) -> np.ndarray:
    """GGX normal distribution; zero for back-facing half vectors."""
    cos_nm = np.asarray(cos_nm, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    a2 = alpha * alpha
    t = cos_nm * cos_nm * (a2 - 1.0) + 1.0
    return np.where(cos_nm > 0, a2 / (np.pi * t * t), 0.0)


def smith_g1(cos_nw, alpha) -> np.ndarray:
    cos_nw = np.asarray(cos_nw, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    k = np.sqrt(alpha * alpha + (1.0 - alpha * alpha) * cos_nw * cos_nw)
    return np.where(cos_nw > 0, 2.0 * cos_nw / (cos_nw + k), 0.0)


def fresnel_schlick(cos_vh, f0) -> np.ndarray:
    """Schlick Fresnel with grazing reflectance F90 = clamp(50 F0, 0, 1), so
    a zero-F0 surface reflects exactly nothing; f0 is (..., 3)."""
    q = (1.0 - np.clip(np.asarray(cos_vh, dtype=np.float64), 0.0, 1.0)) ** 5
    f90 = np.clip(50.0 * f0, 0.0, 1.0)
    return f0 * (1.0 - q[..., None]) + f90 * q[..., None]


def f0_of(albedo, metallic) -> np.ndarray:
    albedo = np.asarray(albedo, dtype=np.float64)
    m = np.asarray(metallic, dtype=np.float64)[..., None]
    return 0.04 * (1.0 - m) + albedo * m


def lobe_weights(albedo, metallic, specular) -> tuple[np.ndarray, np.ndarray]:
    """Normalized (diffuse, specular) mixture weights of the sampler."""
    albedo = np.asarray(albedo, dtype=np.float64)
    m = np.asarray(metallic, dtype=np.float64)
    wd = (1.0 - m) * luminance(albedo)
    ws = np.asarray(specular, dtype=np.float64) * (0.04 * (1.0 - m) + m)
    s = wd + ws
    deg = s <= 0
    s = np.where(deg, 1.0, s)
    return np.where(deg, 1.0, wd / s), np.where(deg, 0.0, ws / s)


def _check_unit(name, w):
    n2 = dot(w, w)
    if np.any(np.abs(n2 - 1.0) > 2.1e-3):
        raise ContractError(f"{name} is not unit length")


def eval(v, d, n, params: BrdfParams) -> np.ndarray:
    """BRDF value f(v, d); zero spectrum below the horizon (d.n <= 0)."""
    v, d, n = (np.asarray(a, dtype=np.float64) for a in (v, d, n))
    for name, w in (("v", v), ("d", d), ("n", n)):
        _check_unit(name, w)
    if np.any(dot(v, n) <= 0):
        raise ContractError("eval requires v.n > 0")
    return _eval_raw(v, d, n, params.albedo, params.roughness, params.metallic,
                     params.specular)


def _eval_raw(v, d, n, albedo, roughness, metallic, specular) -> np.ndarray:
    albedo = np.asarray(albedo, dtype=np.float64)
    metallic = np.asarray(metallic, dtype=np.float64)
    cos_nd = dot(n, d)
    cos_nv = dot(n, v)
    alpha = _alpha(roughness)

    m = normalize(v + d)
    cos_nm = dot(n, m)
    cos_vm = dot(v, m)
    D = ggx_d(cos_nm, alpha)
    G = smith_g1(cos_nv, alpha) * smith_g1(cos_nd, alpha)
    denom = np.maximum(4.0 * cos_nv * cos_nd, 1e-12)
    spec_common = np.asarray(specular, dtype=np.float64) * D * G / denom
    fresnel = fresnel_schlick(cos_vm, f0_of(albedo, metallic))

    diffuse = (1.0 - metallic)[..., None] * albedo / np.pi
    f = diffuse + fresnel * spec_common[..., None]
    return np.where((cos_nd > 0)[..., None], f, 0.0)


def diffuse_pdf(d, n) -> np.ndarray:
    """Cosine-hemisphere density, the diffuse mixture component."""
    c = dot(n, d)
    return np.where(c > 0, c / np.pi, 0.0)


def _specular_pdf(v, d, n, alpha) -> np.ndarray:
    m = normalize(v + d)
    cos_nm = dot(n, m)
    cos_vm = np.maximum(dot(v, m), 1e-12)
    return ggx_d(cos_nm, alpha) * np.maximum(cos_nm, 0.0) / (4.0 * cos_vm)


def mixture_pdf(v, d, n, albedo, roughness, metallic, specular) -> np.ndarray:
    """Array form of `pdf`; material arguments broadcast over rays."""
    v, d, n = (np.asarray(a, dtype=np.float64) for a in (v, d, n))
    wd, ws = lobe_weights(albedo, metallic, specular)
    alpha = _alpha(roughness)
    val = wd * diffuse_pdf(d, n) + ws * _specular_pdf(v, d, n, alpha)
    return np.where(dot(n, d) > 0, val, 0.0)


def pdf(v, d, n, params: BrdfParams) -> np.ndarray:
    """Mixture density of `sample` at direction d; 0 for d.n <= 0."""
    return mixture_pdf(v, d, n, params.albedo, params.roughness,
                       params.metallic, params.specular)


def sample_pdf_sphere(v, d, n, params: BrdfParams) -> np.ndarray:
    """Density of the raw sampling process over the full sphere.

    Unlike `pdf` this keeps the below-horizon specular mass that `sample`
    reports as invalid, so it integrates to exactly 1 over all directions.
    Used by normalization oracles only.
    """
    v, d, n = (np.asarray(a, dtype=np.float64) for a in (v, d, n))
    wd, ws = lobe_weights(params.albedo, params.metallic, params.specular)
    alpha = _alpha(params.roughness)
    m = normalize(v + d)
    # the sampler only draws half vectors from the n.h > 0 hemisphere
    m = np.where((dot(n, m) >= 0)[..., None], m, -m)
    cos_nm = dot(n, m)
    cos_vm = np.abs(dot(v, m))
    spec = ggx_d(cos_nm, alpha) * np.maximum(cos_nm, 0.0) / np.maximum(4.0 * cos_vm, 1e-12)
    return wd * diffuse_pdf(d, n) + ws * spec


def _local_to_world(local, n):
    t, b = orthonormal_basis(n)
    return (local[..., 0:1] * t + local[..., 1:2] * b + local[..., 2:3] * n)


def sample_directions(v, n, albedo, roughness, metallic, specular, u):
    """Vectorized lobe selection + direction sampling.

    `u` is (..., 3) of uniforms (lobe, u1, u2).  Returns (d, is_specular,
    valid).  Invalid samples (below horizon or back-facing half vector)
    must be skipped by the caller; they still consume their slot.
    """
    v = np.asarray(v, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    wd, ws = lobe_weights(albedo, metallic, specular)
    alpha = _alpha(roughness)
    pick_spec = u[..., 0] < ws

    # One local vector per lane, sharing the azimuth: the diffuse lobe's
    # cosine-weighted direction or the specular lobe's half vector
    # ~ D(m) (n.m).  Specular lanes then mirror v about it.
    phi = 2.0 * np.pi * u[..., 2]
    tan2 = alpha * alpha * u[..., 1] / np.maximum(1.0 - u[..., 1], 1e-16)
    cos_h = 1.0 / np.sqrt(1.0 + tan2)
    sin_h = np.sqrt(np.maximum(1.0 - cos_h * cos_h, 0.0))
    rho = np.where(pick_spec, sin_h, np.sqrt(u[..., 1]))
    z = np.where(pick_spec, cos_h, np.sqrt(np.maximum(1.0 - u[..., 1], 0.0)))
    w = _local_to_world(np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1), n)
    vh = dot(v, w)
    d = np.where(pick_spec[..., None], 2.0 * vh[..., None] * w - v, w)
    valid = dot(d, n) > 0
    valid &= np.where(pick_spec, vh > 0, True)
    return d, pick_spec, valid


def sample(v, n, params: BrdfParams, rng: SamplerState) -> BrdfSample:
    """Draw one importance-sampled direction for a single shading point."""
    v = np.asarray(v, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if dot(v, n) <= 0:
        raise ContractError("sample requires v.n > 0")
    u = uniform_block(rng.seed, rng.pixel, rng.sample, 3)
    d, spec, valid = sample_directions(v, n, params.albedo, params.roughness,
                                       params.metallic, params.specular, u)
    lobe = "specular" if bool(spec) else "diffuse"
    if not bool(valid):
        return BrdfSample(direction=d, pdf=0.0, value=np.zeros(3), lobe=lobe)
    p = float(pdf(v, d, n, params))
    return BrdfSample(direction=d, pdf=p, value=eval(v, d, n, params), lobe=lobe)


# ---------------------------------------------------------------------------
# analytic partials consumed by the render adjoint


def eval_pdf_with_partials(v, d, n, albedo, roughness, metallic, specular,
                           params=("albedo", "roughness", "metallic", "normal")):
    """Forward values plus the partials the detached-sample adjoint needs.

    Sample directions d are treated as constants; returns a dict of arrays
    broadcast over the leading shape:
      f (.,3), pdf (.),
      df_dA (.,3) diagonal per channel, df_dR (.,3), dpdf_dA (.,3), dpdf_dR (.),
    plus, for the material names in `params` (other names are ignored):
      "metallic": df_dM (.,3), dpdf_dM (.)
      "normal":   fres (.,3), dsc_dn (.,3), dpdf_dn (.,3)
    The normal Jacobian of f has rank one, df_dn[c, x] = fres[c] * dsc_dn[x]:
    the Fresnel term times the normal gradient of the scalar microfacet
    factor, which is zero below the horizon.
    """
    want_m = "metallic" in params
    want_n = "normal" in params
    v, d, n = (np.asarray(a, dtype=np.float64) for a in (v, d, n))
    albedo = np.asarray(albedo, dtype=np.float64)
    metallic = np.asarray(metallic, dtype=np.float64)
    spec_scale = np.asarray(specular, dtype=np.float64)

    r_clamped = np.clip(np.asarray(roughness, dtype=np.float64), ROUGHNESS_FLOOR, 1.0)
    alpha = r_clamped * r_clamped
    dalpha_dR = np.where(
        (roughness >= ROUGHNESS_FLOOR) & (roughness <= 1.0), 2.0 * r_clamped, 0.0)

    cos_nv = dot(n, v)
    cos_nd = dot(n, d)
    up = cos_nd > 0

    m = normalize(v + d)
    cos_nm = dot(n, m)
    cos_vm = np.maximum(dot(v, m), 1e-12)

    a2 = alpha * alpha
    t = cos_nm * cos_nm * (a2 - 1.0) + 1.0
    face = cos_nm > 0
    D = np.where(face, a2 / (np.pi * t * t), 0.0)
    dD_dalpha = np.where(face, (2.0 * alpha * t - 4.0 * alpha * a2 * cos_nm * cos_nm)
                         / (np.pi * t ** 3), 0.0)

    def g1_terms(c):
        """G1 at cosine c, its alpha partial and, for the normal, its c partial."""
        k = np.sqrt(a2 + (1.0 - a2) * c * c)
        pos = c > 0
        g = np.where(pos, 2.0 * c / (c + k), 0.0)
        dk_da = alpha * (1.0 - c * c) / k
        dg_da = np.where(pos, -2.0 * c / (c + k) ** 2 * dk_da, 0.0)
        if not want_n:
            return g, dg_da, None
        dk_dc = (1.0 - a2) * c / k
        dg_dc = np.where(pos, (2.0 * (c + k) - 2.0 * c * (1.0 + dk_dc)) / (c + k) ** 2, 0.0)
        return g, dg_da, dg_dc

    g1v, dg1v_da, dg1v_dcv = g1_terms(cos_nv)
    g1d, dg1d_da, dg1d_dcd = g1_terms(cos_nd)
    G = g1v * g1d
    dG_dalpha = dg1v_da * g1d + g1v * dg1d_da

    denom = np.maximum(4.0 * cos_nv * cos_nd, 1e-12)
    sc = spec_scale * D * G / denom
    dsc_dalpha = spec_scale * (dD_dalpha * G + D * dG_dalpha) / denom

    f0 = f0_of(albedo, metallic)
    q = (1.0 - np.clip(cos_vm, 0.0, 1.0)) ** 5
    f90 = np.clip(50.0 * f0, 0.0, 1.0)
    fres = f0 * (1.0 - q[..., None]) + f90 * q[..., None]
    # dF/dF0 = (1-q) + 50 q inside the F90 clamp
    df_df0 = (1.0 - q)[..., None] + np.where((f0 > 0) & (f0 < 0.02),
                                             50.0 * q[..., None], 0.0)
    dfres_dA = metallic[..., None] * df_df0               # per channel, diagonal

    one_minus_m = (1.0 - metallic)[..., None]
    f = one_minus_m * albedo / np.pi + fres * sc[..., None]
    f = np.where(up[..., None], f, 0.0)

    df_dA = np.where(up[..., None], one_minus_m / np.pi + dfres_dA * sc[..., None], 0.0)
    df_dR = np.where(up[..., None],
                     fres * (dsc_dalpha * dalpha_dR)[..., None], 0.0)

    # mixture pdf and its partials
    lum = luminance(albedo)
    wd_raw = (1.0 - metallic) * lum
    ws_raw = spec_scale * (0.04 * (1.0 - metallic) + metallic)
    s = wd_raw + ws_raw
    deg = s <= 0
    s_safe = np.where(deg, 1.0, s)
    wd = np.where(deg, 1.0, wd_raw / s_safe)
    ws = np.where(deg, 0.0, ws_raw / s_safe)

    pd = np.where(up, cos_nd / np.pi, 0.0)
    ps = np.where(face & up, D * cos_nm / (4.0 * cos_vm), 0.0)
    p = wd * pd + ws * ps

    dwd_raw_dA = (1.0 - metallic)[..., None] * _LUM
    # d(wd/s)/dx = (dwd*ws_raw - wd_raw*dws)/s^2
    s2 = s_safe * s_safe
    dwd_dA = np.where(deg[..., None], 0.0, dwd_raw_dA * ws_raw[..., None] / s2[..., None])
    dps_dalpha = np.where(face & up, dD_dalpha * cos_nm / (4.0 * cos_vm), 0.0)

    out = {"f": f, "pdf": p, "df_dA": df_dA, "df_dR": df_dR,
           "dpdf_dA": dwd_dA * (pd - ps)[..., None],
           "dpdf_dR": ws * dps_dalpha * dalpha_dR}
    if want_m:
        dfres_dM = (albedo - 0.04) * df_df0
        out["df_dM"] = np.where(up[..., None],
                                -albedo / np.pi + dfres_dM * sc[..., None], 0.0)
        dwd_raw_dM = -lum
        dws_raw_dM = 0.96 * spec_scale
        dwd_dM = np.where(deg, 0.0, (dwd_raw_dM * ws_raw - wd_raw * dws_raw_dM) / s2)
        out["dpdf_dM"] = dwd_dM * (pd - ps)
    if want_n:
        # n enters via cos_nv, cos_nd, cos_nm
        live = 4.0 * cos_nv * cos_nd > 1e-12
        dD_dcnm = np.where(face, -4.0 * a2 * cos_nm * (a2 - 1.0) / (np.pi * t ** 3), 0.0)
        dsc_dcv = np.where(live, spec_scale * D * (dg1v_dcv * g1d) / denom
                           - sc / cos_nv, 0.0)
        dsc_dcd = np.where(live, spec_scale * D * (g1v * dg1d_dcd) / denom
                           - sc / cos_nd, 0.0)
        dsc_dcm = spec_scale * dD_dcnm * G / denom
        dsc_dn = dsc_dcv[..., None] * v + dsc_dcd[..., None] * d + dsc_dcm[..., None] * m
        out["fres"] = fres
        out["dsc_dn"] = np.where(up[..., None], dsc_dn, 0.0)
        dps_dn = np.where((face & up)[..., None],
                          ((dD_dcnm * cos_nm + D) / (4.0 * cos_vm))[..., None] * m, 0.0)
        out["dpdf_dn"] = ((wd * np.where(up, 1.0 / np.pi, 0.0))[..., None] * d
                          + ws[..., None] * dps_dn)
    return out
