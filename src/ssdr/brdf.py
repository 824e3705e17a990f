"""GGX microfacet BRDF under the metallic-roughness workflow.

f(v, d) = (1 - metallic) * albedo / pi
        + specular * F_schlick(v.h) * D_ggx(h) * G_smith(v, d) / (4 (n.v)(n.d))

with F0 = lerp(0.04, albedo, metallic) and alpha = clamp(R, 0.01, 1)^2.
Importance sampling mixes a cosine-weighted diffuse lobe with Walter-style
NDF half-vector sampling; `mixture_pdf` is the exact mixture density of
`sample_directions`.

All operations broadcast over leading axes; directions are unit (..., 3)
arrays, which no function here checks.  `v` points from the surface toward
the eye, `d` toward the light.  Each takes the material as the arrays
(albedo, roughness, metallic, specular), where `specular` scales the
microfacet term and its sampling weight (1 = physical; 0 = pure Lambertian).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import REC709, dot, luminance, normalize, orthonormal_basis

ROUGHNESS_FLOOR = 0.01


def _alpha(roughness) -> np.ndarray:
    r = np.clip(np.asarray(roughness, dtype=np.float64), ROUGHNESS_FLOOR, 1.0)
    return r * r


def ggx_d(cos_nm, alpha) -> tuple[np.ndarray, np.ndarray]:
    """GGX normal distribution, zero for back-facing half vectors, and the
    t = cos_nm^2 (alpha^2 - 1) + 1 of its denominator pi t^2, which its
    partials reuse."""
    cos_nm = np.asarray(cos_nm, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    a2 = alpha * alpha
    t = cos_nm * cos_nm * (a2 - 1.0) + 1.0
    return np.where(cos_nm > 0, a2 / (np.pi * t * t), 0.0), t


def smith_g1(cos_nw, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Smith masking G1 = 2c / (c + k), zero for c <= 0, and its
    k = sqrt(alpha^2 + (1 - alpha^2) c^2), which its partials reuse."""
    cos_nw = np.asarray(cos_nw, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    k = np.sqrt(alpha * alpha + (1.0 - alpha * alpha) * cos_nw * cos_nw)
    return np.where(cos_nw > 0, 2.0 * cos_nw / (cos_nw + k), 0.0), k


def fresnel_schlick(cos_vh, f0) -> tuple[np.ndarray, np.ndarray]:
    """Schlick Fresnel with grazing reflectance F90 = clamp(50 F0, 0, 1), so
    a zero-F0 surface reflects exactly nothing; f0 is (..., 3).  Also
    returns F90's weight q = (1 - cos_vh)^5, which its partials reuse."""
    q = (1.0 - np.clip(np.asarray(cos_vh, dtype=np.float64), 0.0, 1.0)) ** 5
    f90 = np.clip(50.0 * f0, 0.0, 1.0)
    return f0 * (1.0 - q[..., None]) + f90 * q[..., None], q


def f0_of(albedo, metallic) -> np.ndarray:
    albedo = np.asarray(albedo, dtype=np.float64)
    m = np.asarray(metallic, dtype=np.float64)[..., None]
    return 0.04 * (1.0 - m) + albedo * m


def _lobe_masses(albedo, metallic, specular):
    """Unnormalized (diffuse, specular) mixture weights, their sum (1 where
    it is not positive) and the mask of those degenerate lanes."""
    m = np.asarray(metallic, dtype=np.float64)
    wd = (1.0 - m) * luminance(albedo)
    ws = np.asarray(specular, dtype=np.float64) * (0.04 * (1.0 - m) + m)
    s = wd + ws
    deg = s <= 0
    return wd, ws, np.where(deg, 1.0, s), deg


def lobe_weights(albedo, metallic, specular) -> tuple[np.ndarray, np.ndarray]:
    """Normalized (diffuse, specular) mixture weights of the sampler."""
    wd, ws, s, deg = _lobe_masses(albedo, metallic, specular)
    return np.where(deg, 1.0, wd / s), np.where(deg, 0.0, ws / s)


def _eval_raw(v, d, n, albedo, roughness, metallic, specular, terms=None) -> np.ndarray:
    """BRDF value f(v, d), zero below the horizon (d.n <= 0); the material
    broadcasts over rays.  `terms`, the `_half_terms` of these lanes,
    spares forming them again."""
    return _kernel(v, d, n, albedo, roughness, metallic, specular, ("f",), terms)["f"]


def diffuse_pdf(c) -> np.ndarray:
    """Cosine-hemisphere density at c = n.d, the diffuse mixture component."""
    return np.where(c > 0, c / np.pi, 0.0)


def mixture_pdf(v, d, n, albedo, roughness, metallic, specular, terms=None) -> np.ndarray:
    """Mixture density of `sample_directions` at direction d, 0 for
    d.n <= 0; the material broadcasts over rays.  `terms`, the
    `_half_terms` of these lanes, spares forming them again."""
    return _kernel(v, d, n, albedo, roughness, metallic, specular, ("pdf",),
                   terms)["pdf"]


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
    local = np.empty_like(u, dtype=np.float64, shape=rho.shape + (3,))
    local[..., 0], local[..., 1], local[..., 2] = rho * np.cos(phi), rho * np.sin(phi), z
    w = _local_to_world(local, n)
    vh = dot(v, w)
    d = np.where(pick_spec[..., None], 2.0 * vh[..., None] * w - v, w)
    valid = dot(d, n) > 0
    valid &= np.where(pick_spec, vh > 0, True)
    return d, pick_spec, valid


# ---------------------------------------------------------------------------
# the one evaluator of f, the pdf and the partials the render adjoint consumes


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
    return _kernel(v, d, n, albedo, roughness, metallic, specular,
                   ("f", "pdf", "partials", *params), None)


class _HalfTerms(NamedTuple):
    """What f and the pdf read of the half vector m = normalize(v + d),
    per lane; `t` and `m` are kept only for the partials."""

    alpha: np.ndarray
    cos_nd: np.ndarray
    up: np.ndarray          # cos_nd > 0
    cos_nm: np.ndarray
    cos_vm: np.ndarray      # v.m, floored at 1e-12
    D: np.ndarray
    t: np.ndarray | None = None     # D's t
    m: np.ndarray | None = None


def _half_terms(v, d, n, roughness, keep) -> _HalfTerms:
    """The half-vector terms of lanes (v, d, n): alpha, n.d with its `up`
    mask, n.m, v.m and D.  `keep` may name "t" and "m" to keep those too;
    without them the record holds no (..., 3) array and no t, which only
    the partials read."""
    v, d, n = (np.asarray(a, dtype=np.float64) for a in (v, d, n))
    alpha = _alpha(roughness)
    cos_nd = dot(n, d)
    up = cos_nd > 0
    m = normalize(v + d)
    cos_nm = dot(n, m)
    cos_vm = np.maximum(dot(v, m), 1e-12)
    if "m" not in keep:
        # m is (..., 3), the widest intermediate; freed here, before D's
        # temporaries, the views' peak memory is lower
        m = None
    D, t = ggx_d(cos_nm, alpha)
    return _HalfTerms(alpha, cos_nd, up, cos_nm, cos_vm, D,
                      t if "t" in keep else None, m)


def _kernel(v, d, n, albedo, roughness, metallic, specular, want, terms):
    """f, the pdf and their partials, forming only what `want` names: "f"
    and "pdf" are the values, "partials" the partials
    `eval_pdf_with_partials` always returns, and "metallic" and "normal"
    with it add theirs.

    The half-vector terms both values read come from `_half_terms`: the
    kernel forms them, with the t and m its partials need, unless handed
    `terms`, so that two value views of the same lanes form them once.
    The value half builds f from those, `smith_g1`, `f0_of` and
    `fresnel_schlick`, and the pdf from those, `lobe_weights` and
    `diffuse_pdf`, so every view's f and pdf have the same bytes.  The
    derivative half reuses the intermediates those return (D's t, G1's k,
    F90's weight q) and forms again only alpha^2 and the lobe masses.
    """
    v, d, n, albedo, metallic, specular = (
        np.asarray(a, dtype=np.float64) for a in (v, d, n, albedo, metallic, specular))
    if terms is None:
        keep = ("t", "m") if "normal" in want else ("t",) if "partials" in want else ()
        terms = _half_terms(v, d, n, roughness, keep)
    alpha, cos_nd, up, cos_nm, cos_vm, D, t, m = terms
    out = {}
    if "f" in want:
        cos_nv = dot(n, v)
        (g1v, kv), (g1d, kd) = smith_g1(cos_nv, alpha), smith_g1(cos_nd, alpha)
        G = g1v * g1d
        denom = np.maximum(4.0 * cos_nv * cos_nd, 1e-12)
        sc = specular * D * G / denom
        f0 = f0_of(albedo, metallic)
        fres, q = fresnel_schlick(cos_vm, f0)
        one_minus_m = (1.0 - metallic)[..., None]
        out["f"] = np.where(up[..., None], one_minus_m * albedo / np.pi
                            + fres * sc[..., None], 0.0)
    if "pdf" in want:
        wd, ws = lobe_weights(albedo, metallic, specular)
        pd = diffuse_pdf(cos_nd)
        ps = np.where(up, D * np.maximum(cos_nm, 0.0) / (4.0 * cos_vm), 0.0)
        out["pdf"] = np.where(up, wd * pd + ws * ps, 0.0)
    if "partials" not in want:
        return out

    a2 = alpha * alpha
    pi_t3 = np.pi * t ** 3
    face = cos_nm > 0
    dD_dalpha = np.where(face, (2.0 * alpha * t - 4.0 * alpha * a2 * cos_nm * cos_nm)
                         / pi_t3, 0.0)
    # the clamp is the identity where it passes the derivative
    rough = np.asarray(roughness, dtype=np.float64)
    dalpha_dR = np.where((rough >= ROUGHNESS_FLOOR) & (rough <= 1.0), 2.0 * rough, 0.0)

    def dg1(c, k):
        """G1's partials at cosine c: by alpha and, for the normal, by c."""
        pos = c > 0
        ck2 = (c + k) ** 2
        dg_da = np.where(pos, -2.0 * c / ck2 * (alpha * (1.0 - c * c) / k), 0.0)
        if "normal" not in want:
            return dg_da, None
        dk_dc = (1.0 - a2) * c / k
        return dg_da, np.where(pos, (2.0 * (c + k) - 2.0 * c * (1.0 + dk_dc)) / ck2, 0.0)

    dg1v_da, dg1v_dcv = dg1(cos_nv, kv)
    dg1d_da, dg1d_dcd = dg1(cos_nd, kd)
    dsc_dalpha = specular * (dD_dalpha * G + D * (dg1v_da * g1d + g1v * dg1d_da)) / denom

    # dF/dF0 = (1-q) + 50 q inside the F90 clamp; the clamp term is formed
    # only where some F0 lies inside it (x + 0 is x for the 1 - q >= 0 here)
    df_df0 = np.broadcast_to((1.0 - q)[..., None], fres.shape)
    clamped = (f0 > 0) & (f0 < 0.02)
    if np.any(clamped):
        df_df0 = df_df0 + np.where(clamped, 50.0 * q[..., None], 0.0)
    upc = up[..., None]

    def like_fres(a, b):
        """a * b stored in fres's layout.  Where every operand is stride 0
        along the component axis (a per-pixel vector of constants, a
        broadcast per-lane scalar), NumPy would keep the component
        innermost (README, "The lane layout")."""
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        return np.multiply(a, b, out=np.empty_like(fres, shape=shape))

    out["df_dA"] = np.where(upc, one_minus_m / np.pi
                            + like_fres(metallic[..., None], df_df0) * sc[..., None], 0.0)
    out["df_dR"] = np.where(upc, fres * (dsc_dalpha * dalpha_dR)[..., None], 0.0)

    # d(wd/s)/dx = (dwd*ws_raw - wd_raw*dws)/s^2, with s = wd_raw + ws_raw
    wd_raw, ws_raw, s, deg = _lobe_masses(albedo, metallic, specular)
    s2 = s * s
    dwd_dA = np.where(deg[..., None], 0.0,
                      one_minus_m * REC709 * ws_raw[..., None] / s2[..., None])
    dps_dalpha = np.where(face & up, dD_dalpha * cos_nm / (4.0 * cos_vm), 0.0)
    out["dpdf_dA"] = like_fres(dwd_dA, (pd - ps)[..., None])
    out["dpdf_dR"] = ws * dps_dalpha * dalpha_dR
    if "metallic" in want:
        out["df_dM"] = np.where(upc, -albedo / np.pi
                                + (albedo - 0.04) * df_df0 * sc[..., None], 0.0)
        dwd_dM = np.where(deg, 0.0, (-luminance(albedo) * ws_raw
                                     - wd_raw * (0.96 * specular)) / s2)
        out["dpdf_dM"] = dwd_dM * (pd - ps)
    if "normal" in want:
        # n enters via cos_nv, cos_nd, cos_nm
        live = 4.0 * cos_nv * cos_nd > 1e-12
        dD_dcnm = np.where(face, -4.0 * a2 * cos_nm * (a2 - 1.0) / pi_t3, 0.0)
        dsc_dcv = np.where(live, specular * D * (dg1v_dcv * g1d) / denom
                           - sc / cos_nv, 0.0)
        dsc_dcd = np.where(live, specular * D * (g1v * dg1d_dcd) / denom
                           - sc / cos_nd, 0.0)
        dsc_dcm = specular * dD_dcnm * G / denom
        dsc_dn = dsc_dcv[..., None] * v + dsc_dcd[..., None] * d + dsc_dcm[..., None] * m
        out["fres"] = fres
        out["dsc_dn"] = np.where(upc, dsc_dn, 0.0)
        dps_dn = np.where((face & up)[..., None],
                          ((dD_dcnm * cos_nm + D) / (4.0 * cos_vm))[..., None] * m, 0.0)
        out["dpdf_dn"] = ((wd * np.where(up, 1.0 / np.pi, 0.0))[..., None] * d
                          + ws[..., None] * dps_dn)
    return out
