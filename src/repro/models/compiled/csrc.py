"""Generated-C provider: emit, compile, and bind the LBM kernels.

The kernels are the scalar form of the reference NumPy bodies in
:mod:`repro.core.kernels` (collide), :mod:`repro.lbm.trt` /
:mod:`repro.lbm.mrt` (operator variants) and the fused gather of
:class:`repro.lbm.stream.StepPlan`.  The source is *static* — the lattice
size ``q``, the operator, and all rates arrive at call time through a
parameter struct and table pointers — so one shared object serves every
configuration and is compiled at most twice per host (exact and
``-ffast-math`` variants), cached under a content-hashed path.

Thread parallelism uses OpenMP when the trial compile accepts
``-fopenmp``; the parallel entry points simply run serially otherwise.
All index tables are ``int64`` and C-contiguous — the ABI contract the
K406 plan lint enforces and :class:`~.engine.CompiledKernels` guards at
every call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ...core.errors import BackendUnavailableError
from ...core.planmeta import TILE

__all__ = [
    "QMAX",
    "CACHE_ENV",
    "Params",
    "compiler_works",
    "openmp_supported",
    "load_kernels",
    "kernel_source",
]

#: Largest velocity set the stack-allocated per-node scratch supports
#: (D3Q27 is the biggest lattice the registry defines).
QMAX = 32

CACHE_ENV = "REPRO_CC_CACHE"

_SOURCE_TEMPLATE = r"""
#include <stdint.h>

#define QMAX %(qmax)d
#define NB %(nb)d   /* node block width (SIMD-friendly inner trip) */
#define TILE %(tile)d /* source nodes per one-pass stage (a multiple of NB) */

typedef struct {
    int64_t q;
    int64_t num_local;
    int64_t op;          /* 0 bgk, 1 trt, 2 mrt */
    int64_t has_force;
    double inv_cs2;
    double omega;        /* even / shear rate (1/tau) */
    double omega_minus;  /* TRT odd rate */
    double guo_pref;     /* BGK/MRT source prefactor; TRT even part */
    double guo_pref_minus;  /* TRT odd source prefactor */
    double fx, fy, fz;
} repro_params;

/* Velocity moments of a block of nb <= NB nodes whose population i
 * sits at fb[i * s + j] (row stride s: NB for a gathered scratch block,
 * num_local when read straight from f): density, force-shifted
 * velocity, |u|^2 and, under a force, u.F / cs^2.
 *
 * The loops run population-outer / node-inner so the stride-1 inner
 * trips vectorize; per element the operation ORDER is identical to the
 * scalar reference (accumulate rho over ascending i, then divide), so
 * the exact build stays bit-identical to the NumPy BGK kernels while
 * the blocked layout mirrors their array expressions.  ``q`` is a
 * parameter (not read from *p) so the D3Q19 dispatchers pass a
 * compile-time constant and the per-q loops unroll. */
static inline void block_moments(const double *fb, const int64_t s,
                                 const int64_t q, const int64_t nb,
                                 const repro_params *p,
                                 const double *cf, double *rho, double *ux,
                                 double *uy, double *uz, double *usq,
                                 double *uf)
{
    const double ic2 = p->inv_cs2;
    const double fx = p->fx, fy = p->fy, fz = p->fz;
    const int64_t force = p->has_force;
    for (int64_t j = 0; j < nb; j++) {
        rho[j] = 0.0;
        ux[j] = 0.0;
        uy[j] = 0.0;
        uz[j] = 0.0;
    }
    for (int64_t i = 0; i < q; i++) {
        const double c0 = cf[3 * i], c1 = cf[3 * i + 1],
                     c2 = cf[3 * i + 2];
        const double *fi = fb + i * s;
        for (int64_t j = 0; j < nb; j++) {
            rho[j] += fi[j];
            ux[j] += c0 * fi[j];
            uy[j] += c1 * fi[j];
            uz[j] += c2 * fi[j];
        }
    }
    for (int64_t j = 0; j < nb; j++) {
        double mx = ux[j], my = uy[j], mz = uz[j];
        if (force) {
            mx += 0.5 * fx;
            my += 0.5 * fy;
            mz += 0.5 * fz;
        }
        ux[j] = mx / rho[j];
        uy[j] = my / rho[j];
        uz[j] = mz / rho[j];
        usq[j] = ux[j] * ux[j] + uy[j] * uy[j] + uz[j] * uz[j];
        uf[j] = force ? (ux[j] * fx + uy[j] * fy + uz[j] * fz) * ic2 : 0.0;
    }
}

/* BGK: relax the block at fin (row stride sin) toward equilibrium into
 * fout (row stride sout), one population row at a time, with feq
 * computed inline and the Guo source only under a force; fout == fin
 * with sout == sin relaxes in place.
 * The per-element expressions are the reference's, so the exact build
 * stays bit-identical to NumPy with and without a force.  The force test
 * sits outside two node loops rather than inside one: the branch-free
 * loops measured 1-5 ns/node faster on D3Q19. */
static inline void bgk_block(const double *fin, const int64_t sin,
                             double *fout, const int64_t sout,
                             const int64_t q, const int64_t nb,
                             const repro_params *p, const double *cf,
                             const double *w)
{
    const double ic2 = p->inv_cs2, omega = p->omega, gp = p->guo_pref;
    const double fx = p->fx, fy = p->fy, fz = p->fz;
    const int64_t force = p->has_force;
    double rho[NB], ux[NB], uy[NB], uz[NB], usq[NB], uf[NB];
    block_moments(fin, sin, q, nb, p, cf, rho, ux, uy, uz, usq, uf);
    for (int64_t i = 0; i < q; i++) {
        const double c0 = cf[3 * i], c1 = cf[3 * i + 1],
                     c2 = cf[3 * i + 2];
        const double wi = w[i];
        const double *fi = fin + i * sin;
        double *fo = fout + i * sout;
        if (force) {
            const double cfq = c0 * fx + c1 * fy + c2 * fz;
            for (int64_t j = 0; j < nb; j++) {
                const double cu = c0 * ux[j] + c1 * uy[j] + c2 * uz[j];
                const double feq = wi * rho[j] *
                                   (1.0 + ic2 * cu +
                                    0.5 * ic2 * ic2 * cu * cu -
                                    0.5 * ic2 * usq[j]);
                const double src =
                    wi * (cu * ic2 * ic2 * cfq + cfq * ic2 - uf[j]);
                fo[j] = fi[j] + omega * (feq - fi[j]) + gp * src;
            }
        } else {
            for (int64_t j = 0; j < nb; j++) {
                const double cu = c0 * ux[j] + c1 * uy[j] + c2 * uz[j];
                const double feq = wi * rho[j] *
                                   (1.0 + ic2 * cu +
                                    0.5 * ic2 * ic2 * cu * cu -
                                    0.5 * ic2 * usq[j]);
                fo[j] = fi[j] + omega * (feq - fi[j]);
            }
        }
    }
}

/* TRT and MRT: stage feq and the Guo source for the whole block, then
 * relax through the operator's even/odd or moment-space form; strides
 * and aliasing as bgk_block's. */
static inline void trt_mrt_block(const double *fin, const int64_t sin,
                                 double *fout, const int64_t sout,
                                 const int64_t q, const int64_t nb,
                                 const repro_params *p, const double *cf,
                                 const double *w, const int64_t *opp,
                                 const double *M, const double *Minv,
                                 const double *S)
{
    const double ic2 = p->inv_cs2;
    double rho[NB], ux[NB], uy[NB], uz[NB], usq[NB], uf[NB];
    double feq[QMAX][NB], src[QMAX][NB], out[QMAX][NB];
    block_moments(fin, sin, q, nb, p, cf, rho, ux, uy, uz, usq, uf);
    for (int64_t i = 0; i < q; i++) {
        const double c0 = cf[3 * i], c1 = cf[3 * i + 1],
                     c2 = cf[3 * i + 2];
        const double wi = w[i];
        const double cfq = c0 * p->fx + c1 * p->fy + c2 * p->fz;
        for (int64_t j = 0; j < nb; j++) {
            const double cu = c0 * ux[j] + c1 * uy[j] + c2 * uz[j];
            feq[i][j] = wi * rho[j] *
                        (1.0 + ic2 * cu + 0.5 * ic2 * ic2 * cu * cu -
                         0.5 * ic2 * usq[j]);
            src[i][j] = p->has_force
                            ? wi * (cu * ic2 * ic2 * cfq + cfq * ic2 -
                                    uf[j])
                            : 0.0;
        }
    }
    if (p->op == 1) { /* TRT */
        for (int64_t i = 0; i < q; i++) {
            const int64_t io = opp[i];
            const double *fi = fin + i * sin, *fo = fin + io * sin;
            for (int64_t j = 0; j < nb; j++) {
                const double even = 0.5 * (fi[j] + fo[j]);
                const double odd = 0.5 * (fi[j] - fo[j]);
                const double even_eq = 0.5 * (feq[i][j] + feq[io][j]);
                const double odd_eq = 0.5 * (feq[i][j] - feq[io][j]);
                double v = fi[j] - p->omega * (even - even_eq) -
                           p->omega_minus * (odd - odd_eq);
                if (p->has_force) {
                    const double s_even = 0.5 * (src[i][j] + src[io][j]);
                    const double s_odd = 0.5 * (src[i][j] - src[io][j]);
                    v += p->guo_pref * s_even + p->guo_pref_minus * s_odd;
                }
                out[i][j] = v;
            }
        }
    } else { /* MRT: relax in moment space, back-project */
        double mv[QMAX][NB];
        for (int64_t k = 0; k < q; k++) {
            double mval[NB], meq[NB];
            for (int64_t j = 0; j < nb; j++) {
                mval[j] = 0.0;
                meq[j] = 0.0;
            }
            for (int64_t i = 0; i < q; i++) {
                const double mki = M[k * q + i];
                for (int64_t j = 0; j < nb; j++) {
                    mval[j] += mki * fin[i * sin + j];
                    meq[j] += mki * feq[i][j];
                }
            }
            for (int64_t j = 0; j < nb; j++)
                mv[k][j] = mval[j] - S[k] * (mval[j] - meq[j]);
        }
        for (int64_t i = 0; i < q; i++) {
            double v[NB];
            for (int64_t j = 0; j < nb; j++)
                v[j] = 0.0;
            for (int64_t k = 0; k < q; k++) {
                const double mik = Minv[i * q + k];
                for (int64_t j = 0; j < nb; j++)
                    v[j] += mik * mv[k][j];
            }
            for (int64_t j = 0; j < nb; j++)
                out[i][j] = v[j] + p->guo_pref * src[i][j];
        }
    }
    for (int64_t i = 0; i < q; i++)
        for (int64_t j = 0; j < nb; j++)
            fout[i * sout + j] = out[i][j];
}

/* The one collide body of every tile: BGK's own, or TRT/MRT's. */
static inline void collide_block(const double *fin, const int64_t sin,
                                 double *fout, const int64_t sout,
                                 const int64_t q, const int64_t nb,
                                 const repro_params *p, const double *cf,
                                 const double *w, const int64_t *opp,
                                 const double *M, const double *Minv,
                                 const double *S)
{
    if (p->op == 0)
        bgk_block(fin, sin, fout, sout, q, nb, p, cf, w);
    else
        trt_mrt_block(fin, sin, fout, sout, q, nb, p, cf, w, opp, M, Minv,
                      S);
}

/* Load, collide and store the nb <= NB nodes starting at node0. */
static inline void collide_tile(double *f, const int64_t node0,
                                const int64_t nb, const repro_params *p,
                                const int64_t q, const double *cf,
                                const double *w, const int64_t *opp,
                                const double *M, const double *Minv,
                                const double *S)
{
    const int64_t nl = p->num_local;
    double fb[QMAX][NB];
    for (int64_t i = 0; i < q; i++)
        for (int64_t j = 0; j < nb; j++)
            fb[i][j] = f[i * nl + node0 + j];
    collide_block(&fb[0][0], NB, &fb[0][0], NB, q, nb, p, cf, w, opp, M,
                  Minv, S);
    for (int64_t i = 0; i < q; i++)
        for (int64_t j = 0; j < nb; j++)
            f[i * nl + node0 + j] = fb[i][j];
}

/* Full blocks pass the compile-time NB, so every `j < nb` loop of the
 * inlined body gets a fixed-width vector trip; only the one tail block
 * keeps the runtime count.  Same body, same per-element operation order. */
static inline void collide_loop(double *f, int64_t n_nodes,
                                const repro_params *p, const int64_t q,
                                const double *cf, const double *w,
                                const int64_t *opp, const double *M,
                                const double *Minv, const double *S,
                                int64_t par)
{
    const int64_t nfull = n_nodes / NB;
    #pragma omp parallel for schedule(static) if (par)
    for (int64_t b = 0; b < nfull; b++)
        collide_tile(f, b * NB, NB, p, q, cf, w, opp, M, Minv, S);
    if (n_nodes > nfull * NB)
        collide_tile(f, nfull * NB, n_nodes - nfull * NB, p, q, cf, w, opp,
                     M, Minv, S);
}

/* Collide the prefix [0, n_nodes) of f[q, num_local], in place.  The
 * D3Q19 case dispatches to a constant-q clone of the loop so the per-q
 * loops unroll. */
void repro_collide(double *f, int64_t n_nodes, const repro_params *p,
                   const double *cf, const double *w, const int64_t *opp,
                   const double *M, const double *Minv, const double *S,
                   int64_t par)
{
    if (p->q == 19)
        collide_loop(f, n_nodes, p, 19, cf, w, opp, M, Minv, S, par);
    else
        collide_loop(f, n_nodes, p, p->q, cf, w, opp, M, Minv, S, par);
}

/* Pressure outlet: reset each listed node (distinct columns of
 * f[q, num_local], any order) to the equilibrium at density rho0 and
 * the node's own velocity.  The scalar form of PressureOutlet.apply. */
static inline void outlet_loop(double *f, const int64_t *nodes,
                               int64_t n_nodes, double rho0,
                               const repro_params *p, const int64_t q,
                               const double *cf, const double *w)
{
    const int64_t nl = p->num_local;
    const double ic2 = p->inv_cs2;
    for (int64_t k = 0; k < n_nodes; k++) {
        double *fn = f + nodes[k];
        double rho = 0.0, mx = 0.0, my = 0.0, mz = 0.0;
        for (int64_t i = 0; i < q; i++) {
            const double fi = fn[i * nl];
            rho += fi;
            mx += cf[3 * i] * fi;
            my += cf[3 * i + 1] * fi;
            mz += cf[3 * i + 2] * fi;
        }
        const double ux = mx / rho, uy = my / rho, uz = mz / rho;
        const double usq = ux * ux + uy * uy + uz * uz;
        for (int64_t i = 0; i < q; i++) {
            const double cu =
                cf[3 * i] * ux + cf[3 * i + 1] * uy + cf[3 * i + 2] * uz;
            fn[i * nl] = w[i] * rho0 *
                         (1.0 + ic2 * cu + 0.5 * ic2 * ic2 * cu * cu -
                          0.5 * ic2 * usq);
        }
    }
}

void repro_outlet(double *f, const int64_t *nodes, int64_t n_nodes,
                  double rho0, const repro_params *p, const double *cf,
                  const double *w)
{
    if (p->q == 19)
        outlet_loop(f, nodes, n_nodes, rho0, p, 19, cf, w);
    else
        outlet_loop(f, nodes, n_nodes, rho0, p, p->q, cf, w);
}

/* Fused streaming + bounce-back as run-length copies: run r moves
 * lens[r] consecutive doubles from fsrc + heads[2r+1] to
 * fdst + heads[2r].  On a compact fluid numbering the links are
 * overwhelmingly consecutive, so the index stream shrinks from two
 * int64 per link to three per run. */
void repro_stream(const double *restrict fsrc, double *restrict fdst,
                  const int64_t *heads, const int64_t *lens,
                  int64_t n_runs, int64_t par)
{
    #pragma omp parallel for schedule(static) if (par)
    for (int64_t r = 0; r < n_runs; r++) {
        const double *s = fsrc + heads[2 * r + 1];
        double *d = fdst + heads[2 * r];
        const int64_t len = lens[r];
        for (int64_t j = 0; j < len; j++)
            d[j] = s[j];
    }
}

/* One pass at the byte price: collide tile t — source nodes
 * [t * TILE, t * TILE + width) — from f into a q x TILE stage on the
 * stack, then copy every run filed under the tile from the stage into
 * fdst.  Run r copies lens[r] doubles from stage + heads[2r+1] (a stage
 * offset, population * TILE + node - t * TILE) to fdst + heads[2r];
 * tile_ptr[t] .. tile_ptr[t + 1] are the tile's runs.  f is read once
 * and fdst written once: the stage stays in cache between the two. */
static inline void collide_stream_tile(const double *f, double *fdst,
                                       const int64_t t, const int64_t n,
                                       const int64_t *tile_ptr,
                                       const int64_t *heads,
                                       const int64_t *lens,
                                       const repro_params *p, const int64_t q,
                                       const double *cf, const double *w,
                                       const int64_t *opp, const double *M,
                                       const double *Minv, const double *S)
{
    const int64_t nl = p->num_local;
    const int64_t node0 = t * TILE;
    const int64_t width = n - node0 < TILE ? n - node0 : TILE;
    double stage[QMAX * TILE];
    int64_t j = 0;
    for (; j + NB <= width; j += NB)
        collide_block(f + node0 + j, nl, stage + j, TILE, q, NB, p, cf, w,
                      opp, M, Minv, S);
    if (j < width)
        collide_block(f + node0 + j, nl, stage + j, TILE, q, width - j, p,
                      cf, w, opp, M, Minv, S);
    for (int64_t r = tile_ptr[t]; r < tile_ptr[t + 1]; r++) {
        const double *s = stage + heads[2 * r + 1];
        double *d = fdst + heads[2 * r];
        const int64_t len = lens[r];
        for (int64_t k = 0; k < len; k++)
            d[k] = s[k];
    }
}

static inline void collide_stream_loop(const double *f, double *fdst,
                                       int64_t n, const int64_t *tile_ptr,
                                       const int64_t *heads,
                                       const int64_t *lens,
                                       const repro_params *p, const int64_t q,
                                       const double *cf, const double *w,
                                       const int64_t *opp, const double *M,
                                       const double *Minv, const double *S,
                                       int64_t par)
{
    const int64_t n_tiles = (n + TILE - 1) / TILE;
    #pragma omp parallel for schedule(static) if (par)
    for (int64_t t = 0; t < n_tiles; t++)
        collide_stream_tile(f, fdst, t, n, tile_ptr, heads, lens, p, q, cf,
                            w, opp, M, Minv, S);
}

/* Collide every column of f[q, n] and stream the result into fdst over
 * a tile table, in one sweep. */
void repro_collide_stream(const double *f, double *fdst, int64_t n,
                          const int64_t *tile_ptr, const int64_t *heads,
                          const int64_t *lens, const repro_params *p,
                          const double *cf, const double *w,
                          const int64_t *opp, const double *M,
                          const double *Minv, const double *S, int64_t par)
{
    if (p->q == 19)
        collide_stream_loop(f, fdst, n, tile_ptr, heads, lens, p, 19, cf, w,
                            opp, M, Minv, S, par);
    else
        collide_stream_loop(f, fdst, n, tile_ptr, heads, lens, p, p->q, cf,
                            w, opp, M, Minv, S, par);
}

/* Single-pass stream + collide: gather the q populations arriving at
 * each destination block, collide in cache-resident scratch, scatter to
 * the prefix of the double buffer.  One read + one write per population
 * — the paper's one-pass byte accounting. */
static inline void fused_step_tile(const double *fsrc, double *fdst,
                                   const int64_t *flat_src, int64_t n_upd,
                                   const int64_t node0, const int64_t nb,
                                   const repro_params *p, const int64_t q,
                                   const double *cf, const double *w,
                                   const int64_t *opp, const double *M,
                                   const double *Minv, const double *S)
{
    const int64_t nl = p->num_local;
    double fb[QMAX][NB];
    for (int64_t i = 0; i < q; i++) {
        const int64_t *row = flat_src + i * n_upd + node0;
        for (int64_t j = 0; j < nb; j++)
            fb[i][j] = fsrc[row[j]];
    }
    collide_block(&fb[0][0], NB, &fb[0][0], NB, q, nb, p, cf, w, opp, M,
                  Minv, S);
    for (int64_t i = 0; i < q; i++)
        for (int64_t j = 0; j < nb; j++)
            fdst[i * nl + node0 + j] = fb[i][j];
}

static inline void fused_step_loop(const double *fsrc, double *fdst,
                                   const int64_t *flat_src, int64_t n_upd,
                                   const repro_params *p, const int64_t q,
                                   const double *cf, const double *w,
                                   const int64_t *opp, const double *M,
                                   const double *Minv, const double *S,
                                   int64_t par)
{
    const int64_t nfull = n_upd / NB;
    #pragma omp parallel for schedule(static) if (par)
    for (int64_t b = 0; b < nfull; b++)
        fused_step_tile(fsrc, fdst, flat_src, n_upd, b * NB, NB, p, q, cf,
                        w, opp, M, Minv, S);
    if (n_upd > nfull * NB)
        fused_step_tile(fsrc, fdst, flat_src, n_upd, nfull * NB,
                        n_upd - nfull * NB, p, q, cf, w, opp, M, Minv, S);
}

void repro_fused_step(const double *fsrc, double *fdst,
                      const int64_t *flat_src, int64_t n_upd,
                      const repro_params *p, const double *cf,
                      const double *w, const int64_t *opp, const double *M,
                      const double *Minv, const double *S, int64_t par)
{
    if (p->q == 19)
        fused_step_loop(fsrc, fdst, flat_src, n_upd, p, 19, cf, w, opp,
                        M, Minv, S, par);
    else
        fused_step_loop(fsrc, fdst, flat_src, n_upd, p, p->q, cf, w,
                        opp, M, Minv, S, par);
}
"""


#: Node-block width of the cache-resident collide scratch.
BLOCK = 32


def kernel_source() -> str:
    """The C translation unit for the kernel library."""
    return _SOURCE_TEMPLATE % {"qmax": QMAX, "nb": BLOCK, "tile": TILE}


class Params(ctypes.Structure):
    """Mirror of the C ``repro_params`` struct (all fields 8 bytes)."""

    _fields_ = [
        ("q", ctypes.c_int64),
        ("num_local", ctypes.c_int64),
        ("op", ctypes.c_int64),
        ("has_force", ctypes.c_int64),
        ("inv_cs2", ctypes.c_double),
        ("omega", ctypes.c_double),
        ("omega_minus", ctypes.c_double),
        ("guo_pref", ctypes.c_double),
        ("guo_pref_minus", ctypes.c_double),
        ("fx", ctypes.c_double),
        ("fy", ctypes.c_double),
        ("fz", ctypes.c_double),
    ]


_lock = threading.Lock()
_compiler_cache: Dict[str, Optional[Tuple[str, bool]]] = {}
_lib_cache: Dict[Tuple[str, bool], "KernelLib"] = {}


def _candidate_compilers():
    env = os.environ.get("CC")
    seen = []
    for name in ([env] if env else []) + ["cc", "gcc", "clang"]:
        path = shutil.which(name)
        if path and path not in seen:
            seen.append(path)
    return seen


def _cache_dir() -> str:
    root = os.environ.get(CACHE_ENV)
    if not root:
        root = os.path.join(
            tempfile.gettempdir(), f"repro-cc-cache-{os.getuid()}"
        )
    os.makedirs(root, exist_ok=True)
    return root


#: How an object becomes the shared library: ``-shared`` plus only the
#: runtime flags.  Linking with ``-ffast-math`` would pull in
#: ``crtfastmath.o``, whose constructor sets flush-to-zero and
#: denormals-are-zero for the whole process when the library loads.
#: Part of the cache tag, so a library linked the old way is never loaded.
LINK_RECIPE = "compile -c, then link -shared [-fopenmp]"


def _try_compile(cc: str, src_path: str, out_path: str, flags) -> bool:
    """Compile ``src_path`` with ``flags``, then link ``out_path`` per
    :data:`LINK_RECIPE`; concurrent processes race benignly to an
    identical file (built under a temp name, then renamed)."""
    tmp_path = f"{out_path}.{os.getpid()}.tmp"
    obj_path = f"{tmp_path}.o"
    link = [flag for flag in flags if flag == "-fopenmp"]
    try:
        for cmd in (
            [cc, "-O3", "-fPIC", *flags, "-c", src_path, "-o", obj_path],
            [cc, "-shared", *link, obj_path, "-o", tmp_path],
        ):
            proc = subprocess.run(
                cmd,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=120,
                check=False,
            )
            if proc.returncode != 0:
                return False
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(obj_path):
            os.remove(obj_path)
    if not os.path.exists(tmp_path):
        return False
    os.replace(tmp_path, out_path)
    return True


def _detect_compiler() -> Optional[Tuple[str, bool]]:
    """Find ``(compiler, openmp_ok)`` by trial-compiling a tiny kernel.

    The probe objects persist in the cache directory under a name keyed
    by the compiler's resolved path, so only the first process on a host
    spawns the trial compiles; later ones find ``probe-<hash>.so`` /
    ``-omp.so`` and spawn nothing.  A compiler that no longer resolves
    is not a candidate, whatever the cache holds.
    """
    cache = _cache_dir()
    src_path = os.path.join(cache, "probe.c")

    def probe(cc: str, out_path: str, flags) -> bool:
        if os.path.exists(out_path):
            return True
        with open(src_path, "w", encoding="utf-8") as fh:
            fh.write("int repro_probe(int x) { return x + 1; }\n")
        return _try_compile(cc, src_path, out_path, flags)

    for cc in _candidate_compilers():
        base = os.path.join(
            cache, f"probe-{hashlib.sha256(cc.encode()).hexdigest()[:8]}"
        )
        if probe(cc, base + ".so", []):
            return cc, probe(cc, base + "-omp.so", ["-fopenmp"])
    return None


def _compiler_info() -> Optional[Tuple[str, bool]]:
    key = "default"
    with _lock:
        if key not in _compiler_cache:
            _compiler_cache[key] = _detect_compiler()
        return _compiler_cache[key]


def compiler_works() -> bool:
    """Whether a host C compiler produced a loadable shared object."""
    return _compiler_info() is not None


def openmp_supported() -> bool:
    info = _compiler_info()
    return bool(info and info[1])


def reset_compiler_cache() -> None:
    with _lock:
        _compiler_cache.clear()
        _lib_cache.clear()


class KernelLib:
    """ctypes bindings over one compiled variant of the kernel library."""

    def __init__(self, lib: ctypes.CDLL, fastmath: bool, openmp: bool):
        self._lib = lib
        self.fastmath = fastmath
        self.openmp = openmp
        dbl = ctypes.POINTER(ctypes.c_double)
        i64 = ctypes.POINTER(ctypes.c_int64)
        par = ctypes.POINTER(Params)
        lib.repro_collide.restype = None
        lib.repro_collide.argtypes = [
            dbl, ctypes.c_int64, par, dbl, dbl, i64, dbl, dbl, dbl,
            ctypes.c_int64,
        ]
        lib.repro_stream.restype = None
        lib.repro_stream.argtypes = [
            dbl, dbl, i64, i64, ctypes.c_int64, ctypes.c_int64,
        ]
        lib.repro_outlet.restype = None
        lib.repro_outlet.argtypes = [
            dbl, i64, ctypes.c_int64, ctypes.c_double, par, dbl, dbl,
        ]
        lib.repro_collide_stream.restype = None
        lib.repro_collide_stream.argtypes = [
            dbl, dbl, ctypes.c_int64, i64, i64, i64, par, dbl, dbl, i64, dbl,
            dbl, dbl, ctypes.c_int64,
        ]
        lib.repro_fused_step.restype = None
        lib.repro_fused_step.argtypes = [
            dbl, dbl, i64, ctypes.c_int64, par, dbl, dbl, i64, dbl, dbl,
            dbl, ctypes.c_int64,
        ]

    @staticmethod
    def _dbl(arr: np.ndarray):
        return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_double))

    @staticmethod
    def _i64(arr: np.ndarray):
        return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))

    def table_pointers(self, cf, w, opp, M, Minv, S) -> tuple:
        """The six constant-table arguments of ``collide``,
        ``collide_stream`` and ``fused_step``, derived once per engine;
        the caller keeps the arrays alive."""
        return (
            self._dbl(cf), self._dbl(w), self._i64(opp), self._dbl(M),
            self._dbl(Minv), self._dbl(S),
        )

    def collide(self, f, n_nodes, params, tables, par: bool) -> None:
        self._lib.repro_collide(
            self._dbl(f), n_nodes, ctypes.byref(params), *tables, int(par)
        )

    def stream(self, f_src, f_dst, heads, lens, par: bool) -> None:
        self._lib.repro_stream(
            self._dbl(f_src), self._dbl(f_dst), self._i64(heads),
            self._i64(lens), lens.size, int(par),
        )

    def collide_stream(
        self, f, f_dst, n_nodes, tile_table, params, tables, par: bool
    ) -> None:
        tile_ptr, heads, lens = tile_table
        self._lib.repro_collide_stream(
            self._dbl(f), self._dbl(f_dst), n_nodes, self._i64(tile_ptr),
            self._i64(heads), self._i64(lens), ctypes.byref(params), *tables,
            int(par),
        )

    def outlet(self, f, nodes, rho0: float, params, tables) -> None:
        self._lib.repro_outlet(
            self._dbl(f), self._i64(nodes), nodes.size, rho0,
            ctypes.byref(params), tables[0], tables[1],
        )

    def fused_step(
        self, f_src, f_dst, flat_src, n_upd, params, tables, par: bool
    ) -> None:
        self._lib.repro_fused_step(
            self._dbl(f_src), self._dbl(f_dst), self._i64(flat_src), n_upd,
            ctypes.byref(params), *tables, int(par),
        )


def load_kernels(fastmath: bool) -> KernelLib:
    """Compile (or reuse the cached build of) one library variant."""
    info = _compiler_info()
    if info is None:
        raise BackendUnavailableError(
            "no working C compiler found for the compiled kernels"
        )
    cc, openmp = info
    key = (cc, bool(fastmath))
    with _lock:
        lib = _lib_cache.get(key)
        if lib is not None:
            return lib
        source = kernel_source()
        # exact variant: forbid FMA contraction so scalar results match
        # the reference NumPy kernels bit for bit on BGK
        base = (["-fopenmp"] if openmp else []) + (
            ["-ffast-math"] if fastmath else ["-ffp-contract=off"]
        )
        # host tuning is probed (cross/exotic toolchains may lack it)
        attempts = [base + ["-march=native", "-funroll-loops"], base]
        cache = _cache_dir()

        def build(flags, out_path: str) -> bool:
            src_path = out_path[: -len(".so")] + ".c"
            with open(src_path, "w", encoding="utf-8") as fh:
                fh.write(source)
            return _try_compile(cc, src_path, out_path, flags)

        for flags in attempts:
            tag = hashlib.sha256(
                "\x00".join([source, cc, " ".join(flags), LINK_RECIPE]).encode()
            ).hexdigest()[:16]
            so_path = os.path.join(cache, f"reprolbm-{tag}.so")
            if os.path.exists(so_path) or build(flags, so_path):
                break
        else:
            raise BackendUnavailableError(
                f"C compiler {cc!r} failed to build the kernel "
                "library (it passed the probe compile; check "
                f"{CACHE_ENV} permissions)"
            )
        try:
            cdll = ctypes.CDLL(so_path)
        except OSError:
            # a truncated or corrupt cached build: rebuild this tag once
            if not build(flags, so_path):
                raise BackendUnavailableError(
                    f"cached kernel library {so_path} does not load and "
                    f"C compiler {cc!r} failed to rebuild it"
                ) from None
            try:
                cdll = ctypes.CDLL(so_path)
            except OSError as exc:
                raise BackendUnavailableError(
                    f"rebuilt kernel library {so_path} does not load: {exc}"
                ) from exc
        lib = KernelLib(cdll, fastmath, openmp)
        _lib_cache[key] = lib
        return lib
