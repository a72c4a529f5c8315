"""Native (C via ctypes) kernel backend.

A line-for-line translation of :mod:`._loops` compiled on demand with the
system C compiler (``$CC`` or ``cc``).  Compilation happens once per
source revision: the shared object is cached under
``$REPRO_NATIVE_CACHE`` (default ``~/.cache/repro-kernels``) keyed by a
hash of the source *and* the compiler identity (``cc --version``), so
neither a loop edit nor a compiler upgrade can ever load a stale shared
object.

No ``-ffast-math``: the kernels run strict IEEE float64 in the same
operation order as the other backends, keeping placements and loads
bit-identical (asserted by the cross-backend equivalence tests).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

__all__ = ["load_native_kernels", "NativeBuildError"]

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

#define PRUNE_MARGIN 1e-9  /* _loops.PRUNE_MARGIN */

int64_t ff_fill(int64_t J, int64_t H, int64_t NB, int64_t D,
                const double *item_agg, const uint8_t *elem_ok,
                const int64_t *item_order, const int64_t *bin_order,
                double *loads, double *load_sum,
                const double *cap_tol, int64_t *assignment,
                int64_t prune)
{
    int64_t *pending = malloc((size_t)J * sizeof(int64_t));
    double *load = malloc((size_t)D * 4 * sizeof(double));
    int64_t npend = J;
    if (!pending || !load) { free(pending); free(load); return -1; }
    double *pend = load + D, *room = load + 2*D, *margin = load + 3*D;
    for (int64_t i = 0; i < J; i++) pending[i] = item_order[i];
    for (int64_t d = 0; d < D; d++) pend[d] = 0.0;
    for (int64_t i = 0; i < J; i++)
        for (int64_t d = 0; d < D; d++) pend[d] += item_agg[pending[i]*D+d];
    for (int64_t d = 0; d < D; d++) room[d] = 0.0;
    for (int64_t bi = 0; bi < NB; bi++)
        for (int64_t d = 0; d < D; d++)
            room[d] += cap_tol[bin_order[bi]*D+d] - loads[bin_order[bi]*D+d];
    for (int64_t d = 0; d < D; d++) margin[d] = PRUNE_MARGIN * room[d];
    for (int64_t bi = 0; bi < NB; bi++) {
        if (npend == 0) break;
        int64_t h = bin_order[bi];
        if (prune) {
            for (int64_t d = 0; d < D; d++) {
                if (pend[d] > room[d] + margin[d]) {
                    free(pending);
                    free(load);
                    return npend;
                }
            }
            for (int64_t d = 0; d < D; d++)
                room[d] -= cap_tol[h*D+d] - loads[h*D+d];
        }
        for (int64_t d = 0; d < D; d++) load[d] = loads[h*D+d];
        int64_t ntaken = 0, nrest = 0;
        for (int64_t i = 0; i < npend; i++) {
            int64_t j = pending[i];
            int ok = elem_ok[j*H+h];
            if (ok) {
                for (int64_t d = 0; d < D; d++) {
                    if (load[d] + item_agg[j*D+d] > cap_tol[h*D+d]) {
                        ok = 0;
                        break;
                    }
                }
            }
            if (ok) {
                for (int64_t d = 0; d < D; d++) {
                    load[d] += item_agg[j*D+d];
                    pend[d] -= item_agg[j*D+d];
                }
                assignment[j] = h;
                ntaken++;
            } else {
                pending[nrest++] = j;
            }
        }
        if (ntaken > 0) {
            double s = 0.0;
            for (int64_t d = 0; d < D; d++) {
                loads[h*D+d] = load[d];
                s += load[d];
            }
            load_sum[h] = s;
        }
        npend = nrest;
    }
    free(pending);
    free(load);
    return npend;
}

int64_t bf_pack(int64_t J, int64_t H, int64_t D,
                const double *item_agg, const double *item_agg_sum,
                const uint8_t *elem_ok, const int64_t *item_order,
                double *loads, double *load_sum,
                const double *cap_tol, const double *bin_agg_sum,
                int64_t by_remaining, int64_t *assignment)
{
    for (int64_t ii = 0; ii < J; ii++) {
        int64_t j = item_order[ii];
        int64_t best_h = -1;
        double best_score = INFINITY;
        for (int64_t h = 0; h < H; h++) {
            if (!elem_ok[j*H+h]) continue;
            int ok = 1;
            for (int64_t d = 0; d < D; d++) {
                if (loads[h*D+d] + item_agg[j*D+d] > cap_tol[h*D+d]) {
                    ok = 0;
                    break;
                }
            }
            if (!ok) continue;
            double score = by_remaining ? bin_agg_sum[h] - load_sum[h]
                                        : -load_sum[h];
            if (score < best_score) {
                best_score = score;
                best_h = h;
            }
        }
        if (best_h < 0) return 0;
        for (int64_t d = 0; d < D; d++)
            loads[best_h*D+d] += item_agg[j*D+d];
        load_sum[best_h] += item_agg_sum[j];
        assignment[j] = best_h;
    }
    return 1;
}

int64_t pp_fill_2d(int64_t J, int64_t H, int64_t NB,
                   const double *item_agg, const uint8_t *elem_ok,
                   const int64_t *order0, const int64_t *order1,
                   const int64_t *bin_order,
                   double *loads, double *load_sum,
                   const double *cap_tol, const double *bin_agg,
                   int64_t by_remaining, int64_t *assignment,
                   int64_t prune)
{
    int64_t unplaced = 0;
    uint8_t *dead = malloc((size_t)J);
    if (!dead) return -1;
    double pend0 = 0.0, pend1 = 0.0;
    for (int64_t j = 0; j < J; j++) {
        if (assignment[j] < 0) {
            unplaced++;
            pend0 += item_agg[j*2+0];
            pend1 += item_agg[j*2+1];
        }
    }
    double room0 = 0.0, room1 = 0.0;
    for (int64_t bi = 0; bi < NB; bi++) {
        room0 += cap_tol[bin_order[bi]*2+0] - loads[bin_order[bi]*2+0];
        room1 += cap_tol[bin_order[bi]*2+1] - loads[bin_order[bi]*2+1];
    }
    double margin0 = PRUNE_MARGIN * room0, margin1 = PRUNE_MARGIN * room1;
    for (int64_t bi = 0; bi < NB; bi++) {
        if (unplaced == 0) break;
        int64_t h = bin_order[bi];
        if (prune) {
            if (pend0 > room0 + margin0 || pend1 > room1 + margin1) {
                free(dead);
                return unplaced;
            }
            room0 -= cap_tol[h*2+0] - loads[h*2+0];
            room1 -= cap_tol[h*2+1] - loads[h*2+1];
        }
        double l0 = loads[h*2+0], l1 = loads[h*2+1];
        double c0 = cap_tol[h*2+0], c1 = cap_tol[h*2+1];
        double b0 = 0.0, b1 = 0.0;
        if (by_remaining) { b0 = bin_agg[h*2+0]; b1 = bin_agg[h*2+1]; }
        double k0 = l0 - b0, k1 = l1 - b1;
        int64_t p0 = 0, p1 = 0, ntaken = 0;
        for (int64_t j = 0; j < J; j++) dead[j] = 0;
        for (;;) {
            int64_t sel = -1;
            if (k0 <= k1) {
                int64_t p = p0;
                while (p < J) {
                    int64_t j = order0[p];
                    if (assignment[j] >= 0 || dead[j]) { p++; continue; }
                    if (elem_ok[j*H+h]
                            && l0 + item_agg[j*2+0] <= c0
                            && l1 + item_agg[j*2+1] <= c1) {
                        sel = j;
                        break;
                    }
                    dead[j] = 1;
                    p++;
                }
                p0 = p;
            } else {
                int64_t p = p1;
                while (p < J) {
                    int64_t j = order1[p];
                    if (assignment[j] >= 0 || dead[j]) { p++; continue; }
                    if (elem_ok[j*H+h]
                            && l0 + item_agg[j*2+0] <= c0
                            && l1 + item_agg[j*2+1] <= c1) {
                        sel = j;
                        break;
                    }
                    dead[j] = 1;
                    p++;
                }
                p1 = p;
            }
            if (sel < 0) break;
            assignment[sel] = h;
            l0 += item_agg[sel*2+0];
            l1 += item_agg[sel*2+1];
            pend0 -= item_agg[sel*2+0];
            pend1 -= item_agg[sel*2+1];
            k0 = l0 - b0;
            k1 = l1 - b1;
            ntaken++;
            unplaced--;
            if (unplaced == 0) break;
        }
        if (ntaken > 0) {
            loads[h*2+0] = l0;
            loads[h*2+1] = l1;
            load_sum[h] = l0 + l1;
        }
    }
    free(dead);
    return unplaced;
}

int64_t pp_fill_general(int64_t J, int64_t H, int64_t NB, int64_t D,
                        int64_t w, int64_t choose_pack,
                        const double *item_agg, const double *item_agg_sum,
                        const uint8_t *elem_ok, const int64_t *item_dim_perm,
                        const int64_t *tie_rank, const int64_t *bin_order,
                        double *loads, double *load_sum,
                        const double *cap_tol, const double *bin_agg,
                        int64_t by_remaining, int64_t *assignment)
{
    int64_t unplaced = 0;
    int64_t *cand = malloc((size_t)J * sizeof(int64_t));
    uint8_t *dead = malloc((size_t)J);
    double *key = malloc((size_t)D * sizeof(double));
    int64_t *perm = malloc((size_t)D * sizeof(int64_t));
    int64_t *rank = malloc((size_t)D * sizeof(int64_t));
    int64_t *keys = malloc((size_t)w * sizeof(int64_t));
    if (!cand || !dead || !key || !perm || !rank || !keys) {
        free(cand); free(dead); free(key); free(perm); free(rank);
        free(keys);
        return -1;
    }
    for (int64_t j = 0; j < J; j++)
        if (assignment[j] < 0) unplaced++;
    for (int64_t bi = 0; bi < NB; bi++) {
        if (unplaced == 0) break;
        int64_t h = bin_order[bi];
        int64_t K = 0;
        for (int64_t j = 0; j < J; j++) {
            if (assignment[j] >= 0 || !elem_ok[j*H+h]) continue;
            int fit = 1;
            for (int64_t d = 0; d < D; d++) {
                if (item_agg[j*D+d] > cap_tol[h*D+d] - loads[h*D+d]) {
                    fit = 0;
                    break;
                }
            }
            if (fit) {
                cand[K] = j;
                dead[K] = 0;
                K++;
            }
        }
        int64_t nlive = K;
        while (nlive > 0) {
            if (by_remaining) {
                for (int64_t d = 0; d < D; d++)
                    key[d] = -(bin_agg[h*D+d] - loads[h*D+d]);
            } else {
                for (int64_t d = 0; d < D; d++)
                    key[d] = loads[h*D+d];
            }
            for (int64_t d = 0; d < D; d++) perm[d] = d;
            for (int64_t a = 1; a < D; a++) {
                int64_t pj = perm[a];
                double kv = key[pj];
                int64_t b = a - 1;
                while (b >= 0 && key[perm[b]] > kv) {
                    perm[b+1] = perm[b];
                    b--;
                }
                perm[b+1] = pj;
            }
            for (int64_t d = 0; d < D; d++) rank[perm[d]] = d;
            int64_t sel = -1;
            int64_t best_code = 0;
            for (int64_t q = 0; q < K; q++) {
                if (dead[q]) continue;
                int64_t j = cand[q];
                for (int64_t c = 0; c < w; c++)
                    keys[c] = rank[item_dim_perm[j*D+c]];
                if (choose_pack && w > 1) {
                    for (int64_t a = 1; a < w; a++) {
                        int64_t kv = keys[a];
                        int64_t b = a - 1;
                        while (b >= 0 && keys[b] > kv) {
                            keys[b+1] = keys[b];
                            b--;
                        }
                        keys[b+1] = kv;
                    }
                }
                int64_t code = keys[0];
                for (int64_t c = 1; c < w; c++)
                    code = code * D + keys[c];
                code = code * (J + 1) + tie_rank[j];
                if (sel < 0 || code < best_code) {
                    best_code = code;
                    sel = q;
                }
            }
            if (sel < 0) break;
            int64_t j = cand[sel];
            for (int64_t d = 0; d < D; d++)
                loads[h*D+d] += item_agg[j*D+d];
            load_sum[h] += item_agg_sum[j];
            assignment[j] = h;
            dead[sel] = 1;
            nlive--;
            unplaced--;
            if (unplaced == 0) break;
            for (int64_t q = 0; q < K; q++) {
                if (dead[q]) continue;
                int64_t jj = cand[q];
                for (int64_t d = 0; d < D; d++) {
                    if (item_agg[jj*D+d] > cap_tol[h*D+d] - loads[h*D+d]) {
                        dead[q] = 1;
                        nlive--;
                        break;
                    }
                }
            }
        }
    }
    free(cand); free(dead); free(key); free(perm); free(rank); free(keys);
    return unplaced;
}

int64_t affine_fit_thresholds(int64_t J, int64_t H, int64_t D,
                              const double *req, const double *need,
                              const double *cap, double *out)
{
    for (int64_t j = 0; j < J; j++) {
        for (int64_t h = 0; h < H; h++) {
            double m = INFINITY;
            for (int64_t d = 0; d < D; d++) {
                double slack = cap[h*D+d] - req[j*D+d];
                double nd = need[j*D+d];
                double t;
                if (nd > 0) t = slack / nd;
                else if (slack >= 0) t = INFINITY;
                else t = -INFINITY;
                if (t < m) m = t;
            }
            out[j*H+h] = m;
        }
    }
    return 0;
}

int64_t batch_fit_thresholds(int64_t B, int64_t N, int64_t Hm, int64_t D,
                             const double *req, const double *need,
                             const double *cap, const int64_t *n_items,
                             const int64_t *n_bins, double *out)
{
    for (int64_t b = 0; b < B; b++) {
        int64_t J = n_items[b];
        int64_t H = n_bins[b];
        const double *breq = req + b*N*D;
        const double *bneed = need + b*N*D;
        const double *bcap = cap + b*Hm*D;
        double *bout = out + b*N*Hm;
        for (int64_t j = 0; j < J; j++) {
            for (int64_t h = 0; h < H; h++) {
                double m = INFINITY;
                for (int64_t d = 0; d < D; d++) {
                    double slack = bcap[h*D+d] - breq[j*D+d];
                    double nd = bneed[j*D+d];
                    double t;
                    if (nd > 0) t = slack / nd;
                    else if (slack >= 0) t = INFINITY;
                    else t = -INFINITY;
                    if (t < m) m = t;
                }
                bout[j*Hm+h] = m;
            }
        }
    }
    return 0;
}

int64_t incremental_best_fit(int64_t K, int64_t H, int64_t D,
                             const double *req_agg, const uint8_t *elem_fit,
                             double *loads, const double *agg,
                             const double *cap_tol, int64_t *out)
{
    int64_t placed = 0;
    for (int64_t i = 0; i < K; i++) {
        int64_t best_h = -1;
        double best_rem = INFINITY;
        for (int64_t h = 0; h < H; h++) {
            if (!elem_fit[i*H+h]) continue;
            int ok = 1;
            for (int64_t d = 0; d < D; d++) {
                if (loads[h*D+d] + req_agg[i*D+d] > cap_tol[h*D+d]) {
                    ok = 0;
                    break;
                }
            }
            if (!ok) continue;
            double rem = 0.0;
            for (int64_t d = 0; d < D; d++)
                rem += agg[h*D+d] - loads[h*D+d];
            if (rem < best_rem) {
                best_rem = rem;
                best_h = h;
            }
        }
        out[i] = best_h;
        if (best_h >= 0) {
            placed++;
            for (int64_t d = 0; d < D; d++)
                loads[best_h*D+d] += req_agg[i*D+d];
        }
    }
    return placed;
}

int64_t probe_scan(int64_t J, int64_t H, int64_t D, int64_t S,
                   const double *item_agg, const double *item_agg_sum,
                   const uint8_t *elem_ok, const double *cap_tol,
                   const double *bin_agg, const double *bin_agg_sum,
                   const int64_t *item_orders, const int64_t *tie_ranks,
                   const int64_t *bin_orders, const int64_t *item_dim_perm,
                   const int64_t *pp_order0, const int64_t *pp_order1,
                   const int64_t *st_packer, const int64_t *st_item,
                   const int64_t *st_bin, const int64_t *st_hetero,
                   const int64_t *st_w, const int64_t *st_choose,
                   const int64_t *st_cfg, const int64_t *scan,
                   double *loads, double *load_sum, int64_t *assignment)
{
    for (int64_t si = 0; si < S; si++) {
        int64_t s = scan[si];
        for (int64_t h = 0; h < H; h++) {
            load_sum[h] = 0.0;
            for (int64_t d = 0; d < D; d++) loads[h*D+d] = 0.0;
        }
        for (int64_t j = 0; j < J; j++) assignment[j] = -1;
        int64_t packer = st_packer[s];
        const int64_t *item_order = item_orders + st_item[s]*J;
        int64_t hetero = st_hetero[s];
        int64_t ok;
        if (packer == 0) {
            ok = ff_fill(J, H, H, D, item_agg, elem_ok, item_order,
                         bin_orders + st_bin[s]*H, loads, load_sum,
                         cap_tol, assignment, 1) == 0;
        } else if (packer == 1) {
            ok = bf_pack(J, H, D, item_agg, item_agg_sum, elem_ok,
                         item_order, loads, load_sum, cap_tol,
                         bin_agg_sum, hetero, assignment) == 1;
        } else if (D == 2) {
            ok = pp_fill_2d(J, H, H, item_agg, elem_ok,
                            pp_order0 + st_cfg[s]*J,
                            pp_order1 + st_cfg[s]*J,
                            bin_orders + st_bin[s]*H, loads, load_sum,
                            cap_tol, bin_agg, hetero, assignment, 1) == 0;
        } else {
            ok = pp_fill_general(J, H, H, D, st_w[s], st_choose[s],
                                 item_agg, item_agg_sum, elem_ok,
                                 item_dim_perm, tie_ranks + st_item[s]*J,
                                 bin_orders + st_bin[s]*H, loads,
                                 load_sum, cap_tol, bin_agg, hetero,
                                 assignment) == 0;
        }
        if (ok) return si;
    }
    return -1;
}
"""


class NativeBuildError(RuntimeError):
    """The native kernels could not be compiled or loaded."""


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-kernels")


_CC_IDENTITY: dict = {}


def _compiler_identity(cc: str) -> str:
    """Stable identity string for *cc* (path + first ``--version`` line).

    Part of the shared-object cache key: a compiler upgrade changes the
    version banner, so the stale ``.so`` built by the old compiler is
    never picked up.  Unresolvable compilers hash as ``unknown`` — the
    subsequent compile step reports the real error.
    """
    ident = _CC_IDENTITY.get(cc)
    if ident is None:
        try:
            proc = subprocess.run([cc, "--version"], capture_output=True,
                                  text=True, timeout=10)
            lines = (proc.stdout or proc.stderr).splitlines()
            ident = lines[0].strip() if lines else "unknown"
        except Exception:
            ident = "unknown"
        _CC_IDENTITY[cc] = ident
    return f"{cc}|{ident}"


def _build_library() -> str:
    """Compile (or reuse) the shared object; returns its path."""
    cc = os.environ.get("CC", "cc")
    key = _C_SOURCE + "\0" + _compiler_identity(cc)
    digest = hashlib.sha1(key.encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"repro_kernels_{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    try:
        os.makedirs(cache, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            src = os.path.join(tmp, "kernels.c")
            obj = os.path.join(tmp, "kernels.so")
            with open(src, "w") as fh:
                fh.write(_C_SOURCE)
            proc = subprocess.run(
                [cc, "-O2", "-fPIC", "-shared", "-o", obj, src],
                capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise NativeBuildError(
                    f"{cc} failed ({proc.returncode}): "
                    f"{proc.stderr.strip()[:500]}")
            # Atomic publish: concurrent builders race benignly.
            os.replace(obj, lib_path)
    except NativeBuildError:
        raise
    except Exception as exc:
        raise NativeBuildError(f"cannot build native kernels: {exc}") from exc
    return lib_path


_f64p = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_i64p = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_u8p = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_i64 = ctypes.c_int64


def _u8(mask: np.ndarray) -> np.ndarray:
    """Bool mask as a uint8 view (no copy for contiguous bool arrays)."""
    if mask.dtype == np.bool_:
        return mask.view(np.uint8)
    return np.ascontiguousarray(mask, dtype=np.uint8)


class _NativeKernels:
    """ctypes shims with the :mod:`._loops` signatures."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        lib.ff_fill.restype = _i64
        lib.ff_fill.argtypes = [_i64, _i64, _i64, _i64, _f64p, _u8p,
                                _i64p, _i64p, _f64p, _f64p, _f64p, _i64p,
                                _i64]
        lib.bf_pack.restype = _i64
        lib.bf_pack.argtypes = [_i64, _i64, _i64, _f64p, _f64p, _u8p,
                                _i64p, _f64p, _f64p, _f64p, _f64p, _i64,
                                _i64p]
        lib.pp_fill_2d.restype = _i64
        lib.pp_fill_2d.argtypes = [_i64, _i64, _i64, _f64p, _u8p, _i64p,
                                   _i64p, _i64p, _f64p, _f64p, _f64p,
                                   _f64p, _i64, _i64p, _i64]
        lib.pp_fill_general.restype = _i64
        lib.pp_fill_general.argtypes = [_i64, _i64, _i64, _i64, _i64,
                                        _i64, _f64p, _f64p, _u8p, _i64p,
                                        _i64p, _i64p, _f64p, _f64p,
                                        _f64p, _f64p, _i64, _i64p]
        lib.affine_fit_thresholds.restype = _i64
        lib.affine_fit_thresholds.argtypes = [_i64, _i64, _i64, _f64p,
                                              _f64p, _f64p, _f64p]
        lib.batch_fit_thresholds.restype = _i64
        lib.batch_fit_thresholds.argtypes = [_i64, _i64, _i64, _i64,
                                             _f64p, _f64p, _f64p, _i64p,
                                             _i64p, _f64p]
        lib.incremental_best_fit.restype = _i64
        lib.incremental_best_fit.argtypes = [_i64, _i64, _i64, _f64p,
                                             _u8p, _f64p, _f64p, _f64p,
                                             _i64p]
        lib.probe_scan.restype = _i64
        lib.probe_scan.argtypes = [_i64, _i64, _i64, _i64,
                                   _f64p, _f64p, _u8p, _f64p, _f64p,
                                   _f64p, _i64p, _i64p, _i64p, _i64p,
                                   _i64p, _i64p, _i64p, _i64p, _i64p,
                                   _i64p, _i64p, _i64p, _i64p, _i64p,
                                   _f64p, _f64p, _i64p]

    def ff_fill(self, item_agg, elem_ok, item_order, bin_order,
                loads, load_sum, cap_tol, assignment, prune):
        return self._lib.ff_fill(
            item_order.shape[0], loads.shape[0], bin_order.shape[0],
            item_agg.shape[1], item_agg, _u8(elem_ok), item_order,
            bin_order, loads, load_sum, cap_tol, assignment, int(prune))

    def bf_pack(self, item_agg, item_agg_sum, elem_ok, item_order,
                loads, load_sum, cap_tol, bin_agg_sum, by_remaining,
                assignment):
        return self._lib.bf_pack(
            item_order.shape[0], loads.shape[0], item_agg.shape[1],
            item_agg, item_agg_sum, _u8(elem_ok), item_order, loads,
            load_sum, cap_tol, bin_agg_sum, int(by_remaining), assignment)

    def pp_fill_2d(self, item_agg, elem_ok, order0, order1, bin_order,
                   loads, load_sum, cap_tol, bin_agg, by_remaining,
                   assignment, prune):
        return self._lib.pp_fill_2d(
            item_agg.shape[0], loads.shape[0], bin_order.shape[0],
            item_agg, _u8(elem_ok), order0, order1, bin_order, loads,
            load_sum, cap_tol, bin_agg, int(by_remaining), assignment,
            int(prune))

    def pp_fill_general(self, item_agg, item_agg_sum, elem_ok,
                        item_dim_perm, tie_rank, w, choose_pack,
                        bin_order, loads, load_sum, cap_tol, bin_agg,
                        by_remaining, assignment):
        return self._lib.pp_fill_general(
            item_agg.shape[0], loads.shape[0], bin_order.shape[0],
            item_agg.shape[1], int(w), int(choose_pack), item_agg,
            item_agg_sum, _u8(elem_ok), item_dim_perm, tie_rank,
            bin_order, loads, load_sum, cap_tol, bin_agg,
            int(by_remaining), assignment)

    def affine_fit_thresholds(self, req, need, cap, out):
        return self._lib.affine_fit_thresholds(
            req.shape[0], cap.shape[0], req.shape[1], req, need, cap, out)

    def batch_fit_thresholds(self, req, need, cap, n_items, n_bins, out):
        return self._lib.batch_fit_thresholds(
            req.shape[0], req.shape[1], cap.shape[1], req.shape[2],
            req, need, cap, n_items, n_bins, out)

    def incremental_best_fit(self, req_agg, elem_fit, loads, agg,
                             cap_tol, out):
        return self._lib.incremental_best_fit(
            req_agg.shape[0], loads.shape[0], req_agg.shape[1], req_agg,
            _u8(elem_fit), loads, agg, cap_tol, out)

    def probe_scan(self, item_agg, item_agg_sum, elem_ok, cap_tol,
                   bin_agg, bin_agg_sum, item_orders, tie_ranks,
                   bin_orders, item_dim_perm, pp_order0, pp_order1,
                   st_packer, st_item, st_bin, st_hetero, st_w,
                   st_choose, st_cfg, scan, loads, load_sum, assignment):
        return self._lib.probe_scan(
            item_agg.shape[0], cap_tol.shape[0], item_agg.shape[1],
            scan.shape[0], item_agg, item_agg_sum, _u8(elem_ok), cap_tol,
            bin_agg, bin_agg_sum, item_orders, tie_ranks, bin_orders,
            item_dim_perm, pp_order0, pp_order1, st_packer, st_item,
            st_bin, st_hetero, st_w, st_choose, st_cfg, scan, loads,
            load_sum, assignment)


def load_native_kernels() -> _NativeKernels:
    """Build/load the shared object; raises :class:`NativeBuildError`."""
    try:
        lib = ctypes.CDLL(_build_library())
    except NativeBuildError:
        raise
    except OSError as exc:
        raise NativeBuildError(f"cannot load native kernels: {exc}") from exc
    return _NativeKernels(lib)
