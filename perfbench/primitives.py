"""Primitive rows at the ROADMAP sizes, called through numkit's public API.

* ``numkit.rank_one_update_us.d{100,400,1000}``: ``SpdInverse.rank_one_update``.
* ``numkit.chol_extend_us.t{500,1000,2000}`` and
  ``numkit.chol_solve_us.t{500,1000,2000}``: ``CholFactor.extend`` / ``solve``
  on one factor grown row by row, as the kernel learners grow theirs.
* ``lifting.kernel_column_us.t{500,1000,2000}``: ``KernelSpec.column``.
* ``numkit.project_ball_us.d100`` and ``numkit.project_ellipsoid_us.t500``:
  ``project_ball_mahalanobis`` (ONS at d=100) and ``project_ellipsoid_coeff``
  (KONS at t=500) on points outside the feasible set, so that every call
  projects.

Each row is the median of individually timed calls after a warm-up.  The
byte and flop figures are computed from the sizes (the minimum traffic
and arithmetic of the operation), not measured, and are labelled so.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from corectron.lifting import KernelSpec
from corectron.numkit import CholFactor, SpdInverse, project_ball_mahalanobis, project_ellipsoid_coeff

SEED = 0
DIMS = (100, 400, 1000)
SIZES = (500, 1000, 2000)
CONTEXT_DIM = 10
# Timed calls per row; more where a call is cheap.
RANK_ONE_CALLS = {100: 400, 400: 80, 1000: 30}
CHOL_CALLS = 9
COLUMN_CALLS = 200
BALL_DIM = 100
BALL_CALLS = 60
ELLIPSOID_SIZE = 500
ELLIPSOID_CALLS = 7


def _median_us(samples_ns) -> float:
    return statistics.median(samples_ns) / 1e3


def _timed(fn, *args) -> int:
    t0 = time.perf_counter_ns()
    fn(*args)
    return time.perf_counter_ns() - t0


def rank_one_rows(rng) -> dict:
    out = {}
    for d in DIMS:
        inv = SpdInverse.from_ridge(d, 1.0)
        calls = RANK_ONE_CALLS[d]
        gs = rng.standard_normal((calls + 5, d)) / np.sqrt(d)
        for g in gs[:5]:
            inv.rank_one_update(g)
        us = _median_us([_timed(inv.rank_one_update, g) for g in gs[5:]])
        out[f"numkit.rank_one_update_us.d{d}"] = us
        if d == DIMS[-1]:
            # Read and write the d x d inverse once: 2 * 8 * d^2 bytes.
            out[f"numkit.rank_one_update.gbps_computed.d{d}"] = 16.0 * d * d / (us * 1e3)
            # Mat-vec plus symmetric rank-one update: 4 d^2 flops.
            out[f"numkit.rank_one_update.gflops_computed.d{d}"] = 4.0 * d * d / (us * 1e3)
    return out


def gram_rows(rng) -> dict:
    """Grow one factor of an RBF Gram matrix (ridge 1) to the largest size,
    timing extends and solves as it passes each size in :data:`SIZES`."""
    kernel = KernelSpec.rbf(1.0)
    top = SIZES[-1] + CHOL_CALLS
    Z = rng.standard_normal((top, CONTEXT_DIM))
    Z /= np.maximum(1.0, np.linalg.norm(Z, axis=1))[:, None]
    factor = CholFactor()
    out = {}
    ext: dict[int, list[int]] = {t: [] for t in SIZES}
    for t in range(top):
        col = kernel.column(Z[:t], Z[t])
        window = [s for s in SIZES if s <= t < s + CHOL_CALLS]
        if window:
            ext[window[0]].append(_timed(factor.extend, col, 2.0))
        else:
            factor.extend(col, 2.0)
        if t + 1 in SIZES:
            b = np.ones(t + 1)
            factor.solve(b)
            out[f"numkit.chol_solve_us.t{t + 1}"] = _median_us(
                [_timed(factor.solve, b) for _ in range(CHOL_CALLS)]
            )
    for t in SIZES:
        out[f"numkit.chol_extend_us.t{t}"] = _median_us(ext[t])
        kernel.column(Z[:t], Z[t])
        out[f"lifting.kernel_column_us.t{t}"] = _median_us(
            [_timed(kernel.column, Z[:t], Z[t]) for _ in range(COLUMN_CALLS)]
        )
    return out


def _projecting(project, *args) -> int:
    t0 = time.perf_counter_ns()
    res = project(*args)
    elapsed = time.perf_counter_ns() - t0
    if res.trivial:
        raise RuntimeError(f"{project.__name__} did not project a point outside its feasible set")
    return elapsed


def projection_rows(rng) -> dict:
    """Ball and ellipsoid projections that always move the point: an SPD
    metric and a point of norm 2 outside the unit ball, as ONS and KONS
    see them when the step leaves the feasible set."""
    d = BALL_DIM
    G = rng.standard_normal((d, d)) / np.sqrt(d)
    metric = np.eye(d) + G.T @ G
    points = rng.standard_normal((BALL_CALLS + 3, d))
    points *= 2.0 / np.linalg.norm(points, axis=1)[:, None]
    for y in points[:3]:
        _projecting(project_ball_mahalanobis, metric, y, 1.0)
    out = {f"numkit.project_ball_us.d{d}": _median_us(
        [_projecting(project_ball_mahalanobis, metric, y, 1.0) for y in points[3:]]
    )}

    t = ELLIPSOID_SIZE
    # An RBF Gram matrix (bandwidth 1) as the shape, as in KONS.
    Z = rng.standard_normal((t, CONTEXT_DIM)) / np.sqrt(CONTEXT_DIM)
    shape = np.exp(-0.5 * ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2))
    metric = np.eye(t) + shape @ shape / t
    point = rng.standard_normal(t)
    point *= 2.0 / np.sqrt(point @ shape @ point)
    _projecting(project_ellipsoid_coeff, metric, shape, point, 1.0)
    out[f"numkit.project_ellipsoid_us.t{t}"] = _median_us(
        [_projecting(project_ellipsoid_coeff, metric, shape, point, 1.0) for _ in range(ELLIPSOID_CALLS)]
    )
    return out


def primitive_rows() -> dict:
    rng = np.random.default_rng(SEED)
    rows = rank_one_rows(rng)
    rows.update(gram_rows(rng))
    rows.update(projection_rows(rng))
    return rows
