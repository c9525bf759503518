"""Time-domain simulation of two wire-coupled ion oscillators.

Three model tiers, cheapest last:

* ``integrate_full``     -- velocity-Verlet integration of the coupled
  equations of motion with impulsive stochastic force kicks (heating),
  viscous drag plus compensating diffusion (Doppler clamp), and per-shot
  or Ornstein-Uhlenbeck trap-frequency jitter. Ground truth at short
  durations.
* ``integrate_envelope`` -- rotating-frame reduction to two slowly varying
  complex amplitudes, stepped with an exact per-step 2x2 matrix
  exponential. 1e4x cheaper; the workhorse for multi-second scans.
* ``rate_equation_model`` -- the closed-form solution of the linear
  mean-occupation rate equations for incoherent exchange with a cooling
  clamp.

Occupations reported by the simulators are classical ensemble means
n = E/(hbar omega) without the zero-point half quantum; every regime of
interest here has n >> 1. Heating enters as a white stochastic force with
single-sided PSD S_F = 4 m hbar omega ndot, so an uncoupled, undamped ion
heats at exactly ndot quanta/s; the 1/f^alpha character of the field
noise enters only through the frequency dependence of ndot between runs
(see ``noise_psd``), never within one run.

Without OU jitter both integrators are linear with constant coefficients
per realization: a step maps the real state s, (Re a, Im a) of the
envelope or (x, v) of the Verlet scheme with drag, to T s plus a kick
drawn from N(0, D). So n steps are exactly T^n s plus one draw from
N(0, Q_n), Q_n = sum_{k<n} T^k D T^k^T, both built by doubling (Van Loan
1978, IEEE TAC 23:395): each realization advances one record interval at
a time, with the stepped integrator's statistics and without its steps.
The same maps give the exact ensemble means (``exact=True``). OU jitter
makes T random, so it keeps the step loop.

Realizations b _BATCH to (b + 1) _BATCH - 1 of a point with seed s are
segment b. Its generator, ``default_rng(SeedSequence(s, spawn_key=(b,)))``,
draws full _BATCH-row arrays: the set-up draws, then one per record
interval, none for a segment without diffusion. Under OU jitter, steps
c _CHUNK on draw from ``SeedSequence(s, spawn_key=(b, c))`` instead. So a
realization's numbers depend only on the seed and its index: output is
the same whatever the batch packing or ensemble size, and adding
realizations never moves the existing ones.

A batch holds consecutive segments, of one point or of several. Where
neither ion has jitter, a point's rows share one step map, built once
per batch, and a batch holds up to _WIDE rows; with jitter every row has
its own map, and a batch holds _BATCH rows, which bounds its memory.
"""


from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import CONST, check_count, check_range

HBAR = CONST.reduced_planck
TWO_PI = 2.0 * math.pi

# fixed internals; changing them changes the RNG draw layout or the order
# in which the ensemble moments are summed
_BATCH = 256     # rows per generator; ensembles are cut at its multiples
_WIDE = 8 * _BATCH   # rows per batch where no ion has jitter, else _BATCH;
                     # it bounds a batch's memory and moves no output
_CHUNK = 1024    # integration steps per RNG draw block under OU jitter
_NODES = 64      # Gauss-Hermite nodes per jittered ion in the exact means
# the draw layout, as the manifests record it
RNG_LAYOUT = (f"SeedSequence(seed, spawn_key=(b,)) per {_BATCH}-realization "
              f"segment b, (b, c) per {_CHUNK}-step OU chunk c")

JITTER_PER_SHOT = "per_shot_static"
JITTER_OU = "ornstein_uhlenbeck"

INIT_THERMAL = "thermal"    # Rayleigh amplitude, uniform phase
INIT_COHERENT = "coherent"  # fixed amplitude, uniform phase
INIT_FIXED = "fixed"        # fixed amplitude, zero phase


@dataclass(frozen=True)
class NoiseModel:
    """Heating drive and trap-frequency jitter for one site.

    heating_rate_at_reference : quanta/s produced at reference_frequency
    spectral_exponent         : alpha of the field PSD S_E ~ 1/f^alpha
    jitter_sigma              : Hz rms of the trap-frequency fluctuation
    jitter_kind               : per_shot_static or ornstein_uhlenbeck
    jitter_correlation_time   : s, OU only
    """

    heating_rate_at_reference: float = 0.0
    reference_frequency: float = 0.0
    spectral_exponent: float = 1.0
    jitter_sigma: float = 0.0
    jitter_kind: str = JITTER_PER_SHOT
    jitter_correlation_time: float = 0.0

    def __post_init__(self):
        check_range("jitter_correlation_time", self.jitter_correlation_time,
                    ge=0)
        check_range("heating_rate_at_reference", self.heating_rate_at_reference,
                    ge=0)
        check_range("reference_frequency", self.reference_frequency, ge=0)
        check_range("spectral_exponent", self.spectral_exponent, ge=0, le=2)
        check_range("jitter_sigma", self.jitter_sigma, ge=0)
        if self.heating_rate_at_reference > 0:
            check_range("reference_frequency with nonzero heating",
                        self.reference_frequency, gt=0)
        if self.jitter_kind not in (JITTER_PER_SHOT, JITTER_OU):
            raise ValueError(f"unknown jitter_kind {self.jitter_kind!r}")
        if self.jitter_kind == JITTER_OU and self.jitter_sigma > 0:
            check_range("jitter_correlation_time of OU jitter",
                        self.jitter_correlation_time, gt=0)


NO_NOISE = NoiseModel()


@dataclass(frozen=True)
class CoolingClamp:
    """Phenomenological Doppler clamp: drag at gamma_c toward n_ss."""

    damping_rate: float = 0.0           # 1/s on the occupation
    steady_state_occupation: float = 0.0

    def __post_init__(self):
        check_range("damping_rate", self.damping_rate, ge=0, le=math.inf)
        check_range("steady_state_occupation", self.steady_state_occupation,
                    ge=0)


NO_COOLING = CoolingClamp()


@dataclass(frozen=True)
class PairParams:
    """Masses, mode frequencies, and the exchange rate kappa (rad/s)."""

    mass1: float
    mass2: float
    omega1: float
    omega2: float
    kappa: float = 0.0

    def __post_init__(self):
        for name in ("mass1", "mass2", "omega1", "omega2"):
            check_range(name, getattr(self, name), gt=0)
        check_range("kappa", self.kappa)

    @classmethod
    def resonant(cls, mass, omega, kappa):
        return cls(mass, mass, omega, omega, kappa)


@dataclass(frozen=True)
class EnsembleTrajectory:
    """Ensemble-mean occupations vs time with standard errors."""

    times: np.ndarray
    n_bar_1: np.ndarray
    n_bar_2: np.ndarray
    n_bar_sem_1: np.ndarray
    n_bar_sem_2: np.ndarray
    positions: np.ndarray = None   # (n_times, 2), realization 0 only, on request
    energies: np.ndarray = None    # total H of realization 0, on request

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        for arr in (self.n_bar_1, self.n_bar_2, self.n_bar_sem_1, self.n_bar_sem_2):
            if arr.shape != self.times.shape:
                raise ValueError("trajectory arrays must share the time grid")


def noise_psd(model, omega):
    """Heating rate at omega: ndot_ref (w_ref/w)^(alpha+1), quanta/s.

    The exponent is alpha + 1 because the quanta rate carries one extra
    1/omega beyond the field PSD.
    """
    check_range("omega", omega, gt=0)
    if model.heating_rate_at_reference == 0:
        return 0.0
    return model.heating_rate_at_reference * \
        (model.reference_frequency / omega) ** (model.spectral_exponent + 1.0)


# ---------------------------------------------------------------------------
# ensemble plumbing

def _initial_state(initial_occupations, init_phase, z, phase):
    """Quadratures s = (Re a, Im a) (rows, 4) of the complex amplitudes a,
    |a|^2 in quanta, per init policy, and their second moments E[s s^T]."""
    check_range("initial occupations", initial_occupations, ge=0)
    s, mean, var = np.zeros((len(z), 4)), np.zeros(4), np.zeros(4)
    for i in (0, 1):
        n0, kind, q = float(initial_occupations[i]), init_phase[i], [i, i + 2]
        if kind == INIT_THERMAL:
            s[:, q] = math.sqrt(n0 / 2.0) * z[:, [2 * i, 2 * i + 1]]
        elif kind == INIT_COHERENT:
            s[:, q] = math.sqrt(n0) * np.stack(
                [np.cos(phase[:, i]), np.sin(phase[:, i])], axis=1)
        elif kind == INIT_FIXED:
            s[:, i] = mean[i] = math.sqrt(n0)
        else:
            raise ValueError(f"unknown init policy {kind!r}")
        var[q] = 0.0 if kind == INIT_FIXED else n0 / 2.0
    return s, np.diag(var) + np.outer(mean, mean)


def _rates(noise, cooling, nominal):
    """The damping rates; the per-shot and the OU jitter rms, rad/s; and
    the diffusion (points, 2) in quanta/s, heating at each point's
    ``nominal`` frequencies plus clamp back-action."""
    gamma = np.array([cooling[0].damping_rate, cooling[1].damping_rate])
    if not np.all(np.isfinite(gamma)):
        raise ValueError("the integrators need finite damping rates")
    sigma = np.array([TWO_PI * n.jitter_sigma for n in noise])
    is_ou = np.array([n.jitter_kind == JITTER_OU for n in noise])
    n_ss = np.array([cooling[0].steady_state_occupation,
                     cooling[1].steady_state_occupation])
    ndot = [[noise_psd(noise[i], nom[i]) for i in (0, 1)] for nom in nominal]
    return (gamma, np.where(is_ou, 0.0, sigma), np.where(is_ou, sigma, 0.0),
            np.array(ndot) + gamma * n_ss)


def _jitter_nodes(sigma):
    """Gauss-Hermite offsets (k, 2) and weights (k,) averaging over
    independent N(0, sigma_i^2) offsets; one node where sigma_i is 0."""
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(_NODES)
    axes = [(s * math.sqrt(2.0) * x, w / math.sqrt(math.pi)) if s > 0
            else (np.zeros(1), np.ones(1)) for s in sigma]
    grid = np.meshgrid(axes[0][0], axes[1][0], indexing="ij")
    return (np.stack([g.ravel() for g in grid], axis=1),
            np.outer(axes[0][1], axes[1][1]).ravel())


def _mean_and_sem(s, s2, n_real):
    """Ensemble mean and standard error from the (sum, sumsq) moments."""
    mean = s / n_real
    if n_real > 1:
        var = np.maximum(s2 / n_real - mean ** 2, 0.0) * n_real / (n_real - 1)
        sem = np.sqrt(var / n_real)
    else:
        sem = np.zeros_like(mean)
    return mean, sem


def _pack(points, n_real, cap):
    """Yield batches of (seed, point argument, lo, hi) segments, in order.

    Each point's realizations are cut at multiples of _BATCH; consecutive
    segments, of one point or of several, share a batch while it holds at
    most ``cap`` rows.
    """
    batch, rows = [], 0
    for seed, point in points:
        for lo in range(0, n_real, _BATCH):
            hi = min(lo + _BATCH, n_real)
            if rows + hi - lo > cap:
                yield batch
                batch, rows = [], 0
            batch.append((seed, point, lo, hi))
            rows += hi - lo
    yield batch


def _grid(duration, dt, dt_max, record_points):
    """(dt, n_steps, rec_idx) of a run: the step, defaulting to ``dt_max``,
    the step count and the steps of the record points."""
    if dt is None:
        dt = dt_max
    check_range("dt", dt, gt=0)
    if dt > dt_max * (1.0 + 1e-9):
        raise ValueError(f"dt={dt:g} too coarse, need <= {dt_max:g}")
    check_range("duration", duration, ge=dt)    # at least one step
    n_records = check_count("record_points", record_points, 2)
    n_steps = int(math.ceil(duration / dt - 1e-9))
    if n_steps > 50_000_000:
        raise ValueError("step budget exceeded; raise dt or shorten duration")
    return dt, n_steps, np.unique(np.round(np.linspace(0, n_steps, n_records)).astype(int))


def _integrate(kernel, points, grid, n_realizations, noise):
    """Front end shared by both integrators; one EnsembleTrajectory per point.

    ``points`` holds one (seed, point argument) pair per point, ``grid``
    the run's (dt, n_steps, rec_idx). ``kernel(segments)`` integrates a
    batch of (seed, point argument, lo, hi) segments, realizations lo..hi-1
    of a point each, and returns each segment's occupation sums and sums of
    squares on the record grid, then the batch's first row's positions and
    energies or None. Batches run one at a time, in order. Without jitter
    on either ion (``noise``) a point's rows share one step map, which
    ``_propagate`` builds once per batch, so a batch holds up to _WIDE rows;
    with jitter every row has its own map and a batch holds _BATCH rows.
    """
    n_real = check_count("n_realizations", n_realizations, 1)
    for seed, _point in points:
        check_count("seed", seed, 0)
    cap = _WIDE if all(n.jitter_sigma == 0 for n in noise) else _BATCH
    per_point = -(-n_real // _BATCH)      # segments per point
    sums, first, done = [], None, 0
    for moments, x, e in map(kernel, _pack(points, n_real, cap)):
        if first is None:
            first = (x, e)
        for segment in moments:
            if done % per_point == 0:
                sums.append(segment.copy())
            else:
                sums[-1] += segment
            done += 1
    trajectories = []
    for p, (s, s2) in enumerate(sums):
        mean, sem = _mean_and_sem(s, s2, n_real)
        trajectories.append(EnsembleTrajectory(
            times=grid[2] * grid[0],
            n_bar_1=mean[:, 0], n_bar_2=mean[:, 1],
            n_bar_sem_1=sem[:, 0], n_bar_sem_2=sem[:, 1],
            positions=first[0] if p == 0 else None,
            energies=first[1] if p == 0 else None))
    return trajectories


def _batch_setup(segments, nominal, noise, cooling, initial, init_phase, dt):
    """Set-up shared by both batch kernels.

    The batch's rows are its segments' realizations; each segment's
    generator draws (_BATCH, k) arrays of 4 normals (thermal amplitudes),
    2 uniform phases, then 2 jitter normals, or 4 under OU jitter. Returns
    the generators; each segment's row bounds; ``rows(values)``, values
    per segment repeated over its rows; the jitter offsets (rows, 2) in
    rad/s; the damping rates; the diffusion (rows, 2) in quanta/s; the OU
    state (rho, kick, start) or None; and the initial quadratures.
    """
    from numpy.random import SeedSequence, default_rng

    gamma, shot_sigma, ou_sigma, diffusion = _rates(noise, cooling, nominal)
    has_ou = bool(np.any(ou_sigma > 0))
    counts = [hi - lo for _seed, _point, lo, hi in segments]
    rngs = [default_rng(SeedSequence(seed, spawn_key=(lo // _BATCH,)))
            for seed, _point, lo, _hi in segments]
    draws = [(r.standard_normal((_BATCH, 4)),
              r.uniform(0.0, TWO_PI, (_BATCH, 2)),
              r.standard_normal((_BATCH, 4 if has_ou else 2)))
             for r in rngs]
    z, phase, jit = (np.concatenate([d[k][:n] for d, n in zip(draws, counts)])
                     for k in range(3))
    ends = np.cumsum(counts)

    def rows(values):
        return np.repeat(np.asarray(values, float), counts, axis=0)

    ou = None
    if has_ou:
        tau = np.array([max(n.jitter_correlation_time, 0.0) for n in noise])
        ou_rho = np.exp(-dt / np.where(tau > 0, tau, np.inf))
        ou = (ou_rho, ou_sigma * np.sqrt(1.0 - ou_rho ** 2),
              ou_sigma[None, :] * jit[:, 2:])
    return (rngs, list(zip([0, *ends[:-1]], ends)), rows,
            np.where(shot_sigma > 0, shot_sigma * jit[:, :2], 0.0), gamma,
            rows(diffusion), ou, _initial_state(initial, init_phase, z, phase)[0])


def _recorder(bounds, n_records):
    """``record(j, n)`` puts the (rows, 2) occupations n and their squares,
    summed per segment, in slot j of the returned (segments, 2, n_records, 2).
    A run of k consecutive segments of one size is summed as one (k, size,
    2) block, which adds each segment's rows in the order of its own slice."""
    sums = np.zeros((len(bounds), 2, n_records, 2))
    runs = []       # [first segment, segments, first row, rows per segment]
    for s, (r0, r1) in enumerate(bounds):
        if runs and runs[-1][3] == r1 - r0:
            runs[-1][1] += 1
        else:
            runs.append([s, 1, r0, r1 - r0])

    def record(j, n):
        for s, k, r, size in runs:
            block = n[r:r + k * size].reshape(k, size, 2)
            sums[s:s + k, 0, j] = block.sum(axis=1)
            sums[s:s + k, 1, j] = (block ** 2).sum(axis=1)
    return record, sums


def _diag(v):
    """Diagonal matrices (rows, k, k) from their diagonals (rows, k)."""
    return v[:, :, None] * np.eye(v.shape[1])


def _power(t, d, n):
    """T^n and Q_n = sum_{k<n} T^k D T^k^T per row, by doubling, n >= 1:
    Q_2m = Q_m + T^m Q_m T^m^T, and m more steps after r give
    T^(r+m) = T^m T^r, Q_(r+m) = T^m Q_r T^m^T + Q_m."""
    tn = qn = None
    while True:
        if n & 1:
            tn, qn = (t, d) if tn is None else \
                (t @ tn, t @ qn @ np.swapaxes(t, 1, 2) + d)
        n >>= 1
        if not n:
            return tn, qn
        d = d + t @ d @ np.swapaxes(t, 1, 2)
        t = t @ t


def _factor(q):
    """L with L L^T = q per row for symmetric positive semidefinite q (an
    eigendecomposition of q scaled to unit diagonal); NaN where q is not
    finite, so that an overflowed map fails the energy check."""
    out = np.full_like(q, np.nan)
    ok = np.all(np.isfinite(q), axis=(1, 2))
    scale = np.sqrt(np.diagonal(q[ok], axis1=1, axis2=2))
    scale = np.where(scale > 0, scale, 1.0)
    lam, vec = np.linalg.eigh(q[ok] / scale[:, :, None] / scale[:, None, :])
    out[ok] = scale[:, :, None] * vec * np.sqrt(np.maximum(lam, 0.0))[:, None, :]
    return out


@np.errstate(over="ignore", invalid="ignore")  # the energy check reports these
def _propagate(rngs, bounds, rec_idx, key, maps, kick_scale, s, read_out):
    """Advance each row a record interval at a time; each segment's moments.

    A row's step map and noise are ``maps(key)`` of its ``key`` row, once
    per distinct key, with their ``_power`` once per interval length n;
    where every row has one key they share its arrays. The (rows, 4) state
    takes s <- T^n s + L_n z, L_n L_n^T = Q_n. A segment is kicked where
    ``kick_scale`` kicks any of its rows: z stacks one (_BATCH, 4) normal
    draw of each kicked segment's generator, cut to its rows, and the
    other segments' rows take no kick term. ``read_out(j, s)`` gives the
    (rows, 2) occupations at record slot j.
    """
    record, moments = _recorder(bounds, len(rec_idx))
    record(0, read_out(0, s))
    kicked = [bool(np.any(kick_scale[r0:r1] > 0)) for r0, r1 in bounds]
    rows = slice(None) if all(kicked) else np.flatnonzero(
        np.repeat(kicked, [r1 - r0 for r0, r1 in bounds]))
    uniq, inv = (key[:1], np.zeros(len(key), int)) if np.all(key == key[0]) \
        else np.unique(key, axis=0, return_inverse=True)
    t, d = maps(uniq)
    inv, powers = inv.reshape(-1), {}

    def spread(a, idx):
        # a row per key to a row per entry of idx; a view for a single key
        return np.broadcast_to(a, (len(idx), 4, 4)) if len(a) == 1 else a[idx]

    for j, n in enumerate(np.diff(rec_idx), 1):
        if n not in powers:
            tn, qn = _power(t, d, int(n))
            powers[n] = (spread(tn, inv),
                         spread(_factor(qn), inv[rows]) if any(kicked) else None)
        tn, ln = powers[n]
        s = np.einsum("rij,rj->ri", tn, s)
        if ln is not None:
            z = np.concatenate([r.standard_normal((_BATCH, 4))[:r1 - r0]
                                for r, (r0, r1), k in zip(rngs, bounds, kicked)
                                if k])
            s[rows] += np.einsum("rij,rj->ri", ln, z)
        record(j, read_out(j, s))
    return moments


def _step_loop(segments, bounds, n_steps, rec_idx, kick_scale, ou, advance,
               read_out):
    """Both kernels' step loop under OU jitter; each segment's moments.

    Steps c _CHUNK on of segment b of a point with seed s draw from their
    own generator, ``default_rng(SeedSequence(s, spawn_key=(b, c)))``: one
    normal array (rows, span, k + 2) holding per step the k kick normals,
    where ``kick_scale`` (rows, k) kicks any of the segment's rows, then 2
    OU normals. A generator fills the array row by row, so a segment's
    first rows draw the same numbers however many rows follow them, and
    no row is drawn that is not run. Each step updates the OU state, then
    calls ``advance(kick, delta_ou)``; at each record point (step 0
    included) ``read_out(slot)`` returns the (rows, 2) occupations.
    """
    from numpy.random import SeedSequence, default_rng

    slot = {int(k): j for j, k in enumerate(rec_idx)}
    record, moments = _recorder(bounds, len(rec_idx))
    record(0, read_out(0))                  # the record grid starts at step 0
    k = kick_scale.shape[1]
    # (steps, rows, k + 2), so that each step's draws lie together
    draws = np.zeros((min(_CHUNK, n_steps), bounds[-1][1], k + 2))
    ou_rho, ou_kick, delta_ou = ou
    for start in range(0, n_steps, _CHUNK):
        span = min(_CHUNK, n_steps - start)
        for (seed, _point, lo, _hi), (r0, r1) in zip(segments, bounds):
            first = 0 if np.any(kick_scale[r0:r1] > 0) else k
            rng = default_rng(SeedSequence(seed, spawn_key=(lo // _BATCH,
                                                            start // _CHUNK)))
            draws[:span, r0:r1, first:] = rng.standard_normal(
                (r1 - r0, span, k + 2 - first)).transpose(1, 0, 2)
        kicks = draws[:span, :, :k] * kick_scale
        for i in range(span):
            delta_ou = delta_ou * ou_rho[None, :] + ou_kick[None, :] * draws[i, :, k:]
            advance(kicks[i], delta_ou)
            if start + i + 1 in slot:
                record(slot[start + i + 1], read_out(slot[start + i + 1]))
    return moments


def _exact(model, noise, cooling, nominal, initial, init_phase, grid):
    """Exact ensemble means of one point, zero SEM, from the sampled
    kernels' own step maps: second moments C <- T^n C T^n^T + Q_n per
    record interval at Gauss-Hermite nodes of the per-shot jitter, their
    occupations summed with the nodes' weights. ``model(offsets, gamma,
    diffusion)`` gives the rows' keys, ``maps`` and quadrature scales."""
    dt, _n_steps, rec_idx = grid
    gamma, shot_sigma, ou_sigma, diffusion = _rates(noise, cooling, [nominal])
    if np.any(ou_sigma > 0):
        raise ValueError("not linear: OU jitter makes the step map random")
    nodes, weights = _jitter_nodes(shot_sigma)
    key, maps, scale = model(nodes, gamma, np.repeat(diffusion, len(weights), 0))
    c = _initial_state(initial, init_phase, np.zeros((0, 4)), np.zeros((0, 2)))[1]
    c = scale[:, :, None] * c * scale[:, None, :]
    t, d = maps(key)

    def read_out(c):
        q = np.diagonal(c, axis1=1, axis2=2) / scale ** 2
        return weights @ (q[:, :2] + q[:, 2:])

    means, powers = [read_out(c)], {}
    for n in np.diff(rec_idx):
        if n not in powers:
            powers[n] = _power(t, d, int(n))
        tn, qn = powers[n]
        c = tn @ c @ np.swapaxes(tn, 1, 2) + qn
        means.append(read_out(c))
    means, zeros = np.array(means), np.zeros(len(rec_idx))
    return EnsembleTrajectory(rec_idx * dt, means[:, 0], means[:, 1], zeros, zeros)


# ---------------------------------------------------------------------------
# full stochastic integrator

def _spring(params, w):
    # coupling spring constant 2 kappa sqrt(m1 w1 m2 w2) per row (jitter is
    # a ~1e-4 effect here)
    return 2.0 * params.kappa * np.sqrt(params.mass1 * params.mass2 * w[:, 0] * w[:, 1])


def _accel(x, w2, g_over_m):
    """Acceleration (rows, 2) of the coupled ions at positions x."""
    return -(w2 * x) - g_over_m * x[:, ::-1]


def _verlet_step(x, v, accel, w2, g_over_m, dt, drag, kick):
    """One velocity-Verlet step of the (rows, 2) x and v, in place, with
    the squared frequencies w2 at its end; drag and the kick act on v only.
    Returns the acceleration at the new x."""
    x += dt * v + (0.5 * dt * dt) * accel
    new_accel = _accel(x, w2, g_over_m)
    v[:] = (v + (0.5 * dt) * (accel + new_accel)) * drag + kick
    return new_accel


def _verlet_model(params, dt, offsets, gamma, diffusion):
    """Per row of jitter ``offsets``: the key (w1, w2, kick1, kick2), the
    jittered frequencies and the rms velocity kicks; ``maps(keys)``, one
    Verlet step with drag on s = (x, v) (rows, 4, 4) and its kick
    covariance; and the scale (rows, 4) from quadratures to s."""
    m = np.array([params.mass1, params.mass2])
    w_nom = np.array([params.omega1, params.omega2])
    w = w_nom[None, :] + offsets                        # (B, 2) rad/s
    drag = np.exp(-gamma * dt)
    sigma_v = np.sqrt(4.0 * m * HBAR * w_nom * diffusion * dt / 2.0) / m

    def maps(key):
        # the step's images of the four unit states are the map's columns
        w2 = np.repeat(key[:, :2] ** 2, 4, axis=0)
        g_over_m = np.repeat(_spring(params, key[:, :2])[:, None] / m, 4, 0)
        s = np.tile(np.eye(4), (len(key), 1))
        x, v = s[:, :2], s[:, 2:]
        _verlet_step(x, v, _accel(x, w2, g_over_m), w2, g_over_m, dt, drag, 0.0)
        return (s.reshape(-1, 4, 4).transpose(0, 2, 1),
                _diag(np.concatenate([0 * key[:, 2:], key[:, 2:] ** 2], axis=1)))

    # a = sqrt(m w / 2 hbar) (x + i v/w) up to a phase; invert per quadrature
    scale_x = np.sqrt(2.0 * HBAR / (m[None, :] * w))
    return (np.concatenate([w, sigma_v], axis=1), maps,
            np.concatenate([scale_x, scale_x * w], axis=1))


def _full_batch(segments, params, noise, cooling, initial, init_phase,
                record_first, dt, n_steps, rec_idx):
    m = np.array([params.mass1, params.mass2])
    w_nom = np.array([params.omega1, params.omega2])
    rngs, bounds, _rows, offsets, gamma, diffusion, ou, init = _batch_setup(
        segments, [w_nom] * len(segments), noise, cooling, initial,
        init_phase, dt)
    key, maps, scale = _verlet_model(params, dt, offsets, gamma, diffusion)
    w, sigma_v, g = key[:, :2], key[:, 2:], _spring(params, key[:, :2])
    first_x = np.zeros((len(rec_idx), 2)) if record_first else None
    first_e = np.zeros(len(rec_idx)) if record_first else None

    def read_out(j, x, v, w2):
        e = 0.5 * m[None, :] * v ** 2 + 0.5 * m[None, :] * w2 * x ** 2
        if record_first:
            first_x[j] = x[0]
            first_e[j] = e[0].sum() + g[0] * x[0, 0] * x[0, 1]
        if not (np.max(e) <= 1e6 * e_ref):
            raise RuntimeError(
                f"unstable step: energy exceeded 1e6x initial at step {rec_idx[j]}")
        return e / (HBAR * w)

    s = scale * init
    x, v, w2 = s[:, :2], s[:, 2:], w ** 2
    e_ref = max(float(np.max(0.5 * m * v ** 2 + 0.5 * m * w2 * x ** 2)),
                HBAR * float(np.max(w)))
    if ou is None:
        moments = _propagate(rngs, bounds, rec_idx, key, maps, sigma_v, s,
                             lambda j, s: read_out(j, s[:, :2], s[:, 2:], w2))
        return moments, first_x, first_e

    drag = np.exp(-gamma * dt)
    g_over_m = g[:, None] / m[None, :]
    accel = _accel(x, w2, g_over_m)

    def advance(kick, delta_ou):
        nonlocal w2, accel
        w2 = (w + delta_ou) ** 2
        accel = _verlet_step(x, v, accel, w2, g_over_m, dt, drag, kick)

    moments = _step_loop(segments, bounds, n_steps, rec_idx, sigma_v, ou,
                         advance, lambda j: read_out(j, x, v, w2))
    return moments, first_x, first_e


def integrate_full(params, initial, noise=(NO_NOISE, NO_NOISE),
                   cooling=(NO_COOLING, NO_COOLING), duration=1e-3, dt=None,
                   seed=0, n_realizations=1, init_phase=(INIT_THERMAL, INIT_THERMAL),
                   record_points=201, record_positions=False, exact=False):
    """Velocity-Verlet SDE ensemble; returns an EnsembleTrajectory.

    ``initial`` is the (n1, n2) occupation pair, realized per
    ``init_phase``. The step must resolve the fast motion:
    dt <= 2 pi / (50 max omega). ``exact=True`` returns the exact
    ensemble means of the same scheme instead, with zero SEM and no
    positions; the seed and the ensemble size are then unused, and OU
    jitter raises ValueError ("not linear").
    """
    grid = _grid(duration, dt, TWO_PI / (50.0 * max(params.omega1, params.omega2)),
                 record_points)
    if exact:
        return _exact(functools.partial(_verlet_model, params, grid[0]),
                      noise, cooling, (params.omega1, params.omega2), initial,
                      init_phase, grid)
    return _integrate(
        lambda segments: _full_batch(segments, params, noise, cooling, initial,
                                     init_phase, record_positions, *grid),
        [(seed, None)], grid, n_realizations, noise)[0]


# ---------------------------------------------------------------------------
# envelope integrator

def _expm2(a11, a22, a12, dt):
    """exp(A dt) for A = [[a11, a12], [a12, a22]], vectorized over leading dims.

    Traceless split: A dt = s I + B with tr B = 0, so
    exp(A dt) = e^s (cosh(lam) I + sinhc(lam) B), lam^2 = det-free invariant.
    """
    s = 0.5 * (a11 + a22) * dt
    b = 0.5 * (a11 - a22) * dt
    c = a12 * dt
    lam = np.sqrt(b * b + c * c + 0j)
    small = np.abs(lam) < 1e-6
    lam_safe = np.where(small, 1.0, lam)
    sinhc = np.where(small, 1.0 + lam * lam / 6.0, np.sinh(lam_safe) / lam_safe)
    ch = np.cosh(lam)
    es = np.exp(s)
    m = np.empty(np.broadcast(b, c).shape + (2, 2), dtype=complex)
    m[..., 0, 0] = es * (ch + sinhc * b)
    m[..., 1, 1] = es * (ch - sinhc * b)
    m[..., 0, 1] = es * sinhc * c
    m[..., 1, 0] = es * sinhc * c
    return m


def _envelope_model(kappa, dt, detuning, offsets, gamma, diffusion):
    """Per row of ``detuning`` plus jitter ``offsets``: the key (d1, d2,
    kick1, kick2), kicks the rms per quadrature; ``maps(keys)``, the 2x2
    complex step on s = (Re a, Im a) as a real (rows, 4, 4) block, with
    circular kicks; and the unit quadrature scale."""
    def maps(key):
        m = _expm2(-1j * key[:, 0] - 0.5 * gamma[0],
                   -1j * key[:, 1] - 0.5 * gamma[1],
                   -1j * kappa * np.ones(len(key)), dt)
        return (np.block([[m.real, -m.imag], [m.imag, m.real]]),
                _diag(np.tile(key[:, 2:], 2) ** 2))

    return (np.concatenate([detuning + offsets, np.sqrt(diffusion * dt / 2.0)],
                           axis=1), maps, np.ones((len(offsets), 4)))


def _envelope_batch(segments, kappa, carrier, noise, cooling, initial,
                    init_phase, dt, n_steps, rec_idx):
    # a segment's point argument is its detuning pair; heating is
    # evaluated at each ion's nominal absolute frequency
    detuning = [d for _seed, d, _lo, _hi in segments]
    rngs, bounds, rows, offsets, gamma, diffusion, ou, init = _batch_setup(
        segments, [[carrier + d[i] for i in (0, 1)] for d in detuning],
        noise, cooling, initial, init_phase, dt)
    key, maps, _scale = _envelope_model(kappa, dt, rows(detuning), offsets,
                                        gamma, diffusion)
    if ou is None:     # kicks on Re a, then Im a
        return _propagate(rngs, bounds, rec_idx, key, maps,
                          np.tile(key[:, 2:], 2), init,
                          lambda j, s: s[:, :2] ** 2 + s[:, 2:] ** 2), None, None
    t = maps(key)[0]
    m, a = t[:, :2, :2] + 1j * t[:, 2:, :2], init[:, :2] + 1j * init[:, 2:]

    def advance(kick, delta_ou):
        # the complex step, then the OU phase exp(-i dt delta_ou)
        nonlocal a
        a = np.einsum("rij,rj->ri", m, a) + kick.view(complex)
        a *= np.exp(-1j * dt * delta_ou)

    # kicks (Re a1, Im a1, Re a2, Im a2), so that a step's kick views as a
    moments = _step_loop(segments, bounds, n_steps, rec_idx,
                         np.repeat(key[:, 2:], 2, axis=1), ou, advance,
                         lambda j: a.real ** 2 + a.imag ** 2)
    return moments, None, None


def envelope_step_limit(kappa, carrier, detuning, noise, cooling, duration):
    """Largest envelope step that resolves the slow dynamics:
    1/(100 max(kappa, |detuning| + 5 sigma, gamma_c, 1/duration)), with
    sigma the angular jitter of each ion. All slow rates must sit far below
    the carrier.
    """
    check_range("kappa", kappa)
    check_range("carrier", carrier, gt=0)
    check_range("detuning", detuning)
    check_range("duration", duration, gt=0)
    sig = [TWO_PI * n.jitter_sigma for n in noise]
    rates = [abs(kappa)] + [abs(d) + 5.0 * s for d, s in zip(detuning, sig)] + \
        [c.damping_rate for c in cooling if np.isfinite(c.damping_rate)]
    r_max = max(rates)
    if r_max > carrier / 20.0:
        raise ValueError("scale separation violated: slow rates approach the carrier")
    return 1.0 / (100.0 * max(r_max, 1.0 / duration))


def integrate_envelope(kappa, carrier, detuning=(0.0, 0.0),
                       noise=(NO_NOISE, NO_NOISE), cooling=(NO_COOLING, NO_COOLING),
                       duration=1e-3, dt=None, seed=0, n_realizations=1,
                       initial_occupations=(0.0, 0.0),
                       init_phase=(INIT_THERMAL, INIT_THERMAL),
                       record_points=201, exact=False):
    """Rotating-frame amplitude ensemble; n_i = |a_i|^2.

    ``carrier`` is the absolute mode frequency the frame rotates at;
    ``detuning`` are the per-ion offsets from it. ``dt`` defaults to, and
    must not exceed, ``envelope_step_limit``.

    Several points in one call: ``detuning`` a sequence of pairs and
    ``seed`` a sequence of as many seeds. The call returns a list with one
    EnsembleTrajectory per point, each ``n_realizations`` strong and
    bit-identical to a one-point call with that point's detuning and seed
    at the same ``dt``. The points share one step grid, so ``dt`` must
    satisfy, and defaults to, the smallest of their step limits.
    ``exact=True`` returns exact ensemble means, as for ``integrate_full``.
    """
    pairs = np.asarray(detuning, float)
    if pairs.ndim not in (1, 2) or pairs.shape[-1] != 2 or pairs.size == 0:
        raise ValueError("detuning must be a pair or a sequence of pairs")
    several = pairs.ndim == 2
    seeds = seed if several else [seed]
    if several and (np.ndim(seed) != 1 or len(seed) != len(pairs)):
        raise ValueError(f"seed must hold one seed per detuning pair "
                         f"({len(pairs)})")
    points = [(s, tuple(map(float, d)))
              for s, d in zip(seeds, pairs if several else [pairs])]
    grid = _grid(duration, dt, min(
        envelope_step_limit(kappa, carrier, d, noise, cooling, duration)
        for _s, d in points), record_points)
    if exact:
        trajectories = [_exact(
            functools.partial(_envelope_model, kappa, grid[0], np.array(d)),
            noise, cooling, carrier + np.array(d), initial_occupations,
            init_phase, grid) for _s, d in points]
    else:
        trajectories = _integrate(
            lambda segments: _envelope_batch(
                segments, kappa, carrier, noise, cooling, initial_occupations,
                init_phase, *grid),
            points, grid, n_realizations, noise)
    return trajectories if several else trajectories[0]


# ---------------------------------------------------------------------------
# incoherent rate equations

def rate_equation_model(n1_0, n2_0, heat1, heat2, kappa_ex, cooling2,
                        duration, record_points=201):
    """Mean-occupation rate equations for incoherent exchange, solved exactly.

        dn1/dt = heat1 - kappa_ex (n1 - n2)
        dn2/dt = heat2 + kappa_ex (n1 - n2) - gamma_c (n2 - n_ss)

    An infinite damping rate hard-clamps n2 at n_ss (the continuously
    cooled ion) and solves for n1 alone. Either way dn/dt = A n + b with A
    constant and symmetric, so with A = V Lam V^T
    n(t) = V (e^(Lam t) V^T n0 + t phi1(Lam t) V^T b), phi1(z) = expm1(z)/z.
    """
    for name, v in (("n1_0", n1_0), ("n2_0", n2_0), ("heat1", heat1),
                    ("heat2", heat2), ("kappa_ex", kappa_ex)):
        check_range(name, v, ge=0)
    check_range("duration", duration, gt=0)
    record_points = check_count("record_points", record_points, 2)

    times = np.linspace(0.0, duration, record_points)
    gamma, n_ss = cooling2.damping_rate, cooling2.steady_state_occupation
    if math.isinf(gamma):
        a, b, n0 = [[-kappa_ex]], [heat1 + kappa_ex * n_ss], [n1_0]
    else:
        a = [[-kappa_ex, kappa_ex], [kappa_ex, -kappa_ex - gamma]]
        b, n0 = [heat1, heat2 + gamma * n_ss], [n1_0, n2_0]
    lam, v = np.linalg.eigh(np.array(a, float))
    z = np.outer(times, lam)
    phi1 = np.where(z == 0.0, 1.0, np.expm1(z) / np.where(z == 0.0, 1.0, z))
    n = (np.exp(z) * (v.T @ n0) + times[:, None] * phi1 * (v.T @ b)) @ v.T
    n2 = n[:, 1] if len(b) == 2 else np.full(record_points, float(n_ss))
    zeros = np.zeros(record_points)
    return EnsembleTrajectory(times, n[:, 0], n2, zeros, zeros)


def rate_equation_fixed_point(heat1, heat2, kappa_ex, cooling2):
    """Closed-form steady state of the 2x2 linear system (finite clamp)."""
    check_range("heat1", heat1, ge=0)
    check_range("heat2", heat2, ge=0)
    check_range("kappa_ex", kappa_ex, gt=0)
    gamma = check_range("damping_rate", cooling2.damping_rate, gt=0)
    n_ss = cooling2.steady_state_occupation
    n2 = n_ss + (heat1 + heat2) / gamma
    n1 = n2 + heat1 / kappa_ex
    return n1, n2
