"""Time-domain simulation of two wire-coupled ion oscillators.

Three model tiers, cheapest last:

* ``integrate_full``     -- velocity-Verlet integration of the coupled
  equations of motion with impulsive stochastic force kicks (heating),
  viscous drag plus compensating diffusion (Doppler clamp), and per-shot
  trap-frequency jitter. Ground truth at short durations.
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

Both integrators are linear with constant coefficients per realization,
whose per-shot jitter holds one frequency offset for the whole run: a
step maps the real state s, (Re a, Im a) of the envelope or (x, v) of the
Verlet scheme with drag, to T s plus a kick drawn from N(0, D). So n
steps are exactly T^n s plus one draw from N(0, Q_n),
Q_n = sum_{k<n} T^k D T^k^T, both built by doubling (Van Loan 1978, IEEE
TAC 23:395): each realization advances one record interval at a time,
with the stepped integrator's statistics and without its steps. The
states of consecutive record points are read out (occupations, and the
energy check of the Verlet scheme) and summed into the ensemble moments
together, once per block of up to _WIDE row-records: a one-row run does
so once, a batch of 2,048 rows once per record point. The same maps give
the exact ensemble means (``exact=True``).

Realizations b _BATCH to (b + 1) _BATCH - 1 of a point with seed s are
segment b. Its generator, ``default_rng(SeedSequence(s, spawn_key=(b,)))``,
draws full _BATCH-row arrays: the set-up draws, then one per record
interval, none in a batch without diffusion. A row without diffusion
takes no kick from its draws, and a generator feeds only its own
segment, so a realization's numbers depend only on the seed and its
index: output is the same whatever the batch packing or ensemble size,
and adding realizations never moves the existing ones.

A batch holds consecutive segments, of one point or of several, and one
kernel, ``_batch``, runs it for both integrators; the integrator's model
(``_verlet_model`` or ``_envelope_model``) supplies the step maps and the
read-out. Where neither ion has jitter, a point's rows share one step
map, built once per batch, and a batch holds up to _WIDE rows; with
jitter every row has its own map, and a batch holds _BATCH rows, which
bounds its memory. States and maps are held rows-last, so that a row's
bits do not depend on the batch it sits in; a one-row batch, whose row
axis einsum would drop, sums its products explicitly (see ``_batch``).
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
_WIDE = 8 * _BATCH   # rows per batch where no ion has jitter, else _BATCH,
                     # and row-records per read-out block; it bounds a
                     # batch's memory and moves no output
_NODES = 64      # Gauss-Hermite nodes per jittered ion in the exact means
# the draw layout, as the manifests record it
RNG_LAYOUT = (f"SeedSequence(seed, spawn_key=(b,)) per {_BATCH}-realization "
              f"segment b")

INIT_THERMAL = "thermal"    # Rayleigh amplitude, uniform phase
INIT_COHERENT = "coherent"  # fixed amplitude, uniform phase
INIT_FIXED = "fixed"        # fixed amplitude, zero phase


@dataclass(frozen=True)
class NoiseModel:
    """Heating drive and trap-frequency jitter for one site.

    heating_rate_at_reference : quanta/s produced at reference_frequency
    spectral_exponent         : alpha of the field PSD S_E ~ 1/f^alpha
    jitter_sigma              : Hz rms of the trap-frequency fluctuation,
                                one offset per realization held for the run
    """

    heating_rate_at_reference: float = 0.0
    reference_frequency: float = 0.0
    spectral_exponent: float = 1.0
    jitter_sigma: float = 0.0

    def __post_init__(self):
        check_range("heating_rate_at_reference", self.heating_rate_at_reference,
                    ge=0)
        check_range("reference_frequency", self.reference_frequency, ge=0)
        check_range("spectral_exponent", self.spectral_exponent, ge=0, le=2)
        check_range("jitter_sigma", self.jitter_sigma, ge=0)
        if self.heating_rate_at_reference > 0:
            check_range("reference_frequency with nonzero heating",
                        self.reference_frequency, gt=0)


NO_NOISE = NoiseModel()


@dataclass(frozen=True)
class CoolingClamp:
    """Phenomenological Doppler clamp: drag at gamma_c toward n_ss."""

    damping_rate: float = 0.0           # 1/s on the occupation
    steady_state_occupation: float = 0.0

    def __post_init__(self):
        check_range("damping_rate", self.damping_rate, ge=0, le=math.inf)
        # below 1e100, squared occupations summed over an ensemble stay finite
        check_range("steady_state_occupation", self.steady_state_occupation,
                    ge=0, lt=1e100)


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
    """The damping rates; the jitter rms, rad/s; and the diffusion
    (points, 2) in quanta/s, heating at each point's ``nominal``
    frequencies plus clamp back-action."""
    gamma = np.array([cooling[0].damping_rate, cooling[1].damping_rate])
    if not np.all(np.isfinite(gamma)):
        raise ValueError("the integrators need finite damping rates")
    n_ss = np.array([cooling[0].steady_state_occupation,
                     cooling[1].steady_state_occupation])
    ndot = [[noise_psd(noise[i], nom[i]) for i in (0, 1)] for nom in nominal]
    return (gamma, np.array([TWO_PI * n.jitter_sigma for n in noise]),
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


def step_grid(duration, dt, dt_max, record_points):
    """(dt, rec_idx) of a run: the step, defaulting to ``dt_max``, and the
    steps of the record points. Scenarios call it to refuse a run at a key."""
    if dt is None:
        dt = dt_max
    check_range("dt", dt, gt=0)
    if dt > dt_max * (1.0 + 1e-9):
        raise ValueError(f"dt={dt:g} too coarse, need <= {dt_max:g}")
    check_range("duration", duration, ge=dt)    # at least one step
    n_records = check_count("record_points", record_points, 2)
    steps = duration / dt - 1e-9    # may be inf, which math.ceil refuses
    if steps > 50_000_000:
        raise ValueError(f"step budget exceeded: {steps:.3g} steps, over 5e7")
    n_steps = math.ceil(steps)
    return dt, np.unique(np.round(np.linspace(0, n_steps, n_records)).astype(int))


def _integrate(model, base, points, grid, n_realizations, noise, cooling,
               initial, init_phase):
    """Front end shared by both integrators; one EnsembleTrajectory per point.

    ``points`` holds one (seed, detuning pair) per point, ``grid`` the
    run's (dt, rec_idx); ``model`` and ``base`` are as ``_batch`` takes
    them. Batches of segments run through ``_batch`` one at a time, in
    order; a point's sums start at its first segment. A batch holds up to
    _WIDE rows without jitter on either ion (``noise``), else _BATCH.
    """
    n_real = check_count("n_realizations", n_realizations, 1)
    for seed, _point in points:
        check_count("seed", seed, 0)
    cap = _WIDE if all(n.jitter_sigma == 0 for n in noise) else _BATCH
    sums, first = [], None
    for segments in _pack(points, n_real, cap):
        moments, x, e = _batch(segments, model, base, noise, cooling, initial,
                               init_phase, grid[1])
        if first is None:
            first = (x, e)
        for (_seed, _point, lo, _hi), segment in zip(segments, moments):
            if lo == 0:
                sums.append(segment.copy())
            else:
                sums[-1] += segment
    trajectories = []
    for p, (s, s2) in enumerate(sums):
        mean, sem = _mean_and_sem(s, s2, n_real)
        trajectories.append(EnsembleTrajectory(
            times=grid[1] * grid[0],
            n_bar_1=mean[:, 0], n_bar_2=mean[:, 1],
            n_bar_sem_1=sem[:, 0], n_bar_sem_2=sem[:, 1],
            positions=first[0] if p == 0 else None,
            energies=first[1] if p == 0 else None))
    return trajectories


def _batch(segments, model, base, noise, cooling, initial, init_phase,
           rec_idx):
    """One batch of (seed, detuning pair, lo, hi) segments, realizations
    lo..hi-1 of a point each: each segment's occupation sums and sums of
    squares on the record grid, then realization 0's positions and
    energies, or None.

    The batch's rows are its segments' realizations; each segment's
    generator draws (_BATCH, k) arrays of 4 normals (thermal amplitudes),
    2 uniform phases and 2 jitter normals, cut to its rows. Heating is
    evaluated at each point's nominal frequencies, ``base`` plus its
    detuning. ``model(detuning, offsets, gamma, diffusion)`` takes the
    rows' detunings and jitter offsets in rad/s, the damping rates and the
    rows' diffusion in quanta/s, and gives the rows' keys, step ``maps``,
    quadrature scales and ``reader``, as ``_verlet_model`` and
    ``_envelope_model`` do.

    Each row then advances a record interval at a time. A row's step map
    and noise are ``maps(key)`` of its ``key`` row, once per run of
    consecutive rows with equal keys, with their ``_power`` once per
    interval length n, held rows-last: (4, 4, rows), or (4, 4, 1) where
    every row has one key. A point's rows without jitter make one run,
    jittered rows one each. Equal keys apart are mapped twice, to the same
    bits, since every map is computed row by row. The C-contiguous (4,
    rows) state takes s <- T^n s + L_n z, L_n L_n^T = Q_n, by einsum, whose
    inner loop then runs over rows: each row adds its four terms in one
    order at any batch width. A one-row batch sums them explicitly, as
    einsum drops its row axis and adds them in another order. The batch is
    kicked if any row has a nonzero kick in ``key`` (its last two columns,
    the kicks' rms, in both models): then z stacks one (_BATCH, 4) normal
    draw of every segment's generator, cut to its rows, as a C-contiguous
    (4, rows), and a row without kicks has Q_n = 0, so L_n = 0 and its
    state takes no kick. The states of a block of max(1, _WIDE // rows)
    consecutive record slots, at most _WIDE row-records, are read out and
    recorded together: ``read_out(j, states)`` gives the (k, rows, 2)
    occupations of the (k, rows, 4) states at slots j..j+k-1.
    """
    from numpy.random import SeedSequence, default_rng

    detuning = [d for _seed, d, _lo, _hi in segments]
    gamma, sigma, diffusion = _rates(
        noise, cooling, [[base[i] + d[i] for i in (0, 1)] for d in detuning])
    counts = [hi - lo for _seed, _d, lo, hi in segments]
    rngs = [default_rng(SeedSequence(seed, spawn_key=(lo // _BATCH,)))
            for seed, _d, lo, _hi in segments]
    draws = [(r.standard_normal((_BATCH, 4)), r.uniform(0.0, TWO_PI, (_BATCH, 2)),
              r.standard_normal((_BATCH, 2))) for r in rngs]
    z, phase, jit = (np.concatenate([d[k][:n] for d, n in zip(draws, counts)])
                     for k in range(3))
    ends = np.cumsum(counts)

    def rows(values):
        # values per segment, repeated over its rows
        return np.repeat(np.asarray(values, float), counts, axis=0)

    key, maps, scale, reader = model(
        rows(detuning), np.where(sigma > 0, sigma * jit, 0.0), gamma,
        rows(diffusion))
    s = scale * _initial_state(initial, init_phase, z, phase)[0]
    read_out, first = reader(s, rec_idx)
    record, moments = _recorder(list(zip([0, *ends[:-1]], ends)), len(rec_idx))
    block, s = max(1, _WIDE // len(s)), np.ascontiguousarray(s.T)
    kicked = np.any(key[:, 2:] > 0)
    new = np.r_[True, np.any(key[1:] != key[:-1], axis=1)]   # a run's first row
    inv, powers = np.cumsum(new) - 1, {}

    def spread(a):
        return a.transpose(1, 2, 0).take(inv if len(a) > 1 else [0], axis=2)

    def apply(a, v):
        return np.add.reduce(a * v, 1) if v.shape[1] == 1 else \
            np.einsum("ijr,jr->ir", a, v)

    def flush(j, states):
        # a block of one is a view of its state, not a copy
        states = states[0][None] if len(states) == 1 else np.stack(states)
        record(j, read_out(j, states.swapaxes(1, 2)))

    # the energy check reports overflows of the propagation and read-out
    with np.errstate(over="ignore", invalid="ignore"):
        t, d = maps(key[new])
        states, first_slot = [s], 0     # the block's states and its first slot
        for j, n in enumerate(np.diff(rec_idx), 1):
            if len(states) == block:
                flush(first_slot, states)
                states, first_slot = [], j
            if n not in powers:
                tn, qn = _power(t, d, int(n))
                powers[n] = spread(tn), spread(_factor(qn)) if kicked else None
            tn, ln = powers[n]
            s = apply(tn, s)
            if kicked:
                z = np.concatenate([r.standard_normal((_BATCH, 4))[:m]
                                    for r, m in zip(rngs, counts)])
                s += apply(ln, z.T.copy())
            states.append(s)
        flush(first_slot, states)
    return (moments, *first)


def _recorder(bounds, n_records):
    """``record(j, n)`` puts the (k, rows, 2) occupations n of record slots
    j..j+k-1 and their squares, summed per segment, in those slots of the
    returned (segments, 2, n_records, 2). The segments' (r0, r1) ``bounds``
    tile the rows; one ``np.add.reduceat`` at their first rows adds each
    segment's rows in the order of its own slice, whatever else the block
    holds."""
    sums = np.zeros((len(bounds), 2, n_records, 2))
    starts = np.asarray(bounds)[:, 0]

    def record(j, n):
        slots = slice(j, j + len(n))
        for k, v in enumerate((n, n * n)):      # the sums, then the squares'
            sums[:, k, slots] = np.add.reduceat(v, starts, 1).swapaxes(0, 1)
    return record, sums


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
    finite, so that an overflowed map fails the energy check. The
    envelope's Q_n is the real form of a complex Hermitian 2x2 matrix, so
    its eigenvalues come in pairs and rounding sets ``eigh``'s basis within
    a pair: any change to Q_n's bits redraws every envelope realization."""
    out = np.full_like(q, np.nan)
    ok = np.all(np.isfinite(q), axis=(1, 2))
    scale = np.sqrt(np.diagonal(q[ok], axis1=1, axis2=2))
    scale = np.where(scale > 0, scale, 1.0)
    lam, vec = np.linalg.eigh(q[ok] / scale[:, :, None] / scale[:, None, :])
    out[ok] = scale[:, :, None] * vec * np.sqrt(np.maximum(lam, 0.0))[:, None, :]
    return out


def _exact(model, base, detuning, noise, cooling, initial, init_phase, grid):
    """Exact ensemble means of one point, zero SEM, from the sampled
    kernel's own step maps: second moments C <- T^n C T^n^T + Q_n per
    record interval at Gauss-Hermite nodes of the per-shot jitter, their
    occupations summed with the nodes' weights. ``model`` and ``base`` are
    as ``_batch`` takes them, ``detuning`` the point's pair."""
    dt, rec_idx = grid
    gamma, sigma, diffusion = _rates(
        noise, cooling, [[base[i] + detuning[i] for i in (0, 1)]])
    nodes, weights = _jitter_nodes(sigma)
    key, maps, scale, _reader = model(np.asarray(detuning), nodes, gamma,
                                      np.repeat(diffusion, len(weights), 0))
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

@np.errstate(over="ignore")   # an overflowed product takes two square roots
def _spring(params, w):
    # coupling spring constant 2 kappa sqrt(m1 w1 m2 w2) per row (jitter is
    # a ~1e-4 effect here)
    k = np.sqrt(params.mass1 * params.mass2 * w[:, 0] * w[:, 1])
    k = np.where(np.isinf(k), np.sqrt(params.mass1 * w[:, 0]) *
                 np.sqrt(params.mass2 * w[:, 1]), k)
    return 2.0 * params.kappa * k


def _accel(x, w2, g_over_m):
    """Acceleration (rows, 2) of the coupled ions at positions x."""
    return -(w2 * x) - g_over_m * x[:, ::-1]


def _verlet_model(params, dt, record_first, detuning, offsets, gamma,
                  diffusion):
    """Per row of ``detuning`` plus jitter ``offsets`` from the nominal
    frequencies: the key (w1, w2, kick1, kick2), the frequencies and the
    rms velocity kicks; ``maps(keys)``, one velocity-Verlet step with drag
    on s = (x, v) (rows, 4, 4) and its kick covariance; the scale (rows, 4)
    from quadratures to s; and ``reader(s, rec_idx)`` of the initial
    states s. The reader gives the sampled read-out ``read_out(j,
    states)``, the occupations (k, rows, 2) of the (k, rows, 4) states at
    slots j..j+k-1 once their energies pass the check against the initial
    ones, and realization 0's positions and energies: arrays that the
    read-out fills where ``record_first``, else None."""
    m = np.array([params.mass1, params.mass2])
    w_nom = np.array([params.omega1, params.omega2])
    w = w_nom + detuning + offsets                      # (B, 2) rad/s
    drag = np.exp(-gamma * dt)
    sigma_v = np.sqrt(4.0 * m * HBAR * w_nom * diffusion * dt / 2.0) / m

    def maps(key):
        # the step's images of the four unit states are the map's columns;
        # drag acts on v only
        w2 = np.repeat(key[:, :2] ** 2, 4, axis=0)
        g_over_m = np.repeat(_spring(params, key[:, :2])[:, None] / m, 4, 0)
        s = np.tile(np.eye(4), (len(key), 1))
        x, v = s[:, :2], s[:, 2:]
        accel = _accel(x, w2, g_over_m)
        x += dt * v + (0.5 * dt * dt) * accel
        v[:] = (v + (0.5 * dt) * (accel + _accel(x, w2, g_over_m))) * drag
        d = np.concatenate([0 * key[:, 2:], key[:, 2:] ** 2], axis=1)
        return s.reshape(-1, 4, 4).transpose(0, 2, 1), d[:, :, None] * np.eye(4)

    def reader(s, rec_idx):
        w2, g = w ** 2, _spring(params, w)
        x, v = s[:, :2], s[:, 2:]
        e_ref = max(float(np.max(0.5 * m * v ** 2 + 0.5 * m * w2 * x ** 2)),
                    HBAR * float(np.max(w)))
        first_x = np.zeros((len(rec_idx), 2)) if record_first else None
        first_e = np.zeros(len(rec_idx)) if record_first else None

        def read_out(j, states):
            x, v = states[..., :2], states[..., 2:]
            e = 0.5 * m * v ** 2 + 0.5 * m * w2 * x ** 2
            if record_first:
                first_x[j:j + len(x)] = x[:, 0]
                first_e[j:j + len(x)] = e[:, 0].sum(axis=1) + \
                    g[0] * x[:, 0, 0] * x[:, 0, 1]
            bad = np.flatnonzero(~(e.max(axis=(1, 2)) <= 1e6 * e_ref))
            if bad.size:
                raise RuntimeError(f"unstable step: energy exceeded 1e6x "
                                   f"initial at step {rec_idx[j + bad[0]]}")
            return e / (HBAR * w)
        return read_out, (first_x, first_e)

    # a = sqrt(m w / 2 hbar) (x + i v/w) up to a phase; invert per quadrature
    scale_x = np.sqrt(2.0 * HBAR / (m[None, :] * w))
    return (np.concatenate([w, sigma_v], axis=1), maps,
            np.concatenate([scale_x, scale_x * w], axis=1), reader)


def verlet_step_limit(params):
    """Largest step that resolves the fast motion: 2 pi / (50 max omega)."""
    return TWO_PI / (50.0 * max(params.omega1, params.omega2))


def integrate_full(params, initial, noise=(NO_NOISE, NO_NOISE),
                   cooling=(NO_COOLING, NO_COOLING), duration=1e-3, dt=None,
                   seed=0, n_realizations=1, init_phase=(INIT_THERMAL, INIT_THERMAL),
                   record_points=201, record_positions=False, exact=False):
    """Velocity-Verlet SDE ensemble; returns an EnsembleTrajectory.

    ``initial`` is the (n1, n2) occupation pair, realized per
    ``init_phase``. ``dt`` defaults to, and must not exceed,
    ``verlet_step_limit``. ``exact=True`` returns the exact
    ensemble means of the same scheme instead, with zero SEM and no
    positions; the seed and the ensemble size are then unused.
    """
    grid = step_grid(duration, dt, verlet_step_limit(params), record_points)
    model = functools.partial(_verlet_model, params, grid[0], record_positions)
    base, detuning = (params.omega1, params.omega2), (0.0, 0.0)
    if exact:
        return _exact(model, base, detuning, noise, cooling, initial,
                      init_phase, grid)
    return _integrate(model, base, [(seed, detuning)], grid, n_realizations,
                      noise, cooling, initial, init_phase)[0]


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
    circular kicks; the unit quadrature scale; and ``reader``, as
    ``_verlet_model`` gives it, whose read-out is n = |a|^2 and records
    no realization."""
    def maps(key):
        m = _expm2(-1j * key[:, 0] - 0.5 * gamma[0],
                   -1j * key[:, 1] - 0.5 * gamma[1],
                   -1j * kappa * np.ones(len(key)), dt)
        return (np.block([[m.real, -m.imag], [m.imag, m.real]]),
                (np.tile(key[:, 2:], 2) ** 2)[:, :, None] * np.eye(4))

    def reader(_s, _rec_idx):
        return (lambda j, s: s[..., :2] ** 2 + s[..., 2:] ** 2), (None, None)

    return (np.concatenate([detuning + offsets, np.sqrt(diffusion * dt / 2.0)],
                           axis=1), maps, np.ones((len(offsets), 4)), reader)


def envelope_step_limit(kappa, carrier, detuning, noise, cooling, duration):
    """Largest envelope step that resolves the slow dynamics:
    1/(100 max(kappa, |detuning| + 5 sigma, gamma_c, 1/duration)), with
    sigma the angular jitter of each ion. All slow rates must sit far below
    the carrier; the ValueError that says otherwise holds in ``rate`` the
    index of the largest: kappa, each ion's detuning, each damping rate.
    """
    check_range("kappa", kappa)
    check_range("carrier", carrier, gt=0)
    check_range("detuning", detuning)
    check_range("duration", duration, gt=0)
    sig = [TWO_PI * n.jitter_sigma for n in noise]
    rates = [abs(kappa)] + [abs(d) + 5.0 * s for d, s in zip(detuning, sig)] + \
        [c.damping_rate if np.isfinite(c.damping_rate) else 0.0 for c in cooling]
    r_max = max(rates)
    if r_max > carrier / 20.0:
        err = ValueError("scale separation violated: slow rates approach the carrier")
        err.rate = rates.index(r_max)
        raise err
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
    grid = step_grid(duration, dt, min(
        envelope_step_limit(kappa, carrier, d, noise, cooling, duration)
        for _s, d in points), record_points)
    model = functools.partial(_envelope_model, kappa, grid[0])
    if exact:
        trajectories = [_exact(model, (carrier, carrier), d, noise, cooling,
                               initial_occupations, init_phase, grid)
                        for _s, d in points]
    else:
        trajectories = _integrate(model, (carrier, carrier), points, grid,
                                  n_realizations, noise, cooling,
                                  initial_occupations, init_phase)
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
