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
* ``rate_equation_model`` -- deterministic mean-occupation ODEs for
  incoherent exchange with a cooling clamp.

Occupations reported by the simulators are classical ensemble means
n = E/(hbar omega) without the zero-point half quantum; every regime of
interest here has n >> 1. Heating enters as a white stochastic force with
single-sided PSD S_F = 4 m hbar omega ndot, so an uncoupled, undamped ion
heats at exactly ndot quanta/s; the 1/f^alpha character of the field
noise enters only through the frequency dependence of ndot between runs
(see ``noise_psd``), never within one run.

Every stochastic realization owns a private generator spawned from
(master seed, realization index): the PCG64 stream of numpy's
``SeedSequence(seed, spawn_key=(i,))``. The sequences are hashed in bulk,
a batch's indices at once (``_spawn_states``, tested against numpy), so
no SeedSequence object is built per realization. The draw order is
written once: the set-up draws in ``_batch_setup``, the chunked per-step
draws in ``_step_loop``. So ensembles are bit-identical regardless of
batch size, worker count, or scheduling.

``integrate_envelope`` can integrate several points (detuning pairs, each
with its own seed) in one call. Each point's ensemble is cut into
segments at multiples of _BATCH, and consecutive segments, of one point
or of several, share a batch of at most _BATCH rows, so a scan of small
ensembles runs a few wide step loops instead of one narrow loop per
point. This moves no output bit: every step is row-wise arithmetic, so a
row's values do not depend on the rows beside it; each segment's
occupation sums are taken over its own rows; and each point's segments
are reduced in the same order as when the point runs alone.

A full-integrator batch of one row (a single realization, as in the
noiseless swap) steps on Python floats rather than on (1, 2) arrays,
where numpy's per-call cost, not the arithmetic, sets the pace. It does
the same float64 operations in the same order as the array step, so its
output is bitwise the array path's.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import CONST

HBAR = CONST.reduced_planck
TWO_PI = 2.0 * math.pi

# fixed internals; changing them changes the RNG draw layout or the order
# in which the ensemble moments are summed
_BATCH = 256     # rows per worker batch; ensembles are cut at its multiples
_CHUNK = 1024    # integration steps per RNG draw block

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
        if not (0 <= self.heating_rate_at_reference < math.inf):
            raise ValueError("heating_rate_at_reference must be finite and >= 0")
        if self.heating_rate_at_reference > 0 \
                and not (0 < self.reference_frequency < math.inf):
            raise ValueError("reference_frequency required with nonzero heating")
        if not (0.0 <= self.spectral_exponent <= 2.0):
            raise ValueError("spectral_exponent must lie in [0, 2]")
        if not (0 <= self.jitter_sigma < math.inf):
            raise ValueError("jitter_sigma must be finite and >= 0")
        if self.jitter_kind not in (JITTER_PER_SHOT, JITTER_OU):
            raise ValueError(f"unknown jitter_kind {self.jitter_kind!r}")
        if self.jitter_kind == JITTER_OU and self.jitter_sigma > 0 \
                and not (self.jitter_correlation_time > 0):
            raise ValueError("OU jitter needs a positive correlation time")


NO_NOISE = NoiseModel()


@dataclass(frozen=True)
class CoolingClamp:
    """Phenomenological Doppler clamp: drag at gamma_c toward n_ss."""

    damping_rate: float = 0.0           # 1/s on the occupation
    steady_state_occupation: float = 0.0

    def __post_init__(self):
        if not (self.damping_rate >= 0):
            raise ValueError("damping_rate must be >= 0")
        if not (0 <= self.steady_state_occupation < math.inf):
            raise ValueError("steady_state_occupation must be finite and >= 0")


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
        if not (0 < self.mass1 < math.inf and 0 < self.mass2 < math.inf):
            raise ValueError("masses must be positive and finite")
        if not (0 < self.omega1 < math.inf and 0 < self.omega2 < math.inf):
            raise ValueError("frequencies must be positive and finite")
        if not math.isfinite(self.kappa):
            raise ValueError("kappa must be finite")

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
    if not (omega > 0):
        raise ValueError("omega must be positive")
    if model.heating_rate_at_reference == 0:
        return 0.0
    return model.heating_rate_at_reference * \
        (model.reference_frequency / omega) ** (model.spectral_exponent + 1.0)


# ---------------------------------------------------------------------------
# seeding and ensemble plumbing

def _spawn_states(seed, indices):
    """PCG64 seed words of ``SeedSequence(seed, spawn_key=(i,))`` per index.

    Returns ``generate_state(4, np.uint64)`` of each of those sequences as
    the rows of an (n, 4) uint64 array, computed for all indices at once.
    numpy's SeedSequence hashes 32-bit words with multipliers that do not
    depend on the data, so its algorithm (numpy/random/bit_generator.pyx)
    runs here word by word on arrays over the index, in uint64 masked to
    32 bits. The entropy is the seed's words, padded to the pool size of 4
    because a spawn key follows, then the index as one word.
    """
    index = np.asarray(indices, dtype=np.uint64)
    if index.size and int(index.max()) >> 32:
        raise ValueError("realization indices must be below 2**32")
    m32 = 0xFFFFFFFF
    words = []
    while True:
        words.append(np.full_like(index, seed & m32))
        seed >>= 32
        if not seed:
            break
    words += [np.zeros_like(index)] * (4 - len(words)) + [index]

    def hasher(hash_const, mult):
        # each call advances the hash constant, whatever the value hashed
        def hashmix(value):
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = hash_const * mult & m32
            value = value * hash_const & m32
            return value ^ value >> 16
        return hashmix

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & m32
        return result ^ result >> 16

    # mix_entropy: the pool from the first 4 words, mixed together, then
    # each further word mixed into every pool word
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))

    # generate_state(4, np.uint64): 8 32-bit words, cycling over the pool,
    # in little-endian order, joined arithmetically
    hashmix = hasher(0x8B51F9DD, 0x58F38DED)
    state = [hashmix(pool[k % 4]) for k in range(8)]
    return np.stack([state[2 * k] | state[2 * k + 1] << 32 for k in range(4)],
                    axis=1)


@functools.cache
def _seed_row_type():
    """An ISeedSequence that hands one row of ``_spawn_states`` to PCG64.

    Defined on first use, so that importing this module does not load
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedRow(ISeedSequence):
        __slots__ = ("row",)

        def __init__(self, row):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise NotImplementedError("a seed row holds 4 uint64 words")
            return self.row

    return SeedRow


def _spawn_rngs(seed, indices):
    # documented splitting scheme: stream i = SeedSequence(seed, spawn_key=(i,));
    # adding realizations never perturbs existing ones. The sequences'
    # hashes are computed in bulk, and PCG64 seeds itself from each row
    from numpy.random import PCG64, Generator

    seed_row = _seed_row_type()
    return [Generator(PCG64(seed_row(row)))
            for row in _spawn_states(int(seed), indices)]


def _count(name, value, least):
    """``value`` as an int, when it is an integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _initial_amplitudes(initial_occupations, init_phase, z, phase):
    """Complex amplitudes a with |a|^2 in quanta units, per init policy."""
    b = z.shape[0]
    a = np.empty((b, 2), dtype=complex)
    for i in (0, 1):
        n0 = float(initial_occupations[i])
        kind = init_phase[i]
        if kind == INIT_THERMAL:
            a[:, i] = math.sqrt(n0 / 2.0) * (z[:, 2 * i] + 1j * z[:, 2 * i + 1])
        elif kind == INIT_COHERENT:
            a[:, i] = math.sqrt(n0) * np.exp(1j * phase[:, i])
        elif kind == INIT_FIXED:
            a[:, i] = math.sqrt(n0)
        else:
            raise ValueError(f"unknown init policy {kind!r}")
    return a


def _mean_and_sem(s, s2, n_real):
    """Ensemble mean and standard error from the (sum, sumsq) moments."""
    mean = s / n_real
    if n_real > 1:
        var = np.maximum(s2 / n_real - mean ** 2, 0.0) * n_real / (n_real - 1)
        sem = np.sqrt(var / n_real)
    else:
        sem = np.zeros_like(mean)
    return mean, sem


def _pack(points, n_real):
    """Yield batches of (seed, point argument, lo, hi) segments, in order.

    Each point's realizations are cut at multiples of _BATCH; consecutive
    segments, of one point or of several, share a batch while it holds at
    most _BATCH rows.
    """
    batch, rows = [], 0
    for seed, point in points:
        for lo in range(0, n_real, _BATCH):
            hi = min(lo + _BATCH, n_real)
            if rows + hi - lo > _BATCH:
                yield batch
                batch, rows = [], 0
            batch.append((seed, point, lo, hi))
            rows += hi - lo
    yield batch


def _run_batches(worker, batches, n_workers, extra_args):
    """Yield ``worker(segments, *extra_args)`` per batch, in order.

    A pool starts only for two batches or more, with a worker per batch
    up to ``n_workers``, and takes one batch per worker at a time, so the
    batches held in memory stay few however many there are.
    """
    head = list(itertools.islice(batches, n_workers))
    batches = itertools.chain(head, batches)
    extra = [itertools.repeat(arg) for arg in extra_args]
    if len(head) <= 1:
        yield from map(worker, batches, *extra)
        return
    with ProcessPoolExecutor(max_workers=len(head)) as pool:
        while window := list(itertools.islice(batches, len(head))):
            yield from pool.map(worker, window, *extra)


def _integrate(kernel, kernel_args, points, duration, dt, dt_max,
               n_realizations, record_points, n_workers):
    """Front end shared by both integrators; one EnsembleTrajectory per point.

    ``points`` holds one (seed, point argument) pair per point.
    ``kernel(segments, *kernel_args, dt, n_steps, rec_idx)`` integrates a
    batch of (seed, point argument, lo, hi) segments, realizations lo..hi-1
    of a point each. It returns each segment's occupation sums and sums of
    squares on the record grid, then the batch's first row's positions
    and energies or None. Each point's segment sums are added in order.
    """
    if not (0.0 < duration < math.inf):
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
    if dt is None:
        dt = dt_max
    if not (0.0 < dt < math.inf):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if dt > dt_max * (1.0 + 1e-9):
        raise ValueError(f"dt={dt:g} too coarse, need <= {dt_max:g}")
    if duration < dt:
        raise ValueError("duration must cover at least one step")
    n_real = _count("n_realizations", n_realizations, 1)
    n_records = _count("record_points", record_points, 2)
    n_workers = _count("n_workers", n_workers, 1)
    for seed, _point in points:
        _count("seed", seed, 0)
    n_steps = int(math.ceil(duration / dt - 1e-9))
    if n_steps > 50_000_000:
        raise ValueError("step budget exceeded; raise dt or shorten duration")
    rec_idx = np.unique(np.round(np.linspace(0, n_steps, n_records)).astype(int))

    per_point = -(-n_real // _BATCH)      # segments per point
    sums, first, done = [], None, 0
    for moments, x, e in _run_batches(kernel, _pack(points, n_real), n_workers,
                                      kernel_args + (dt, n_steps, rec_idx)):
        if first is None:
            first = (x, e)
        for s, s2 in moments:
            if done % per_point == 0:
                sums.append((s.copy(), s2.copy()))
            else:
                total, total2 = sums[-1]
                total += s
                total2 += s2
            done += 1
    trajectories = []
    for p, (s, s2) in enumerate(sums):
        mean, sem = _mean_and_sem(s, s2, n_real)
        trajectories.append(EnsembleTrajectory(
            times=rec_idx * dt,
            n_bar_1=mean[:, 0], n_bar_2=mean[:, 1],
            n_bar_sem_1=sem[:, 0], n_bar_sem_2=sem[:, 1],
            positions=first[0] if p == 0 else None,
            energies=first[1] if p == 0 else None))
    return trajectories


def _rows(segments, values):
    """Per-segment ``values`` repeated over each segment's rows."""
    return np.repeat(np.asarray(values, float),
                     [hi - lo for _seed, _point, lo, hi in segments], axis=0)


def _batch_setup(segments, nominal, noise, cooling, initial, init_phase, dt):
    """Set-up shared by both batch kernels, drawing in the fixed order.

    The batch's rows are its segments' realizations, in order. Each
    generator draws 4 normals (thermal amplitudes), 2 uniform phases and
    2 jitter normals, then 2 OU start normals when any OU jitter is on.
    Returns the generators; each segment's row bounds; the per-shot jitter
    offsets (rows, 2) in rad/s; the damping rates; the diffusion (rows, 2)
    in quanta/s (heating at each segment's ``nominal`` frequencies plus
    clamp back-action); the OU jitter state (rho, kick, stationary start)
    or None; and the initial amplitudes.
    """
    if not all(0.0 <= n0 < math.inf for n0 in initial):
        raise ValueError(f"initial occupations must be finite and >= 0, "
                         f"got {tuple(initial)!r}")
    gamma = np.array([cooling[0].damping_rate, cooling[1].damping_rate])
    if not np.all(np.isfinite(gamma)):
        raise ValueError("the integrators need finite damping rates")
    rngs = [r for seed, _point, lo, hi in segments
            for r in _spawn_rngs(seed, range(lo, hi))]
    ends = np.cumsum([hi - lo for _seed, _point, lo, hi in segments])
    bounds = list(zip([0, *ends[:-1]], ends))

    sigma = np.array([TWO_PI * n.jitter_sigma for n in noise])
    is_ou = np.array([n.jitter_kind == JITTER_OU for n in noise])
    ou_sigma = np.where(is_ou, sigma, 0.0)
    has_ou = bool(np.any(ou_sigma > 0))
    # the 2 jitter normals and the 2 OU start normals are consecutive
    # draws, so one call per generator takes both
    z = np.empty((len(rngs), 4))
    phase = np.empty((len(rngs), 2))
    jit = np.empty((len(rngs), 4 if has_ou else 2))
    for i, r in enumerate(rngs):
        r.standard_normal(out=z[i])
        phase[i] = r.uniform(0.0, TWO_PI, 2)
        r.standard_normal(out=jit[i])
    offsets = np.where(~is_ou & (sigma > 0), sigma * jit[:, :2], 0.0)

    n_ss = np.array([cooling[0].steady_state_occupation,
                     cooling[1].steady_state_occupation])
    ndot = [[noise_psd(noise[i], nom[i]) for i in (0, 1)] for nom in nominal]
    diffusion = _rows(segments, np.array(ndot) + gamma * n_ss)

    ou = None
    if has_ou:
        tau = np.array([max(n.jitter_correlation_time, 0.0) for n in noise])
        ou_rho = np.exp(-dt / np.where(tau > 0, tau, np.inf))
        ou = (ou_rho, ou_sigma * np.sqrt(1.0 - ou_rho ** 2),
              ou_sigma[None, :] * jit[:, 2:])
    return (rngs, bounds, offsets, gamma, diffusion, ou,
            _initial_amplitudes(initial, init_phase, z, phase))


def _step_loop(rngs, bounds, n_steps, rec_idx, kick_scale, kick_dtype, ou,
               advance, read_out):
    """The step loop of both batch kernels; returns each segment's moments.

    Per block of _CHUNK steps each generator draws all of the block's
    kick normals, then all of its OU normals, into reused (rows, _CHUNK,
    ...) buffers. A step's kick is (rows, 2) of ``kick_dtype``: one normal
    per ion when real, a real and an imaginary one when complex. Only
    generators with a positive entry in their row of ``kick_scale`` (rows,
    2) draw kicks; then the block is scaled once, in place, by
    ``kick_scale``, the same products the steps would otherwise take one
    by one. Each step updates the OU jitter state, then calls
    ``advance(kick, delta_ou)``; ``kick`` is None when no row is kicked,
    and zero in the rows that are not. At each record point (step 0
    included) ``read_out(slot)`` returns the (rows, 2) occupations, whose
    sum and sum of squares are accumulated per slot over each segment's
    ``bounds``.
    """
    slot = {int(k): j for j, k in enumerate(rec_idx)}
    sum_n = np.zeros((len(bounds), len(rec_idx), 2))
    sum_n2 = np.zeros((len(bounds), len(rec_idx), 2))

    def record(j):
        n = read_out(j)
        n2 = n ** 2
        for s, (r0, r1) in enumerate(bounds):
            sum_n[s, j] = n[r0:r1].sum(axis=0)
            sum_n2[s, j] = n2[r0:r1].sum(axis=0)

    record(0)                       # the record grid starts at step 0
    block = (len(rngs), min(_CHUNK, n_steps))
    kicked = np.any(kick_scale > 0, axis=1)
    kicks = np.zeros(block + (2,), kick_dtype) if np.any(kicked) else None
    delta_ou = None
    if ou is not None:
        ou_rho, ou_kick, delta_ou = ou
        ou_draws = np.empty(block + (2,))
    for start in range(0, n_steps, _CHUNK):
        span = min(_CHUNK, n_steps - start)
        for i, r in enumerate(rngs):
            if kicks is not None and kicked[i]:
                r.standard_normal(out=kicks[i, :span].view(float))
            if ou is not None:
                r.standard_normal(out=ou_draws[i, :span])
        if kicks is not None:
            kicks[:, :span] *= kick_scale[:, None, :]
        for k in range(span):
            if ou is not None:
                delta_ou = delta_ou * ou_rho[None, :] + ou_kick[None, :] * ou_draws[:, k]
            advance(None if kicks is None else kicks[:, k], delta_ou)
            if start + k + 1 in slot:
                record(slot[start + k + 1])
    return [(sum_n[s], sum_n2[s]) for s in range(len(bounds))]


# ---------------------------------------------------------------------------
# full stochastic integrator

def _full_batch(segments, params, noise, cooling, initial, init_phase,
                record_first, dt, n_steps, rec_idx):
    m = np.array([params.mass1, params.mass2])
    w_nom = np.array([params.omega1, params.omega2])
    rngs, bounds, offsets, gamma, diffusion, ou, a = _batch_setup(
        segments, [w_nom] * len(segments), noise, cooling, initial, init_phase, dt)
    w = w_nom[None, :] + offsets                        # (B, 2) rad/s
    w2 = w ** 2
    # coupling spring constant 2 kappa sqrt(m1 w1 m2 w2) per realization
    # (jitter is a ~1e-4 effect here)
    g = 2.0 * params.kappa * np.sqrt(m[0] * m[1] * w[:, 0] * w[:, 1])
    g_over_m = g[:, None] / m[None, :]
    drag = np.exp(-gamma * dt)[None, :]
    sigma_v = np.sqrt(4.0 * m * HBAR * w_nom * diffusion * dt / 2.0) / m
    has_drag = bool(np.any(gamma > 0))

    # a = sqrt(m w / 2 hbar) (x + i v/w) up to a phase; invert per quadrature
    scale_x = np.sqrt(2.0 * HBAR / (m[None, :] * w))
    x = scale_x * a.real
    v = scale_x * w * a.imag

    def energies(xx, vv):
        return 0.5 * m[None, :] * vv ** 2 + 0.5 * m[None, :] * w2 * xx ** 2

    n_rec = len(rec_idx)
    first_x = np.zeros((n_rec, 2)) if record_first else None
    first_e = np.zeros(n_rec) if record_first else None

    e0 = energies(x, v)
    e_ref = max(float(np.max(e0)), HBAR * float(np.max(w)))

    accel = -(w2 * x) - g_over_m * x[:, ::-1]

    def advance(kick, delta_ou):
        nonlocal x, v, w2, accel
        if delta_ou is not None:
            w2 = (w + delta_ou) ** 2
        x += dt * v + (0.5 * dt * dt) * accel
        new_accel = -(w2 * x) - g_over_m * x[:, ::-1]
        v += (0.5 * dt) * (accel + new_accel)
        accel = new_accel
        # impulsive drag and diffusion act on v only; accel is untouched
        if has_drag:
            v *= drag
        if kick is not None:
            v += kick

    def read_out(j):
        e = energies(x, v)
        if record_first:
            first_x[j] = x[0]
            first_e[j] = e[0].sum() + g[0] * x[0, 0] * x[0, 1]
        if np.max(e) > 1e6 * e_ref:
            raise RuntimeError(
                f"unstable step: energy exceeded 1e6x initial at step {rec_idx[j]}")
        return e / (HBAR * w)

    step = (advance, read_out)
    if len(rngs) == 1:
        # one row: the same float64 operations, in the same order, on
        # Python floats, which skips numpy's per-call cost on (1, 2)
        # arrays; each record point rebuilds x, v and w2 for read_out
        [x0, x1], [v0, v1] = x[0].tolist(), v[0].tolist()
        [a0, a1], [q0, q1], [w0, w1] = accel[0].tolist(), w2[0].tolist(), w[0].tolist()
        [gm0, gm1], [d0, d1] = g_over_m[0].tolist(), drag[0].tolist()
        h_x, h_v = 0.5 * dt * dt, 0.5 * dt

        def advance_row(kick, delta_ou):
            nonlocal x0, x1, v0, v1, a0, a1, q0, q1
            if delta_ou is not None:
                (o0, o1), = delta_ou.tolist()
                s0, s1 = w0 + o0, w1 + o1
                q0, q1 = s0 * s0, s1 * s1     # numpy's ** 2 is d * d
            x0 += dt * v0 + h_x * a0
            x1 += dt * v1 + h_x * a1
            n0 = -(q0 * x0) - gm0 * x1
            n1 = -(q1 * x1) - gm1 * x0
            v0 += h_v * (a0 + n0)
            v1 += h_v * (a1 + n1)
            a0, a1 = n0, n1
            if has_drag:
                v0 *= d0
                v1 *= d1
            if kick is not None:
                (k0, k1), = kick.tolist()
                v0 += k0
                v1 += k1

        def read_out_row(j):
            nonlocal x, v, w2
            x, v = np.array([[x0, x1]]), np.array([[v0, v1]])
            w2 = np.array([[q0, q1]])
            return read_out(j)

        step = (advance_row, read_out_row)

    moments = _step_loop(rngs, bounds, n_steps, rec_idx, sigma_v, float, ou,
                         *step)
    return moments, first_x, first_e


def integrate_full(params, initial, noise=(NO_NOISE, NO_NOISE),
                   cooling=(NO_COOLING, NO_COOLING), duration=1e-3, dt=None,
                   seed=0, n_realizations=1, init_phase=(INIT_THERMAL, INIT_THERMAL),
                   record_points=201, record_positions=False, n_workers=1):
    """Velocity-Verlet SDE ensemble; returns an EnsembleTrajectory.

    ``initial`` is the (n1, n2) occupation pair, realized per
    ``init_phase``. The step must resolve the fast motion:
    dt <= 2 pi / (50 max omega).
    """
    dt_max = TWO_PI / (50.0 * max(params.omega1, params.omega2))
    return _integrate(
        _full_batch, (params, noise, cooling, initial, init_phase,
                      record_positions), [(seed, None)],
        duration, dt, dt_max, n_realizations, record_points, n_workers)[0]


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


def _envelope_batch(segments, kappa, carrier, noise, cooling, initial,
                    init_phase, dt, n_steps, rec_idx):
    # a segment's point argument is its detuning pair; heating is
    # evaluated at each ion's nominal absolute frequency
    detuning = [d for _seed, d, _lo, _hi in segments]
    rngs, bounds, offsets, gamma, diffusion, ou, a = _batch_setup(
        segments, [[carrier + d[i] for i in (0, 1)] for d in detuning],
        noise, cooling, initial, init_phase, dt)
    delta = _rows(segments, detuning) + offsets
    kick_size = np.sqrt(diffusion * dt / 2.0)
    m_step = _expm2(-1j * delta[:, 0] - 0.5 * gamma[0],
                    -1j * delta[:, 1] - 0.5 * gamma[1],
                    -1j * kappa * np.ones(len(rngs)), dt)

    def advance(kick, delta_ou):
        nonlocal a
        a = np.einsum('rij,rj->ri', m_step, a)
        if kick is not None:
            a += kick
        if delta_ou is not None:
            a *= np.exp(-1j * dt * delta_ou)

    moments = _step_loop(rngs, bounds, n_steps, rec_idx, kick_size, complex,
                         ou, advance, lambda j: np.abs(a) ** 2)
    return moments, None, None


def envelope_step_limit(kappa, carrier, detuning, noise, cooling, duration):
    """Largest envelope step that resolves the slow dynamics:
    1/(100 max(kappa, |detuning| + 5 sigma, gamma_c, 1/duration)), with
    sigma the angular jitter of each ion. All slow rates must sit far below
    the carrier.
    """
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa!r}")
    if not (0.0 < carrier < math.inf):
        raise ValueError(f"carrier must be positive and finite, got {carrier!r}")
    if not all(math.isfinite(d) for d in detuning):
        raise ValueError(f"detuning must be finite, got {tuple(detuning)!r}")
    if not (0.0 < duration < math.inf):
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
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
                       record_points=201, n_workers=1):
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
    dt_max = min(envelope_step_limit(kappa, carrier, d, noise, cooling, duration)
                 for _s, d in points)
    trajectories = _integrate(
        _envelope_batch, (kappa, carrier, noise, cooling, initial_occupations,
                          init_phase), points,
        duration, dt, dt_max, n_realizations, record_points, n_workers)
    return trajectories if several else trajectories[0]


# ---------------------------------------------------------------------------
# incoherent rate equations

def rate_equation_model(n1_0, n2_0, heat1, heat2, kappa_ex, cooling2,
                        duration, record_points=201):
    """Mean-occupation ODEs for incoherent exchange.

        dn1/dt = heat1 - kappa_ex (n1 - n2)
        dn2/dt = heat2 + kappa_ex (n1 - n2) - gamma_c (n2 - n_ss)

    An infinite damping rate hard-clamps n2 at n_ss (the continuously
    cooled ion) and integrates n1 alone.
    """
    for name, v in (("n1_0", n1_0), ("n2_0", n2_0), ("heat1", heat1),
                    ("heat2", heat2), ("kappa_ex", kappa_ex)):
        if not (0.0 <= v < math.inf):
            raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
    if not (0.0 < duration < math.inf):
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
    record_points = _count("record_points", record_points, 2)
    from scipy.integrate import solve_ivp

    times = np.linspace(0.0, duration, record_points)
    gamma = cooling2.damping_rate
    n_ss = cooling2.steady_state_occupation

    if math.isinf(gamma):
        def rhs(_t, y):
            return [heat1 - kappa_ex * (y[0] - n_ss)]
        sol = solve_ivp(rhs, (0.0, duration), [float(n1_0)], t_eval=times,
                        method="DOP853", rtol=1e-10, atol=1e-8)
        n1 = sol.y[0]
        n2 = np.full_like(n1, n_ss)
    else:
        def rhs(_t, y):
            ex = kappa_ex * (y[0] - y[1])
            return [heat1 - ex, heat2 + ex - gamma * (y[1] - n_ss)]
        sol = solve_ivp(rhs, (0.0, duration), [float(n1_0), float(n2_0)],
                        t_eval=times, method="DOP853", rtol=1e-10, atol=1e-8)
        n1, n2 = sol.y
    if not sol.success:
        raise RuntimeError(f"rate-equation integration failed: {sol.message}")
    zeros = np.zeros_like(n1)
    return EnsembleTrajectory(times=times, n_bar_1=n1, n_bar_2=n2,
                              n_bar_sem_1=zeros, n_bar_sem_2=zeros)


def rate_equation_fixed_point(heat1, heat2, kappa_ex, cooling2):
    """Closed-form steady state of the 2x2 linear system (finite clamp)."""
    gamma = cooling2.damping_rate
    n_ss = cooling2.steady_state_occupation
    if kappa_ex <= 0 or gamma <= 0 or math.isinf(gamma):
        raise ValueError("fixed point needs positive finite kappa_ex and gamma")
    n2 = n_ss + (heat1 + heat2) / gamma
    n1 = n2 + heat1 / kappa_ex
    return n1, n2
