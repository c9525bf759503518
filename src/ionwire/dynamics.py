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
(master seed, realization index). Its draw order is written once: the
set-up draws in ``_batch_setup``, the chunked per-step draws in
``_step_loop``. So ensembles are bit-identical regardless of batch size,
worker count, or scheduling.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import CONST

HBAR = CONST.reduced_planck
TWO_PI = 2.0 * math.pi

# fixed internals; changing them changes the RNG draw layout
_BATCH = 256     # realizations per worker batch
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
        if not (self.heating_rate_at_reference >= 0):
            raise ValueError("heating_rate_at_reference must be >= 0")
        if self.heating_rate_at_reference > 0 \
                and not (self.reference_frequency > 0):
            raise ValueError("reference_frequency required with nonzero heating")
        if not (0.0 <= self.spectral_exponent <= 2.0):
            raise ValueError("spectral_exponent must lie in [0, 2]")
        if not (self.jitter_sigma >= 0):
            raise ValueError("jitter_sigma must be >= 0")
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
        if not (self.steady_state_occupation >= 0):
            raise ValueError("steady_state_occupation must be >= 0")


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
        if not (self.mass1 > 0 and self.mass2 > 0):
            raise ValueError("masses must be positive")
        if not (self.omega1 > 0 and self.omega2 > 0):
            raise ValueError("frequencies must be positive")

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

def _spawn_rngs(seed, indices):
    # documented splitting scheme: stream i = SeedSequence(seed, spawn_key=(i,));
    # adding realizations never perturbs existing ones
    return [np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(int(i),)))
            for i in indices]


def _record_indices(n_steps, record_points):
    if record_points < 2:
        raise ValueError("need at least two record points")
    return np.unique(np.round(np.linspace(0, n_steps, record_points)).astype(int))


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


def _reduce_moments(partials, n_real):
    """Deterministic batch-ordered reduction of the (sum, sumsq) moments."""
    s = partials[0][0].copy()
    s2 = partials[0][1].copy()
    for p in partials[1:]:
        s += p[0]
        s2 += p[1]
    mean = s / n_real
    if n_real > 1:
        var = np.maximum(s2 / n_real - mean ** 2, 0.0) * n_real / (n_real - 1)
        sem = np.sqrt(var / n_real)
    else:
        sem = np.zeros_like(mean)
    return mean, sem


def _run_batches(worker, n_real, n_workers, extra_args):
    """``worker(lo, hi, *extra_args)`` per batch of _BATCH realizations, in order."""
    los = range(0, n_real, _BATCH)
    args = (los, [min(lo + _BATCH, n_real) for lo in los],
            *(itertools.repeat(arg) for arg in extra_args))
    if n_workers <= 1 or len(los) == 1:
        return list(map(worker, *args))
    with ProcessPoolExecutor(max_workers=min(n_workers, len(los))) as pool:
        return list(pool.map(worker, *args))


def _integrate(kernel, kernel_args, duration, dt, dt_max, seed,
               n_realizations, record_points, n_workers):
    """Front end shared by both integrators; returns an EnsembleTrajectory.

    ``kernel(lo, hi, *kernel_args, dt, n_steps, rec_idx, seed)`` returns
    the occupation sums and sums of squares of realizations lo..hi-1 on
    the record grid, then realization lo's positions and energies or None.
    """
    if dt is None:
        dt = dt_max
    if dt > dt_max * (1.0 + 1e-9):
        raise ValueError(f"dt={dt:g} too coarse, need <= {dt_max:g}")
    if duration < dt:
        raise ValueError("duration must cover at least one step")
    n_steps = int(math.ceil(duration / dt - 1e-9))
    if n_steps > 50_000_000:
        raise ValueError("step budget exceeded; raise dt or shorten duration")
    rec_idx = _record_indices(n_steps, record_points)

    partials = _run_batches(kernel, n_realizations, n_workers,
                            kernel_args + (dt, n_steps, rec_idx, seed))
    mean, sem = _reduce_moments(partials, n_realizations)
    return EnsembleTrajectory(
        times=rec_idx * dt,
        n_bar_1=mean[:, 0], n_bar_2=mean[:, 1],
        n_bar_sem_1=sem[:, 0], n_bar_sem_2=sem[:, 1],
        positions=partials[0][2], energies=partials[0][3])


def _batch_setup(lo, hi, seed, noise, cooling, nominal, initial, init_phase, dt):
    """Set-up shared by both batch kernels, drawing in the fixed order.

    Each generator draws 4 normals (thermal amplitudes), 2 uniform phases
    and 2 jitter normals, then 2 OU start normals when any OU jitter is
    on. Returns the batch's generators; its per-shot jitter offsets (B, 2)
    in rad/s; the damping rates; the diffusion in quanta/s (heating at the
    ``nominal`` frequencies plus clamp back-action); the OU jitter state
    (rho, kick, stationary start) or None; and the initial amplitudes.
    """
    rngs = _spawn_rngs(seed, range(lo, hi))
    z = np.stack([r.standard_normal(4) for r in rngs])
    phase = np.stack([r.uniform(0.0, TWO_PI, 2) for r in rngs])
    jit = np.stack([r.standard_normal(2) for r in rngs])

    sigma = np.array([TWO_PI * n.jitter_sigma for n in noise])
    is_ou = np.array([n.jitter_kind == JITTER_OU for n in noise])
    offsets = np.where(~is_ou & (sigma > 0), sigma * jit, 0.0)

    gamma = np.array([cooling[0].damping_rate, cooling[1].damping_rate])
    if not np.all(np.isfinite(gamma)):
        raise ValueError("the integrators need finite damping rates")
    n_ss = np.array([cooling[0].steady_state_occupation,
                     cooling[1].steady_state_occupation])
    ndot = np.array([noise_psd(noise[i], nominal[i]) for i in (0, 1)])
    diffusion = ndot + gamma * n_ss

    ou = None
    ou_sigma = np.where(is_ou, sigma, 0.0)
    if np.any(ou_sigma > 0):
        tau = np.array([max(n.jitter_correlation_time, 0.0) for n in noise])
        ou_rho = np.exp(-dt / np.where(tau > 0, tau, np.inf))
        ou = (ou_rho, ou_sigma * np.sqrt(1.0 - ou_rho ** 2),
              ou_sigma[None, :] * np.stack([r.standard_normal(2) for r in rngs]))
    return (rngs, offsets, gamma, diffusion, ou,
            _initial_amplitudes(initial, init_phase, z, phase))


def _step_loop(rngs, n_steps, rec_idx, kick_shape, ou, advance, read_out):
    """The step loop of both batch kernels; returns the occupation moments.

    Per block of _CHUNK steps each generator draws all of the block's
    kick normals (``kick_shape`` per step; none when it is None), then
    all of its OU normals. Each step updates the OU jitter state, then
    calls ``advance(kick, delta_ou)``. At each record point (step 0
    included) ``read_out(slot)`` returns the (B, 2) occupations, whose
    sum and sum of squares are accumulated per slot.
    """
    slot = {int(k): j for j, k in enumerate(rec_idx)}
    sum_n = np.zeros((len(rec_idx), 2))
    sum_n2 = np.zeros((len(rec_idx), 2))

    def record(j):
        n = read_out(j)
        sum_n[j] += n.sum(axis=0)
        sum_n2[j] += (n ** 2).sum(axis=0)

    record(0)                       # the record grid starts at step 0
    delta_ou = None
    if ou is not None:
        ou_rho, ou_kick, delta_ou = ou
    for start in range(0, n_steps, _CHUNK):
        span = min(_CHUNK, n_steps - start)
        if kick_shape is not None:
            kicks = np.stack([r.standard_normal((span,) + kick_shape)
                              for r in rngs], axis=1)
        if ou is not None:
            ou_draws = np.stack([r.standard_normal((span, 2)) for r in rngs], axis=1)
        for k in range(span):
            if ou is not None:
                delta_ou = delta_ou * ou_rho[None, :] + ou_kick[None, :] * ou_draws[k]
            advance(None if kick_shape is None else kicks[k], delta_ou)
            if start + k + 1 in slot:
                record(slot[start + k + 1])
    return sum_n, sum_n2


# ---------------------------------------------------------------------------
# full stochastic integrator

def _full_batch(lo, hi, params, noise, cooling, initial, init_phase,
                record_first, dt, n_steps, rec_idx, seed):
    m = np.array([params.mass1, params.mass2])
    w_nom = np.array([params.omega1, params.omega2])
    rngs, offsets, gamma, diffusion, ou, a = _batch_setup(
        lo, hi, seed, noise, cooling, w_nom, initial, init_phase, dt)
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
            v += sigma_v[None, :] * kick

    def read_out(j):
        e = energies(x, v)
        if record_first:
            first_x[j] = x[0]
            first_e[j] = e[0].sum() + g[0] * x[0, 0] * x[0, 1]
        if np.max(e) > 1e6 * e_ref:
            raise RuntimeError(
                f"unstable step: energy exceeded 1e6x initial at step {rec_idx[j]}")
        return e / (HBAR * w)

    kick_shape = (2,) if np.any(sigma_v > 0) else None
    sum_n, sum_n2 = _step_loop(rngs, n_steps, rec_idx, kick_shape, ou,
                               advance, read_out)
    return sum_n, sum_n2, first_x, first_e


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
                      record_positions),
        duration, dt, dt_max, seed, n_realizations, record_points, n_workers)


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


def _envelope_batch(lo, hi, kappa, carrier, detuning, noise, cooling,
                    initial, init_phase, dt, n_steps, rec_idx, seed):
    # heating evaluated at each ion's nominal absolute frequency
    nominal = [carrier + detuning[i] for i in (0, 1)]
    rngs, offsets, gamma, diffusion, ou, a = _batch_setup(
        lo, hi, seed, noise, cooling, nominal, initial, init_phase, dt)
    delta = np.asarray(detuning, float)[None, :] + offsets
    kick_size = np.sqrt(diffusion * dt / 2.0)
    m_step = _expm2(-1j * delta[:, 0] - 0.5 * gamma[0],
                    -1j * delta[:, 1] - 0.5 * gamma[1],
                    -1j * kappa * np.ones(len(rngs)), dt)

    def advance(kick, delta_ou):
        nonlocal a
        a = np.einsum('rij,rj->ri', m_step, a)
        if kick is not None:
            a += kick_size[None, :] * (kick[:, :, 0] + 1j * kick[:, :, 1])
        if delta_ou is not None:
            a *= np.exp(-1j * dt * delta_ou)

    kick_shape = (2, 2) if np.any(kick_size > 0) else None
    sum_n, sum_n2 = _step_loop(rngs, n_steps, rec_idx, kick_shape, ou, advance,
                               lambda j: np.abs(a) ** 2)
    return sum_n, sum_n2, None, None


def envelope_step_limit(kappa, carrier, detuning, noise, cooling, duration):
    """Largest envelope step that resolves the slow dynamics:
    1/(100 max(kappa, |detuning| + 5 sigma, gamma_c, 1/duration)), with
    sigma the angular jitter of each ion. All slow rates must sit far below
    the carrier.
    """
    sig = [TWO_PI * n.jitter_sigma for n in noise]
    rates = [abs(kappa)] + [abs(d) + 5.0 * s for d, s in zip(detuning, sig)] + \
        [c.damping_rate for c in cooling if np.isfinite(c.damping_rate)]
    r_max = max(rates)
    if carrier <= 0:
        raise ValueError("carrier must be positive")
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
    """
    dt_max = envelope_step_limit(kappa, carrier, detuning, noise, cooling,
                                 duration)
    return _integrate(
        _envelope_batch, (kappa, carrier, detuning, noise, cooling,
                          initial_occupations, init_phase),
        duration, dt, dt_max, seed, n_realizations, record_points, n_workers)


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
    for name, v in (("heat1", heat1), ("heat2", heat2), ("kappa_ex", kappa_ex)):
        if not (v >= 0):
            raise ValueError(f"{name} must be >= 0")
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
