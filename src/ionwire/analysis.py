"""Model fitting and measurement emulation.

Fitters here are deliberately small: closed-form weighted least squares
for heating-rate lines, grid-seeded bounded Levenberg-Marquardt on an
analytic Jacobian for the resonance line shape, and a grid-seeded
binomial maximum-likelihood fit for Rabi thermometry. Every FitResult
records the model identifier, the method, and the initial guess actually
used, so fits are reproducible from their serialized form. All of them
are numpy alone.

The thermometry fit evaluates its 24-point seed grid as three batched
Fock sums, one per seed Omega_0, which stop summing a grid column once
it cannot hold the least NLL, then takes a few damped Newton steps,
each one pass of a kernel that returns the excitation curve with its
first and second derivatives. All of these use the same eta. Their
Laguerre coefficients L_n(eta^2) come from an upward recurrence, so the
sequence up to any n is a bitwise prefix of the sequence up to a larger
n at the same x. The module keeps one read-only sequence, for the last x
(compared by exact equality), and slices it; it recomputes only for a
new x or a longer truncation. That is at most N_MAX_CAP + 1 floats, and
every result is bit-identical to computing the sequence afresh.

Conventions: rates in quanta/s, frequencies in rad/s except fitted
resonance widths, which are reported in Hz (rms of the Gaussian).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import check_range
from .dynamics import _count

# truncation policy for thermal Fock sums
N_MAX_CAP = 200_000
TAIL_TOL = 1e-6
# the largest n_bar whose thermal tail beyond N_MAX_CAP is < TAIL_TOL
N_BAR_MAX = 1.0 / math.expm1(-math.log(TAIL_TOL) / (N_MAX_CAP + 1))
# the largest n_bar a thermometry fit tries, just below that bound
_N_BAR_TOP = math.nextafter(N_BAR_MAX, 0.0)


@dataclass(frozen=True)
class FitResult:
    """Parameters, 1-sigma uncertainties, and convergence diagnostics."""

    parameters: dict
    sigmas: dict
    residual_norm: float
    n_iterations: int
    converged: bool
    model_id: str
    method: str
    initial_guess: dict = field(default_factory=dict)

    def __post_init__(self):
        for k, v in self.sigmas.items():
            check_range(f"sigma for {k}", v, ge=0)

    def as_dict(self):
        return {
            "model_id": self.model_id,
            "method": self.method,
            "parameters": dict(self.parameters),
            "sigmas": dict(self.sigmas),
            "residual_norm": self.residual_norm,
            "n_iterations": self.n_iterations,
            "converged": self.converged,
            "initial_guess": dict(self.initial_guess),
        }


@dataclass(frozen=True)
class RabiDataset:
    """Carrier Rabi flopping data with shot statistics."""

    pulse_times: np.ndarray
    excitation_probability: np.ndarray
    shots_per_point: int
    carrier_rabi: float   # rad/s, nominal calibration, used as fit seed
    lamb_dicke: float

    def __post_init__(self):
        t = check_range("pulse_times", np.asarray(self.pulse_times, float))
        p = np.asarray(self.excitation_probability, float)
        if t.shape != p.shape:
            raise ValueError("times and probabilities must align")
        if not np.all(np.diff(t) > 0):
            raise ValueError("pulse_times must be strictly increasing")
        check_range("excitation_probability", p, ge=0, le=1)
        _count("shots_per_point", self.shots_per_point, 1)
        check_range("carrier_rabi", self.carrier_rabi)
        check_range("lamb_dicke", self.lamb_dicke, ge=0, lt=1)
        # the fitters compute on arrays, whatever sequence was given
        object.__setattr__(self, "pulse_times", t)
        object.__setattr__(self, "excitation_probability", p)


# ---------------------------------------------------------------------------
# linear heating fit

def fit_linear_heating(times, occupations, sigmas=None):
    """Weighted least squares for n(t) = intercept + rate * t.

    With per-point sigmas the covariance is the exact WLS covariance;
    without, ordinary least squares with the covariance scaled by the
    reduced chi-square (standard OLS errors).
    """
    t = check_range("times", np.asarray(times, float))
    y = check_range("occupations", np.asarray(occupations, float))
    if t.size < 3:
        raise ValueError("need at least 3 points for a heating-rate fit")
    if y.shape != t.shape:
        raise ValueError("occupations must align with times")
    if np.ptp(t) == 0:
        raise ValueError("degenerate design matrix: all times equal")
    weighted = sigmas is not None
    if weighted:
        s = np.asarray(sigmas, float)
        if s.shape != t.shape:
            raise ValueError("sigmas must align with times")
        w = 1.0 / check_range("sigmas", s, gt=0) ** 2
    else:
        w = np.ones_like(t)

    sw = w.sum()
    swt = (w * t).sum()
    swtt = (w * t * t).sum()
    swy = (w * y).sum()
    swty = (w * t * y).sum()
    det = sw * swtt - swt ** 2
    rate = (sw * swty - swt * swy) / det
    intercept = (swtt * swy - swt * swty) / det

    resid = y - (intercept + rate * t)
    chi2 = float((w * resid ** 2).sum())
    # covariance of (intercept, rate) from the normal equations
    cov_ii = swtt / det
    cov_rr = sw / det
    if not weighted:
        dof = t.size - 2
        scale = chi2 / dof if dof > 0 else 0.0
        cov_ii *= scale
        cov_rr *= scale
    return FitResult(
        parameters={"rate": float(rate), "intercept": float(intercept)},
        sigmas={"rate": math.sqrt(cov_rr), "intercept": math.sqrt(cov_ii)},
        residual_norm=math.sqrt(chi2),
        n_iterations=1,
        converged=True,
        model_id="linear-heating n(t) = intercept + rate*t",
        method="wls-closed-form" if weighted else "ols-closed-form",
        initial_guess={})


# ---------------------------------------------------------------------------
# resonance line shape

def probe_line(offsets, width_sigma_hz, kappa, duration):
    """Exchange line of a probe, normalized to 1 at zero offset.

    One shot at detuning d moves the fraction P(d) = kappa^2/g^2 sin^2(g T),
    g^2 = kappa^2 + d^2/4, of the population difference in a probe of
    duration T; the line is P averaged over Gaussian detuning jitter of
    rms ``width_sigma_hz``, at ``offsets`` (rad/s) from the line center. The
    average is a sum over a grid of 16 points per 2 pi/T, out to 128
    max(kappa, 1/T), beyond which lies about 1% of P's area or less. At
    kappa = 0 the line is the weak-coupling limit, P / kappa^2.
    """
    check_range("offsets", offsets)
    check_range("width_sigma_hz", width_sigma_hz, gt=0)
    check_range("kappa", kappa)
    check_range("duration", duration, gt=0)
    return _probe_terms(offsets, width_sigma_hz, kappa, duration)[0].reshape(
        np.shape(offsets))


def _probe_terms(offsets, width_sigma_hz, kappa, duration):
    """probe_line at ``offsets``, flattened, and its derivatives in the
    offset u and in width_sigma_hz, all from one pass over the weights.

    With z = (u - d)/w, w = 2 pi width_sigma_hz and G = exp(-z^2/2), the
    sums S_k(u) = sum_d G z^k P(d) give the line S_0, dS_0/du = -S_1/w and
    dS_0/dw = S_2/w; the row u = 0 normalizes, by the quotient rule.
    """
    step = math.pi / (8.0 * duration)
    reach = 128.0 * max(abs(kappa), 1.0 / duration)
    d = np.arange(-reach, reach + step, step)
    # P(d) / (kappa T)^2, which has a limit as kappa -> 0
    shot = np.sinc(np.sqrt(kappa * kappa + 0.25 * d * d) * duration / math.pi) ** 2
    # offsets in blocks of about 2^20 Gaussian weights, however long the
    # probe (the grid grows as kappa T)
    u = np.append(np.asarray(offsets, float).ravel(), 0.0)
    w_sig, rows = 2.0 * math.pi * width_sigma_hz, max(1, 2 ** 20 // d.size)
    sums = []
    for i in range(0, u.size, rows):
        z = (u[i:i + rows, None] - d) / w_sig
        g = np.exp(-0.5 * z ** 2)
        sums.append([g @ shot])
        for _ in range(2):
            g *= z
            sums[-1].append(g @ shot)
    s = np.concatenate(sums, axis=1)
    line = s[0, :-1] / s[0, -1]
    norm = w_sig * s[0, -1]
    return line, -s[1, :-1] / norm, \
        2.0 * math.pi * (s[2, :-1] - line * s[2, -1]) / norm


def resonance_model(omega, a_base, b_peak, center, width_sigma_hz, omega_ref,
                    probe=None):
    """1/f-field baseline plus a peak of height b_peak, rates in quanta/s.

    The peak is a Gaussian of rms ``width_sigma_hz``, or, with ``probe``
    a (kappa, duration) pair, that probe's ``probe_line``.
    """
    check_range("width_sigma_hz", width_sigma_hz, gt=0)
    if probe is None:
        w_sig = 2.0 * math.pi * width_sigma_hz
        peak = np.exp(-0.5 * ((omega - center) / w_sig) ** 2)
    else:
        peak = probe_line(omega - center, width_sigma_hz, *probe)
    return a_base * (omega_ref / omega) ** 2 + b_peak * peak


def _resonance_terms(p, omega, rates, sigmas, omega_ref, probe):
    """The residuals (resonance_model - rates)/sigmas at p = (a_base,
    b_peak, center, width_sigma_hz), and their Jacobian in p."""
    base = (omega_ref / omega) ** 2
    if probe is None:
        w_sig = 2.0 * math.pi * p[3]
        z = (omega - p[2]) / w_sig
        line = np.exp(-0.5 * z ** 2)
        d_offset = -line * z / w_sig
        d_width = 2.0 * math.pi * line * z * z / w_sig
    else:
        line, d_offset, d_width = _probe_terms(omega - p[2], p[3], *probe)
    jac = np.column_stack([base, line, -p[1] * d_offset, p[1] * d_width])
    return (p[0] * base + p[1] * line - rates) / sigmas, jac / sigmas[:, None]


def _trust_step(jac, r, radius):
    """The Levenberg-Marquardt step p that minimizes |r + jac p| subject to
    |p| <= radius (Moré 1978), and whether lam sits at its floor, which
    for a nonsingular jac^T jac is the undamped Gauss-Newton step.

    On the eigenvectors of jac^T jac, p(lam) = -(jac^T jac + lam)^-1 jac^T r
    is a sum of terms. lam is 0 where that Gauss-Newton step exists and
    fits within 1.1 radius; else Newton's method on 1/|p(lam)| = 1/radius,
    which is concave in lam, brings |p| to within 10% of the radius. A
    singular jac^T jac takes lam above zero and at least 1e-12 of its
    largest eigenvalue.
    """
    e, v = np.linalg.eigh(jac.T @ jac)
    e = np.maximum(e, 0.0)
    a = v.T @ (jac.T @ r)
    floor = 0.0 if e[0] > 1e-12 * e[-1] else 1e-12 * e[-1] + 1e-300
    lam = floor
    for _ in range(30):
        q = a / (e + lam)
        n = math.sqrt(q @ q)
        if n <= 1.1 * radius and (lam == floor or n >= 0.9 * radius):
            break
        lam = max(lam + (n / radius - 1.0) * n * n / (q @ (q / (e + lam))),
                  floor)
    return -(v @ q), lam == floor


def _bounded_lm(evaluate, x, lo, hi, scale):
    """Minimize half the sum of squares of the residuals over the box
    [lo, hi] by Levenberg-Marquardt, from x inside it.

    ``evaluate(x)`` returns the residuals and their Jacobian. The trust
    region is |dx / scale| <= radius, starting at |x / scale|, with Moré's
    (1978) radius rule: a trial whose cost falls by less than a quarter of
    the predicted fall shrinks it by the factor that minimizes the
    quadratic through the cost, its slope and the trial's cost, kept in
    [0.1, 0.5]; one that falls by three quarters, or a Gauss-Newton step,
    sets it to twice the step. A trial is taken if its cost falls by 1e-4
    of the predicted fall. A parameter on a bound is held there while the
    gradient or the step points out of the box; a step that would cross a
    bound stops on it. The fit converges when the step is below 1e-12 of
    |x / scale|, or when a trial's actual and predicted falls are both
    below 1e-12 of the cost. Returns (x, residuals, Jacobian, evaluations,
    converged); converged is False when 200 evaluations run out.
    """
    r, jac = evaluate(x)
    cost = 0.5 * (r @ r)
    radius = float(np.linalg.norm(x / scale)) or 1.0
    for evaluations in range(1, 200):
        js = jac * scale
        g = js.T @ r
        out = np.where(x <= lo, -1.0, np.where(x >= hi, 1.0, 0.0))
        free = g * out >= 0.0
        while True:
            if cost == 0.0 or not free.any():
                return x, r, jac, evaluations, True
            p = np.zeros_like(x)
            p[free], undamped = _trust_step(js[:, free], r, radius)
            leaving = p * out > 0.0
            if not leaving.any():
                break
            free &= ~leaving
        # the longest step along p within the box, ending on a bound
        dx = p * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(dx < 0.0, (lo - x) / dx,
                            np.where(dx > 0.0, (hi - x) / dx, np.inf))
        k = int(np.argmin(room))
        alpha = min(1.0, float(room[k]))
        length = alpha * math.sqrt(p @ p)
        if length <= 1e-12 * (1e-12 + float(np.linalg.norm(x / scale))):
            return x, r, jac, evaluations, True
        trial = np.clip(x + alpha * dx, lo, hi)
        if alpha < 1.0:
            trial[k] = lo[k] if dx[k] < 0.0 else hi[k]
        model = r + js @ (alpha * p)
        predicted = cost - 0.5 * (model @ model)
        r_t, jac_t = evaluate(trial)
        cost_t = 0.5 * (r_t @ r_t)
        if math.isnan(cost_t):
            cost_t = math.inf
        actual = cost - cost_t
        rho = actual / predicted if predicted > 0.0 else -1.0
        if rho <= 0.25:
            slope = alpha * (g @ p)
            shrink = 0.5 if actual >= 0.0 else 0.5 * slope / (slope + actual)
            if not shrink >= 0.1 or cost_t > 100.0 * cost:
                shrink = 0.1
            radius = shrink * min(radius, 10.0 * length)
        elif undamped or rho >= 0.75:
            radius = 2.0 * length
        done = abs(actual) <= 1e-12 * cost and predicted <= 1e-12 * cost \
            and rho <= 2.0
        if rho >= 1e-4:
            x, r, jac, cost = trial, r_t, jac_t, cost_t
        if done:
            return x, r, jac, evaluations + 1, True
    return x, r, jac, evaluations + 1, False


def fit_resonance(omegas, rates, sigmas=None, probe=None):
    """Fit ndot(w) = A (w_ref/w)^2 + B exp(-(w-w0)^2 / 2 sigma_w^2).

    With ``probe`` a (kappa, duration) pair the peak is that probe's
    ``probe_line`` instead, whose sigma_w is the jitter alone: a Gaussian
    fitted to it also holds the probe's own Fourier width.

    w_ref is pinned to the median scan frequency, so A is the baseline
    rate at the scan center. Seeding is a deterministic coarse grid over
    candidate centers and widths, refined by bounded Levenberg-Marquardt
    (see _bounded_lm) on the model's analytic Jacobian. A and B are
    constrained nonnegative and the width cannot collapse below the grid
    spacing; a spike narrower than one scan step is unidentifiable and
    would otherwise swallow a single noise point. n_iterations counts the
    evaluations of the model with its Jacobian.
    """
    w = check_range("omegas", np.asarray(omegas, float), gt=0)
    y = check_range("rates", np.asarray(rates, float))
    if w.size < 6 or np.ptp(w) == 0:
        raise ValueError("omegas need at least 6 scan points, not all equal")
    if y.shape != w.shape:
        raise ValueError("rates must align with omegas")
    s = np.ones_like(y) if sigmas is None else np.asarray(sigmas, float)
    if s.shape != w.shape:
        raise ValueError("sigmas must align with omegas")
    check_range("sigmas", s, gt=0)
    if probe is not None:
        check_range("probe kappa", probe[0])
        check_range("probe duration", probe[1], gt=0)
    w_ref = float(np.median(w))

    span_hz = (w.max() - w.min()) / (2.0 * math.pi)
    spacing_hz = float(np.median(np.diff(np.sort(w)))) / (2.0 * math.pi)
    lo = np.array([0.0, 0.0, w.min() - (w.max() - w.min()),
                   0.5 * spacing_hz])
    hi = np.array([np.inf, np.inf, w.max() + (w.max() - w.min()),
                   10.0 * span_hz])

    third = max(w.size // 3, 2)
    a0 = float(np.median(np.sort(y)[:third]))
    b0 = max(float(y.max() - a0), 1e-3 * max(a0, 1.0))
    centers = [float(w[np.argmax(y)]), w_ref]
    widths = [150.0, 300.0, 600.0, 1200.0]

    def terms(p):
        return _resonance_terms(p, w, y, s, w_ref, probe)

    best = None
    for c0 in centers:
        for w0 in widths:
            p = np.clip(np.array([a0, b0, c0, w0]), lo, hi)
            sse = float(np.sum(terms(p)[0] ** 2))
            if best is None or sse < best[0]:
                best = (sse, p)
    p0 = best[1]
    if not math.isfinite(best[0]):
        raise ValueError("rates / sigmas overflow the residuals at the seed")

    scale = np.array([max(a0, 1.0), max(b0, 1.0), w_ref, 500.0])
    params, r, jac, evaluations, converged = _bounded_lm(terms, p0, lo, hi,
                                                         scale)

    # covariance from the Jacobian at the solution; pinv guards the
    # unidentifiable zero-amplitude corner
    cov = np.linalg.pinv(jac.T @ jac)
    if sigmas is None:
        dof = max(w.size - 4, 1)
        cov = cov * (float(r @ r) / dof)
    sig = np.sqrt(np.maximum(np.diag(cov), 0.0))
    peak = "B*exp(-(w-w0)^2/(2*sw^2))" if probe is None else \
        "B*line(w-w0), line = <k^2/g^2 sin^2(g T)>_sw normalized at 0, g^2 = k^2 + d^2/4"

    return FitResult(
        parameters={"baseline_coeff": float(params[0]),
                    "amplitude": float(params[1]),
                    "center": float(params[2]),
                    "width_sigma_hz": float(params[3]),
                    "omega_ref": w_ref},
        sigmas={"baseline_coeff": float(sig[0]),
                "amplitude": float(sig[1]),
                "center": float(sig[2]),
                "width_sigma_hz": float(sig[3])},
        residual_norm=math.sqrt(float(r @ r)),
        n_iterations=evaluations,
        converged=converged,
        model_id="resonance ndot(w) = A*(w_ref/w)^2 + " + peak,
        method="grid-seeded-lm",
        initial_guess={"baseline_coeff": float(p0[0]), "amplitude": float(p0[1]),
                       "center": float(p0[2]), "width_sigma_hz": float(p0[3])})


# ---------------------------------------------------------------------------
# effective coupling extraction

def extract_kappa(rate_uncoupled, rate_coupled, n1, n2):
    """Effective exchange rate (ndot_u - ndot_c)/(n1 - n2) in 1/s.

    Report layers divide by 2 pi for Hz display.
    """
    check_range("rate_uncoupled", rate_uncoupled)
    check_range("rate_coupled", rate_coupled)
    check_range("n1", n1, ge=0)
    check_range("n2", n2, ge=0)
    if n1 == n2:
        raise ValueError("extraction formula singular at n1 = n2")
    return (rate_uncoupled - rate_coupled) / (n1 - n2)


# ---------------------------------------------------------------------------
# Rabi thermometry

def laguerre_sequence(n_max, x):
    """L_0(x) .. L_n_max(x) by the upward three-term recurrence.

    Plain float64 is safe for x >= 0: |L_n(x)| <= exp(x/2), so carrier
    couplings can never overflow however deep the thermal sum goes.
    """
    check_range("n_max", n_max, ge=0)
    x = float(check_range("x", x, ge=0))
    out = [1.0, 1.0 - x]
    prev, cur = out
    for n in range(1, n_max):
        prev, cur = cur, ((2 * n + 1 - x) * cur - n * prev) / (n + 1)
        out.append(cur)
    return np.array(out[:n_max + 1])


# (x, read-only L_0(x) .. L_m(x)) of the last _fock_phases call, which all
# three Fock-sum kernels make; it is replaced as one tuple, so no reader
# pairs one x with another's sequence
_laguerre_kept = (None, np.empty(0))


def _laguerre_prefix(n_max, x):
    """L_0(x) .. L_n_max(x) as a read-only slice of the kept sequence."""
    global _laguerre_kept
    kept_x, seq = _laguerre_kept
    if not (x == kept_x and n_max < seq.size):
        seq = laguerre_sequence(n_max, x)
        seq.flags.writeable = False
        _laguerre_kept = (x, seq)
    return seq[:n_max + 1]


def thermal_weights(n_bar, n_max):
    """Thermal Fock distribution p_n = n^n/(1+n)^(n+1), n = 0..n_max."""
    check_range("n_bar", n_bar, ge=0)
    return _thermal_block(n_bar, 0, n_max + 1)


def _thermal_block(n_bar, lo, hi):
    """p_n for n = lo .. hi-1; any slice of thermal_weights, bit for bit."""
    if n_bar == 0:
        return (np.arange(lo, hi) == 0).astype(float)
    n = np.arange(lo, hi)
    log_p = n * math.log(n_bar / (1.0 + n_bar)) - math.log1p(n_bar)
    return np.exp(log_p)


def _truncation(n_bar):
    # below N_BAR_MAX the thermal tail beyond the truncation is < TAIL_TOL
    check_range("n_bar", n_bar, ge=0, lt=N_BAR_MAX)
    return int(min(20.0 * n_bar + 100.0, N_MAX_CAP))


def _fock_phases(t, carrier_rabi, lamb_dicke, n_top, block, end=None):
    """(lo, hi, rate, phase) per Fock block n = lo .. hi-1 up to n_top: rate
    the block's Omega_n/2 and phase a fresh array of Omega_n t/2 over the
    float array t, with Omega_n = Omega_0 exp(-eta^2/2) L_n(eta^2).

    Blocks of ``block`` terms bound memory at high n_bar; ``end(lo)``, if
    given, ends block lo at the n it returns, or stops the sum at n <= lo.
    Scaling Omega_n by the exact factor 1/2 before the product with t gives
    the same phases as halving t * Omega_n, except where that product is
    subnormal (its sin^2 and tan^2 are 0 either way) or overflows.
    """
    x = lamb_dicke ** 2
    lag = _laguerre_prefix(n_top, x)
    half = 0.5 * (carrier_rabi * math.exp(-0.5 * x) * lag)
    for lo in range(0, n_top + 1, block):
        hi = min(lo + block, n_top + 1 if end is None else end(lo))
        if hi <= lo:
            return
        yield lo, hi, half[lo:hi], np.multiply.outer(t, half[lo:hi])


def rabi_excitation(times, n_bar, carrier_rabi, lamb_dicke):
    """Thermal carrier flopping P(t) = sum_n p_n sin^2(Omega_n t / 2),
    Omega_n as in _fock_phases."""
    t = check_range("times", np.asarray(times, float))
    check_range("carrier_rabi", carrier_rabi)
    check_range("lamb_dicke", lamb_dicke, ge=0, lt=1)
    n_top = _truncation(n_bar)
    p_n = thermal_weights(n_bar, n_top)
    out = np.zeros_like(t)
    for lo, hi, _, phase in _fock_phases(t, carrier_rabi, lamb_dicke, n_top,
                                         20_000):
        np.sin(phase, out=phase)
        np.square(phase, out=phase)
        out += phase @ p_n[lo:hi]
    return out


def synthesize_rabi(n_bar, carrier_rabi, lamb_dicke, times, shots, seed):
    """Binomial-sampled synthetic dataset plus a truth manifest."""
    shots = _count("shots", shots, 1)
    p = rabi_excitation(times, n_bar, carrier_rabi, lamb_dicke)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    counts = rng.binomial(int(shots), p)
    dataset = RabiDataset(
        pulse_times=np.asarray(times, float),
        excitation_probability=counts / float(shots),
        shots_per_point=int(shots),
        carrier_rabi=carrier_rabi,
        lamb_dicke=lamb_dicke)
    manifest = {"n_bar_true": float(n_bar), "carrier_rabi": float(carrier_rabi),
                "lamb_dicke": float(lamb_dicke), "shots": int(shots),
                "seed": int(seed), "n_max": _truncation(n_bar)}
    return dataset, manifest


def _binomial_terms(dataset, p):
    """The binomial NLL of the counts at probabilities p, clipped to
    [1e-9, 1 - 1e-9], and its first and second derivatives in each p,
    which are zero where the clip holds p."""
    pc = np.clip(p, 1e-9, 1.0 - 1e-9)
    k = np.round(dataset.excitation_probability * dataset.shots_per_point)
    m = dataset.shots_per_point - k
    nll = float(-(k * np.log(pc) + m * np.log1p(-pc)).sum())
    free = pc == p
    d1 = np.where(free, m / (1.0 - pc) - k / pc, 0.0)
    d2 = np.where(free, k / pc ** 2 + m / (1.0 - pc) ** 2, 0.0)
    return nll, d1, d2


def _rabi_nll(dataset, n_bar, omega0):
    """The thermometry objective; the fit uses its closed-form derivatives."""
    p = rabi_excitation(dataset.pulse_times, n_bar, omega0, dataset.lamb_dicke)
    return _binomial_terms(dataset, p)[0]


def _thermal_columns(n_bar, lo, hi):
    """p_n, dp_n/dn_bar and d2p_n/dn_bar2 for n = lo .. hi-1, as columns.

    With q = n_bar/(1+n_bar), p_n = (1-q) q^n and d/dn_bar = (1-q)^2 d/dq,
    so both derivatives are polynomials in q, finite at n_bar = 0:
        dp_n  = (1-q)^2 [n (1-q) q^(n-1) - q^n]
        d2p_n = (1-q)^3 [n (n-1) (1-q)^2 q^(n-2) - 4 n (1-q) q^(n-1) + 2 q^n]
    The p_n column is the matching slice of thermal_weights, bit for bit.
    """
    r = 1.0 / (1.0 + n_bar)
    q = n_bar / (1.0 + n_bar)
    n = np.arange(lo, hi)
    q0, q1, q2 = (q ** np.maximum(n - k, 0) for k in range(3))
    w = np.empty((hi - lo, 3))
    w[:, 0] = _thermal_block(n_bar, lo, hi)
    w[:, 1] = r * r * (n * r * q1 - q0)
    w[:, 2] = r ** 3 * (n * (n - 1) * (r * r) * q2 - 4.0 * n * r * q1 + 2.0 * q0)
    return w


# Fock terms per block of both fit kernels: the derivative kernel's three
# (points x 6,000) arrays stay below the one (points x 20,000) array of
# rabi_excitation, and the seed grid drops losing columns block by block
_DERIV_BLOCK = 6_000


def _excitation_derivatives(times, n_bar, carrier_rabi, lamb_dicke):
    """P(t) of rabi_excitation and its derivatives in n_bar and u = ln Omega_0.

    Returns P, (dP/dn_bar, dP/du) and (d2P/dn_bar2, d2P/dn_bar du, d2P/du2),
    each over the pulse times. With phi_n = Omega_n t/2, dphi_n/du = phi_n:
        dP/du   = sum p_n phi_n sin 2phi_n
        d2P/du2 = sum p_n (phi_n sin 2phi_n + 2 phi_n^2 cos 2phi_n)
    and the n_bar derivatives take the weights of _thermal_columns. A block
    takes one tan: with tau = tan phi and d = 1 + tau^2, sin^2 phi = tau^2/d,
    sin 2phi = 2 tau/d and cos 2phi = 1 - 2 sin^2 phi. The phi factors go
    into the weight columns as phi_n = a g_n, a = t h and g_n = Omega_n/(2h)
    for the block's largest |Omega_n|/2 = h (1 if all are 0), so neither
    a^2 nor g_n^2 can overflow; the rest is four in-place passes and two
    matrix products.
    """
    t = np.asarray(times, float)
    acc = np.zeros((t.size, 6))
    for lo, hi, rate, phase in _fock_phases(t, carrier_rabi, lamb_dicke,
                                            _truncation(n_bar), _DERIV_BLOCK):
        h = np.max(np.abs(rate)) or 1.0
        a, g = t * h, rate / h
        w = _thermal_columns(n_bar, lo, hi)
        wg = w[:, :2] * g[:, None]
        tau = np.tan(phase, out=phase)
        s = np.square(tau)
        d = s + 1.0
        s /= d                              # sin^2 phi
        tau /= d                            # sin 2phi / 2
        # sum sin^2 phi times p_n, dp_n, d2p_n and p_n g_n^2
        sq = s @ np.column_stack((w, wg[:, 0] * g))
        # sum phi sin 2phi times p_n and dp_n
        sin2 = (2.0 * a)[:, None] * (tau @ wg)
        acc[:, :3] += sq[:, :3]
        acc[:, 3:5] += sin2
        # sum p_n (phi sin 2phi + 2 phi^2 cos 2phi)
        acc[:, 5] += sin2[:, 0] + 2.0 * a * a * (wg[:, 0] @ g - 2.0 * sq[:, 3])
    return acc[:, 0], acc[:, [1, 3]].T, acc[:, [2, 4, 5]].T


def _nll_derivatives(dataset, n_bar, u):
    """NLL at (n_bar, u = ln Omega_0), its gradient and Hessian, and the
    Hessian's Gauss-Newton part sum d2NLL/dP2 dP dP^T, which is never
    indefinite."""
    p, dp, d2p = _excitation_derivatives(dataset.pulse_times, n_bar,
                                         math.exp(u), dataset.lamb_dicke)
    nll, d1, d2 = _binomial_terms(dataset, p)
    gauss_newton = (dp * d2) @ dp.T
    h_nn, h_nu, h_uu = d2p @ d1
    hess = gauss_newton + np.array([[h_nn, h_nu], [h_nu, h_uu]])
    return nll, dp @ d1, hess, gauss_newton


def _nll_floor(dataset, p, headroom):
    """A lower bound on the binomial NLL at any probabilities between p and
    p + headroom: each point's NLL falls, then rises, in its P."""
    k = np.round(dataset.excitation_probability * dataset.shots_per_point)
    p_least = k / dataset.shots_per_point
    return _binomial_terms(dataset, np.clip(p_least, p, p + headroom))[0]


def _seed_grid_nll(dataset, nbar_grid, omega_grid):
    """NLL at every (n_bar, Omega_0) pair of the seed grid, [n_bar, Omega_0],
    or +inf where the pair cannot have the least NLL of the grid.

    Each Omega_0 takes one tan per Fock block, sin^2 = tan^2/(1 + tan^2),
    and one product with that block's columns of every n_bar's p_n (zero
    beyond its truncation) gives all the excitation curves at that Omega_0.
    The terms from n = lo on add at most q^lo to each P, q = n_bar/(1+n_bar);
    a column whose NLL floor over that range lies above the least NLL
    finished so far is dropped.
    """
    t = dataset.pulse_times
    tops = [_truncation(nb) for nb in nbar_grid]
    q = [nb / (1.0 + nb) for nb in nbar_grid]
    nll = np.full((len(nbar_grid), len(omega_grid)), np.inf)
    least = math.inf

    def live_end(lo):
        # drop the columns that cannot win from block lo on; twice the
        # remaining mass and 1e-9 of the NLL cover rounding
        nonlocal live
        live = [i for i in live if tops[i] >= lo and not _nll_floor(
            dataset, p[:, i], 2.0 * q[i] ** lo) > least * (1.0 + 1e-9)]
        return max((tops[i] + 1 for i in live), default=0)

    for j, om in enumerate(omega_grid):
        p = np.zeros((t.size, len(nbar_grid)))
        live = range(len(nbar_grid))
        for lo, hi, _, phase in _fock_phases(t, om, dataset.lamb_dicke,
                                             max(tops), _DERIV_BLOCK,
                                             live_end):
            cols = np.zeros((hi - lo, len(live)))
            for c, i in enumerate(live):
                end = min(hi, tops[i] + 1)
                cols[:end - lo, c] = _thermal_block(nbar_grid[i], lo, end)
            np.tan(phase, out=phase)
            np.square(phase, out=phase)
            phase /= phase + 1.0            # sin^2 = tan^2/(1 + tan^2)
            p[:, live] += phase @ cols
            for i in live:
                if tops[i] < hi:
                    nll[i, j] = _binomial_terms(dataset, p[:, i])[0]
                    least = min(least, nll[i, j])
    return nll


def _newton_step(g, hess, gauss_newton, free):
    """The Newton step on the free coordinates, zero on the others.

    Uses the Hessian where it is positive definite on them, else its
    Gauss-Newton part; returns (step, whether it is the Hessian's), or
    (None, False) when neither is positive definite.
    """
    idx = np.ix_(free, free)
    for metric, exact in ((hess, True), (gauss_newton, False)):
        try:
            chol = np.linalg.cholesky(metric[idx])
        except np.linalg.LinAlgError:
            continue
        step = np.zeros(2)
        step[free] = -np.linalg.solve(chol.T, np.linalg.solve(chol, g[free]))
        return step, exact
    return None, False


def _newton_mle(dataset, n_bar, omega0):
    """Damped Newton on the NLL over (n_bar, u = ln Omega_0).

    Every trial keeps 0 <= n_bar <= _N_BAR_TOP. Where n_bar sits on a bound
    and the gradient or the step points out of the range, n_bar is held
    and u alone iterates. Where the Hessian is not positive definite its
    Gauss-Newton part takes its place. Far from the optimum (Newton
    decrement g.H^-1.g, twice the NLL's predicted fall, above 1e-2) steps
    backtrack until the NLL falls by the Armijo margin; closer in the full
    step is taken, as the NLL is quadratic there to well below its
    rounding, which would stall a line search. The iteration stops when
    the decrement is below 1e-10 with a positive-definite Hessian:
    "converged", or "pinned" when n_bar is held at the upper edge. Returns
    (n_bar, u, nll, hess, iterations, status); status "failed" when a
    line search or the iteration limit runs out.
    """
    x = np.array([n_bar, math.log(omega0)])
    f, g, hess, gn = _nll_derivatives(dataset, *x)
    for iterations in range(100):
        if not (math.isfinite(f) and np.all(np.isfinite(hess))
                and np.all(np.isfinite(g))):
            break
        step, exact = _newton_step(g, hess, gn, [0, 1])
        # the direction out of the range at a bound: -1 at 0, +1 at the top
        out = -1.0 if x[0] == 0.0 else 1.0 if x[0] == _N_BAR_TOP else 0.0
        held = out != 0.0 and (g[0] * out < 0.0 or step is None
                               or step[0] * out >= 0.0)
        if held:
            step, exact = _newton_step(g, hess, gn, [1])
        if step is None:
            break
        decrement = float(-(g @ step))
        if exact and decrement <= 1e-10:
            status = "pinned" if held and out > 0.0 else "converged"
            return x[0], x[1], f, hess, iterations, status
        # the longest step that keeps n_bar inside [0, _N_BAR_TOP]
        alpha_max, bound = 1.0, None
        if x[0] + step[0] < 0.0:
            alpha_max, bound = x[0] / -step[0], 0.0
        elif x[0] + step[0] > _N_BAR_TOP:
            alpha_max, bound = (_N_BAR_TOP - x[0]) / step[0], _N_BAR_TOP
        alpha = alpha_max
        for _ in range(60):
            trial = x + alpha * step
            if alpha == alpha_max and bound is not None:
                trial[0] = bound
            ft, gt, ht, gnt = _nll_derivatives(dataset, *trial)
            if (exact and decrement < 1e-2 and math.isfinite(ft)) or \
                    ft <= f - 1e-4 * alpha * decrement:
                break
            alpha *= 0.5
        else:
            break
        x, f, g, hess, gn = trial, ft, gt, ht, gnt
    return x[0], x[1], f, hess, iterations, "failed"


def _hessian_sigmas(hess, omega0):
    """1-sigma of (n_bar, Omega_0) from the NLL Hessian in (n_bar, ln
    Omega_0); zeros when it is not finite or not positive definite."""
    if not np.all(np.isfinite(hess)):
        return 0.0, 0.0
    try:
        np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return 0.0, 0.0
    cov = np.linalg.inv(hess)
    return math.sqrt(cov[0, 0]), omega0 * math.sqrt(cov[1, 1])


def _first_peak_rabi(dataset):
    """Crude Omega_0 from the first local maximum of P(t) at t > 0."""
    positive = dataset.pulse_times > 0
    if not np.any(positive):
        raise ValueError("pulse_times needs a positive time to seed carrier_rabi")
    t, p = dataset.pulse_times[positive], dataset.excitation_probability[positive]
    if p.size >= 3:
        sm = np.convolve(p, np.ones(3) / 3.0, mode="same")
        for i in range(1, sm.size - 1):
            if sm[i] >= sm[i - 1] and sm[i] >= sm[i + 1] and sm[i] > 0.2:
                return math.pi / t[i]
    return math.pi / t[max(p.size // 2 - 1, 0)]


def fit_rabi_nbar(dataset):
    """Maximum-likelihood (n_bar, Omega_0) under binomial shot statistics.

    The best of a 24-point grid, evaluated one tan per Fock block and
    seed Omega_0 (see _seed_grid_nll), seeds a damped Newton iteration on
    (n_bar, ln Omega_0) that uses the NLL's closed-form gradient and
    Hessian and keeps 0 <= n_bar < N_BAR_MAX (see _newton_mle). A fit
    held at that upper edge, or whose iteration fails, reports converged
    False with the last iterate. Uncertainties come from the analytic
    Hessian there.
    """
    # at eta = 0 every Omega_n is Omega_0, so P(t) does not depend on n_bar
    check_range("lamb_dicke", dataset.lamb_dicke, gt=0, lt=1)
    omega_seed = dataset.carrier_rabi if dataset.carrier_rabi > 0 \
        else _first_peak_rabi(dataset)
    # at n_bar = 0, dP/dn_bar = sin^2(Omega_1 t/2) - sin^2(Omega_0 t/2); it
    # is 0 at every pulse time where eta is so small that Omega_1 rounds to
    # Omega_0, and the fit would report n_bar 0 +- 0 as converged
    if not np.any(_excitation_derivatives(dataset.pulse_times, 0.0, omega_seed,
                                          dataset.lamb_dicke)[1][0]):
        raise ValueError(f"lamb_dicke {dataset.lamb_dicke!r} is too small: "
                         f"dP/dn_bar is 0 at every pulse time, so P(t) holds "
                         f"no n_bar to fit")
    nbar_grid = [0.1, 1.0, 5.0, 20.0, 80.0, 300.0, 1000.0, 4000.0]
    omega_grid = [omega_seed * f for f in (0.9, 1.0, 1.1)]

    grid = _seed_grid_nll(dataset, nbar_grid, omega_grid)
    best = None
    for i, nb in enumerate(nbar_grid):
        for j, om in enumerate(omega_grid):
            if best is None or grid[i, j] < best[0]:
                best = (grid[i, j], nb, om)
    guess = {"n_bar": best[1], "carrier_rabi": best[2]}

    nb, u, nll, hess, iterations, status = _newton_mle(dataset, best[1], best[2])
    om = math.exp(u)
    sig_nb, sig_om = _hessian_sigmas(hess, om)
    return FitResult(
        parameters={"n_bar": float(nb), "carrier_rabi": om},
        sigmas={"n_bar": sig_nb, "carrier_rabi": sig_om},
        residual_norm=nll,
        n_iterations=iterations,
        converged=status == "converged",
        model_id="rabi-thermal P(t) = sum p_n sin^2(Omega_n t/2)",
        method="mle-binomial-newton",
        initial_guess=guess)
