"""Model fitting and measurement emulation.

Fitters here are deliberately small: closed-form weighted least squares
for heating-rate lines, grid-seeded Levenberg-Marquardt for the resonance
line shape, and a grid-seeded binomial maximum-likelihood fit for Rabi
thermometry. Every FitResult records the model identifier, the method,
and the initial guess actually used, so fits are reproducible from their
serialized form. scipy is imported inside the two fitters that use it,
so importing this module does not load scipy.

The thermometry likelihood evaluates ``rabi_excitation`` about 130 times
per fit, always at the same eta. Its Laguerre coefficients L_n(eta^2)
come from an upward recurrence, so the sequence up to any n is a bitwise
prefix of the sequence up to a larger n at the same x. The module keeps
one read-only sequence, for the last x (compared by exact equality), and
slices it; it recomputes only for a new x or a longer truncation. That
is at most N_MAX_CAP + 1 floats, and every result is bit-identical to
computing the sequence afresh.

Conventions: rates in quanta/s, frequencies in rad/s except fitted
resonance widths, which are reported in Hz (rms of the Gaussian).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# truncation policy for thermal Fock sums
N_MAX_CAP = 200_000
TAIL_TOL = 1e-6


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
            if not (0 <= v < math.inf):
                raise ValueError(f"sigma for {k} must be finite and >= 0, got {v!r}")

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
        t = np.asarray(self.pulse_times, float)
        p = np.asarray(self.excitation_probability, float)
        if t.shape != p.shape:
            raise ValueError("times and probabilities must align")
        if not np.all(np.isfinite(t)):
            raise ValueError("pulse_times must be finite")
        if not np.all(np.diff(t) > 0):
            raise ValueError("pulse_times must be strictly increasing")
        if not np.all((p >= 0) & (p <= 1)):
            raise ValueError("excitation_probability must lie in [0, 1]")
        if not (1 <= self.shots_per_point < math.inf):
            raise ValueError(f"shots_per_point must be finite and >= 1, "
                             f"got {self.shots_per_point!r}")
        if not math.isfinite(self.carrier_rabi):
            raise ValueError(f"carrier_rabi must be finite, got {self.carrier_rabi!r}")
        if not (0 <= self.lamb_dicke < 1):
            raise ValueError(f"lamb_dicke must lie in [0, 1), got {self.lamb_dicke!r}")


# ---------------------------------------------------------------------------
# linear heating fit

def fit_linear_heating(times, occupations, sigmas=None):
    """Weighted least squares for n(t) = intercept + rate * t.

    With per-point sigmas the covariance is the exact WLS covariance;
    without, ordinary least squares with the covariance scaled by the
    reduced chi-square (standard OLS errors).
    """
    t = np.asarray(times, float)
    y = np.asarray(occupations, float)
    if t.size < 3:
        raise ValueError("need at least 3 points for a heating-rate fit")
    if y.shape != t.shape:
        raise ValueError("occupations must align with times")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    if not np.all(np.isfinite(y)):
        raise ValueError("occupations must be finite")
    if np.ptp(t) == 0:
        raise ValueError("degenerate design matrix: all times equal")
    weighted = sigmas is not None
    if weighted:
        s = np.asarray(sigmas, float)
        if s.shape != t.shape:
            raise ValueError("sigmas must align with times")
        if not np.all((s > 0) & (s < math.inf)):
            raise ValueError("sigmas must be positive and finite")
        w = 1.0 / s ** 2
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

def resonance_model(omega, a_base, b_peak, center, width_sigma_hz, omega_ref):
    """1/f-field baseline plus a Gaussian peak, rates in quanta/s."""
    w_sig = 2.0 * math.pi * width_sigma_hz
    return a_base * (omega_ref / omega) ** 2 + \
        b_peak * np.exp(-0.5 * ((omega - center) / w_sig) ** 2)


def fit_resonance(omegas, rates, sigmas=None):
    """Fit ndot(w) = A (w_ref/w)^2 + B exp(-(w-w0)^2 / 2 sigma_w^2).

    w_ref is pinned to the median scan frequency, so A is the baseline
    rate at the scan center. Seeding is a deterministic coarse grid over
    candidate centers and widths, refined by bounded trust-region least
    squares. A and B are constrained nonnegative and the width cannot
    collapse below the grid spacing; a spike narrower than one scan step
    is unidentifiable and would otherwise swallow a single noise point.
    """
    w = np.asarray(omegas, float)
    y = np.asarray(rates, float)
    if w.size < 6:
        raise ValueError("need at least 6 scan points spanning the peak")
    if y.shape != w.shape:
        raise ValueError("rates must align with omegas")
    if not np.all((w > 0) & (w < math.inf)):
        raise ValueError("omegas must be positive and finite")
    if not np.all(np.isfinite(y)):
        raise ValueError("rates must be finite")
    s = np.ones_like(y) if sigmas is None else np.asarray(sigmas, float)
    if s.shape != w.shape:
        raise ValueError("sigmas must align with omegas")
    if not np.all((s > 0) & (s < math.inf)):
        raise ValueError("sigmas must be positive and finite")
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

    def residuals(p):
        return (resonance_model(w, p[0], p[1], p[2], p[3], w_ref) - y) / s

    best = None
    for c0 in centers:
        for w0 in widths:
            p = np.clip(np.array([a0, b0, c0, w0]), lo, hi)
            sse = float(np.sum(residuals(p) ** 2))
            if best is None or sse < best[0]:
                best = (sse, p)
    p0 = best[1]

    scale = np.array([max(a0, 1.0), max(b0, 1.0), w_ref, 500.0])
    from scipy.optimize import least_squares

    res = least_squares(residuals, p0, bounds=(lo, hi), method="trf",
                        x_scale=scale, xtol=1e-12, ftol=1e-12, max_nfev=800)
    params = res.x.copy()

    # covariance from the Jacobian at the solution; pinv guards the
    # unidentifiable zero-amplitude corner
    jtj = res.jac.T @ res.jac
    cov = np.linalg.pinv(jtj)
    if sigmas is None:
        dof = max(w.size - 4, 1)
        cov = cov * (2.0 * res.cost / dof)
    sig = np.sqrt(np.maximum(np.diag(cov), 0.0))

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
        residual_norm=math.sqrt(2.0 * res.cost),
        n_iterations=int(res.nfev),
        converged=bool(res.success),
        model_id="resonance ndot(w) = A*(w_ref/w)^2 + B*exp(-(w-w0)^2/(2*sw^2))",
        method="grid-seeded-lm",
        initial_guess={"baseline_coeff": float(p0[0]), "amplitude": float(p0[1]),
                       "center": float(p0[2]), "width_sigma_hz": float(p0[3])})


# ---------------------------------------------------------------------------
# effective coupling extraction

def extract_kappa(rate_uncoupled, rate_coupled, n1, n2):
    """Effective exchange rate (ndot_u - ndot_c)/(n1 - n2) in 1/s.

    Report layers divide by 2 pi for Hz display.
    """
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
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    x = float(x)
    out = [1.0, 1.0 - x]
    prev, cur = out
    for n in range(1, n_max):
        prev, cur = cur, ((2 * n + 1 - x) * cur - n * prev) / (n + 1)
        out.append(cur)
    return np.array(out[:n_max + 1])


# (x, read-only L_0(x) .. L_m(x)) of the last rabi_excitation call; it is
# replaced as one tuple, so no reader pairs one x with another's sequence
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
    if not (n_bar >= 0):
        raise ValueError("n_bar must be >= 0")
    if n_bar == 0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    n = np.arange(n_max + 1)
    log_p = n * math.log(n_bar / (1.0 + n_bar)) - math.log1p(n_bar)
    return np.exp(log_p)


def _truncation(n_bar):
    if not (n_bar >= 0):
        raise ValueError("n_bar must be >= 0")
    n = int(min(20.0 * n_bar + 100.0, N_MAX_CAP))
    if n_bar > 0:
        tail = (n_bar / (1.0 + n_bar)) ** (n + 1)
        if tail >= TAIL_TOL:
            raise ValueError(
                f"thermal tail {tail:.2e} above {TAIL_TOL} at N_max={n}; "
                "n_bar too large for the truncation cap")
    return n


def rabi_excitation(times, n_bar, carrier_rabi, lamb_dicke):
    """Thermal carrier flopping P(t) = sum_n p_n sin^2(Omega_n t / 2).

    Omega_n = Omega_0 exp(-eta^2/2) L_n(eta^2). Evaluated in Fock blocks
    to bound memory at high n_bar; each block's phases are built, passed
    through sin and squared in one array. Scaling Omega_n by the exact
    factor 1/2 before the product with t gives the same phases as halving
    t * Omega_n, except where that product is subnormal (its square is 0
    either way) or overflows.
    """
    t = np.asarray(times, float)
    n_top = _truncation(n_bar)
    x = lamb_dicke ** 2
    lag = _laguerre_prefix(n_top, x)
    half = 0.5 * (carrier_rabi * math.exp(-0.5 * x) * lag)
    p_n = thermal_weights(n_bar, n_top)
    out = np.zeros_like(t)
    block = 20_000
    for lo in range(0, n_top + 1, block):
        hi = min(lo + block, n_top + 1)
        phase = np.multiply.outer(t, half[lo:hi])
        np.sin(phase, out=phase)
        np.square(phase, out=phase)
        out += phase @ p_n[lo:hi]
    return out


def synthesize_rabi(n_bar, carrier_rabi, lamb_dicke, times, shots, seed):
    """Binomial-sampled synthetic dataset plus a truth manifest."""
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


def _rabi_nll(dataset, n_bar, omega0):
    p = rabi_excitation(dataset.pulse_times, n_bar, omega0, dataset.lamb_dicke)
    p = np.clip(p, 1e-9, 1.0 - 1e-9)
    k = np.round(dataset.excitation_probability * dataset.shots_per_point)
    m = dataset.shots_per_point - k
    return float(-(k * np.log(p) + m * np.log1p(-p)).sum())


def _first_peak_rabi(dataset):
    """Crude Omega_0 from the first local maximum of P(t)."""
    p = dataset.excitation_probability
    if p.size >= 3:
        sm = np.convolve(p, np.ones(3) / 3.0, mode="same")
        for i in range(1, sm.size - 1):
            if sm[i] >= sm[i - 1] and sm[i] >= sm[i + 1] and sm[i] > 0.2:
                return math.pi / dataset.pulse_times[i]
    return math.pi / dataset.pulse_times[max(p.size // 2 - 1, 0)]


def fit_rabi_nbar(dataset):
    """Maximum-likelihood (n_bar, Omega_0) under binomial shot statistics.

    Grid-seeded Nelder-Mead on (log(n_bar + 1/2), log Omega_0); on
    optimizer failure falls back to weighted least squares, recorded in
    the method field. Uncertainties from the numeric Hessian of the NLL.
    """
    omega_seed = dataset.carrier_rabi if dataset.carrier_rabi > 0 \
        else _first_peak_rabi(dataset)
    nbar_grid = [0.1, 1.0, 5.0, 20.0, 80.0, 300.0, 1000.0, 4000.0]
    omega_grid = [omega_seed * f for f in (0.9, 1.0, 1.1)]

    best = None
    for nb in nbar_grid:
        for om in omega_grid:
            nll = _rabi_nll(dataset, nb, om)
            if best is None or nll < best[0]:
                best = (nll, nb, om)
    guess = {"n_bar": best[1], "carrier_rabi": best[2]}

    def objective(theta):
        nb = math.exp(theta[0]) - 0.5
        om = math.exp(theta[1])
        if nb < 0 or nb > 5e4:
            return 1e12
        return _rabi_nll(dataset, nb, om)

    from scipy.optimize import least_squares, minimize

    theta0 = np.array([math.log(best[1] + 0.5), math.log(best[2])])
    res = minimize(objective, theta0, method="Nelder-Mead",
                   options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": 600})

    if res.success:
        nb = math.exp(res.x[0]) - 0.5
        om = math.exp(res.x[1])
        sig_nb, sig_om = _rabi_sigmas(dataset, nb, om)
        return FitResult(
            parameters={"n_bar": nb, "carrier_rabi": om},
            sigmas={"n_bar": sig_nb, "carrier_rabi": sig_om},
            residual_norm=float(res.fun),
            n_iterations=int(res.nit),
            converged=True,
            model_id="rabi-thermal P(t) = sum p_n sin^2(Omega_n t/2)",
            method="mle-binomial-nelder-mead",
            initial_guess=guess)

    # WLS fallback on probabilities with binomial sigmas
    p_obs = dataset.excitation_probability
    sig = np.sqrt(np.clip(p_obs * (1 - p_obs), 0.05, None) / dataset.shots_per_point)

    def residuals(theta):
        nb = max(math.exp(theta[0]) - 0.5, 0.0)
        om = math.exp(theta[1])
        p = rabi_excitation(dataset.pulse_times, nb, om, dataset.lamb_dicke)
        return (p - p_obs) / sig

    res2 = least_squares(residuals, theta0, method="lm", max_nfev=400)
    nb = max(math.exp(res2.x[0]) - 0.5, 0.0)
    om = math.exp(res2.x[1])
    sig_nb, sig_om = _rabi_sigmas(dataset, nb, om)
    return FitResult(
        parameters={"n_bar": nb, "carrier_rabi": om},
        sigmas={"n_bar": sig_nb, "carrier_rabi": sig_om},
        residual_norm=float(np.linalg.norm(res2.fun)),
        n_iterations=int(res2.nfev),
        converged=bool(res2.success),
        model_id="rabi-thermal P(t) = sum p_n sin^2(Omega_n t/2)",
        method="wls-fallback",
        initial_guess=guess)


def _rabi_sigmas(dataset, n_bar, omega0):
    """1-sigma from the numeric NLL Hessian; zeros when not positive definite."""
    h_nb = max(1e-3 * (n_bar + 0.5), 1e-4)
    h_om = 1e-4 * omega0
    if h_om ** 2 == 0.0:
        return 0.0, 0.0   # the step underflows: no curvature to measure

    def nll(nb, om):
        return _rabi_nll(dataset, max(nb, 0.0), om)

    f0 = nll(n_bar, omega0)
    d2_nn = (nll(n_bar + h_nb, omega0) - 2 * f0 + nll(n_bar - h_nb, omega0)) / h_nb ** 2
    d2_oo = (nll(n_bar, omega0 + h_om) - 2 * f0 + nll(n_bar, omega0 - h_om)) / h_om ** 2
    d2_no = (nll(n_bar + h_nb, omega0 + h_om) - nll(n_bar + h_nb, omega0 - h_om)
             - nll(n_bar - h_nb, omega0 + h_om) + nll(n_bar - h_nb, omega0 - h_om)) \
        / (4 * h_nb * h_om)
    hess = np.array([[d2_nn, d2_no], [d2_no, d2_oo]])
    try:
        cov = np.linalg.inv(hess)
        if cov[0, 0] > 0 and cov[1, 1] > 0:
            return math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])
    except np.linalg.LinAlgError:
        pass
    return 0.0, 0.0
