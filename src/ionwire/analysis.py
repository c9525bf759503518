"""Model fitting and measurement emulation.

Fitters here are deliberately small: closed-form weighted least squares
for heating-rate lines, a grid-seeded variable-projection fit of the
resonance line shape, and a grid-seeded binomial maximum-likelihood fit
for Rabi thermometry; one bounded damped Newton serves both. Every
FitResult records the model identifier, the method, and the initial
guess actually used, so fits are reproducible from their serialized
form. All of them are numpy alone.

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
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import check_count, check_range

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
        return asdict(self)


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
        check_count("shots_per_point", self.shots_per_point, 1)
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
    reduced chi-square (standard OLS errors). Sigmas whose weights or
    normal equations leave the float range are refused.
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
        check_range("sigmas", s, gt=0)
    # det > 0 for distinct times; weights or sums out of the float range
    # leave it 0, subnormal, infinite or NaN, and the fit is refused
    with np.errstate(all="ignore"):
        w = 1.0 / s ** 2 if weighted else np.ones_like(t)
        sw = w.sum()
        swt = (w * t).sum()
        swtt = (w * t * t).sum()
        det = sw * swtt - swt ** 2
    if not np.finfo(float).tiny <= det < math.inf:
        raise ValueError(f"{'sigmas' if weighted else 'times'} give normal "
                         f"equations outside the float range (determinant "
                         f"{det:.3g})")
    swy = (w * y).sum()
    swty = (w * t * y).sum()
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
    return _line_terms(offsets, width_sigma_hz, (kappa, duration))[0].reshape(
        np.shape(offsets))


def _line_terms(offsets, width_sigma_hz, probe):
    """The peak's line at ``offsets`` (rad/s) from its center, flattened,
    and its derivatives in the offset u and the width s = width_sigma_hz:
    (line, d_u, d_s, d_uu, d_us, d_ss).

    The line is the shot line P(d) of probe_line, or a point mass at d = 0
    for the Gaussian peak, averaged over Gaussian jitter. With w = 2 pi s,
    z = (u - d)/w and G = exp(-z^2/2), the sums S_k(u) = sum_d G z^k P(d)
    give the line S_0 and, as dS_k/du = (k S_k-1 - S_k+1)/w and dS_k/dw =
    (S_k+2 - k S_k)/w, its derivatives; the row u = 0 normalizes them.
    """
    if probe is None:
        d, shot = np.zeros(1), np.ones(1)
    else:
        kappa, duration = probe
        step = math.pi / (8.0 * duration)
        reach = 128.0 * max(abs(kappa), 1.0 / duration)
        d = np.arange(-reach, reach + step, step)
        # P(d) / (kappa T)^2, which has a limit as kappa -> 0
        shot = np.sinc(np.sqrt(kappa * kappa + 0.25 * d * d) * duration
                       / math.pi) ** 2
    # offsets in blocks of about 2^20 Gaussian weights, however long the
    # probe (the grid grows as kappa T)
    u = np.append(np.asarray(offsets, float).ravel(), 0.0)
    w_sig, rows = 2.0 * math.pi * width_sigma_hz, max(1, 2 ** 20 // d.size)
    sums = []
    for i in range(0, u.size, rows):
        z = (u[i:i + rows, None] - d) / w_sig
        g = np.exp(-0.5 * z ** 2)
        sums.append([g @ shot])
        for _ in range(4):
            g *= z
            sums[-1].append(g @ shot)
    s = np.concatenate(sums, axis=1)
    # the sums over S_0(0), at the offsets and at u = 0; d/ds = w/s d/dw
    s, n = s[:, :-1] / s[0, -1], s[:, -1] / s[0, -1]
    line, d_u = s[0], -s[1] / w_sig
    d_s = (s[2] - line * n[2]) / width_sigma_hz
    d_us = ((2.0 * s[1] - s[3]) / w_sig - d_u * n[2]) / width_sigma_hz
    d_ss = ((s[4] - 3.0 * s[2] - line * (n[4] - 3.0 * n[2])) / width_sigma_hz
            - 2.0 * d_s * n[2]) / width_sigma_hz
    return line, d_u, d_s, (s[2] - s[0]) / w_sig ** 2, d_us, d_ss


def resonance_model(omega, a_base, b_peak, center, width_sigma_hz, omega_ref,
                    probe=None):
    """1/f-field baseline plus a peak of height b_peak, rates in quanta/s.

    The peak is a Gaussian of rms ``width_sigma_hz``, or, with ``probe``
    a (kappa, duration) pair, that probe's ``probe_line``.
    """
    check_range("width_sigma_hz", width_sigma_hz, gt=0)
    peak = probe_line(omega - center, width_sigma_hz, *probe) \
        if probe is not None else _line_terms(
            omega - center, width_sigma_hz, None)[0].reshape(np.shape(omega))
    return a_base * (omega_ref / omega) ** 2 + b_peak * peak


def _resonance_terms(p, omega, rates, sigmas, omega_ref, probe):
    """The residuals (resonance_model - rates)/sigmas at p = (a_base,
    b_peak, center, width_sigma_hz), and their Jacobian in p followed by
    their second derivatives in center^2, center width and width^2."""
    base = (omega_ref / omega) ** 2
    line, d_u, d_s, d_uu, d_us, d_ss = _line_terms(omega - p[2], p[3], probe)
    jac = np.column_stack([base, line, -p[1] * d_u, p[1] * d_s,
                           p[1] * d_uu, -p[1] * d_us, p[1] * d_ss])
    return (p[0] * base + p[1] * line - rates) / sigmas, jac / sigmas[:, None]


def _nonneg_pair(base, line, y, sigmas):
    """The (a, b) >= 0 that minimize |(a base + b line - y) / sigmas|.

    That is the unconstrained least-squares solution if both are >= 0,
    else the better one-column fit, clipped at 0. Each candidate is solved
    from the normal equations, then refined once on its residual, as they
    square the condition number; the least cost picks one, which in exact
    arithmetic is the same choice.
    """
    cols = np.column_stack((base, line)) / sigmas[:, None]
    (bb, bl), (_, ll) = (cols.T @ cols).tolist()
    det = bb * ll - bl * bl
    # the inverse normal matrices of the fits by a alone, b alone and both
    inv = np.zeros((3, 2, 2))
    inv[0, 0, 0], inv[1, 1, 1] = (1.0 / p if p > 0.0 else 0.0 for p in (bb, ll))
    if det > 0.0:
        inv[2] = [[ll / det, -bl / det], [-bl / det, bb / det]]

    def residuals(coef):
        return (coef[:, :1] * base + coef[:, 1:] * line - y) / sigmas

    coef = inv @ (y / sigmas @ cols)
    coef -= np.einsum("kij,kj->ki", inv, residuals(coef) @ cols)
    coef[:2] = np.maximum(coef[:2], 0.0)
    cost = np.sum(residuals(coef) ** 2, axis=1)
    return coef[np.argmin(np.where(coef.min(axis=1) < 0.0, np.inf, cost))]


def fit_resonance(omegas, rates, sigmas=None, probe=None):
    """Fit ndot(w) = A (w_ref/w)^2 + B exp(-(w-w0)^2 / 2 sigma_w^2).

    With ``probe`` a (kappa, duration) pair the peak is that probe's
    ``probe_line`` instead, whose sigma_w is the jitter alone: a Gaussian
    fitted to it also holds the probe's own Fourier width.

    w_ref is pinned to the median scan frequency, so A is the baseline
    rate at the scan center. The fit is by variable projection (Golub &
    Pereyra 1973): the best A, B >= 0 at each center and width have a
    closed form (see _nonneg_pair), and thermometry's bounded damped
    Newton (see _bounded_newton) minimizes the cost left over the center
    and width, from the best of a coarse grid of both. The width cannot
    collapse below half the grid spacing: a spike narrower than one scan
    step is unidentifiable and would swallow a single noise point.
    n_iterations counts the Newton iterations.
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
    lo = np.array([w.min() - (w.max() - w.min()), 0.5 * spacing_hz])
    hi = np.array([w.max() + (w.max() - w.min()), 10.0 * span_hz])

    def project(x):
        # A, B >= 0 at center and width x, the residuals and the Jacobian
        key = x.tobytes()
        if key not in memo:
            jac = _resonance_terms(np.array([0.0, 1.0, *x]), w, y,
                                   np.ones_like(y), w_ref, probe)[1]
            a, b = _nonneg_pair(jac[:, 0], jac[:, 1], y, s)
            jac[:, 2:] *= b
            memo[key] = (a, b, (a * jac[:, 0] + b * jac[:, 1] - y) / s,
                         jac / s[:, None])
        return memo[key]

    def reduced(x):
        a, b, r, jac = project(x)
        if b == 0.0:
            # the cost does not depend on the center and width near here
            return 0.5 * (r @ r) / scale, np.zeros(2), np.eye(2), np.eye(2)
        # the Hessian of the cost left, less the moves of the coefficients
        # not held at 0, whose line column itself moves with x; and, as its
        # Gauss-Newton part, Kaufman's (1975) projected metric
        phi, jx = (jac[:, :2] if a > 0.0 else jac[:, 1:2]), jac[:, 2:4]
        gram, m = phi.T @ phi, phi.T @ jx
        proj = jx - phi @ np.linalg.solve(gram, m)
        m[-1] += jx.T @ r / b
        cc, cs, ss = jac[:, 4:].T @ r
        hess = jx.T @ jx + [[cc, cs], [cs, ss]] - m.T @ np.linalg.solve(gram, m)
        return 0.5 * (r @ r) / scale, jx.T @ r / scale, hess / scale, \
            proj.T @ proj / scale

    memo = {}
    seeds = [np.clip([c0, w0], lo, hi)
             for c0 in (float(w[np.argmax(y)]), w_ref)
             for w0 in (150.0, 300.0, 600.0, 1200.0)]
    costs = [0.5 * np.sum(project(x)[2] ** 2) for x in seeds]
    x0 = seeds[int(np.argmin(costs))]
    # the Newton's thresholds are absolute; it sees the cost in seed units
    scale = float(np.min(costs)) or 1.0
    if not math.isfinite(scale):
        raise ValueError("rates / sigmas overflow the residuals at the seed")
    x, f, _, iterations, status = _bounded_newton(reduced, x0, lo, hi)
    # it stops short of a line fitted to rounding; one more step gets there
    _, g, hess, gn = reduced(x)
    step = _newton_step(g, hess, gn, [0, 1])[0]
    trial = x if step is None else np.clip(x + step, lo, hi)
    if reduced(trial)[0] < f:
        x = trial

    a, b, r, jac = project(x)
    # covariance from the Jacobian at the solution; pinv guards the
    # unidentifiable zero-amplitude corner
    cov = np.linalg.pinv(jac[:, :4].T @ jac[:, :4])
    if sigmas is None:
        dof = max(w.size - 4, 1)
        cov = cov * (float(r @ r) / dof)
    sig = np.sqrt(np.maximum(np.diag(cov), 0.0))
    peak = "B*exp(-(w-w0)^2/(2*sw^2))" if probe is None else \
        "B*line(w-w0), line = <k^2/g^2 sin^2(g T)>_sw normalized at 0, g^2 = k^2 + d^2/4"
    names = ("baseline_coeff", "amplitude", "center", "width_sigma_hz")
    return FitResult(
        parameters=dict(zip(names, map(float, (a, b, *x))), omega_ref=w_ref),
        sigmas=dict(zip(names, map(float, sig))),
        residual_norm=math.sqrt(float(r @ r)),
        n_iterations=iterations,
        converged=status != "failed",
        model_id="resonance ndot(w) = A*(w_ref/w)^2 + " + peak,
        method="varpro-newton",
        initial_guess=dict(zip(names, map(float, (*project(x0)[:2], *x0)))))


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
    # not _DERIV_BLOCK: freeing this mapped block raises glibc's mmap and trim
    # thresholds, so the fit's blocks after it reuse heap pages. At 6,000 here
    # three thermometry runs took 0.15 s instead of 0.12 s, and 0.12 s again
    # with MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_ set.
    for lo, hi, _, phase in _fock_phases(t, carrier_rabi, lamb_dicke, n_top,
                                         20_000):
        np.sin(phase, out=phase)
        np.square(phase, out=phase)
        out += phase @ p_n[lo:hi]
    return out


def synthesize_rabi(n_bar, carrier_rabi, lamb_dicke, times, shots, seed):
    """Binomial-sampled synthetic dataset plus a truth manifest."""
    shots = check_count("shots", shots, 1)
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


def _bounded_newton(derivatives, x, lo, hi):
    """Damped Newton over the box [lo, hi] in two coordinates, from x in it.

    ``derivatives(x)`` returns the objective, its gradient, its Hessian and
    a Gauss-Newton part of it that is never indefinite, used where the
    Hessian is not positive definite. A coordinate on a bound is held while
    the gradient or the step points out of the box; a step that would
    leave it stops on its first bound. Far from the optimum (Newton
    decrement g.H^-1.g, twice the predicted fall, above 1e-2) steps
    backtrack to the Armijo margin; closer in the full step is taken, as
    the objective is quadratic there to well below its rounding, which
    would stall a line search. The iteration stops at a decrement below
    1e-10 with a positive-definite Hessian: "converged", or "pinned" when
    a coordinate is held at its upper bound. Returns (x, objective, hess,
    iterations, status), status "failed" when a line search or the
    iteration limit runs out.
    """
    f, g, hess, gn = derivatives(x)
    for iterations in range(100):
        if not (math.isfinite(f) and np.all(np.isfinite(hess))
                and np.all(np.isfinite(g))):
            break
        # the direction out of the box at a bound: -1 at lo, +1 at hi
        out = np.where(x == lo, -1.0, np.where(x == hi, 1.0, 0.0))
        free = [0, 1]
        while True:
            step, exact = _newton_step(g, hess, gn, free)
            leaving = [k for k in free if out[k] != 0.0 and (
                g[k] * out[k] < 0.0 or step is None or step[k] * out[k] >= 0.0)]
            if not leaving:
                break
            free = [k for k in free if k not in leaving]
        if step is None:
            break
        decrement = float(-(g @ step))
        if exact and decrement <= 1e-10:
            pinned = any(out[k] > 0.0 for k in (0, 1) if k not in free)
            return x, f, hess, iterations, "pinned" if pinned else "converged"
        # the longest step that keeps x inside the box
        edge = np.clip(x + step, lo, hi)
        cut = edge != x + step
        room = np.divide(edge - x, step, out=np.full(2, np.inf), where=cut)
        k = int(np.argmin(room))
        alpha = alpha_max = min(1.0, room[k])
        for _ in range(60):
            trial = x + alpha * step
            if alpha == alpha_max and cut[k]:
                trial[k] = edge[k]
            ft, gt, ht, gnt = derivatives(trial)
            if (exact and decrement < 1e-2 and math.isfinite(ft)) or \
                    ft <= f - 1e-4 * alpha * decrement:
                break
            alpha *= 0.5
        else:
            break
        x, f, g, hess, gn = trial, ft, gt, ht, gnt
    return x, f, hess, iterations, "failed"


def _newton_mle(dataset, n_bar, omega0):
    """(n_bar, u, nll, hess, iterations, status) of _bounded_newton on the
    NLL over (n_bar, u = ln Omega_0), with 0 <= n_bar <= _N_BAR_TOP."""
    x, nll, hess, iterations, status = _bounded_newton(
        lambda x: _nll_derivatives(dataset, *x),
        np.array([n_bar, math.log(omega0)]), np.array([0.0, -np.inf]),
        np.array([_N_BAR_TOP, np.inf]))
    return x[0], x[1], nll, hess, iterations, status


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
