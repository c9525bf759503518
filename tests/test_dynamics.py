import dataclasses
import functools
import math

import numpy as np
import pytest

from ionwire import analysis, circuit, dynamics, geometry
from ionwire.core import (TWO_PI, IonSpecies, TrapSite, WireSpec, calcium_40,
                          mhz_to_rad_s)
from ionwire.dynamics import (NO_COOLING, NO_NOISE, CoolingClamp, NoiseModel,
                              PairParams, integrate_envelope, integrate_full,
                              noise_psd, rate_equation_fixed_point,
                              rate_equation_model)
from ionwire.geometry import RectPatch, effective_distance
from ionwire.scenario import ScheduleResonanceScan, ScheduleSympathetic
from conftest import load_bundled

CARRIER = mhz_to_rad_s(1.368)


# ---------------------------------------------------------------------------
# coherent exchange, envelope route

def test_envelope_cosine_exchange():
    kappa = TWO_PI * 11.1
    tr = integrate_envelope(kappa, CARRIER, duration=math.pi / kappa,
                            initial_occupations=(1000.0, 0.0),
                            init_phase=("fixed", "fixed"), record_points=201)
    expected1 = 1000.0 * np.cos(kappa * tr.times) ** 2
    expected2 = 1000.0 * np.sin(kappa * tr.times) ** 2
    assert np.max(np.abs(tr.n_bar_1 - expected1)) < 1e-6
    assert np.max(np.abs(tr.n_bar_2 - expected2)) < 1e-6


@pytest.mark.parametrize("kappa_hz", [5.0, 11.1, 50.0])
def test_full_transfer_at_quarter_beat(kappa_hz):
    kappa = TWO_PI * kappa_hz
    t_swap = math.pi / (2.0 * kappa)
    tr = integrate_envelope(kappa, CARRIER, duration=t_swap,
                            initial_occupations=(1000.0, 0.0),
                            init_phase=("fixed", "fixed"), record_points=2)
    assert tr.n_bar_2[-1] / 1000.0 > 0.999
    assert tr.n_bar_1[-1] / 1000.0 < 1e-3


@pytest.mark.parametrize("ratio,expected", [(5.0, 1.0 / 7.25), (20.0, 1.0 / 101.0)])
def test_detuning_suppression_closed_form(ratio, expected):
    # two-mode peak transfer kappa^2/(kappa^2 + (delta/2)^2)
    kappa = TWO_PI * 11.1
    delta = ratio * kappa
    gen = math.hypot(kappa, delta / 2.0)
    tr = integrate_envelope(kappa, CARRIER, detuning=(0.0, delta),
                            duration=math.pi / gen,
                            initial_occupations=(1000.0, 0.0),
                            init_phase=("fixed", "fixed"), record_points=801)
    peak = float(np.max(tr.n_bar_2)) / 1000.0
    assert abs(peak - expected) / expected < 0.05


def test_in_phase_equal_amplitudes_do_not_exchange():
    # (1, 1) is a normal mode of the exchange generator
    tr = integrate_envelope(TWO_PI * 50.0, CARRIER, duration=20e-3,
                            initial_occupations=(500.0, 500.0),
                            init_phase=("fixed", "fixed"), record_points=101)
    assert np.max(np.abs(tr.n_bar_1 - 500.0)) < 1e-6
    assert np.max(np.abs(tr.n_bar_2 - 500.0)) < 1e-6


# ---------------------------------------------------------------------------
# dissipation and drive

def test_cooling_clamp_relaxation():
    clamp = CoolingClamp(1e3, 182.0)
    tr = integrate_envelope(0.0, CARRIER, cooling=(NO_COOLING, clamp),
                            duration=10e-3, seed=11, n_realizations=800,
                            initial_occupations=(0.0, 1000.0),
                            init_phase=("thermal", "thermal"),
                            record_points=51)
    settled = float(np.mean(tr.n_bar_2[-5:]))
    sem = float(np.mean(tr.n_bar_sem_2[-5:]))
    assert abs(settled - 182.0) / 182.0 < 0.10
    assert abs(settled - 182.0) < 4.0 * max(sem, 1e-9)


@pytest.mark.parametrize("rate", [1e4, 1e6])
def test_heating_rate_calibration(rate):
    noise = NoiseModel(rate, CARRIER, 0.0, 0.0)
    tr = integrate_envelope(0.0, CARRIER, noise=(noise, NO_NOISE),
                            duration=5e-3, seed=3, n_realizations=4000,
                            initial_occupations=(50.0, 0.0),
                            init_phase=("thermal", "thermal"),
                            record_points=26)
    fit = analysis.fit_linear_heating(
        tr.times, tr.n_bar_1, np.maximum(tr.n_bar_sem_1, 1e-6 * rate))
    assert abs(fit.parameters["rate"] - rate) / rate < 0.05


def test_equipartition_under_symmetric_heating(symmetric_heating_run):
    tr = symmetric_heating_run
    n1 = float(np.mean(tr.n_bar_1[-5:]))
    n2 = float(np.mean(tr.n_bar_2[-5:]))
    asym = abs(n1 - n2) / (0.5 * (n1 + n2))
    assert asym < 0.05


def test_envelope_matches_full_integrator(integrator_pair):
    full = integrator_pair["full"]
    env = integrator_pair["envelope"]
    scale = float(np.max(full.n_bar_1))
    rms = 0.0
    for a, b in ((full.n_bar_1, env.n_bar_1), (full.n_bar_2, env.n_bar_2)):
        rms = max(rms, float(np.sqrt(np.mean((a - b) ** 2))) / scale)
    assert rms < 0.03


# ---------------------------------------------------------------------------
# long-run integrator properties

def test_energy_drift_below_1e6(long_noiseless_run):
    tr = long_noiseless_run["traj"]
    e = np.asarray(tr.energies, float)
    assert e.shape == (40001,)
    # the symplectic step has a bounded oscillating energy error; only the
    # secular component matters, so regress instead of differencing ends
    slope = np.polyfit(tr.times, e, 1)[0]
    drift = abs(slope) * tr.times[-1] / float(np.mean(e))
    assert drift < 1e-6


def test_normal_mode_spectrum(long_noiseless_run):
    run = long_noiseless_run
    tr = run["traj"]
    w, k = run["omega"], run["kappa"]
    x = np.asarray(tr.positions)[:, 0]
    dt_rec = tr.times[1] - tr.times[0]
    spectrum = np.abs(np.fft.rfft(x - x.mean()))
    freqs = np.fft.rfftfreq(x.size, dt_rec)
    df = freqs[1] - freqs[0]
    # stiffness eigenvalues w^2 +- 2 k w, i.e. a splitting of ~2k
    expected = np.sqrt(np.linalg.eigvalsh(
        [[w * w, 2 * k * w], [2 * k * w, w * w]])) / TWO_PI
    for f_mode in expected:
        band = (freqs > f_mode - 200.0) & (freqs < f_mode + 200.0)
        f_peak = freqs[band][np.argmax(spectrum[band])]
        assert abs(f_peak - f_mode) <= df + 1e-9


# ---------------------------------------------------------------------------
# determinism

def small_full(seed):
    params = PairParams.resonant(calcium_40().mass, TWO_PI * 100e3, TWO_PI * 50.0)
    noise = NoiseModel(5e4, TWO_PI * 100e3, 1.0, 0.0)
    return integrate_full(params, (100.0, 0.0), noise=(noise, NO_NOISE),
                          duration=1e-3, seed=seed, n_realizations=8,
                          record_points=11)


def small_envelope(seed):
    noise = NoiseModel(5e4, CARRIER, 1.0, 300.0)
    return integrate_envelope(TWO_PI * 50.0, CARRIER, noise=(noise, NO_NOISE),
                              duration=2e-3, seed=seed, n_realizations=16,
                              record_points=11)


def test_seed_determinism_bitwise():
    a, b = small_full(5), small_full(5)
    assert np.array_equal(a.n_bar_1, b.n_bar_1)
    assert np.array_equal(a.n_bar_2, b.n_bar_2)
    assert np.array_equal(a.n_bar_sem_1, b.n_bar_sem_1)
    c, d = small_envelope(5), small_envelope(5)
    assert np.array_equal(c.n_bar_1, d.n_bar_1)
    assert np.array_equal(c.n_bar_2, d.n_bar_2)
    assert not np.array_equal(a.n_bar_1, small_full(6).n_bar_1)
    assert not np.array_equal(c.n_bar_1, small_envelope(6).n_bar_1)


# the RNG draw layout and the kick scaling, frozen to the bit as float.hex:
# both integrators with heating, drag and per-shot jitter on both ions,
# over two segments (_BATCH); a change of the draw order, of how the kicks
# are scaled, of how the generators are seeded or of the order in which
# the moments are summed fails here
FROZEN_BITS = {
    "full": (["0x1.8a27581e8ccfap+6", "0x1.858c80aadcb54p+6",
              "0x1.948e4818d6a4cp+6"],
             ["0x1.807eae307557cp+5", "0x1.70fa70f68bf60p+5",
              "0x1.68560e7e05dc3p+5"],
             ["0x1.866b55594c8e7p+2", "0x1.6edf0e1696ebdp+2",
              "0x1.861d2c0a016e1p+2"],
             ["0x1.76c86ad5cbc58p+1", "0x1.66b40902108c0p+1",
              "0x1.57efb7e5a50aap+1"]),
    "envelope": (["0x1.8a27581e8ccf9p+6", "0x1.9cb72173da1fap+6",
                  "0x1.a003aa3fdb078p+6"],
                 ["0x1.807eae307557cp+5", "0x1.4098526502c42p+5",
                  "0x1.2c4a18e1ba3d6p+5"],
                 ["0x1.866b55594c8e8p+2", "0x1.7e541d4a65d4ap+2",
                  "0x1.731b6344c456cp+2"],
                 ["0x1.76c86ad5cbc58p+1", "0x1.4a301f9b4bb13p+1",
                  "0x1.145746a6227d4p+1"])}


def test_kick_scaling_is_frozen_bitwise():
    w = TWO_PI * 100e3
    common = dict(cooling=(CoolingClamp(400.0, 20.0), CoolingClamp(800.0, 5.0)),
                  seed=21, n_realizations=260, record_points=3)

    def noise(f):
        return (NoiseModel(5e4, f, 1.0, 300.0), NoiseModel(2e4, f, 1.0, 200.0))

    params = PairParams.resonant(calcium_40().mass, w, TWO_PI * 50.0)
    runs = {"full": integrate_full(params, (100.0, 50.0), noise=noise(w),
                                   duration=2.2e-4, **common),
            "envelope": integrate_envelope(
                TWO_PI * 50.0, CARRIER, noise=noise(CARRIER), duration=2e-3,
                initial_occupations=(100.0, 50.0), **common)}
    for name, tr in runs.items():
        got = (tr.n_bar_1, tr.n_bar_2, tr.n_bar_sem_1, tr.n_bar_sem_2)
        for values, frozen in zip(got, FROZEN_BITS[name]):
            assert [float.hex(float(v)) for v in values] == frozen, name


# every operation is row-wise, so realization 0 of a full-integrator batch
# comes out to the bit the same in a batch of one row and of three
W_ONE_ROW = TWO_PI * 100e3
ONE_ROW_CASES = {
    "plain": {},
    "heating, per-shot jitter": dict(noise=(
        NoiseModel(5e4, W_ONE_ROW, 1.0, 300.0),
        NoiseModel(2e4, W_ONE_ROW, 1.0, 200.0))),
    "drag": dict(cooling=(CoolingClamp(400.0, 20.0), CoolingClamp(800.0, 5.0))),
}


@pytest.mark.parametrize("case", ONE_ROW_CASES)
def test_one_row_verlet_equals_row_zero_of_a_batch(case):
    params = PairParams.resonant(calcium_40().mass, W_ONE_ROW, TWO_PI * 50.0)
    runs = [integrate_full(params, (100.0, 50.0), duration=2.2e-4, seed=21,
                           n_realizations=n, record_points=12,
                           record_positions=True, **ONE_ROW_CASES[case])
            for n in (1, 3)]    # 1,100 steps
    assert np.array_equal(runs[0].positions, runs[1].positions), case
    assert np.array_equal(runs[0].energies, runs[1].energies), case


# a one-row run with heating, drag and per-shot jitter on both ions, to
# the bit as float.hex
FROZEN_ONE_ROW = {
    "n_bar_1": ["0x1.98456b89f3d29p+5", "0x1.93e4d0cec6e78p+5",
                "0x1.689f651535d47p+6"],
    "n_bar_2": ["0x1.00f631957e121p+6", "0x1.2f2188d91cab4p+6",
                "0x1.a1ae9c53ad965p+5"],
    "positions": ["0x1.10a8b54052998p-21", "-0x1.4a39d5180cccep-22",
                  "0x1.0ebd0e98b153ap-21", "-0x1.14e623e28bbdap-22",
                  "0x1.5d94ee23f33ecp-21", "-0x1.6eeb973f8fecbp-23"],
    "energies": ["0x1.2e22353124e15p-87", "0x1.4af8ca3b32726p-87",
                 "0x1.7556ac2db956ap-87"]}


def test_one_row_verlet_is_frozen_bitwise():
    params = PairParams.resonant(calcium_40().mass, W_ONE_ROW, TWO_PI * 50.0)
    tr = integrate_full(
        params, (100.0, 50.0),
        noise=(NoiseModel(5e4, W_ONE_ROW, 1.0, 300.0),
               NoiseModel(2e4, W_ONE_ROW, 1.0, 200.0)),
        cooling=(CoolingClamp(400.0, 20.0), CoolingClamp(800.0, 5.0)),
        duration=2.2e-4, seed=21, n_realizations=1, record_points=3,
        record_positions=True)
    for name, frozen in FROZEN_ONE_ROW.items():
        got = [float.hex(float(v)) for v in np.ravel(getattr(tr, name))]
        assert got == frozen, name


# read-out and recording run once per block of up to _WIDE row-records;
# blocks of one record slot give the same numbers to the bit. Jitter caps
# a batch at _BATCH rows whatever _WIDE is; without it the cap is _WIDE,
# so there a 300-realization point fills a 300-row batch of blocks of one
def _block_runs(n_points, jitter):
    noise = (NoiseModel(5e4, CARRIER, 1.0, 300.0 * jitter),
             NoiseModel(2e4, CARRIER, 1.0, 200.0 * jitter))
    return integrate_envelope(
        TWO_PI * 50.0, CARRIER, detuning=[(0.0, TWO_PI * 400.0 * p)
                                          for p in range(n_points)],
        noise=noise, cooling=(CoolingClamp(400.0, 20.0), NO_COOLING),
        duration=5.5e-4, dt=5e-7, seed=list(range(5, 5 + n_points)),
        n_realizations=300, initial_occupations=(100.0, 50.0), record_points=21)


BLOCK_CASES = {     # a run of trajectories, and the _WIDE of blocks of one
    **{f"full, {n} rows": (functools.partial(
        integrate_full, PairParams.resonant(calcium_40().mass, W_ONE_ROW,
                                            TWO_PI * 50.0),
        (100.0, 50.0), duration=2.2e-4, seed=21, n_realizations=n,
        record_points=101, record_positions=True, **ONE_ROW_CASES[
            "heating, per-shot jitter"], **ONE_ROW_CASES["drag"]), 1)
       for n in (1, 3)},
    "envelope, 1 row, 1,001 records": (functools.partial(
        integrate_envelope, TWO_PI * 11.1, CARRIER, duration=0.2,
        initial_occupations=(1000.0, 0.0), init_phase=("fixed", "fixed"),
        record_points=1001), 1),
    "envelope, 3 points x 300, jitter": (
        functools.partial(_block_runs, 3, 1.0), 1),
    "envelope, 3 points x 300, no jitter": (
        functools.partial(_block_runs, 3, 0.0), 300),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_recording_is_bitwise_the_same(case, monkeypatch):
    run, wide = BLOCK_CASES[case]
    recorder, blocks = dynamics._recorder, []

    def spy(*args):
        record, sums = recorder(*args)

        def counted(j, n):
            blocks.append(len(n))
            record(j, n)
        return counted, sums

    def bits():
        runs = run()
        return [[float.hex(float(v)) for v in np.ravel(getattr(tr, name))]
                for tr in (runs if isinstance(runs, list) else [runs])
                for name in ("n_bar_1", "n_bar_2", "n_bar_sem_1",
                             "n_bar_sem_2", "positions", "energies")
                if getattr(tr, name) is not None]

    monkeypatch.setattr(dynamics, "_recorder", spy)
    blocked = bits()
    assert max(blocks) > 1, case
    blocks.clear()
    monkeypatch.setattr(dynamics, "_WIDE", wide)
    assert bits() == blocked, case
    assert set(blocks) == {1}, case


def test_recorder_sums_each_segment_over_its_own_rows():
    # unequal segments recorded in uneven blocks of slots, against a loop
    # over segments; a segment holds at most _BATCH positive terms, so the
    # sums agree to _BATCH ulps whatever the order of addition
    rng = np.random.default_rng(4)
    ends = np.cumsum([256, 3, 256, 1, 40])
    bounds = list(zip([0, *ends[:-1]], ends))
    n = rng.exponential(100.0, (7, ends[-1], 2))
    record, sums = dynamics._recorder(bounds, len(n))
    for j, k in ((0, 1), (1, 4), (5, 2)):
        record(j, n[j:j + k])
    for s, (r0, r1) in enumerate(bounds):
        for moment, v in enumerate((n, n ** 2)):
            np.testing.assert_allclose(sums[s, moment],
                                       v[:, r0:r1].sum(axis=1),
                                       rtol=dynamics._BATCH * 2.0 ** -52)


# the energy check runs once per block and names the step of the first
# record slot that fails: slot 94 of 1,001, in the middle of the one
# block of a one-row run, of its second block at _WIDE = 50, and alone in
# its block at _WIDE = 1, where the check runs once per slot
@pytest.mark.parametrize("wide", [dynamics._WIDE, 50, 1])
def test_unstable_step_is_located_inside_a_block(wide, monkeypatch):
    monkeypatch.setattr(dynamics, "_WIDE", wide)
    # 2 kappa just above omega: energy grows by 1e6 in 470 steps
    params = PairParams.resonant(calcium_40().mass, TWO_PI * 1e6,
                                 TWO_PI * 0.51e6)
    with pytest.raises(RuntimeError) as err:
        integrate_full(params, (100.0, 0.0), duration=1e-4, record_points=1001,
                       init_phase=("fixed", "fixed"))
    assert str(err.value) == \
        "unstable step: energy exceeded 1e6x initial at step 470"


# the seeding contract: each _BATCH-row segment of a point draws from its
# own generator, so realizations 0-255 give the same segment sums however
# many realizations follow them, with per-shot jitter and without jitter,
# where the first segment shares a batch with the next seven
@pytest.mark.parametrize("jittered", [
    pytest.param(True, id="per_shot_static"),
    pytest.param(False, id="no_jitter")])
def test_adding_realizations_keeps_the_first_segment(jittered, monkeypatch):
    seen = []
    kernel = dynamics._batch

    def spy(segments, *args):
        moments, x, e = kernel(segments, *args)
        seen.append((segments[0][2:], len(segments), moments[0]))
        return moments, x, e

    monkeypatch.setattr(dynamics, "_batch", spy)
    larger = 512 if jittered else 2560
    for n in (256, larger):
        integrate_envelope(TWO_PI * 50.0, CARRIER, noise=_packing_noise(jittered),
                           duration=5.5e-4, dt=5e-7, seed=17, n_realizations=n,
                           initial_occupations=(100.0, 50.0), record_points=4)
    (rows_256, _, sums_256), (rows_more, width, sums_more) = seen[0], seen[1]
    assert rows_256 == rows_more == (0, 256)
    assert width == (1 if jittered else dynamics._WIDE // dynamics._BATCH)
    assert np.array_equal(sums_256, sums_more)


# without jitter a batch holds up to _WIDE rows; its trajectories equal
# those of _BATCH-row batches to the bit, with a partial last segment,
# with segments of unequal sizes in one batch, and with a one-row last
# segment, a batch of its own when narrow; that row's last bits mostly
# round away in the sums over 257 rows, so it is recorded 101 times
@pytest.mark.parametrize("ensemble,n_points,record_points",
                         [(2100, 1, 4), (300, 3, 4), (257, 1, 101)],
                         ids=["partial_segment", "unequal_segments",
                              "one_row_segment"])
def test_wide_batches_equal_narrow_ones(ensemble, n_points, record_points,
                                        monkeypatch):
    common = dict(noise=_packing_noise(None),
                  cooling=(CoolingClamp(400.0, 20.0), CoolingClamp(800.0, 5.0)),
                  n_realizations=ensemble, record_points=record_points)
    detunings = [(0.0, TWO_PI * 400.0 * (p - 1)) for p in range(n_points)]
    seeds = [31 + 7 * p for p in range(n_points)]
    params = PairParams.resonant(calcium_40().mass, CARRIER, TWO_PI * 50.0)
    widths, kernel = [], dynamics._batch

    def spy(*args):
        widths.append(len(args[0]))     # segments in the batch
        return kernel(*args)

    def runs():
        widths.clear()
        envelope = integrate_envelope(
            TWO_PI * 50.0, CARRIER, detuning=detunings, seed=seeds,
            duration=5.5e-4, dt=5e-7, initial_occupations=(100.0, 50.0),
            init_phase=("thermal", "coherent"), **common)
        full = integrate_full(params, (100.0, 50.0), duration=2.2e-5,
                              seed=seeds[0], record_positions=True, **common)
        return [*envelope, full], list(widths)

    monkeypatch.setattr(dynamics, "_batch", spy)
    wide, wide_widths = runs()
    monkeypatch.setattr(dynamics, "_WIDE", dynamics._BATCH)
    narrow, narrow_widths = runs()
    assert len(wide_widths) < len(narrow_widths)
    assert sum(wide_widths) == sum(narrow_widths)
    for a, b in zip(wide, narrow):
        for name in ("times", "n_bar_1", "n_bar_2", "n_bar_sem_1",
                     "n_bar_sem_2", "positions", "energies"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


# a batch's working set is bounded by _WIDE: it does not grow with the
# ensemble
def test_batch_memory_does_not_grow_with_the_ensemble():
    import tracemalloc

    def peak(n):
        tracemalloc.start()
        try:
            integrate_envelope(
                0.0, CARRIER, noise=(NoiseModel(5e4, CARRIER, 1.0), NO_NOISE),
                duration=2.5e-3, seed=3, n_realizations=n,
                initial_occupations=(1000.0, 0.0),
                init_phase=("coherent", "coherent"), record_points=26)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)         # the first call imports numpy.random
    assert peak(20_000) <= 1.2 * peak(2_048)


# ---------------------------------------------------------------------------
# exact means: C_n = T^n C_0 T^n^T + Q_n from the propagator's own powers

def _verlet_and_envelope_maps():
    """Two real step maps and step noise covariances (2, 4, 4)."""
    dt, w, g = 0.05, 1.3, 0.2
    k = np.array([[w * w, g], [g, w * w * 1.1]])
    a = np.eye(2) - 0.5 * dt * dt * k
    verlet = np.block([[a, dt * np.eye(2)],
                       [0.99 * (0.25 * dt ** 3 * k @ k - dt * k), 0.99 * a]])
    m = dynamics._expm2(-0.3j - 0.05, 0.2j - 0.01, -0.4j, 1.0)
    envelope = np.block([[m.real, -m.imag], [m.imag, m.real]])
    d = np.diag([0.0, 0.0, 0.3, 0.7]), np.diag([0.5, 0.2, 0.5, 0.2])
    return np.stack([verlet, envelope]), np.stack(d)


def test_power_by_doubling_equals_the_direct_sum():
    t, d = _verlet_and_envelope_maps()
    for n in range(1, 18):
        tn, qn = dynamics._power(t, d, n)
        direct_t = np.linalg.matrix_power(t, n)
        direct_q = sum(np.linalg.matrix_power(t, k) @ d
                       @ np.swapaxes(np.linalg.matrix_power(t, k), 1, 2)
                       for k in range(n))
        # entries that vanish by symmetry hold rounding only
        for got, want in ((tn, direct_t), (qn, direct_q)):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max(),
                                       err_msg=str(n))


def _assert_within_4_sem(sampled, sem, exact, label):
    # a record whose SEM is rounding (a noiseless ion, an exact initial
    # occupation) must equal the exact mean; every other one is a z-score
    sampled, sem, exact = (np.ravel(v) for v in (sampled, sem, exact))
    noisy = sem > 1e-9 * np.abs(exact)
    z = (sampled[noisy] - exact[noisy]) / sem[noisy]
    assert np.all(np.abs(z) <= 4.0), (label, z)
    np.testing.assert_allclose(sampled[~noisy], exact[~noisy], rtol=1e-9,
                               err_msg=str(label))


def _assert_trajectory_matches(sampled, exact, label):
    np.testing.assert_array_equal(exact.times, sampled.times)
    assert np.all(exact.n_bar_sem_1 == 0) and np.all(exact.n_bar_sem_2 == 0)
    for i in (1, 2):
        _assert_within_4_sem(getattr(sampled, f"n_bar_{i}"),
                             getattr(sampled, f"n_bar_sem_{i}"),
                             getattr(exact, f"n_bar_{i}"), (label, i))


def test_integrator_pair_matches_exact_means(integrator_pair):
    omega, kappa = TWO_PI * 100e3, TWO_PI * 11.1
    common = dict(noise=(NoiseModel(206e3, omega, 1.0, 0.0), NO_NOISE),
                  cooling=(NO_COOLING, CoolingClamp(1e3, 182.0)),
                  duration=10e-3, init_phase=("coherent", "coherent"),
                  record_points=26, exact=True)
    params = PairParams.resonant(calcium_40().mass, omega, kappa)
    _assert_trajectory_matches(integrator_pair["full"], integrate_full(
        params, (1000.0, 182.0), **common), "full")
    _assert_trajectory_matches(integrator_pair["envelope"], integrate_envelope(
        kappa, omega, (0.0, 0.0), initial_occupations=(1000.0, 182.0),
        **common), "envelope")


def test_symmetric_heating_matches_exact_means(symmetric_heating_run):
    omega = TWO_PI * 100e3
    params = PairParams.resonant(calcium_40().mass, omega, TWO_PI * 200.0)
    noise = NoiseModel(2000.0, omega, 0.0, 0.0)
    _assert_trajectory_matches(symmetric_heating_run, integrate_full(
        params, (0.0, 0.0), noise=(noise, noise), duration=12.5e-3,
        init_phase=("fixed", "fixed"), record_points=26, exact=True),
        "symmetric heating")


def test_sympathetic_free_branch_matches_exact_means(sympathetic_scenario,
                                                     sympathetic_report):
    # the free branch's call, as run_sympathetic makes it
    s = sympathetic_scenario
    sampled = sympathetic_report.trajectories["uncoupled"]
    exact = integrate_envelope(
        0.0, s.site1.vertical_frequency, noise=(s.noise1, NO_NOISE),
        duration=2.5 * s.schedule.wait_times[-1],
        initial_occupations=(s.schedule.initial_hot_occupation,
                             s.cooling2.steady_state_occupation),
        init_phase=("coherent", "coherent"), record_points=sampled.times.size,
        exact=True)
    _assert_trajectory_matches(sampled, exact, "sympathetic")


def test_scan_points_match_exact_means(scan_scenario, scan_report):
    # the scan's probe call, as run_resonance_scan makes it
    s, sched = scan_scenario, scan_scenario.schedule
    table = scan_report.tables["scan"]
    w1 = s.site1.vertical_frequency
    deltas = np.asarray(table["omega_rad_s"]) - w1
    d_max = float(np.max(np.abs(deltas)))
    noise, cooling = (s.noise1, s.noise2), (s.cooling1, s.cooling2)
    exact = integrate_envelope(
        s.kappa(), w1, detuning=[(0.0, d) for d in deltas], noise=noise,
        cooling=cooling, duration=sched.probe_duration,
        dt=dynamics.envelope_step_limit(s.kappa(), w1, (d_max, d_max), noise,
                                        cooling, sched.probe_duration),
        seed=[0] * deltas.size,
        initial_occupations=(sched.hot_occupation, sched.cold_occupation),
        init_phase=("thermal", "coherent"), record_points=2, exact=True)
    rates = [(tr.n_bar_2[-1] - sched.cold_occupation) / sched.probe_duration
             for tr in exact]
    _assert_within_4_sem(table["rate_quanta_per_s"],
                         table["sigma_quanta_per_s"], rates, "scan")


# an unstable step overflows the n-step map to +-inf, and inf times a zero
# state component is NaN; a NaN energy compares false against any bound,
# so the record-point check is written to fail on it too
def test_energy_check_catches_a_nan_state(monkeypatch):
    powers, power = [], dynamics._power

    def spy(t, d, n):
        powers.append(power(t, d, n)[0])
        return powers[-1], power(t, d, n)[1]

    monkeypatch.setattr(dynamics, "_power", spy)
    # 2 kappa above omega: one normal mode has a negative stiffness
    params = PairParams.resonant(calcium_40().mass, TWO_PI * 1e6, TWO_PI * 1e6)
    with pytest.raises(RuntimeError, match="unstable step"):
        integrate_full(params, (100.0, 0.0), duration=1e-3, record_points=2,
                       init_phase=("fixed", "fixed"))
    with np.errstate(invalid="ignore"):
        state = powers[0][0] @ np.array([1.0, 0.0, 0.0, 0.0])  # x1 only
    assert np.isinf(powers[0]).any() and np.isnan(state).any()


# ---------------------------------------------------------------------------
# frequency jitter

def test_jitter_suppresses_exchange_monotonically():
    gains = []
    for sigma in (0.0, 300.0, 600.0):
        noise = (NoiseModel(0.0, 0.0, 1.0, sigma),
                 NoiseModel(250e3, CARRIER, 1.0, sigma))
        tr = integrate_envelope(TWO_PI * 59.0, CARRIER, noise=noise,
                                duration=2e-3, seed=77, n_realizations=400,
                                initial_occupations=(1e4, 200.0),
                                init_phase=("coherent", "coherent"),
                                record_points=2)
        gains.append(float(tr.n_bar_2[-1]) - 200.0)
    assert gains[0] > 1.2 * gains[1] > 1.2 * 1.2 * gains[2] > 0.0


# ---------------------------------------------------------------------------
# incoherent rate-equation route

def test_rate_equation_free_heating_is_linear():
    tr = rate_equation_model(1000.0, 182.0, 206e3, 0.0, 0.0,
                             CoolingClamp(0.0, 0.0), 10e-3, 11)
    line = 1000.0 + 206e3 * tr.times
    assert np.max(np.abs(tr.n_bar_1 - line)) / line[-1] < 1e-8
    assert np.max(np.abs(tr.n_bar_2 - 182.0)) < 1e-6


def test_rate_equation_initial_slope():
    # heat - kex (n1 - n2) = 206000 - 132 (1000 - 182) = 98024
    assert 206000.0 - 132.0 * (1000.0 - 182.0) == 98024.0
    clamp = CoolingClamp(math.inf, 182.0)
    tr = rate_equation_model(1000.0, 182.0, 206e3, 0.0, 132.0, clamp, 1e-7, 2)
    slope0 = (tr.n_bar_1[1] - tr.n_bar_1[0]) / (tr.times[1] - tr.times[0])
    assert slope0 == pytest.approx(98024.0, rel=1e-4)


def test_rate_equation_fitted_window_slope():
    clamp = CoolingClamp(math.inf, 182.0)
    tr = rate_equation_model(1000.0, 182.0, 206e3, 0.0, 132.0, clamp, 10e-3, 11)
    fit = analysis.fit_linear_heating(tr.times, tr.n_bar_1)
    oracle = np.polyfit(tr.times, tr.n_bar_1, 1)[0]
    assert fit.parameters["rate"] == pytest.approx(oracle, rel=1e-9)
    assert fit.parameters["rate"] == pytest.approx(53330.97, abs=0.5)


def test_rate_equation_fixed_point():
    clamp = CoolingClamp(1e3, 10.0)
    n1, n2 = rate_equation_fixed_point(206e3, 0.0, 132.0, clamp)
    # stationarity: n2 = n_ss + heat/gamma, then n1 = n2 + heat/kex
    assert n2 == pytest.approx(10.0 + 206e3 / 1e3, rel=1e-12)
    assert n1 == pytest.approx(n2 + 206e3 / 132.0, rel=1e-12)
    tr = rate_equation_model(1000.0, 182.0, 206e3, 0.0, 132.0, clamp, 0.1, 51)
    assert tr.n_bar_1[-1] == pytest.approx(n1, rel=1e-4)
    assert tr.n_bar_2[-1] == pytest.approx(n2, rel=1e-4)


def test_rate_equation_long_time_limit_is_the_fixed_point():
    # e^(lam t) -> 0 and t phi1(lam t) -> -1/lam, so the closed form's late
    # values are -A^-1 b, which rate_equation_fixed_point writes out
    clamp = CoolingClamp(1e3, 10.0)
    n1, n2 = rate_equation_fixed_point(206e3, 5e3, 132.0, clamp)
    tr = rate_equation_model(1000.0, 182.0, 206e3, 5e3, 132.0, clamp, 1e3, 2)
    assert tr.n_bar_1[-1] == pytest.approx(n1, rel=1e-13)
    assert tr.n_bar_2[-1] == pytest.approx(n2, rel=1e-13)


def test_hard_clamp_is_the_scalar_exponential():
    clamp = CoolingClamp(math.inf, 182.0)
    tr = rate_equation_model(1000.0, 182.0, 206e3, 0.0, 132.0, clamp, 25e-3, 11)
    n_inf = 182.0 + 206e3 / 132.0
    expected = n_inf + (1000.0 - n_inf) * np.exp(-132.0 * tr.times)
    np.testing.assert_allclose(tr.n_bar_1, expected, rtol=1e-13)
    assert np.all(tr.n_bar_2 == 182.0)


def test_exchange_rate_round_trip():
    clamp = CoolingClamp(math.inf, 182.0)
    free = rate_equation_model(1000.0, 182.0, 206e3, 0.0, 0.0, clamp, 10e-3, 11)
    coupled = rate_equation_model(1000.0, 182.0, 206e3, 0.0, 132.0, clamp,
                                  10e-3, 11)
    rate_u = analysis.fit_linear_heating(free.times, free.n_bar_1).parameters["rate"]
    rate_c = analysis.fit_linear_heating(coupled.times,
                                         coupled.n_bar_1).parameters["rate"]
    n1_avg = float(np.trapezoid(coupled.n_bar_1, coupled.times) / coupled.times[-1])
    kex = analysis.extract_kappa(rate_u, rate_c, n1_avg, 182.0)
    assert abs(kex - 132.0) / 132.0 < 0.05


def test_noise_psd_scalings():
    pink = NoiseModel(250e3, CARRIER, 1.0, 0.0)
    assert noise_psd(pink, CARRIER) == pytest.approx(250e3, rel=1e-12)
    w2 = mhz_to_rad_s(1.380)
    assert noise_psd(pink, w2) == pytest.approx(
        250e3 * (1.368 / 1.380) ** 2, rel=1e-12)
    assert noise_psd(pink, 2 * CARRIER) == pytest.approx(250e3 / 4.0, rel=1e-12)
    flat_field = NoiseModel(250e3, CARRIER, 0.0, 0.0)
    assert noise_psd(flat_field, 2 * CARRIER) == pytest.approx(
        250e3 / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# guard rails

def test_full_integrator_rejects_coarse_step():
    params = PairParams.resonant(calcium_40().mass, TWO_PI * 1e6, TWO_PI * 10.0)
    with pytest.raises(ValueError, match="too coarse"):
        integrate_full(params, (10.0, 0.0), duration=1e-4, dt=1e-6)


def test_envelope_rejects_scale_separation_violation():
    with pytest.raises(ValueError, match="scale separation"):
        integrate_envelope(0.2 * CARRIER, CARRIER, duration=1e-4,
                           initial_occupations=(10.0, 0.0))


def test_envelope_rejects_infinite_damping():
    with pytest.raises(ValueError, match="finite damping"):
        integrate_envelope(TWO_PI * 10.0, CARRIER,
                           cooling=(NO_COOLING, CoolingClamp(math.inf, 10.0)),
                           duration=1e-3)


def test_record_points_minimum():
    with pytest.raises(ValueError):
        integrate_envelope(TWO_PI * 10.0, CARRIER, duration=1e-3,
                           record_points=1)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(-1.0, CARRIER, 1.0, 0.0)
    with pytest.raises(ValueError):
        NoiseModel(1e3, 0.0, 1.0, 0.0)  # heating needs a reference
    with pytest.raises(ValueError):
        NoiseModel(1e3, CARRIER, 2.5, 0.0)
    with pytest.raises(ValueError):
        NoiseModel(0.0, 0.0, 1.0, -5.0)


def test_cooling_and_params_validation():
    with pytest.raises(ValueError):
        CoolingClamp(-1.0, 0.0)
    with pytest.raises(ValueError):
        CoolingClamp(10.0, -1.0)
    with pytest.raises(ValueError, match="< 1e"):
        CoolingClamp(10.0, 1e100)
    with pytest.raises(ValueError):
        PairParams(0.0, 1e-25, TWO_PI * 1e6, TWO_PI * 1e6, TWO_PI * 10.0)
    with pytest.raises(ValueError):
        PairParams.resonant(calcium_40().mass, -1.0, TWO_PI * 10.0)


# each field or argument, and a call that gives it NaN
NAN_CALLS = {
    "heating_rate_at_reference":
        lambda v: NoiseModel(heating_rate_at_reference=v),
    "reference_frequency": lambda v: NoiseModel(1e3, v),
    "jitter_sigma": lambda v: NoiseModel(jitter_sigma=v),
    "damping_rate": lambda v: CoolingClamp(damping_rate=v),
    "steady_state_occupation":
        lambda v: CoolingClamp(steady_state_occupation=v),
    "heat1": lambda v: rate_equation_model(0.0, 0.0, v, 0.0, 1.0, NO_COOLING,
                                           1e-3),
    "heat2": lambda v: rate_equation_model(0.0, 0.0, 0.0, v, 1.0, NO_COOLING,
                                           1e-3),
    "kappa_ex": lambda v: rate_equation_model(0.0, 0.0, 0.0, 0.0, v,
                                              NO_COOLING, 1e-3),
    "omega": lambda v: noise_psd(NO_NOISE, v),
}


@pytest.mark.parametrize("field", NAN_CALLS)
def test_invariants_reject_nan(field):
    with pytest.raises(ValueError, match=field):
        NAN_CALLS[field](math.nan)


@pytest.mark.parametrize("argument,value", [
    ("duration", math.nan), ("duration", math.inf), ("duration", 0.0),
    ("duration", -1.0), ("record_points", 0), ("record_points", 1),
    ("record_points", 2.0), ("n1_0", math.inf), ("n2_0", -1.0),
    ("heat1", math.inf), ("kappa_ex", math.inf)])
def test_rate_equations_reject_bad_numbers(argument, value):
    args = dict(n1_0=1000.0, n2_0=182.0, heat1=206e3, heat2=0.0,
                kappa_ex=132.0, cooling2=CoolingClamp(math.inf, 182.0),
                duration=1e-3, record_points=11)
    with pytest.raises(ValueError, match=argument):
        rate_equation_model(**{**args, argument: value})


def test_fixed_point_needs_coupling_and_damping():
    with pytest.raises(ValueError):
        rate_equation_fixed_point(1e3, 0.0, 0.0, CoolingClamp(1e3, 10.0))
    with pytest.raises(ValueError):
        rate_equation_fixed_point(1e3, 0.0, 132.0, CoolingClamp(0.0, 10.0))


def test_unknown_init_policy_rejected():
    with pytest.raises(ValueError, match="init"):
        integrate_envelope(TWO_PI * 10.0, CARRIER, duration=1e-3,
                           initial_occupations=(10.0, 0.0),
                           init_phase=("squeezed", "thermal"))


# ---------------------------------------------------------------------------
# several probe points in one call

def _packing_noise(jittered):
    """Heating on both ions, and per-shot jitter on both if ``jittered``."""
    sigma = (300.0, 200.0) if jittered else (0.0, 0.0)
    return (NoiseModel(5e4, CARRIER, 1.0, sigma[0]),
            NoiseModel(2e4, CARRIER, 1.0, sigma[1]))


@pytest.mark.parametrize("ensemble,offsets_hz,jittered", [
    (64, (-400, 0, 400, 800, 1200), True),  # 4 points per batch, then 1
    (100, (-400, 0, 400), True),            # 2 points per batch, 56 rows free
    (300, (-400, 0, 400), True),            # each point split at _BATCH
    # one batch; without jitter each point's rows are one run of equal
    # keys, and the first and last points' equal runs are not adjacent
    (100, (0, 400, 0), False),
    # one realization per point: one three-row batch packed, one-row
    # batches alone
    (1, (-400, 0, 400), False)],
    ids=["64-5-per_shot_static", "100-3-per_shot_static",
         "300-3-per_shot_static", "no_jitter-repeated_point",
         "no_jitter-one_row"])
def test_packed_points_equal_one_point_calls(ensemble, offsets_hz, jittered):
    common = dict(noise=_packing_noise(jittered),
                  cooling=(CoolingClamp(400.0, 20.0), CoolingClamp(800.0, 5.0)),
                  duration=5.5e-4, dt=5e-7, n_realizations=ensemble,
                  initial_occupations=(100.0, 50.0),
                  init_phase=("thermal", "coherent"),
                  record_points=4)                        # 1,100 steps
    detunings = [(0.0, TWO_PI * f) for f in offsets_hz]
    seeds = [31 + 7 * p for p in range(len(detunings))]
    packed = integrate_envelope(TWO_PI * 50.0, CARRIER, detuning=detunings,
                                seed=seeds, **common)
    assert len(packed) == len(detunings)
    for d, s, tr in zip(detunings, seeds, packed):
        alone = integrate_envelope(TWO_PI * 50.0, CARRIER, detuning=d, seed=s,
                                   **common)
        for name in ("times", "n_bar_1", "n_bar_2", "n_bar_sem_1",
                     "n_bar_sem_2"):
            assert np.array_equal(getattr(tr, name), getattr(alone, name)), \
                (d, name)
        assert tr.positions is None and tr.energies is None


def test_packed_points_kick_a_batch_as_a_whole():
    # a subnormal heating rate makes the kick size underflow to zero at
    # the detuned point only (heating is evaluated at each point's nominal
    # frequency). Packed with the resonant point, the detuned point's
    # generator draws kick normals after its set-up draws too, which its
    # one-point call does not, but its rows take no kick from them, so its
    # outputs equal that call's
    detuned = CARRIER / 25.0
    noise = (NoiseModel(0.0, 0.0, 1.0, 10.0),
             NoiseModel(2.9645e-316, CARRIER, 0.0, 0.0))
    dt = 2.5e-8
    kick = [math.sqrt(noise_psd(noise[1], CARRIER + d) * dt / 2.0)
            for d in (0.0, detuned)]
    assert kick[0] > 0.0 and kick[1] == 0.0
    common = dict(noise=noise, duration=200 * dt, dt=dt, n_realizations=8,
                  initial_occupations=(100.0, 50.0), record_points=3)
    pairs = [(0.0, 0.0), (0.0, detuned)]
    packed = integrate_envelope(TWO_PI * 50.0, CARRIER, detuning=pairs,
                                seed=[5, 6], **common)
    for d, s, tr in zip(pairs, (5, 6), packed):
        alone = integrate_envelope(TWO_PI * 50.0, CARRIER, detuning=d, seed=s,
                                   **common)
        assert np.array_equal(tr.n_bar_1, alone.n_bar_1), d
        assert np.array_equal(tr.n_bar_2, alone.n_bar_2), d


def test_several_points_default_to_the_smallest_step_limit():
    detunings = [(0.0, 0.0), (0.0, TWO_PI * 2e3)]
    trs = integrate_envelope(TWO_PI * 50.0, CARRIER, detuning=detunings,
                             seed=[1, 2], duration=1e-3, record_points=2)
    dt = min(dynamics.envelope_step_limit(TWO_PI * 50.0, CARRIER, d,
                                          (NO_NOISE, NO_NOISE),
                                          (NO_COOLING, NO_COOLING), 1e-3)
             for d in detunings)
    n_steps = math.ceil(1e-3 / dt - 1e-9)
    for tr in trs:
        assert tr.times[-1] == n_steps * dt


# ---------------------------------------------------------------------------
# the shared front end rejects bad numbers, naming the argument

ENVELOPE_BASE = dict(kappa=TWO_PI * 50.0, carrier=CARRIER,
                     detuning=(0.0, TWO_PI * 100.0), duration=1e-4, seed=3,
                     n_realizations=3, initial_occupations=(10.0, 5.0),
                     record_points=3)


@pytest.mark.parametrize("argument,value", [
    ("dt", -1.0), ("dt", 0.0), ("dt", math.nan), ("duration", math.inf),
    ("duration", 0.0), ("n_realizations", 0), ("n_realizations", 2.0),
    ("record_points", 1), ("record_points", 2.5), ("seed", -1),
    ("seed", math.nan),
    ("initial_occupations", (math.nan, 0.0)),
    ("initial_occupations", (-1.0, 0.0)), ("kappa", math.nan),
    ("carrier", math.inf), ("detuning", (math.nan, 0.0))])
def test_front_end_rejects_bad_numbers(argument, value):
    # integrate_full calls the same argument ``initial``
    name = "initial" if argument == "initial_occupations" else argument
    with pytest.raises(ValueError, match=name):
        integrate_envelope(**{**ENVELOPE_BASE, argument: value})


def test_several_points_need_one_seed_each():
    pairs = [(0.0, 0.0), (0.0, 10.0), (0.0, 20.0)]
    for seed in ([1, 2], 7, [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="seed"):
            integrate_envelope(**{**ENVELOPE_BASE, "detuning": pairs,
                                  "seed": seed})
    with pytest.raises(ValueError, match="detuning"):
        integrate_envelope(**{**ENVELOPE_BASE, "detuning": [(0.0, 1.0, 2.0)]})


# ---------------------------------------------------------------------------
# seeded fuzz: every numeric argument of both integrators and of the rate
# equations, at each edge value, gives a ValueError or a finite trajectory
# on at least two records; so does every number given to the fitters, to
# the fit containers, to the species, trap site and wire, to the effective
# distance and to the coupling rates, to the thermometry model, to the patch
# fields, to the rate extraction, to the schedules and to the scenario,
# which must give a ValueError or a result whose every number is finite

EDGE_VALUES = (math.nan, math.inf, -math.inf, -1.0, 0.0)
# and, for the wire's entries, a subnormal, which underflows the coupling
# rate's denominator, or a charge or mass in SI units, to zero
EXTRA_EDGE_VALUES = {"wire-spec": (5e-324,), "enhancement": (5e-324,)}
FUZZ_NOISE = (NoiseModel(5e4, CARRIER, 1.0, 300.0),
              NoiseModel(2e4, CARRIER, 1.0, 200.0))
FUZZ_COOLING = (CoolingClamp(400.0, 20.0), CoolingClamp(800.0, 5.0))
FUZZ_SCAN = tuple((TWO_PI * (1.368e6 + 500.0 * np.arange(-4, 4))).tolist())
FUZZ_POSITION = dict(patch=RectPatch.centered_square(120e-6),
                     position=(10e-6, -5e-6, 60e-6))


def _fit_rabi_dataset(**fields):
    return analysis.fit_rabi_nbar(analysis.RabiDataset(**fields))


FUZZ_CALLS = {
    "envelope": (integrate_envelope, dict(
        ENVELOPE_BASE, noise=FUZZ_NOISE, cooling=FUZZ_COOLING, dt=None)),
    "envelope-points": (integrate_envelope, dict(
        ENVELOPE_BASE, detuning=((0.0, TWO_PI * 100.0), (0.0, -TWO_PI * 50.0)),
        seed=(3, 4), noise=FUZZ_NOISE, cooling=FUZZ_COOLING, dt=None)),
    "full": (integrate_full, dict(
        params=PairParams.resonant(calcium_40().mass, TWO_PI * 100e3,
                                   TWO_PI * 50.0),
        initial=(10.0, 5.0), noise=(NoiseModel(5e4, TWO_PI * 100e3, 1.0, 300.0),
                                    FUZZ_NOISE[1]),
        cooling=FUZZ_COOLING, duration=2e-6, dt=None, seed=3,
        n_realizations=3, record_points=3)),
    "rate-equations": (rate_equation_model, dict(
        n1_0=1000.0, n2_0=182.0, heat1=206e3, heat2=5e3, kappa_ex=132.0,
        cooling2=CoolingClamp(1e3, 10.0), duration=1e-3, record_points=11)),
    "fixed-point": (rate_equation_fixed_point, dict(
        heat1=206e3, heat2=5e3, kappa_ex=132.0,
        cooling2=CoolingClamp(1e3, 10.0))),
    # no heating and per-shot jitter: the reference frequency is unused,
    # and must be a number all the same
    "noise-model": (NoiseModel, dict(
        heating_rate_at_reference=0.0, reference_frequency=CARRIER,
        spectral_exponent=1.0, jitter_sigma=300.0)),
    "linear-heating": (analysis.fit_linear_heating, dict(
        times=(0.0, 1.0, 2.0, 3.0), occupations=(1.0, 2.1, 2.9, 4.0),
        sigmas=(0.1, 0.2, 0.1, 0.3))),
    "resonance": (analysis.fit_resonance, dict(
        omegas=FUZZ_SCAN, rates=tuple(analysis.resonance_model(
            np.array(FUZZ_SCAN), 250e3, 750e3, FUZZ_SCAN[4], 800.0,
            FUZZ_SCAN[4]).tolist()),
        sigmas=(15e3,) * len(FUZZ_SCAN))),
    "probe-line": (analysis.probe_line, dict(
        offsets=(0.0, TWO_PI * 300.0, -TWO_PI * 800.0), width_sigma_hz=527.0,
        kappa=TWO_PI * 59.0, duration=2e-3)),
    "rabi-dataset": (analysis.RabiDataset, dict(
        pulse_times=(1e-6, 2e-6, 3e-6), excitation_probability=(0.1, 0.5, 0.9),
        shots_per_point=100, carrier_rabi=TWO_PI * 50e3, lamb_dicke=0.05)),
    "rabi-fit": (_fit_rabi_dataset, dict(
        pulse_times=(1e-6, 3e-6, 5e-6, 7e-6, 9e-6),
        excitation_probability=(0.03, 0.18, 0.5, 0.74, 0.94),
        shots_per_point=100, carrier_rabi=TWO_PI * 50e3, lamb_dicke=0.05)),
    "fit-result": (functools.partial(
        analysis.FitResult, parameters={"rate": 1.0, "intercept": 0.5},
        residual_norm=0.1, n_iterations=1, converged=True, model_id="m",
        method="wls"), dict(sigmas={"rate": 0.1, "intercept": 0.2})),
    "trap-site": (TrapSite, dict(vertical_frequency=CARRIER,
                                 physical_height=60e-6,
                                 effective_distance=130e-6)),
    "rect-patch": (RectPatch, dict(x_min=-60e-6, x_max=60e-6, y_min=-60e-6,
                                   y_max=60e-6, voltage=1.0)),
    "effective-distance": (effective_distance, dict(
        patch=RectPatch.centered_square(120e-6), height=60e-6)),
    "ion-species": (IonSpecies, dict(charge_number=1, mass_number=40.0)),
    "wire-spec": (WireSpec, dict(capacitance=30e-15, paddle_side=120e-6,
                                 center_separation=620e-6, resistance=1.0)),
    "coulomb": (circuit.coulomb_coupling_rate, dict(
        species=calcium_40(), omega=CARRIER, separation=620e-6)),
    "crossover": (circuit.crossover_radius, dict(
        species=calcium_40(), omega=CARRIER, kappa=TWO_PI * 11.1)),
    "enhancement": (circuit.enhancement_report, dict(
        species=calcium_40(),
        site1=TrapSite(CARRIER, 50e-6, 110e-6),
        site2=TrapSite(CARRIER, 70e-6, 140e-6),
        wire=WireSpec(30e-15, 120e-6, 620e-6))),
    "rabi-excitation": (analysis.rabi_excitation, dict(
        times=(1e-6, 2e-6, 3e-6), n_bar=5.0, carrier_rabi=TWO_PI * 50e3,
        lamb_dicke=0.05)),
    "laguerre": (analysis.laguerre_sequence, dict(n_max=50, x=0.0025)),
    "patch-potential": (geometry.patch_potential, FUZZ_POSITION),
    "patch-field": (geometry.patch_field, FUZZ_POSITION),
    "extract-kappa": (analysis.extract_kappa, dict(
        rate_uncoupled=206e3, rate_coupled=102e3, n1=1000.0, n2=182.0)),
    "sympathetic-schedule": (ScheduleSympathetic, dict(
        wait_times=(0.0, 1e-3, 2e-3), initial_hot_occupation=1000.0)),
    "scan-schedule": (ScheduleResonanceScan, dict(
        probe_frequencies=FUZZ_SCAN, probe_duration=2e-3, hot_occupation=1e4,
        cold_occupation=200.0)),
    "scenario": (functools.partial(dataclasses.replace,
                                   load_bundled("scan_benchmark")),
                 dict(kappa_override=TWO_PI * 59.0, ensemble_size=200))}
# the calls without a dt fuzz every argument; this many numbers each
FUZZ_LEAVES = {"rate-equations": 9, "linear-heating": 12, "resonance": 24,
               "rabi-dataset": 9, "rabi-fit": 13, "fit-result": 2,
               "trap-site": 3, "rect-patch": 5, "effective-distance": 6,
               "ion-species": 2, "wire-spec": 4, "coulomb": 4, "crossover": 4,
               "enhancement": 12, "rabi-excitation": 6, "laguerre": 2,
               "patch-potential": 8, "patch-field": 8, "extract-kappa": 4,
               "sympathetic-schedule": 4, "scan-schedule": 11, "scenario": 2,
               "fixed-point": 5, "noise-model": 4, "probe-line": 6}


def _numeric_leaves(value, path=()):
    """Paths to every number inside an argument: tuples, dicts, dataclasses."""
    if isinstance(value, (bool, str)) or value is None:
        return []
    if isinstance(value, (int, float)):
        return [path]
    if isinstance(value, tuple):
        return [leaf for i, v in enumerate(value)
                for leaf in _numeric_leaves(v, path + (i,))]
    if isinstance(value, dict):
        return [leaf for k, v in value.items()
                for leaf in _numeric_leaves(v, path + (k,))]
    if dataclasses.is_dataclass(value):
        return [leaf for f in dataclasses.fields(value)
                for leaf in _numeric_leaves(getattr(value, f.name),
                                            path + (f.name,))]
    return []


def _replace(value, path, new):
    if not path:        # an integer argument gets the integer edge values
        return int(new) if isinstance(value, int) and math.isfinite(new) \
            else new
    head, rest = path[0], path[1:]
    if isinstance(value, tuple):
        return tuple(_replace(v, rest, new) if i == head else v
                     for i, v in enumerate(value))
    if isinstance(value, dict):
        return {k: _replace(v, rest, new) if k == head else v
                for k, v in value.items()}
    return dataclasses.replace(
        value, **{head: _replace(getattr(value, head), rest, new)})


def _rejects_or_finite(fn, kwargs, mutations):
    try:
        for path, new in mutations:
            kwargs = {**kwargs,
                      path[0]: _replace(kwargs[path[0]], path[1:], new)}
        result = fn(**kwargs)
    except ValueError:
        return
    if not isinstance(result, (list, dynamics.EnsembleTrajectory)):
        assert np.all(np.isfinite(_numbers(result))), mutations
        return
    for tr in result if isinstance(result, list) else [result]:
        assert tr.times.size >= 2, mutations
        for arr in (tr.times, tr.n_bar_1, tr.n_bar_2, tr.n_bar_sem_1,
                    tr.n_bar_sem_2):
            assert np.all(np.isfinite(arr)), mutations


def _numbers(value):
    """Every number inside a fit result or dataset, as one list."""
    if dataclasses.is_dataclass(value):
        return [x for f in dataclasses.fields(value)
                for x in _numbers(getattr(value, f.name))]
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, (bool, str)) or value is None:
        return []
    return np.ravel(np.asarray(value, float)).tolist()


@pytest.mark.parametrize("call", FUZZ_CALLS)
def test_fuzzed_numbers_are_rejected_or_give_finite_results(call):
    fn, base = FUZZ_CALLS[call]
    leaves = [(name,) + leaf for name, value in base.items()
              for leaf in _numeric_leaves(value)]
    if "dt" in base:
        leaves += [("dt",)]
        assert len(leaves) > 20
    else:       # the rate equations and the fitters: every argument
        assert len(leaves) == FUZZ_LEAVES[call]
    with np.errstate(all="ignore"):
        for leaf in leaves:
            for new in EDGE_VALUES + EXTRA_EDGE_VALUES.get(call, ()):
                _rejects_or_finite(fn, base, [(leaf, new)])
        # and a seeded draw of edge values in pairs of arguments
        rng = np.random.default_rng(2024)
        for _ in range(40):
            picks = rng.choice(len(leaves), 2, replace=False)
            _rejects_or_finite(fn, base, [
                (leaves[i], EDGE_VALUES[rng.integers(len(EDGE_VALUES))])
                for i in picks])
