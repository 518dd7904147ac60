"""Problem-specification layer: validation, partition functions, Gibbs laws."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from noneq import (
    BrownianSpec,
    ConfigError,
    Constant,
    DiffusionFactor,
    GridDensity,
    LangevinSpec,
    Linear,
    NoCirculation,
    PiecewiseFrozen,
    QuadraticPotential,
    RadialLinearCirculation,
    RotationCirculation,
    SpecError,
    TanhPerturbedPotential,
    Sine,
    bakry_emery_kappa,
    free_energy_difference,
    gaussian_kl,
    gibbs_gaussian,
    gibbs_grid,
    gibbs_logpdf,
    gibbs_sampler,
    partition_function,
    relative_entropy_grid,
    simulate_forward,
    spec_from_config,
    validate_spec,
)
from noneq.model import Potential, Schedule
from noneq.rng import block_generator


def quadratic_spec(k0=1.0, k1=None, beta=1.0, horizon=1.0, dimension=1, **kw):
    sched = Constant(k0) if k1 is None else Linear(k0, k1, horizon)
    pot = QuadraticPotential(stiffness=sched, dimension=dimension)
    return BrownianSpec(potential=pot, beta=beta, horizon=horizon, **kw)


class TestValidateSpec:
    def test_zero_circulation_passes_with_zero_residual(self):
        report = validate_spec(quadratic_spec())
        assert report.ok
        assert report.max_stationarity_residual == 0.0

    def test_rotation_on_radial_well_passes(self):
        """An antisymmetric rotation is divergence-free and orthogonal to a
        radial gradient, so the Gibbs measure stays stationary."""
        spec = quadratic_spec(dimension=2, circulation=RotationCirculation(rate=1.3))
        report = validate_spec(spec)
        assert report.ok
        assert report.max_stationarity_residual <= 1e-12

    def test_radial_circulation_rejected_with_exact_residual(self):
        # div(x e^{-V}) = e^{-x^2/2} (1 - x^2) for V = x^2/2, beta = 1; the
        # probe grid contains the origin where |...| peaks at exactly 1.
        spec = quadratic_spec(circulation=RadialLinearCirculation(rate=1.0))
        report = validate_spec(spec)
        assert not report.ok
        assert_allclose(report.max_stationarity_residual, 1.0, rtol=1e-12)
        assert any("stationarity" in m for m in report.messages)

    def test_residual_stable_under_probe_refinement(self):
        spec = quadratic_spec(circulation=RadialLinearCirculation(rate=1.0))
        coarse = validate_spec(spec, tol=1e-8, probes=41)
        fine = validate_spec(spec, tol=1e-8, probes=401)
        assert fine.max_stationarity_residual <= 2.0 * max(
            coarse.max_stationarity_residual, 1e-8)

    def test_ellipticity_floor_enforced(self):
        # gamma = sigma^2 = 0.25 clears a declared floor of 0.2 ...
        spec = quadratic_spec(
            diffusion=DiffusionFactor.isotropic(1, 0.5), gamma_minus=0.2)
        report = validate_spec(spec)
        assert report.ok
        assert_allclose(report.min_gamma_eigenvalue, 0.25, rtol=1e-12)

        # ... but sigma = 0.4 gives gamma = 0.16 and must be rejected.
        bad = quadratic_spec(
            diffusion=DiffusionFactor.isotropic(1, 0.4), gamma_minus=0.2)
        report = validate_spec(bad)
        assert not report.ok
        assert any("ellipticity" in m for m in report.messages)

    def test_langevin_spec_structural(self):
        spec = LangevinSpec(QuadraticPotential(Constant(1.0)), beta=2.0,
                            horizon=1.0, xi=0.7)
        report = validate_spec(spec)
        assert report.ok


class TestPartitionFunction:
    def test_standard_gaussian_normalizer(self):
        snap = partition_function(quadratic_spec(), 0.0)
        assert_allclose(snap.z, math.sqrt(2.0 * math.pi), rtol=1e-10)
        assert snap.error <= 1e-8

    def test_free_energy_definition(self):
        spec = quadratic_spec(k0=1.0, k1=2.0, beta=1.0)
        snap = partition_function(spec, spec.horizon)
        assert_allclose(snap.free_energy, -math.log(snap.z) / spec.beta, rtol=0,
                        atol=1e-15)

    def test_stiffness_switch_free_energy_gap(self):
        """Doubling the stiffness halves the Gibbs variance; the free-energy
        difference has the closed form (1/(2 beta)) ln(k_T / k_0)."""
        spec = quadratic_spec(k0=1.0, k1=2.0, beta=1.0)
        assert_allclose(free_energy_difference(spec), 0.5 * math.log(2.0),
                        rtol=1e-9)
        assert_allclose(free_energy_difference(spec), 0.34657, atol=5e-6)

    def test_quadrature_matches_closed_form_many_betas(self):
        for beta, k in [(0.5, 1.0), (1.0, 3.0), (4.0, 0.25)]:
            spec = quadratic_spec(k0=k, beta=beta)
            snap = partition_function(spec, 0.0)
            assert_allclose(snap.z, math.sqrt(2.0 * math.pi / (beta * k)),
                            rtol=1e-8)

    def test_constant_shift_moves_free_energy_exactly(self):
        class Shifted(QuadraticPotential):
            def v(self, x, s):
                return super().v(x, s) + 0.7

        base = quadratic_spec()
        shifted = BrownianSpec(
            potential=Shifted(Constant(1.0), dimension=1), beta=1.0, horizon=1.0)
        f0 = partition_function(base, 0.0).free_energy
        f1 = partition_function(shifted, 0.0).free_energy
        assert_allclose(f1 - f0, 0.7, rtol=1e-9)


class TestGibbsDensities:
    def test_gaussian_representation_variance(self):
        law = gibbs_gaussian(quadratic_spec(k0=2.0, beta=0.5), 0.0)
        assert_allclose(law.cov[0, 0], 1.0 / (0.5 * 2.0), rtol=1e-12)
        assert_allclose(law.mean, 0.0, atol=0)

    def test_gaussian_representation_requires_quadratic(self):
        spec = BrownianSpec(potential=TanhPerturbedPotential(Constant(0.3)),
                            beta=1.0, horizon=1.0)
        with pytest.raises(SpecError):
            gibbs_gaussian(spec, 0.0)

    def test_grid_density_normalized(self):
        like = GridDensity(((-10.0, 10.0),), np.ones(2000))
        dens = gibbs_grid(quadratic_spec(), 0.0, like)
        assert abs(np.sum(dens.values) * dens.spacings[0] - 1.0) <= 1e-10

    def test_grid_and_gaussian_agree_in_kl(self):
        spec = quadratic_spec(k0=1.5, beta=1.0)
        like = GridDensity(((-10.0, 10.0),), np.ones(4000))
        grid = gibbs_grid(spec, 0.0, like)
        law = gibbs_gaussian(spec, 0.0)
        gauss_on_grid = GridDensity(like.box, law.pdf(grid.axes[0][:, None]), 0.0)
        assert relative_entropy_grid(grid, gauss_on_grid) <= 1e-8


def tanh_ramp(kind="brownian", mass=None, beta=1.0):
    """The tanh-perturbed well with its amplitude ramped from 0 to 1.5."""
    pot = TanhPerturbedPotential(Linear(0.0, 1.5, 1.0))
    if kind == "brownian":
        return BrownianSpec(potential=pot, beta=beta, horizon=1.0)
    return LangevinSpec(potential=pot, beta=beta, horizon=1.0, mass=mass)


def tanh_cdf(spec, s, x):
    """CDF of the position Gibbs law exp(-beta V(., s)) / Z at x, by trapezoid quadrature."""
    grid = np.linspace(-12.0, 12.0, 240001)
    dens = np.exp(-spec.beta * spec.potential.v(grid[:, None], s))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]))])
    return np.interp(x, grid, cdf / cdf[-1])


class TestGibbsFamilyBranches:
    """The non-quadratic and kinetic branches of the Gibbs family."""

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_rejection_sampler_matches_quadrature_cdf(self, s):
        spec = tanh_ramp()
        n = 20000
        x = np.sort(gibbs_sampler(spec, s)(block_generator(11, 0), n)[:, 0])
        f = tanh_cdf(spec, s, x)
        i = np.arange(1, n + 1)
        d = max(np.max(i / n - f), np.max(f - (i - 1) / n))
        # 1.63 is the one-sample Kolmogorov-Smirnov coefficient at the 1% level
        assert math.sqrt(n) * d < 1.63

    def test_kinetic_sampler_adds_maxwell_momenta(self):
        spec = tanh_ramp("langevin", mass=[[2.0]], beta=0.8)
        n = 20000
        draw = gibbs_sampler(spec, 1.0)(block_generator(12, 0), n)
        # positions come first from the block's stream, exactly as for the
        # overdamped spec on the same potential
        positions = gibbs_sampler(tanh_ramp(beta=0.8), 1.0)(block_generator(12, 0), n)
        assert_array_equal(draw[:, :1], positions)
        p, var = draw[:, 1], 2.0 / 0.8
        assert abs(p.mean()) <= 4.0 * math.sqrt(var / n)
        assert abs(p.var(ddof=1) - var) <= 4.0 * math.sqrt(2.0 * var * var / (n - 1))

    @pytest.mark.parametrize("kind", ["brownian", "langevin"])
    def test_gibbs_logpdf_integrates_to_one(self, kind):
        spec = tanh_ramp(kind, beta=0.8)
        axis = np.linspace(-14.0, 14.0, 1401)
        h = axis[1] - axis[0]
        if kind == "brownian":
            pts = axis[:, None]
        else:
            pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
        for s in (0.0, 1.0):
            mass = np.sum(np.exp(gibbs_logpdf(spec, pts, s))) * h ** pts.shape[-1]
            assert_allclose(mass, 1.0, rtol=1e-9)

    @pytest.mark.parametrize("potential", [
        TanhPerturbedPotential(Linear(0.0, 1.5, 1.0)),
        QuadraticPotential(Constant(1.3), dimension=2),
    ], ids=["tanh", "quadratic-2d"])
    def test_kinetic_partition_function_adds_the_momentum_factor(self, potential):
        n = potential.dimension
        mass = np.diag([2.0, 0.5][:n])
        z = partition_function(BrownianSpec(potential, beta=0.8, horizon=1.0), 1.0).z
        kinetic = partition_function(LangevinSpec(potential, beta=0.8, horizon=1.0, mass=mass),
                                     1.0)
        factor = (2.0 * math.pi / 0.8) ** (n / 2.0) * math.sqrt(np.linalg.det(mass))
        assert_allclose(kinetic.z, z * factor, rtol=1e-14)
        assert_allclose(kinetic.free_energy, -math.log(z * factor) / 0.8, rtol=1e-14)

class TestSpecFromConfig:
    BASE = {
        "schema_version": 1,
        "kind": "brownian",
        "beta": 1.0,
        "horizon": 1.0,
        "potential": {"family": "quadratic",
                      "stiffness": {"kind": "linear", "start": 1.0, "end": 2.0}},
    }

    def test_roundtrip_quadratic(self):
        spec = spec_from_config(dict(self.BASE))
        assert isinstance(spec, BrownianSpec)
        assert_allclose(spec.potential.k.value(1.0), 2.0)

    def test_langevin_kind(self):
        cfg = dict(self.BASE, kind="langevin", friction=0.5)
        spec = spec_from_config(cfg)
        assert isinstance(spec, LangevinSpec)
        assert spec.xi == 0.5

    def test_unknown_family_rejected(self):
        cfg = dict(self.BASE, potential={"family": "morse"})
        with pytest.raises(ConfigError):
            spec_from_config(cfg)

    def test_schema_version_checked(self):
        cfg = dict(self.BASE, schema_version=0)
        with pytest.raises(ConfigError):
            spec_from_config(cfg)

    def test_rotation_requires_two_dimensions(self):
        cfg = dict(self.BASE, circulation={"family": "rotation", "rate": 1.0})
        with pytest.raises(ConfigError):
            spec_from_config(cfg)


def test_reversed_spec_mirrors_schedules():
    """The protocol-reversed problem runs the schedule backwards and flips
    the circulation sign."""
    spec = quadratic_spec(k0=1.0, k1=2.0)
    rev = spec.reversed()
    for s in np.linspace(0.0, 1.0, 7):
        assert_allclose(rev.potential.v(np.array([[0.8]]), s),
                        spec.potential.v(np.array([[0.8]]), 1.0 - s), rtol=1e-14)
    x = np.array([[0.3], [-1.2]])
    assert_allclose(rev.drift(x, 0.25), spec.reversed().drift(x, 0.25))


def test_reversed_spec_keeps_the_contract():
    """The reverse of a rotating 2-D spec is a well-posed spec of its own,
    Gibbs-stationary with the negated circulation, whose convexity at s is
    the original's at T - s."""
    spec = BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0), dimension=2), beta=1.0,
                        horizon=1.0, circulation=RotationCirculation(0.7), gamma_minus=1.0)
    report = validate_spec(spec.reversed())
    assert report.ok, report.messages
    assert report.max_stationarity_residual <= 1e-12
    for s in (0.0, 0.3, 1.0):
        assert bakry_emery_kappa(spec.reversed(), s) == \
            bakry_emery_kappa(spec, spec.horizon - s)
    assert bakry_emery_kappa(spec.reversed(), 0.3) == pytest.approx(1.7, rel=1e-12)


def kinetic_ramp(dimension=1, mass=None):
    """A moving, stiffening well, so that time mirroring changes every coefficient."""
    return LangevinSpec(QuadraticPotential(Linear(1.0, 1.5, 1.0), Linear(0.2, -0.4, 1.0),
                                           dimension),
                        beta=0.9, horizon=1.0, xi=0.7, mass=mass)


@pytest.mark.parametrize("spec", [
    BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0), Sine(0.4), 2), beta=1.2,
                 horizon=1.0, circulation=RotationCirculation(0.6)),
    kinetic_ramp(2, np.diag([2.0, 0.5])),
], ids=["brownian-rotation", "langevin-mass"])
def test_reversing_twice_restores_the_drift(spec):
    twice = spec.reversed().reversed()
    width = spec.noise_factor(0.0).shape[0]
    x = np.random.default_rng(3).normal(size=(20, width))
    for s in (0.0, 0.3, 0.8, 1.0):
        assert_allclose(twice.drift(x, s), spec.drift(x, s), rtol=1e-13, atol=1e-13)
        assert_array_equal(twice.noise_factor(s), spec.noise_factor(s))


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_langevin_drift_is_the_linear_system(reverse):
    """The drift equals A(s) x + force(s) of the moment ODE's coefficients."""
    spec = kinetic_ramp(2, np.diag([2.0, 0.5]))
    spec = spec.reversed() if reverse else spec
    x = np.random.default_rng(4).normal(size=(20, 4))
    coef = spec.linear_system()
    for s in (0.0, 0.3, 0.8, 1.0):
        amat, force, _ = coef(np.array([s]))
        assert_allclose(spec.drift(x, s), x @ amat[0].T + force[0], rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("spec", [
    BrownianSpec(QuadraticPotential(Linear(1.0, 2.0, 1.0), Sine(0.4), 2), beta=1.2,
                 horizon=1.0, circulation=RotationCirculation(0.6),
                 diffusion=DiffusionFactor(np.array([[1.0, 0.3, 0.2], [0.0, 0.8, -0.4]]),
                                           Linear(1.0, 1.5, 1.0))),
    kinetic_ramp(2, np.diag([2.0, 0.5])).reversed(),
    tanh_ramp("brownian"),
    tanh_ramp("langevin", mass=np.array([[2.0]])),
], ids=["rotating-plane", "kinetic-plane-reversed", "tanh-brownian", "tanh-langevin"])
def test_drift_into_a_buffer(spec):
    """``drift(x, s, out=buf)`` writes the bits of ``drift(x, s)`` into buf and
    returns it; neither call modifies x."""
    width = spec.noise_factor(0.0).shape[0]
    x = np.random.default_rng(5).normal(size=(20, width))
    x_before = x.copy()
    for s in (0.0, 0.3, 1.0):
        buf = np.full_like(x, np.nan)
        assert spec.drift(x, s, out=buf) is buf
        assert_array_equal(buf, spec.drift(x, s))
        assert_array_equal(x, x_before)


def test_reversed_langevin_starts_from_the_horizon_gibbs_law():
    spec = kinetic_ramp()
    ens = simulate_forward(spec.reversed(), 64, 0.5, seed=3, store_times=[0.0])
    start = ens.states_at(0.0)
    for s, same in ((spec.horizon, True), (0.0, False)):
        draw = gibbs_gaussian(spec, s).sample(block_generator(3, 0), 64)
        assert np.array_equal(start, draw) is same


def test_diffusion_schedule_enters_gamma():
    spec = quadratic_spec(
        diffusion=DiffusionFactor.isotropic(1, 1.0, Sine(0.5, 1.0, 1.25)))
    g0 = spec.diffusion.gamma(0.0)[0, 0]
    g_half = spec.diffusion.gamma(0.5)[0, 0]
    assert_allclose(g0, 1.25 ** 2, rtol=1e-12)
    assert_allclose(g_half, (1.25 + 0.5 * math.sin(0.5 * math.pi)) ** 2, rtol=1e-12)


def package_potentials(cls=Potential):
    """Every subclass of ``cls`` that the package defines, at any depth."""
    found = set()
    for sub in cls.__subclasses__():
        if sub.__module__ == Potential.__module__:
            found.add(sub)
        found |= package_potentials(sub)
    return found


BATCHED_POTENTIALS = [
    QuadraticPotential(Linear(1.0, 2.0, 1.0), Linear(0.0, 1.5, 1.0)),
    QuadraticPotential(Sine(0.4, base=1.0), Sine(0.7), 2),
    TanhPerturbedPotential(Sine(0.7)),
]


@pytest.mark.parametrize("pot", BATCHED_POTENTIALS + [
    BrownianSpec(pot, beta=1.0, horizon=1.0).reversed().potential for pot in BATCHED_POTENTIALS
], ids=["moving-quadratic", "sine-quadratic-2d", "sine-tanh",
        "moving-quadratic-mirrored", "sine-quadratic-2d-mirrored", "sine-tanh-mirrored"])
def test_potential_takes_a_column_of_times(pot):
    """``v`` and ``dv_ds`` on a column of times give the per-time results
    stacked, bit for bit: the grid marches evaluate a block of steps at once."""
    x = np.random.default_rng(6).normal(size=(9, pot.dimension))
    s = np.linspace(0.0, 1.0, 5)[:, None]
    for method in (pot.v, pot.dv_ds):
        assert_array_equal(method(x, s), np.stack([method(x, float(t)) for t in s[:, 0]]))


def test_every_potential_has_a_batched_time_case():
    cases = {type(pot) for pot in BATCHED_POTENTIALS}
    cases |= {type(BrownianSpec(pot, beta=1.0, horizon=1.0).reversed().potential)
              for pot in BATCHED_POTENTIALS}
    assert package_potentials() <= cases


# The path step evaluates its coefficients once per block of steps, on an
# array of times, and reads row k as the value at step k; that rests on the
# Schedule contract checked here, bit for bit (-0.0 is not +0.0).

def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def step_times():
    """The step times and mid-times of 64 steps of 0.013 from 0.05, and 0,
    the freeze time 0.45 of ``PiecewiseFrozen`` below, and the horizon 1."""
    at = 0.05 + np.arange(64) * 0.013
    return np.concatenate([at, at + 0.5 * 0.013, [0.0, 0.45, 1.0]])


def mirrored(schedule):
    return BrownianSpec(QuadraticPotential(Constant(1.0), schedule), beta=1.0,
                        horizon=1.0).reversed().potential.mu


TIME_SCHEDULES = {
    "constant": Constant(1.7),
    "constant-zero": Constant(0.0),
    "linear": Linear(0.0, 0.4, 1.0),
    "sine": Sine(0.7, 3.0, 0.4),
    "frozen-linear": PiecewiseFrozen(Linear(1.0, 2.0, 1.0), 0.45),
    "frozen-sine": PiecewiseFrozen(Sine(0.5, 4.0, 0.2), 0.45),
}
TIME_SCHEDULES.update({f"{name}-mirrored": mirrored(sched)
                       for name, sched in list(TIME_SCHEDULES.items())})


@pytest.mark.parametrize("schedule", TIME_SCHEDULES.values(), ids=TIME_SCHEDULES.keys())
def test_schedule_on_an_array_of_times_gives_the_scalar_bits(schedule):
    s = step_times()
    for method in (schedule.value, schedule.derivative):
        same_bits(method(s), [method(t) for t in s.tolist()])


def test_every_schedule_has_an_array_of_times_case():
    cases = {type(sched) for sched in TIME_SCHEDULES.values()}
    assert package_potentials(Schedule) <= cases


TIME_FACTORS = {
    "constant": DiffusionFactor.isotropic(1, 0.8),
    "unit": DiffusionFactor.isotropic(1),
    "scheduled": DiffusionFactor.isotropic(1, 0.8, Linear(1.0, 1.5, 1.0)),
    "matrix": DiffusionFactor(np.array([[1.0, 0.3, 0.2], [0.0, 0.8, -0.4]])),
    "scheduled-matrix": DiffusionFactor(np.array([[1.0, 0.3, 0.2], [0.0, 0.8, -0.4]]),
                                        Sine(0.5, 4.0, 1.0)),
}
TIME_FACTORS.update({
    f"{name}-mirrored": BrownianSpec(QuadraticPotential(Constant(1.0), dimension=f.shape[0]),
                                     beta=1.0, horizon=1.0, diffusion=f).reversed().diffusion
    for name, f in list(TIME_FACTORS.items())})


@pytest.mark.parametrize("factor", TIME_FACTORS.values(), ids=TIME_FACTORS.keys())
def test_diffusion_factor_on_an_array_of_times_gives_the_scalar_bits(factor):
    s = step_times()
    for method in (factor.sigma, factor.gamma):
        same_bits(method(s), np.stack([method(t) for t in s.tolist()]))
