"""Physical parameters, the mass-action rate, and sampled checks of the
structural conditions the reaction terms must satisfy.

The mass-action exchange is

    r(u, w, z) = z / delta_K' - u w / delta_K

(binding of ligand u with receptor w into complex z, and its unbinding).
The general interface carries three nonlinearities f1, f2, f3 with declared
growth exponents; the structural conditions checked here are quasi-positivity,
the two mass-dissipation sign conditions, and the growth bounds.  Checks are
sampled on user-supplied boxes with explicit worst witnesses, not symbolic.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .errors import ValidationError

# curve surface: d = 1, so the sub-critical exponent bound is (d+4)/(d+2)
SURFACE_DIMENSION = 1
BETA_LIMIT = (SURFACE_DIMENSION + 4) / (SURFACE_DIMENSION + 2)
# exponent of the (1 + u + w + z)^p envelope fitted for the polynomial bound
POLY_BOUND_EXPONENT = 3
# the sample budget of check_assumptions and of the probe: check_assumptions
# holds about 15 float arrays per sample, 1.2 GB at MAX_SAMPLES, and the probe
# takes about 0.2 ms of CPU per sample at 64 x 128, half an hour at MAX_SAMPLES
MAX_SAMPLES = 10 ** 7


@dataclasses.dataclass(frozen=True)
class ModelParams:
    """Diffusivities and reaction constants; all strictly positive.

    math.inf is accepted for delta_K / delta_K_prime as an explicit
    "reaction disabled" sentinel (the rate then evaluates to zero).
    """

    delta_omega: float
    delta_gamma: float
    delta_gamma_prime: float
    delta_k: float
    delta_k_prime: float

    def __post_init__(self):
        for name in ("delta_omega", "delta_gamma", "delta_gamma_prime"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValidationError(f"must be finite and > 0, got {v}", key=name)
        for name in ("delta_k", "delta_k_prime"):
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"must be > 0, got {getattr(self, name)}", key=name)


def mass_action_rate(u, w, z, params: ModelParams):
    """z/delta_K' - u*w/delta_K, elementwise."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    return z / params.delta_k_prime - u * w / params.delta_k


class MassAction:
    """Mass-action nonlinearity: f1 = f2 = r, f3 = -r."""

    alpha = 2.0
    beta = 1.0

    def __init__(self, params: ModelParams):
        self.params = params

    def f1(self, u, w, z):
        return mass_action_rate(u, w, z, self.params)

    def f2(self, u, w, z):
        return mass_action_rate(u, w, z, self.params)

    def f3(self, u, w, z):
        return -mass_action_rate(u, w, z, self.params)

    @property
    def is_mass_action(self):
        return True


class CustomNonlinearity:
    """User-supplied (f1, f2, f3) with declared growth exponents.  The solver
    steps only an exchange, f2 = f1 and f3 = -f1; check_assumptions reads
    all three."""

    def __init__(self, f1: Callable, f2: Callable, f3: Callable,
                 alpha: float, beta: float, name: str = "custom"):
        if not (alpha > 0.0 and math.isfinite(alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {alpha}")
        if not beta < BETA_LIMIT:
            raise ValueError(f"beta must be < {BETA_LIMIT:g}, got {beta}")
        self.f1, self.f2, self.f3 = f1, f2, f3
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.name = name

    @property
    def is_mass_action(self):
        return False


# named custom forms reachable from config as nonlinearity = custom:<name>
CUSTOM_NONLINEARITIES: dict[str, Callable[[ModelParams], CustomNonlinearity]] = {}


def register_custom(name: str):
    def deco(factory):
        CUSTOM_NONLINEARITIES[name] = factory
        return factory
    return deco


@register_custom("saturating_binding")
def _saturating_binding(params: ModelParams) -> CustomNonlinearity:
    """Michaelis-Menten style exchange; satisfies all structural conditions."""
    def f1(u, w, z):
        return z / (1.0 + z) - u * w / (1.0 + u)

    def f3(u, w, z):
        return -f1(u, w, z)

    return CustomNonlinearity(f1, f1, f3, alpha=1.0, beta=1.0, name="saturating_binding")


def make_nonlinearity(name: str, params: ModelParams):
    """The nonlinearity called `mass_action` or `custom:<registered name>`."""
    if name == "mass_action":
        return MassAction(params)
    prefix, _, custom = name.partition(":")
    if prefix != "custom" or custom not in CUSTOM_NONLINEARITIES:
        raise ValidationError(f"must be 'mass_action' or custom:<name> with name in "
                              f"{sorted(CUSTOM_NONLINEARITIES)}, got {name!r}", key="nonlinearity")
    return CUSTOM_NONLINEARITIES[custom](params)


@dataclasses.dataclass(frozen=True)
class AssumptionResult:
    name: str
    description: str
    passed: bool
    worst_value: float
    witness: tuple  # (u, w, z) realizing the worst value
    fitted_constant: float | None = None


@dataclasses.dataclass(frozen=True)
class AssumptionReport:
    results: tuple
    n_samples: int
    seed: int

    def __getitem__(self, name: str) -> AssumptionResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def all_passed(self):
        return all(r.passed for r in self.results)


def _worst(values, pts):
    i = int(np.argmax(values))
    return float(values[i]), (float(pts[0][i]), float(pts[1][i]), float(pts[2][i]))


def check_samples(n_samples: int) -> None:
    """A sample count must be at least 1 and at most MAX_SAMPLES."""
    if n_samples < 1:
        raise ValidationError(f"must be >= 1, got {n_samples}", key="n_samples")
    if n_samples > MAX_SAMPLES:
        raise ValidationError(f"{n_samples} samples is above MAX_SAMPLES = {MAX_SAMPLES}",
                              key="n_samples")


def check_assumptions(spec, sample_box, n_samples: int, rng_seed: int, tol: float) -> AssumptionReport:
    """Sampled verification of the structural conditions on a box.

    sample_box is ((u_lo, u_hi), (w_lo, w_hi), (z_lo, z_hi)) inside [0, inf)^3.
    Growth bounds are reported with the smallest constant fitted over the
    cloud rather than pass/fail against an unknown constant.
    """
    check_samples(n_samples)
    if not rng_seed >= 0:
        raise ValidationError(f"must be >= 0, got {rng_seed}", key="seed")
    (ulo, uhi), (wlo, whi), (zlo, zhi) = sample_box
    if not all(0.0 <= lo <= hi < math.inf for lo, hi in sample_box):
        raise ValidationError(f"must lie in [0, inf)^3, got {sample_box}", key="sample_box")
    rng = np.random.default_rng(rng_seed)
    u = rng.uniform(ulo, uhi, n_samples)
    w = rng.uniform(wlo, whi, n_samples)
    z = rng.uniform(zlo, zhi, n_samples)
    pts = (u, w, z)
    zeros = np.zeros(n_samples)

    results = []

    # quasi-positivity on the three coordinate faces
    q = np.maximum.reduce([
        -np.asarray(spec.f1(zeros, w, z), dtype=float),
        -np.asarray(spec.f2(u, zeros, z), dtype=float),
        -np.asarray(spec.f3(u, w, zeros), dtype=float),
    ])
    val, wit = _worst(q, pts)
    results.append(AssumptionResult("A1", "quasi-positivity at the coordinate faces",
                                    val <= tol, val, wit))

    f1 = np.asarray(spec.f1(u, w, z), dtype=float)
    f2 = np.asarray(spec.f2(u, w, z), dtype=float)
    f3 = np.asarray(spec.f3(u, w, z), dtype=float)

    val, wit = _worst(f2 + f3, pts)
    results.append(AssumptionResult("A2", "receptor/complex pair dissipates mass",
                                    val <= tol, val, wit))

    v12, wit12 = _worst(f1 + f2, pts)
    v13, wit13 = _worst(f1 + f3, pts)
    val, wit = (v12, wit12) if v12 <= v13 else (v13, wit13)
    results.append(AssumptionResult("A3", "one cross pair dissipates mass",
                                    v12 <= tol or v13 <= tol, val, wit))

    alpha = spec.alpha
    env_a = w ** alpha + z ** alpha + 1.0
    c_a = np.max(np.maximum(f1, 0.0) / env_a)
    val, wit = _worst(np.maximum(f1, 0.0) / env_a, pts)
    results.append(AssumptionResult("A4_1", "exchange-term growth envelope (exponent alpha)",
                                    math.isfinite(c_a), val, wit, fitted_constant=float(c_a)))

    beta = spec.beta
    env_b = w ** beta + z ** beta + 1.0
    c_f2 = float(np.max(np.maximum(f2, 0.0) / env_b))
    c_f3 = float(np.max(np.maximum(f3, 0.0) / env_b))
    c_b = min(c_f2, c_f3)  # either branch may carry the sub-critical bound
    which = f2 if c_f2 <= c_f3 else f3
    val, wit = _worst(np.maximum(which, 0.0) / env_b, pts)
    results.append(AssumptionResult(
        "A4", "sub-critical growth envelope (exponent beta)",
        beta < BETA_LIMIT and math.isfinite(c_b), val, wit, fitted_constant=c_b))

    env_p = (1.0 + u + w + z) ** POLY_BOUND_EXPONENT
    ratios = np.maximum(np.abs(f2), np.abs(f3)) / env_p
    c_p = float(np.max(ratios))
    val, wit = _worst(ratios, pts)
    results.append(AssumptionResult("A5", "polynomial envelope of the surface terms",
                                    math.isfinite(c_p), val, wit, fitted_constant=c_p))

    return AssumptionReport(results=tuple(results), n_samples=n_samples, seed=rng_seed)
