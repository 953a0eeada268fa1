"""The PDoS attack optimization problem and its solution (Section 3.1-3.2).

The attacker maximizes ``G(γ) = (1 − C_ψ/γ)(1 − γ)^κ`` subject to
``0 < C_ψ < γ < 1`` (Eq. 12).  Proposition 3 gives the unique interior
maximizer in closed form:

    γ* = [C_ψ(1−κ) − sqrt(C_ψ²(1−κ)² + 4κC_ψ)] / (−2κ)        (Eq. 13)

with the limiting corollaries γ*→C_ψ as κ→∞ (risk-averse), γ*→1 as κ→0
(risk-loving), and γ* = sqrt(C_ψ) at κ=1 (risk-neutral).  Proposition 4
converts γ* into the pulse-spacing parameter via Eq. (7),
``γ = C_attack / (1 + μ)``:

    1 + μ_optimal = C_attack / γ*                               (Eq. 16)

Note on Eq. (16)/(17) as printed: the paper's right-hand sides equal
``C_attack / γ*``, i.e. ``1 + μ`` rather than μ; this module returns the
Eq.-(7)-consistent ``μ = C_attack/γ* − 1`` and exposes the raw ratio as
:func:`optimal_period_ratio`.  EXPERIMENTS.md discusses the discrepancy.

:func:`optimal_gamma_numerical` cross-checks the closed form with a
bounded scalar minimizer (scipy), and :func:`gain_derivative_sign`
implements the sign structure of Eq. (15) used in the uniqueness proof.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from repro.core.attack import PulseTrain
from repro.core.gain import attack_gain, classify_kappa, RiskPreference
from repro.core.throughput import VictimPopulation, c_psi
from repro.util.errors import ValidationError
from repro.util.validate import check_fraction, check_positive

__all__ = [
    "optimal_gamma",
    "optimal_gamma_numerical",
    "optimal_period_ratio",
    "optimal_mu",
    "optimal_period",
    "optimal_attack",
    "gain_derivative_sign",
    "OptimalAttack",
]


def optimal_gamma(c_psi_value: float, kappa: float) -> float:
    """Proposition 3 (Eq. 13): the unique maximizer γ* of the attack gain.

    Requires ``0 < C_ψ < 1``; the result is guaranteed to satisfy
    ``C_ψ < γ* < 1`` (the proposition's feasibility argument).

    The κ = 1 case is the closed-form Corollary 3, ``γ* = sqrt(C_ψ)``;
    it also avoids the 0/0 ambiguity of Eq. (13) at κ exactly 1 caused by
    floating-point cancellation.
    """
    check_fraction("c_psi_value", c_psi_value)
    check_positive("kappa", kappa)
    if kappa == 1.0:
        return math.sqrt(c_psi_value)
    c = c_psi_value
    discriminant = c * c * (1.0 - kappa) ** 2 + 4.0 * kappa * c
    gamma_star = (c * (1.0 - kappa) - math.sqrt(discriminant)) / (-2.0 * kappa)
    return gamma_star


def optimal_gamma_numerical(c_psi_value: float, kappa: float,
                            tolerance: float = 1e-10) -> float:
    """Maximize G(γ) numerically on (C_ψ, 1): a cross-check of Eq. (13)."""
    check_fraction("c_psi_value", c_psi_value)
    check_positive("kappa", kappa)
    # Imported here, not at module level: scipy.optimize dominates a
    # fresh process's import time and no figure path calls this.
    from scipy import optimize

    result = optimize.minimize_scalar(
        lambda gamma: -attack_gain(gamma, c_psi_value, kappa),
        bounds=(c_psi_value + 1e-12, 1.0 - 1e-12),
        method="bounded",
        options={"xatol": tolerance},
    )
    return float(result.x)


def gain_derivative_sign(gamma: float, c_psi_value: float, kappa: float) -> int:
    """Sign of ∂G_attack/∂γ (Eq. 15): +1 below γ*, 0 at γ*, −1 above.

    Derived from ``∂G/∂γ ∝ −κγ² + C_ψ(κ−1)γ + C_ψ`` (the positive
    factors ``(1−γ)^{κ−1} γ^{−2}`` dropped).
    """
    check_fraction("gamma", gamma)
    check_fraction("c_psi_value", c_psi_value)
    check_positive("kappa", kappa)
    value = -kappa * gamma * gamma + c_psi_value * (kappa - 1.0) * gamma + c_psi_value
    if abs(value) < 1e-12:
        return 0
    return 1 if value > 0 else -1


# ----------------------------------------------------------------------
# Proposition 4 (Eq. 16) and Corollary 4 (Eq. 17)
# ----------------------------------------------------------------------
def optimal_period_ratio(c_psi_value: float, kappa: float,
                         c_attack: float) -> float:
    """``C_attack / γ* = T_AIMD / T_extent = 1 + μ_optimal``.

    This is the quantity the paper's Eq. (16) prints (see module note).
    """
    check_positive("c_attack", c_attack)
    gamma_star = optimal_gamma(c_psi_value, kappa)
    return c_attack / gamma_star


def optimal_mu(c_psi_value: float, kappa: float, c_attack: float) -> float:
    """Proposition 4: μ_optimal = C_attack / γ* − 1 (from Eq. 7).

    μ is the reciprocal duty cycle minus one (``T_space / T_extent``);
    it must be ≥ 0, which holds whenever γ* ≤ C_attack -- i.e. the
    optimal average rate is actually reachable with the given pulse
    rate.  Raises :class:`ValidationError` otherwise (the attacker must
    raise R_attack).
    """
    ratio = optimal_period_ratio(c_psi_value, kappa, c_attack)
    if ratio < 1.0:
        raise ValidationError(
            f"optimal gamma {c_attack / ratio:.4f} exceeds C_attack="
            f"{c_attack:.4f}: the pulse rate is too low to realize it"
        )
    return ratio - 1.0


def optimal_period(c_psi_value: float, kappa: float, c_attack: float,
                   extent: float) -> float:
    """The optimal attack period T_AIMD = (1 + μ*) · T_extent, seconds."""
    check_positive("extent", extent)
    return optimal_period_ratio(c_psi_value, kappa, c_attack) * extent


# ----------------------------------------------------------------------
# end-to-end planner
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class OptimalAttack:
    """A fully solved optimal attack configuration.

    Produced by :func:`optimal_attack`; bundles the analytic optimum with
    a realizable :class:`~repro.core.attack.PulseTrain`.
    """

    gamma_star: float          #: optimal normalized average rate (Eq. 13)
    gain_star: float           #: G_attack at the optimum
    degradation_star: float    #: Γ at the optimum
    mu_star: float             #: optimal T_space / T_extent
    period_star: float         #: optimal T_AIMD, seconds
    c_psi: float               #: the scenario constant C_ψ (Eq. 11)
    c_attack: float            #: pulse-rate ratio R_attack / R_bottle
    kappa: float               #: the attacker's risk exponent
    risk: RiskPreference       #: behavioural class of κ
    train: PulseTrain          #: a uniform train realizing the optimum


def optimal_attack(
    victims: VictimPopulation,
    *,
    rate_bps: float,
    extent: float,
    bottleneck_bps: float,
    kappa: float = 1.0,
    n_pulses: int = 100,
) -> OptimalAttack:
    """Solve the full Section-3 problem for a concrete scenario.

    Given the victim population, the pulse rate/width, and the attacker's
    risk preference, compute C_ψ (Eq. 11), γ* (Eq. 13), μ* and T_AIMD*
    (Eq. 16), and return them with a ready-to-launch pulse train.
    """
    check_positive("n_pulses", n_pulses)
    value = c_psi(
        victims, extent=extent, rate_bps=rate_bps, bottleneck_bps=bottleneck_bps
    )
    if not 0.0 < value < 1.0:
        raise ValidationError(
            f"C_psi={value:.4f} outside (0, 1): the model has no feasible "
            f"optimum for this scenario (weaken T_extent/R_attack or reduce "
            f"the victim count)"
        )
    gamma_star = optimal_gamma(value, kappa)
    c_attack = rate_bps / bottleneck_bps
    mu_star = optimal_mu(value, kappa, c_attack)
    period_star = (1.0 + mu_star) * extent
    train = PulseTrain.from_gamma(
        gamma=gamma_star,
        rate_bps=rate_bps,
        extent=extent,
        bottleneck_bps=bottleneck_bps,
        n_pulses=n_pulses,
    )
    return OptimalAttack(
        gamma_star=gamma_star,
        gain_star=attack_gain(gamma_star, value, kappa),
        degradation_star=1.0 - value / gamma_star,
        mu_star=mu_star,
        period_star=period_star,
        c_psi=value,
        c_attack=c_attack,
        kappa=kappa,
        risk=classify_kappa(kappa),
        train=train,
    )
