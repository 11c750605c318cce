"""Interaction kernels on the circle with exact Fourier coefficient laws.

Every kernel is even, zero-mean, and stored as a finite cosine polynomial

    W(theta) = 2 sum_{k=1}^{truncation} what(k) cos(2 pi k theta).

The catalog models come with closed-form coefficients, analytic bounds on
the discarded tail, and certificates used by the coefficient-decay check:

    doi_onsager          what(2l) = (2/pi) / (4 l^2 - 1)
    transformer(beta)    what(l)  = I_l(beta) / beta   (scipy.special.iv)
    hegselmann_krause(R) what(l)  = (2 / (pi l^3)) (l R - sin(l R))
    log_gas              what(l)  = 1 / (2 l)

The log-gas coefficient law is not absolutely summable, so there the
truncated polynomial itself is the model; all spectral functionals are
exact for it.  The program only uses the coefficients; the pointwise
closed forms of the catalog kernels are the test oracle
``tests/oracles.py:closed_form``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq
from scipy.special import iv

from .errors import BadParams, NoAttractivePart, ZeroLeadCoefficient

MODELS = ("doi_onsager", "transformer", "hegselmann_krause", "log_gas", "custom")
#: short names ``make_potential`` also accepts
ALIASES = {"do": "doi_onsager", "hk": "hegselmann_krause"}
#: largest inverse temperature the attention kernel accepts
_BETA_MAX = 50.0


@dataclass(frozen=True, eq=False)
class Potential:
    """Even zero-mean kernel as a finite cosine polynomial.

    Attributes
    ----------
    name : str
        Model identifier ("doi_onsager", "transformer", ...).
    params : dict
        Model parameters (e.g. {"beta": 2.0}).
    coeffs : ndarray
        what(k) for k = 1..truncation; they alone fix the kernel's period
        lattice (``periodicity``).
    """

    name: str
    params: dict
    coeffs: np.ndarray
    _tail: Callable[[int], float] = field(repr=False)
    _decay_certified_from: Optional[int] = field(default=None, repr=False)

    def __post_init__(self):
        self.coeffs.flags.writeable = False

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    @property
    def active_modes(self) -> np.ndarray:
        return np.nonzero(self.coeffs)[0] + 1

    @property
    def periodicity(self) -> int:
        """Smallest n >= 0 with all active modes on the (n+1) lattice, so
        the kernel has period 1/(n+1): the gcd of the active modes minus 1
        (0 for the zero kernel)."""
        return max(int(np.gcd.reduce(self.active_modes)), 1) - 1

    @property
    def lead_mode(self) -> int:
        return self.periodicity + 1

    def coeff(self, k) -> float | np.ndarray:
        """what(k); zero beyond the truncation, even in k."""
        k = np.abs(np.asarray(k)).astype(int)
        idx = np.clip(k, 1, self.truncation) - 1
        out = np.where((k >= 1) & (k <= self.truncation), self.coeffs[idx], 0.0)
        return out[()]

    def tail_bound(self, m: int) -> float:
        """Bound on sum_{k > m} |what_model(k)| (law tail past the object)."""
        m = int(m)
        partial = float(np.abs(self.coeffs[m:]).sum()) if m < self.truncation else 0.0
        return partial + self._tail(max(m, self.truncation))


def doi_onsager(truncation: int = 512) -> Potential:
    """Rod-suspension kernel -|sin(2 pi theta)| (zero-mean part)."""
    _check_truncation(truncation, 2)
    coeffs = np.zeros(truncation)
    even = np.arange(2, truncation + 1, 2, dtype=float)
    coeffs[1::2] = (2.0 / np.pi) / (even**2 - 1.0)

    def tail(m: int) -> float:
        # sum_{l > m/2} (2/pi)/(4 l^2 - 1) telescopes to 1/(pi (2 l0 + 1))
        l0 = m // 2
        return 1.0 / (np.pi * (2 * l0 + 1))

    # (4l+1)(l-1) >= 0 for every l >= 1: decay holds at every mode
    return Potential("doi_onsager", {}, coeffs, tail,
                     _decay_certified_from=2)


def _log_bessel_i_upper(order: int, x: float) -> float:
    """log of the bound I_order(x) <= (x/2)^order e^{x^2/4} / order!.

    Safe in log space for large orders where the value itself underflows;
    used for the certified transformer tail.
    """
    return order * math.log(0.5 * x) + 0.25 * x * x - math.lgamma(order + 1)


def transformer(beta: float, truncation: int = 512) -> Potential:
    """Attention-style kernel (exp(beta cos(2 pi theta)) - 1)/beta.

    Takes beta in (0, 50]; the coefficients I_l(beta)/beta come from
    ``scipy.special.iv``.
    """
    if not 0.0 < beta <= _BETA_MAX:
        raise BadParams(f"beta must lie in (0, {_BETA_MAX:g}], got {beta}")
    _check_truncation(truncation, 1)
    coeffs = iv(np.arange(1, truncation + 1), beta) / beta

    def tail(m: int) -> float:
        # I_{k+1}/I_k <= beta/(2(k+1)) gives a geometric envelope
        r = beta / (2.0 * (m + 1))
        if r >= 1.0:
            return math.inf
        log_im = _log_bessel_i_upper(m, beta)
        bound = math.exp(max(log_im, math.log(1e-300)))
        return bound / beta * r / (1.0 - r)

    # k I_k(beta) is decreasing once k >= beta/2, so a verified mode there
    # propagates the decay bound to all larger k
    return Potential("transformer", {"beta": beta}, coeffs, tail,
                     _decay_certified_from=max(2, math.ceil(beta / 2.0)))


def hegselmann_krause(radius: float, truncation: int = 512) -> Potential:
    """Bounded-confidence kernel (R - 2 pi |theta|)_+^2 (zero-mean part)."""
    if not 0.0 < radius <= np.pi:
        raise BadParams(f"confidence radius must lie in (0, pi], got {radius}")
    _check_truncation(truncation, 1)
    k = np.arange(1, truncation + 1, dtype=float)
    coeffs = (2.0 / (np.pi * k**3)) * (k * radius - np.sin(k * radius))

    def tail(m: int) -> float:
        # l R - sin(l R) <= l R + 1 and sum_{l>m} l^-2 <= 1/m
        return (2.0 / np.pi) * (radius / m + 0.5 / m**2)

    g = radius - math.sin(radius)
    # l^2 g(R) >= l R + 1 >= g(l R) from this order on
    cert = max(2, math.ceil((radius + math.sqrt(radius**2 + 4.0 * g)) / (2.0 * g)))
    return Potential("hegselmann_krause", {"radius": radius}, coeffs, tail,
                     _decay_certified_from=cert)


def log_gas(truncation: int = 512) -> Potential:
    """Circular attractive log-gas -log|2 sin(pi theta)|, truncated.

    The coefficient law 1/(2k) is not summable, so the truncation is the
    model here.
    """
    _check_truncation(truncation, 1)
    k = np.arange(1, truncation + 1, dtype=float)
    coeffs = 0.5 / k

    # the object is the truncated polynomial: no law tail beyond it
    return Potential("log_gas", {}, coeffs, lambda m: 0.0,
                     _decay_certified_from=1)


def custom_potential(coeffs) -> Potential:
    """Kernel "custom" from an explicit finite list what(1..len(coeffs)),
    which is the whole kernel: no tail, so its decay is certified."""
    coeffs = np.asarray(coeffs, dtype=float).copy()
    if coeffs.ndim != 1 or len(coeffs) == 0:
        raise BadParams("custom kernel needs a nonempty 1-D coefficient list")
    return Potential("custom", {"coeffs": coeffs.tolist()}, coeffs,
                     lambda m: 0.0, _decay_certified_from=len(coeffs))


def make_potential(model: str, truncation: int = 512, **params) -> Potential:
    """Factory dispatch by model name (see MODELS and ALIASES).

    A custom coefficient list is cut or zero-padded to ``truncation``.
    """
    model = ALIASES.get(model, model)
    if model == "doi_onsager":
        return doi_onsager(truncation)
    if model == "transformer":
        return transformer(params["beta"], truncation)
    if model == "hegselmann_krause":
        return hegselmann_krause(params["radius"], truncation)
    if model == "log_gas":
        return log_gas(truncation)
    if model == "custom":
        coeffs = np.asarray(params["coeffs"], dtype=float)
        if coeffs.ndim == 1 and coeffs.size:
            # cut or zero-pad the list to the requested truncation
            coeffs = np.pad(coeffs[:truncation],
                            (0, max(truncation - len(coeffs), 0)))
        return custom_potential(coeffs)
    raise BadParams(f"unknown model {model!r}; expected one of {MODELS}")


def _check_truncation(truncation: int, lead_mode: int) -> None:
    if truncation < 4 * lead_mode:
        raise BadParams(
            f"truncation {truncation} too small; need at least {4 * lead_mode}"
        )


# ---------------------------------------------------------------------------
# thresholds and the decay condition


def k_sharp(w: Potential) -> tuple[float, int]:
    """Linear stability threshold of the uniform state.

    K_sharp = 1 / (2 max_k what(k)) together with the maximizing mode.
    The catalog coefficient laws are unimodal with a known peak (mode 2
    for the rod kernel, mode 1 otherwise), so the finite argmax is exact.
    """
    if not np.any(w.coeffs > 0.0):
        raise NoAttractivePart(f"{w.name} kernel has no positive coefficient")
    mode = int(np.argmax(w.coeffs)) + 1
    peak = float(w.coeffs[mode - 1])
    return 1.0 / (2.0 * peak), mode


@dataclass(frozen=True)
class DecayReport:
    """Outcome of the coefficient-decay verification."""

    passed: bool
    first_violation: Optional[int]
    tail_certified: bool


def check_decay(w: Potential) -> DecayReport:
    """Verify 2 what(k) <= (n+1)/k for all k after lead normalization,
    with n = ``w.periodicity``, the kernel's own period 1/(n+1).

    Modes up to the truncation are checked numerically, with a relative
    slack of 1e-12 for rounding; the remainder is certified from the
    model's analytic envelope when one is attached.
    """
    n = w.periodicity
    lead = 2.0 * float(w.coeff(n + 1))
    if lead <= 0.0:
        raise ZeroLeadCoefficient(f"2 what({n + 1}) = {lead} is not positive")
    k = np.arange(1, w.truncation + 1)
    ratio = 2.0 * w.coeffs / lead
    allowed = (n + 1) / k
    bad = ratio > allowed * (1.0 + 1e-12)
    first = int(k[bad][0]) if bad.any() else None
    cert = w._decay_certified_from
    certified = (
        first is None
        and cert is not None
        and cert <= w.truncation
    )
    return DecayReport(
        passed=first is None,
        first_violation=first,
        tail_certified=certified,
    )


def normalize(w: Potential) -> Potential:
    """Rescale so the lead coefficient satisfies 2 what(n+1) = 1, with
    n = ``w.periodicity``.

    The scale 2 what(n+1) is stored as ``params["scale"]``, and ``w``
    itself comes back when the scale is 1; coupling thresholds transform
    as K -> K / scale when moving back to the raw kernel.
    """
    lead = w.lead_mode
    scale = 2.0 * float(w.coeff(lead))
    if scale <= 0.0:
        raise ZeroLeadCoefficient(f"2 what({lead}) = {scale} is not positive")
    if scale == 1.0:
        return w
    return Potential(w.name, {**w.params, "scale": scale}, w.coeffs / scale,
                     lambda m, f=w._tail: f(m) / scale,
                     w._decay_certified_from)


# ---------------------------------------------------------------------------
# closed-form parameter thresholds


def beta_star() -> float:
    """Inverse temperature where I_2(beta) = I_1(beta)/2 (about 2.4466).

    Below it the attention kernel passes the decay condition; above it the
    second mode is too strong and the transition turns discontinuous.
    """
    return float(
        brentq(lambda b: iv(2, b) - 0.5 * iv(1, b), 2.4, 2.5,
               xtol=1e-14, rtol=8.9e-16)
    )


def r_star() -> float:
    """Confidence radius solving R = sin(R) (2 - cos(R)) (about 2.1393).

    The bounded-confidence kernel satisfies the decay condition exactly
    for R at or above this root.
    """
    return float(
        brentq(lambda r: r - math.sin(r) * (2.0 - math.cos(r)), 2.1, 2.2,
               xtol=1e-14, rtol=8.9e-16)
    )
