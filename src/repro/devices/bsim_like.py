"""Golden short-channel NMOS model standing in for HSPICE's BSIM3.

The paper validates every formula against HSPICE Level-49 (BSIM3) transient
runs on TSMC 0.18/0.25/0.35 um processes.  Those decks are proprietary, so
this module provides the substitution documented in DESIGN.md: an empirical
short-channel model with the physical ingredients that give BSIM3 its IV
*shape* in the SSN-relevant region:

* smooth subthreshold-to-strong-inversion transition (BSIM-style
  ``Vgsteff`` log-exp interpolation),
* body effect and drain-induced barrier lowering on the threshold,
* vertical-field mobility degradation,
* velocity saturation (this is what drags the effective alpha from 2 toward
  1 and makes ``Id`` vs ``Vg`` near-linear — the property ASDM exploits),
* a smooth effective drain voltage ``Vdseff`` so triode and saturation join
  with continuous derivatives (important for Newton convergence),
* channel-length modulation.

The model is C-inf smooth in all terminal voltages for ``vds >= 0`` and is
extended antisymmetrically for ``vds < 0`` (source/drain swap), so the
circuit simulator can evaluate it anywhere the Newton iteration wanders.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .base import MosfetModel, OperatingPoint, ensure_arrays

#: Thermal voltage kT/q at 300 K, volts.
THERMAL_VOLTAGE = 0.02585
#: Reference temperature for all parameter values, kelvin.
REFERENCE_TEMPERATURE = 300.0
#: Threshold temperature coefficient, V/K (typical NMOS: about -1 mV/K).
VTH_TEMP_COEFF = -1.0e-3
#: Mobility temperature exponent: mu ~ (T/T0)^-1.5 (phonon scattering).
MOBILITY_TEMP_EXPONENT = -1.5
# Literal operands of the vectorized bodies, as 0-d arrays for the reason
# given in ``BsimLikeMosfet._array_consts``.
_HALF = np.array(0.5)
_ONE = np.array(1.0)


def _bias_arrays(vgs, vds, vbs):
    """The biases as same-shape float64 arrays, as given when they already are."""
    if (
        type(vgs) is np.ndarray and vgs.dtype == np.float64
        and type(vds) is np.ndarray and vds.dtype == np.float64
        and type(vbs) is np.ndarray and vbs.dtype == np.float64
        and vgs.shape == vds.shape == vbs.shape
    ):
        return vgs, vds, vbs
    return ensure_arrays(vgs, vds, vbs)


@dataclasses.dataclass(frozen=True)
class BsimLikeParameters:
    """Parameters of the golden short-channel model.

    Attributes:
        vth0: zero-bias long-channel threshold voltage in volts.
        gamma: body-effect coefficient in sqrt(V).
        phi: surface potential in volts.
        sigma: DIBL coefficient (threshold shift per volt of vds).
        n: subthreshold ideality factor.
        mu0: low-field mobility in m^2/(V s).
        theta: vertical-field mobility degradation in 1/V.
        ec: velocity-saturation critical field in V/m.
        cox: gate-oxide capacitance per area in F/m^2.
        w: channel width in meters.
        l: channel length in meters.
        lam: channel-length-modulation coefficient in 1/V.
        delta: Vdseff smoothing parameter in volts.
        temperature: junction temperature in kelvin.  All other values are
            specified at 300 K; the model applies standard scalings
            (mobility ~ T^-1.5, Vth ~ -1 mV/K, thermal voltage ~ T).
    """

    vth0: float = 0.48
    gamma: float = 0.45
    phi: float = 0.85
    sigma: float = 0.02
    n: float = 1.4
    mu0: float = 0.032
    theta: float = 0.25
    ec: float = 5.0e6
    cox: float = 8.4e-3
    w: float = 10e-6
    l: float = 0.18e-6
    lam: float = 0.04
    delta: float = 0.02
    temperature: float = REFERENCE_TEMPERATURE

    def __post_init__(self):
        if self.w <= 0 or self.l <= 0:
            raise ValueError("channel width and length must be positive")
        if self.ec <= 0 or self.cox <= 0 or self.mu0 <= 0:
            raise ValueError("ec, cox and mu0 must be positive")
        if self.delta <= 0:
            raise ValueError("Vdseff smoothing delta must be positive")
        if not 150.0 <= self.temperature <= 500.0:
            raise ValueError("temperature must be a plausible junction value (150-500 K)")

    @property
    def vth0_t(self) -> float:
        """Threshold at the operating temperature."""
        return self.vth0 + VTH_TEMP_COEFF * (self.temperature - REFERENCE_TEMPERATURE)

    @property
    def mu0_t(self) -> float:
        """Low-field mobility at the operating temperature."""
        return self.mu0 * (self.temperature / REFERENCE_TEMPERATURE) ** MOBILITY_TEMP_EXPONENT

    @property
    def thermal_voltage(self) -> float:
        """kT/q at the operating temperature."""
        return THERMAL_VOLTAGE * self.temperature / REFERENCE_TEMPERATURE

    def scaled(self, **overrides) -> "BsimLikeParameters":
        """A copy with the given fields replaced (e.g. ``scaled(w=60e-6)``)."""
        return dataclasses.replace(self, **overrides)


class BsimLikeMosfet(MosfetModel):
    """Golden NMOS device used as the HSPICE/BSIM3 substitute."""

    name = "bsim-like"

    def __init__(self, params: BsimLikeParameters | None = None):
        self.params = params or BsimLikeParameters()
        self._const_params = None
        self._consts = None
        self._aconst_params = None
        self._aconsts = None

    def _scalar_consts(self):
        """Temperature-derived constants, cached per parameter object.

        ``vth0_t``/``mu0_t``/``thermal_voltage`` are dataclass properties;
        recomputing them on every Newton stamp is measurable.  ``params`` is
        frozen, so identity is a sound cache key.  The key is written after
        the values, so a thread sharing the model never pairs a key with
        constants of another (or no) parameter object.
        """
        p = self.params
        if self._const_params is not p:
            self._consts = (
                p.vth0_t, p.mu0_t, p.thermal_voltage,
                math.sqrt(p.phi), p.ec * p.l,
            )
            self._const_params = p
        return self._consts

    def _array_consts(self):
        """Fused bias-independent constants of the vectorized bodies.

        Keyed like :meth:`_scalar_consts`.  Unlike the scalar cache this one
        tolerates stacked ``(B,)`` parameter fields (see
        :func:`stack_models`), so the vectorized current and partials paths
        share one cache with batched ensembles.  Every product that does
        not involve a terminal voltage is folded here — the vectorized
        evaluations run once per batched Newton iterate or recorded step on
        small arrays, where each elementwise operation costs a fixed numpy
        dispatch overhead regardless of width.  The constants are float
        arrays (0-d for a single device): numpy converts a Python-float
        operand on every operation, which costs about half as much again as
        the operation itself at these widths.
        """
        p = self.params
        if self._aconst_params is not p:
            ecl = p.ec * p.l
            two_nvt = 2.0 * p.n * p.thermal_voltage
            self._aconsts = tuple(np.asarray(c, dtype=float) for c in (
                # threshold: vth = vth_base + gamma*sqrt(phi - vbs) - sigma*vds
                p.vth0_t - p.gamma * np.sqrt(p.phi),
                p.gamma,
                p.sigma,
                ecl,
                two_nvt,
                1.0 / two_nvt,
                4.0 * p.delta,
                p.delta,
                p.theta,
                # zero-degradation gain beta0 = mu0(T) * cox * w / l
                p.mu0_t * p.cox * p.w / p.l,
                1.0 / ecl,
                p.lam,
                p.phi,
                # partials only: gmbs = gm * gamma / (2 sqrt(phi - vbs)),
                # and vdseff's vdsat partial needs t + 2*delta
                0.5 * p.gamma,
                2.0 * p.delta,
            ))
            self._aconst_params = p
        return self._aconsts

    # -- threshold and overdrive ------------------------------------------------

    def threshold(self, vbs=0.0, vds=0.0):
        """Threshold with body effect and DIBL."""
        p = self.params
        vbs = np.asarray(vbs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        arg = np.maximum(p.phi - vbs, 1e-12)
        return p.vth0_t + p.gamma * (np.sqrt(arg) - np.sqrt(p.phi)) - p.sigma * vds

    def effective_overdrive(self, vgs, vbs=0.0, vds=0.0):
        """BSIM-style smooth overdrive ``Vgsteff``.

        Tends to ``vgs - vth`` well above threshold and to an exponential
        (subthreshold) tail below it; strictly positive everywhere.
        """
        p = self.params
        vgst = np.asarray(vgs, dtype=float) - self.threshold(vbs, vds)
        x = vgst / (2.0 * p.n * p.thermal_voltage)
        # log1p(exp(x)) evaluated stably on both sides.
        soft = np.where(x > 0.0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(np.minimum(x, 0.0))))
        return 2.0 * p.n * p.thermal_voltage * soft

    def saturation_drain_voltage(self, vgs, vbs=0.0, vds=0.0):
        """Velocity-saturation-limited ``Vdsat = Vgsteff*EcL/(Vgsteff+EcL)``."""
        p = self.params
        vgsteff = self.effective_overdrive(vgs, vbs, vds)
        ecl = p.ec * p.l
        return vgsteff * ecl / (vgsteff + ecl)

    # -- drain current ----------------------------------------------------------

    def _ids_forward(self, vgs, vds, vbs):
        """Drain current for ``vds >= 0`` (element-wise arrays).

        Inlines :meth:`threshold` / :meth:`effective_overdrive` with the
        fused constants of :meth:`_array_consts`: this runs once per
        recorded batched step on small arrays, where per-operation numpy
        dispatch dominates, so every redundant ``asarray``/property
        evaluation and every foldable product is measurable.  The
        arithmetic is the public methods' up to floating-point
        reassociation (``logaddexp`` for the stable softplus, reciprocal
        multiplies for the constant divisors) — differences are at
        rounding level, far inside every model and parity tolerance.  It
        stays apart from :meth:`_partials_forward` because the batched
        engine reads currents at every recorded step, where that body's
        derivative half would be wasted.
        """
        (vth_base, gamma, sigma, ecl, two_nvt, inv_two_nvt, four_delta,
         delta, theta, beta0, inv_ecl, lam, phi, _, _) = self._array_consts()
        arg = np.maximum(phi - vbs, 1e-12)
        vth = vth_base + gamma * np.sqrt(arg) - sigma * vds
        x = (vgs - vth) * inv_two_nvt
        # softplus log(1 + exp(x)), numerically stable on both sides.
        vgsteff = two_nvt * np.logaddexp(0.0, x)
        vdsat = vgsteff * ecl / (vgsteff + ecl)

        # Smooth minimum of (vds, vdsat): the BSIM3 Vdseff expression.
        t = vdsat - vds - delta
        vdseff = vdsat - _HALF * (t + np.sqrt(t * t + four_delta * vdsat))
        # Floating-point rounding can push vdseff infinitesimally below zero
        # at vds = 0, which would flip the sign of the (tiny) current.
        vdseff = np.maximum(vdseff, 0.0)

        beta = beta0 / (_ONE + theta * vgsteff)
        core = beta * (vgsteff - _HALF * vdseff) * vdseff / (_ONE + vdseff * inv_ecl)
        clm = _ONE + lam * np.maximum(vds - vdseff, 0.0)
        return core * clm

    def ids(self, vgs, vds, vbs=0.0):
        vgs, vds, vbs = _bias_arrays(vgs, vds, vbs)
        if vds.size and vds.min() >= 0.0:
            # All-forward fast path: the swapped branch would be discarded
            # element-for-element by the np.where below, so skip computing
            # it.  Batched current reads land here almost always (the SSN
            # drivers never see a reversed channel), halving device cost.
            out = self._ids_forward(vgs, vds, vbs)
            if out.ndim == 0:
                return float(out)
            return out
        forward = self._ids_forward(vgs, np.abs(vds), vbs)
        # Source/drain swap for vds < 0: gate and bulk referenced to the
        # electrical source, which is the terminal at lower potential.
        swapped = self._ids_forward(vgs - vds, np.abs(vds), vbs - vds)
        out = np.where(vds >= 0.0, forward, -swapped)
        if out.ndim == 0:
            return float(out)
        return out

    def ids_scalar(self, vgs: float, vds: float, vbs: float = 0.0) -> float:
        """Drain current at one bias point, read off the scalar partials body.

        The circuit simulator reads currents once per device per recorded
        step, against one :meth:`partials` per device per Newton iterate,
        so one scalar body serves both.
        """
        if vds >= 0.0:
            return self._partials_forward_scalar(vgs, vds, vbs)[0]
        return -self._partials_forward_scalar(vgs - vds, -vds, vbs - vds)[0]

    # -- analytic partials ------------------------------------------------------
    #
    # Every terminal reaches the current through two quantities: the smooth
    # overdrive vgsteff (vgs directly, vds through DIBL, vbs through the body
    # effect) and vds itself.  So one forward pass gives Ig = dIds/dVgsteff
    # and Id = dIds/dVds at fixed vgsteff, and with sig = dVgsteff/d(vgs -
    # vth), the logistic of the softplus argument:
    #
    #     gm = Ig*sig,  gds = gm*sigma + Id,  gmbs = gm*gamma/(2*sqrt(phi - vbs))
    #
    # with gmbs = 0 where the phi - vbs clamp binds.  The floors on vdseff
    # and on vds - vdseff only remove rounding at vds = 0 (both are >= 0
    # for the smooth expressions), so the derivatives are the unfloored
    # expressions'.  For vds < 0 the source/drain swap
    # ids = -f(vgs - vds, -vds, vbs - vds) gives
    # (ids, gm, gds, gmbs) = (-f, -f_g, f_g + f_d + f_b, -f_b).

    def _partials_forward_scalar(self, vgs: float, vds: float, vbs: float):
        """``(ids, gm, gds, gmbs)`` at one bias point with ``vds >= 0``.

        Pure-``math`` twin of :meth:`_partials_forward`, minus the per-call
        numpy broadcast/allocation overhead: the circuit simulator stamps
        through this once per device per Newton iterate.
        """
        p = self.params
        vth0_t, mu0_t, vt, sqrt_phi, ecl = self._scalar_consts()

        arg = p.phi - vbs
        cut = arg < 1e-12
        if cut:
            arg = 1e-12
        sq = math.sqrt(arg)
        vth = vth0_t + p.gamma * (sq - sqrt_phi) - p.sigma * vds

        x = (vgs - vth) / (2.0 * p.n * vt)
        if x > 0.0:
            e = math.exp(-x)
            soft = x + math.log1p(e)
            sig = 1.0 / (1.0 + e)
        else:
            e = math.exp(x)
            soft = math.log1p(e)
            sig = e / (1.0 + e)
        vgsteff = 2.0 * p.n * vt * soft

        u = vgsteff + ecl
        vdsat = vgsteff * ecl / u
        t = vdsat - vds - p.delta
        r = math.sqrt(t * t + 4.0 * p.delta * vdsat)
        vdseff = vdsat - 0.5 * (t + r)
        if vdseff < 0.0:
            vdseff = 0.0

        q = 1.0 + p.theta * vgsteff
        beta = mu0_t / q * p.cox * p.w / p.l
        a = vgsteff - 0.5 * vdseff
        den = 1.0 + vdseff / ecl
        core = beta * a * vdseff / den
        over = vds - vdseff
        clm = 1.0 + p.lam * (over if over > 0.0 else 0.0)

        # core's partials in vgsteff (vdseff held) and in vdseff; then the
        # current's in vdseff, and vdseff's in vdsat and vds (h = 1/(2r)).
        core_g = vdseff / den * beta - p.theta * core / q
        core_e = (beta * (vgsteff - vdseff) - core / ecl) / den
        core_lam = core * p.lam
        ids_e = core_e * clm - core_lam
        h = 0.5 / r
        ecl_u = ecl / u
        gm = (core_g * clm + ids_e * (0.5 - (t + 2.0 * p.delta) * h) * (ecl_u * ecl_u)) * sig
        gds = gm * p.sigma + ids_e * (0.5 + t * h) + core_lam
        gmbs = 0.0 if cut else 0.5 * p.gamma * gm / sq
        return core * clm, gm, gds, gmbs

    def _partials_forward(self, vgs, vds, vbs):
        """Array twin of :meth:`_partials_forward_scalar` (``vds >= 0``).

        Runs once per batched Newton iterate on small arrays, where each
        elementwise operation costs a fixed numpy dispatch overhead: the
        bias-independent products come from :meth:`_array_consts`, the two
        clamps are built only when ``.min()`` shows they bind, and the
        rounding floor on ``vds - vdseff`` is left out (it moves the
        current by less than one ulp).
        """
        (vth_base, gamma, sigma, ecl, two_nvt, inv_two_nvt, four_delta,
         delta, theta, beta0, inv_ecl, lam, phi, half_gamma,
         two_delta) = self._array_consts()
        arg = phi - vbs
        cut = None
        if arg.min() < 1e-12:
            cut = arg < 1e-12
            arg = np.maximum(arg, 1e-12)
        sq = np.sqrt(arg)
        x = (vgs - (vth_base + gamma * sq - sigma * vds)) * inv_two_nvt
        soft = np.logaddexp(0.0, x)
        # the logistic dsoftplus/dx, without overflow on either side
        sig = np.exp(x - soft)
        vgsteff = two_nvt * soft

        ecl_u = ecl / (vgsteff + ecl)
        vdsat = vgsteff * ecl_u
        t = vdsat - vds - delta
        r = np.sqrt(t * t + four_delta * vdsat)
        vdseff = vdsat - _HALF * (t + r)
        if vdseff.min() < 0.0:
            vdseff = np.maximum(vdseff, 0.0)

        q = _ONE + theta * vgsteff
        beta = beta0 / q
        den = _ONE + vdseff * inv_ecl
        w = vdseff / den
        core = beta * (vgsteff - _HALF * vdseff) * w
        clm = _ONE + lam * (vds - vdseff)

        core_g = w * beta - theta * core / q
        core_e = (beta * (vgsteff - vdseff) - core * inv_ecl) / den
        core_lam = core * lam
        ids_e = core_e * clm - core_lam
        h = _HALF / r
        gm = (core_g * clm + ids_e * (_HALF - (t + two_delta) * h) * (ecl_u * ecl_u)) * sig
        gds = gm * sigma + ids_e * (_HALF + t * h) + core_lam
        gmbs = half_gamma * gm / sq
        if cut is not None:
            gmbs[cut] = 0.0
        return core * clm, gm, gds, gmbs

    def partials(self, vgs: float, vds: float, vbs: float = 0.0) -> OperatingPoint:
        """Analytic current and conductances at one scalar bias point."""
        if vds >= 0.0:
            return OperatingPoint(*self._partials_forward_scalar(vgs, vds, vbs))
        f, f_g, f_d, f_b = self._partials_forward_scalar(vgs - vds, -vds, vbs - vds)
        return OperatingPoint(-f, -f_g, f_g + f_d + f_b, -f_b)

    def partials_array(self, vgs, vds, vbs=0.0) -> OperatingPoint:
        """Analytic operating points over a batch of bias points.

        One :meth:`_partials_forward` pass over the bias arrays; reversed
        instances (``vds < 0``) are evaluated at their swapped biases in
        the same pass.  Fields are arrays shaped like the broadcast inputs.
        """
        vgs, vds, vbs = _bias_arrays(vgs, vds, vbs)
        if vds.min() >= 0.0:
            return OperatingPoint(*self._partials_forward(vgs, vds, vbs))
        rev = vds < 0.0
        f, f_g, f_d, f_b = self._partials_forward(
            np.where(rev, vgs - vds, vgs), np.abs(vds), np.where(rev, vbs - vds, vbs))
        return OperatingPoint(
            ids=np.where(rev, -f, f),
            gm=np.where(rev, -f_g, f_g),
            gds=np.where(rev, f_g + f_d + f_b, f_d),
            gmbs=np.where(rev, -f_b, f_b),
        )


def stack_models(models) -> BsimLikeMosfet:
    """One model evaluating B golden devices elementwise over the instance axis.

    Builds a :class:`BsimLikeMosfet` whose parameter fields are ``(B,)``
    arrays (one entry per input model), so every elementwise expression in
    the model broadcasts across the instance axis: ``stacked.ids(vgs, vds,
    vbs)`` with ``(B,)`` bias arrays returns the per-instance currents of B
    *different* devices in one vectorized pass.  This is the device half of
    the batched ensemble engine (:mod:`repro.spice.batch`): a driver-count
    sweep stacks B drivers that differ only in width, a Monte Carlo fleet
    stacks B process perturbations.

    Fields that are identical across all inputs stay scalars (the common
    case for everything except ``w``), keeping the broadcast cheap.  The
    parameter container is assembled field-by-field because each input was
    already validated by ``BsimLikeParameters.__post_init__``; the array
    container itself never passes through validation (its comparisons are
    not array-safe).

    Args:
        models: sequence of :class:`BsimLikeMosfet` instances (length >= 1).

    Returns:
        The stacked model.  With a single input model, that model itself.

    Raises:
        TypeError: if any input is not a :class:`BsimLikeMosfet`.
        ValueError: on an empty sequence.
    """
    models = list(models)
    if not models:
        raise ValueError("stack_models needs at least one model")
    for m in models:
        if not isinstance(m, BsimLikeMosfet):
            raise TypeError(
                f"stack_models supports BsimLikeMosfet only, got {type(m).__name__}"
            )
    if len(models) == 1:
        return models[0]
    stacked = object.__new__(BsimLikeParameters)
    for f in dataclasses.fields(BsimLikeParameters):
        values = [getattr(m.params, f.name) for m in models]
        first = values[0]
        if all(v == first for v in values[1:]):
            object.__setattr__(stacked, f.name, first)
        else:
            object.__setattr__(stacked, f.name, np.array(values, dtype=float))
    return BsimLikeMosfet(stacked)
