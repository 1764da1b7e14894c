"""Closed-form oracle: the simulator against the paper's Eqn 6.

This is the simulator's root of trust that does not depend on another
engine.  With the drain held at VDD by an ideal source and the source on a
ground inductor, one ``AsdmMosfet(asdm.scaled(N), vdd)`` pull-down driven
by an ideal 0 -> VDD ramp is exactly Eqn 4's circuit:

    v(ssn) = L * dId/dt,    Id = N*K*(Vg - V0 - lambda*v(ssn))

so on ``[t0, tr]`` the simulated ``v(ssn)`` must converge to
:meth:`repro.core.ssn_inductive.InductiveSsnModel.voltage` at the
integrator's order.  Backward Euler is held to first order; the
trapezoidal rule only to its error bound, because the turn-on kink at
``t0 = V0/sr`` is not a breakpoint and makes its observed order irregular.
The adaptive scalar engine and the adaptive batched engine are held to the
same bound, and the batched lockstep engine must reproduce the scalar
engine on the same circuits, fixed-step and adaptive.  The explicit bank
(N parallel ``AsdmMosfet(asdm, vdd)`` devices instead of one N-wide one,
the form Eqns 6-10 collapse away) is held to the same order and bounds,
fixed-step and adaptive.

A ground capacitor C across the same node gives Section 4's circuit
(Eqns 11-13), whose response on ``[t0, tr]`` is
:meth:`repro.core.ssn_lc.LcSsnModel.voltage`; one bank per Table 1 case
holds both integrators to an LC bound and backward Euler to first order,
and case 3b's post-ramp tail follows
:meth:`~repro.core.ssn_lc.LcSsnModel.post_ramp_voltage`.  Eqn 10's design
claim closes the file: banks with equal ``Z = N*L*sr`` bounce to the same
peak through the real engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.asdm import AsdmMosfet
from repro.core.ssn_inductive import InductiveSsnModel
from repro.core.ssn_lc import LcSsnModel, Table1Case
from repro.spice import Circuit, Dc, Ramp
from repro.spice.batch import batch_transient
from repro.spice.transient import TransientOptions, transient

RISE_TIME = 0.5e-9

#: (N drivers, ground inductance L), from one driver on 1 nH to thirty
#: drivers on 3 nH.
CASES = [(1, 1e-9), (2, 2e-9), (4, 2e-9), (8, 5e-9), (16, 5e-9), (30, 3e-9)]

#: Step divisors ``tr / div`` the error bound holds at.
FINE_STEPS = (400, 800)

#: Coarse step divisors: every case must complete through the turn-on kink.
COARSE_STEPS = (100, 200)

#: Max |v(ssn) - Eqn 6| on [t0, tr] at every FINE_STEPS step, per method.
ERROR_BOUND = {"be": 1e-3, "trap": 1e-4}

#: Batched waveforms must stay within this of the scalar engine.
PARITY_TOL = 1e-9

#: Table 1 banks with a ground capacitor: (case, N, L, C).  ``C = None``
#: is the fitted device's critical capacitance (N*K*lambda)^2 * L / 4.
LC_CASES = [
    (Table1Case.OVERDAMPED, 8, 5e-9, 1e-12),
    (Table1Case.CRITICALLY_DAMPED, 8, 5e-9, None),
    (Table1Case.UNDERDAMPED_BOUNDARY, 8, 5e-9, 20e-12),
    (Table1Case.UNDERDAMPED_FIRST_PEAK, 2, 1e-9, 5e-12),
    (Table1Case.UNDERDAMPED_FIRST_PEAK, 1, 0.5e-9, 20e-12),
]

#: Max |v(ssn) - Table 1 waveform| on [t0, tr] at every FINE_STEPS step,
#: per method.  The worst measured errors at tr/400 are 1.3e-3 V (BE,
#: critical) and 1.2e-5 V (trap, over-damped): the capacitor's second
#: state puts BE above the L-only bound, so LC banks get their own.
LC_ERROR_BOUND = {"be": 2e-3, "trap": 2e-5}


def _case_id(case):
    n, inductance = case
    return f"N{n}-L{inductance * 1e9:g}nH"


def _lc_case_id(case):
    table_case, n, inductance, capacitance = case
    c = "Ccrit" if capacitance is None else f"C{capacitance * 1e12:g}pF"
    return f"{table_case.value.split(':')[0]}-N{n}-L{inductance * 1e9:g}nH-{c}"


def _circuit(asdm, vdd, n, inductance, rise_time=RISE_TIME, capacitance=None,
             explicit=False):
    c = Circuit("asdm-oracle")
    c.vsource("Vin", "in", "0", Ramp(0.0, vdd, 0.0, rise_time))
    c.vsource("Vd", "d", "0", Dc(vdd))
    c.inductor("L1", "ssn", "0", inductance, ic=0.0)
    if capacitance is not None:
        c.capacitor("C1", "ssn", "0", capacitance, ic=0.0)
    if explicit:
        for k in range(1, n + 1):
            c.mosfet(f"M{k}", "d", "in", "ssn", "ssn", AsdmMosfet(asdm, vdd))
    else:
        c.mosfet("M1", "d", "in", "ssn", "ssn", AsdmMosfet(asdm.scaled(n), vdd))
    return c


@pytest.fixture(scope="module")
def eqn6_error(asdm018, tech018):
    """``eqn6_error(result, n, L)`` -> max |v(ssn) - Eqn 6| on [t0, tr]."""

    def error(result, n, inductance):
        model = InductiveSsnModel(asdm018, n, inductance, tech018.vdd, RISE_TIME)
        t = result.times
        window = t >= model.turn_on_time
        return float(np.max(np.abs(
            result.voltage("ssn").y[window] - model.voltage(t[window]))))

    return error


@pytest.fixture(scope="module")
def oracle(asdm018, tech018, eqn6_error):
    """``oracle(method, n, L, div, adaptive=False, explicit=False)`` ->
    (scalar run, max error vs Eqn 6), memoized across the module's tests.
    ``explicit`` builds the bank from N unit devices."""
    vdd = tech018.vdd
    runs = {}

    def run(method, n, inductance, div, adaptive=False, explicit=False):
        key = (method, n, inductance, div, adaptive, explicit)
        if key not in runs:
            result = transient(
                _circuit(asdm018, vdd, n, inductance, explicit=explicit),
                RISE_TIME, RISE_TIME / div,
                options=TransientOptions(method=method, adaptive=adaptive),
            )
            runs[key] = (result, eqn6_error(result, n, inductance))
        return runs[key]

    run.circuit = lambda n, inductance: _circuit(asdm018, vdd, n, inductance)
    return run


@pytest.fixture(scope="module")
def batched(oracle):
    """``batched(method, div, adaptive)`` -> one lockstep run over CASES,
    memoized across the module's tests."""
    runs = {}

    def run(method, div, adaptive):
        key = (method, div, adaptive)
        if key not in runs:
            runs[key] = batch_transient(
                [oracle.circuit(*case) for case in CASES], RISE_TIME,
                RISE_TIME / div,
                options=TransientOptions(method=method, adaptive=adaptive),
            )
        return runs[key]

    return run


def _assert_first_order(oracle, case, explicit):
    divs = COARSE_STEPS + FINE_STEPS
    errors = [oracle("be", *case, div, explicit=explicit)[1] for div in divs]
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.7 <= coarse / fine <= 2.3, f"errors {errors} per halving"


def _assert_completes_through_kink(oracle, case, div, explicit):
    result, error = oracle("trap", *case, div, explicit=explicit)
    assert result.times[-1] == pytest.approx(RISE_TIME, rel=1e-12)
    assert np.isfinite(error)


def _assert_error_bound(oracle, case, method, div, explicit):
    _, error = oracle(method, *case, div, explicit=explicit)
    assert error <= ERROR_BOUND[method], f"|dV| = {error:.3e} V"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_backward_euler_converges_at_first_order(oracle, case):
    _assert_first_order(oracle, case, explicit=False)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_explicit_bank_backward_euler_converges_at_first_order(oracle, case):
    """N unit devices in parallel converge to Eqn 6 like one N-wide one."""
    _assert_first_order(oracle, case, explicit=True)


@pytest.mark.parametrize("div", COARSE_STEPS)
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_trap_completes_through_turn_on_kink(oracle, case, div):
    _assert_completes_through_kink(oracle, case, div, explicit=False)


@pytest.mark.parametrize("div", COARSE_STEPS)
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_explicit_bank_trap_completes_through_turn_on_kink(oracle, case, div):
    _assert_completes_through_kink(oracle, case, div, explicit=True)


@pytest.mark.parametrize("div", FINE_STEPS)
@pytest.mark.parametrize("method", ["be", "trap"])
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_error_bound(oracle, case, method, div):
    _assert_error_bound(oracle, case, method, div, explicit=False)


@pytest.mark.parametrize("div", FINE_STEPS)
@pytest.mark.parametrize("method", ["be", "trap"])
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_explicit_bank_error_bound(oracle, case, method, div):
    _assert_error_bound(oracle, case, method, div, explicit=True)


@pytest.mark.parametrize("engine", ["scalar", "explicit", "batch"])
@pytest.mark.parametrize("div", FINE_STEPS)
@pytest.mark.parametrize("method", ["be", "trap"])
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_adaptive_error_bound(oracle, batched, eqn6_error, case, method, div,
                              engine):
    if engine == "scalar":
        _, error = oracle(method, *case, div, adaptive=True)
    elif engine == "explicit":
        _, error = oracle(method, *case, div, adaptive=True, explicit=True)
    else:
        result = batched(method, div, True)[CASES.index(case)]
        error = eqn6_error(result, *case)
    assert error <= ERROR_BOUND[method], f"|dV| = {error:.3e} V"


def _assert_batch_matches_scalar(oracle, batched, method, div, adaptive):
    for case, got in zip(CASES, batched(method, div, adaptive)):
        scalar, _ = oracle(method, *case, div, adaptive=adaptive)
        assert got.telemetry.batch_fallbacks == 0, _case_id(case)
        assert len(got.times) == len(scalar.times), _case_id(case)
        dv = np.max(np.abs(got.voltage("ssn").y - scalar.voltage("ssn").y))
        assert dv <= PARITY_TOL, f"{_case_id(case)}: |dV| = {dv:.3e} V"


@pytest.mark.parametrize("method", ["be", "trap"])
def test_batch_matches_scalar(oracle, batched, method):
    _assert_batch_matches_scalar(oracle, batched, method, FINE_STEPS[0], False)


@pytest.mark.parametrize("div", FINE_STEPS)
@pytest.mark.parametrize("method", ["be", "trap"])
def test_adaptive_batch_matches_scalar(oracle, batched, method, div):
    _assert_batch_matches_scalar(oracle, batched, method, div, True)


@pytest.fixture(scope="module")
def lc_oracle(asdm018, tech018):
    """``lc_oracle(method, case, div, post_ramp=False)`` -> (scalar run,
    its :class:`LcSsnModel`), memoized across the module's tests.  The run
    stops at ``tr``, or one natural period later with ``post_ramp``."""
    vdd = tech018.vdd
    runs = {}

    def run(method, case, div, post_ramp=False):
        key = (method, case, div, post_ramp)
        if key not in runs:
            _, n, inductance, capacitance = case
            if capacitance is None:
                capacitance = (n * asdm018.k * asdm018.lam) ** 2 * inductance / 4
            model = LcSsnModel(asdm018, n, inductance, capacitance, vdd, RISE_TIME)
            tstop = RISE_TIME
            if post_ramp:
                tstop += 2 * np.pi / model.natural_frequency
            result = transient(
                _circuit(asdm018, vdd, n, inductance, capacitance=capacitance),
                tstop, RISE_TIME / div, options=TransientOptions(method=method),
            )
            runs[key] = (result, model)
        return runs[key]

    return run


def _lc_error(result, model):
    """Max |v(ssn) - Table 1 waveform| on [t0, tr]."""
    t = result.times
    window = t >= model.turn_on_time
    return float(np.max(np.abs(
        result.voltage("ssn").y[window] - model.voltage(t[window]))))


@pytest.mark.parametrize("case", LC_CASES, ids=_lc_case_id)
def test_lc_backward_euler_converges_at_first_order(lc_oracle, case):
    runs = [lc_oracle("be", case, div) for div in COARSE_STEPS + FINE_STEPS]
    assert runs[0][1].case is case[0]
    errors = [_lc_error(*run) for run in runs]
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.7 <= coarse / fine <= 2.3, f"errors {errors} per halving"


@pytest.mark.parametrize("div", FINE_STEPS)
@pytest.mark.parametrize("method", ["be", "trap"])
@pytest.mark.parametrize("case", LC_CASES, ids=_lc_case_id)
def test_lc_error_bound(lc_oracle, case, method, div):
    error = _lc_error(*lc_oracle(method, case, div))
    assert error <= LC_ERROR_BOUND[method], f"|dV| = {error:.3e} V"


@pytest.mark.parametrize("method", ["be", "trap"])
def test_lc_case_3b_post_ramp_tail(lc_oracle, method):
    """Case 3b: the ramp ends before the first ringing peak, so the real
    maximum comes after ``tr``.  The simulated tail must follow the
    homogeneous continuation and peak above Table 1's window maximum."""
    case = next(c for c in LC_CASES if c[0] is Table1Case.UNDERDAMPED_BOUNDARY)
    result, model = lc_oracle(method, case, FINE_STEPS[0], post_ramp=True)
    t = result.times
    tail = t >= model.ramp_end_time
    sim = result.voltage("ssn").y[tail]
    ref = model.post_ramp_voltage(t[tail])
    bound = LC_ERROR_BOUND[method]
    assert np.max(np.abs(sim - ref)) <= bound
    assert abs(sim.max() - ref.max()) <= bound, (sim.max(), ref.max())
    assert sim.max() > model.peak_voltage() + bound


#: Banks of the Z-collapse property: N drivers, L in nH, tr in ns.
_BANKS = st.tuples(st.integers(1, 30), st.floats(1.0, 5.0), st.floats(0.3, 1.0))


@settings(max_examples=8, deadline=None)
@given(first=_BANKS, n2=st.integers(1, 30), tr2=st.floats(0.3, 1.0),
       method=st.sampled_from(["be", "trap"]))
def test_equal_z_gives_equal_peak(asdm018, tech018, first, n2, tr2, method):
    """Eqn 10: banks with equal Z = N*L*sr bounce to the same v(ssn) peak.

    The second bank takes its own N and tr and the inductance that keeps
    N*L*sr equal (sr = vdd/tr, so L2 = N1*L1*tr2 / (N2*tr1)).
    """
    n1, l1, tr1 = first
    banks = [(n1, l1 * 1e-9, tr1 * 1e-9), (n2, n1 * l1 * tr2 / (n2 * tr1) * 1e-9,
                                          tr2 * 1e-9)]
    peaks = []
    for n, inductance, rise_time in banks:
        result = transient(
            _circuit(asdm018, tech018.vdd, n, inductance, rise_time),
            rise_time, rise_time / FINE_STEPS[0],
            options=TransientOptions(method=method),
        )
        peaks.append(float(np.max(result.voltage("ssn").y)))
    assert abs(peaks[0] - peaks[1]) <= ERROR_BOUND[method], peaks
