import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starkdtc import (
    NumericError,
    SimulationParams,
    autocorrelator_series,
    floquet_operator,
    fourier_spectrum,
    lifetime,
)
import starkdtc.observables as observables
from starkdtc.hilbert import occupations
from starkdtc.observables import AutocorrelatorSeries, reversal_analysis
from _oracles import (
    bits_of,
    coevolution_series,
    dft_magnitudes,
    expm_multiply_coevolution,
    expm_multiply_series,
    product_vector,
)
from test_floquet import point_pattern


def perfect_flip_params(L):
    return SimulationParams(L=L, omega=np.pi / 2, epsilon=0.0, v=0.0, f=0.0)


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(1, 8),
    kernel=st.sampled_from(["NN", "NNN", "NNNN", "ALL"]),
    f=st.floats(-2.0, 2.0),
    t1=st.floats(0.1, 5.0),
    t2=st.floats(0.1, 20.0),
    state=st.integers(0, 255),
)
@example(L=1, kernel="NN", f=0.0, t1=1.0, t2=10.0, state=255)
@example(L=3, kernel="NN", f=0.0, t1=1.0, t2=10.0, state=255)
@example(L=6, kernel="NN", f=0.0, t1=1.0, t2=10.0, state=255)
def test_perfect_flip_alternation(L, kernel, f, t1, t2, state):
    # Omega T1 = pi/2 and epsilon = 0 flip every spin exactly, whatever the
    # diagonal stage 2 does, so C(n) = (-1)^n from any z-product state; V
    # stays 0 because H_int is part of H1 too and spoils the flip (3e-3 off
    # by cycle 40 at L=4, V=0.1)
    p = SimulationParams(L=L, omega=np.pi / 2 / t1, epsilon=0.0, v=0.0, f=f, t1=t1, t2=t2, kernel=kernel)
    bits = bits_of(state % p.dimension, L)
    series = autocorrelator_series(floquet_operator(p), bits, 40)
    assert np.max(np.abs(series.values - (-1.0) ** np.arange(41))) < 1e-10


def test_series_invariants_and_validation():
    p = SimulationParams(L=5, omega=np.pi / 2, epsilon=0.3, v=0.1, f=0.025)
    prop = floquet_operator(p)
    series = autocorrelator_series(prop, "11111", 60)
    assert series.n_cycles == 60 and series.values.shape == (61,)
    assert series.values[0] == 1.0
    assert (np.abs(series.values) <= 1 + 1e-9).all()
    with pytest.raises(ValueError):
        autocorrelator_series(prop, "11111", 0)
    with pytest.raises(ValueError, match="^initial_state takes length-5 bit strings, got '11'$"):
        autocorrelator_series(prop, "11", 10)


def test_general_path_matches_fast_path():
    # criterion-style cross-check of the one-column block on random product
    # states against the two-apply co-evolution reference
    rng = np.random.default_rng(101)
    p = SimulationParams(L=8, omega=np.pi / 2, epsilon=0.25, v=0.1, f=0.03)
    prop = floquet_operator(p)
    for _ in range(4):
        bits = "".join(rng.choice(["0", "1"], size=8))
        fast = autocorrelator_series(prop, bits, 50)
        general = coevolution_series(prop, product_vector(bits), 50)
        assert np.max(np.abs(fast.values - general)) < 1e-10


def superposition(L):
    """The amplitudes of a complex superposition of three basis states, no
    two of which differ in one site."""
    psi = np.zeros(1 << L, dtype=complex)
    psi[[0b11, 0b1100, (1 << L) - 1]] = 0.6, 0.48j, -0.64
    return psi


def refuses_before_assembly(monkeypatch, prop, psi0):
    """`autocorrelator_series` and `lifetime` refuse the amplitudes `psi0`
    with a ValueError naming the bit-string rule, and the vector by its type
    and length, not its multi-line repr, before U1's blocks are assembled.
    The patch is undone on return, so `prop.apply` can assemble them."""
    def no_assembly():
        raise AssertionError("U1's blocks assembled before the initial state was checked")

    with monkeypatch.context() as patch:
        patch.setattr(prop.u1, "assemble", no_assembly)
        message = f"^initial_state takes bit strings, got ndarray of length {psi0.size}$"
        for evolve in (autocorrelator_series, lifetime):
            with pytest.raises(ValueError, match=message):
                evolve(prop, psi0, 30)


@pytest.mark.parametrize("L", [8, 10])
def test_superposition_matches_coevolution_reference(monkeypatch, L):
    # the autocorrelator evolves z-product states only; a superposition is
    # evolved by the library step `FloquetPropagator.apply`, which the
    # co-evolution reference checks against the expm_multiply one
    p = SimulationParams(L=L, omega=np.pi / 2, epsilon=0.25, v=0.0, t1=1.0, t2=10.0).with_f_t2(0.2)
    prop = floquet_operator(p)
    psi0 = superposition(L)
    refuses_before_assembly(monkeypatch, prop, psi0)
    reference = expm_multiply_coevolution(p.L, p.omega, p.epsilon, p.v, p.f, p.t1, p.t2, psi0, 20, p.kernel)
    assert np.max(np.abs(coevolution_series(prop, psi0, 20) - reference)) < 1e-9


# the one evolution path: a z-product state as a one-column block ("fast",
# as against the co-evolution reference of `coevolution_series`)
@pytest.mark.parametrize("bits", ["1101001110"], ids=["fast"])
def test_single_point_paths_match_expm_multiply_oracle_at_l10(bits):
    p = SimulationParams(L=10, omega=np.pi / 2, epsilon=0.3, v=0.1, t1=1.0, t2=10.0).with_f_t2(0.2)
    series = autocorrelator_series(floquet_operator(p), bits, 40)
    reference = expm_multiply_coevolution(
        p.L, p.omega, p.epsilon, p.v, p.f, p.t1, p.t2, product_vector(bits), 40, p.kernel
    )
    assert np.max(np.abs(series.values - reference)) < 1e-9


def test_product_state_oracles_agree():
    # the co-evolution oracle reduces to the one-state readout on a z-product state
    bits = "110100"
    args = (6, np.pi / 2, 0.3, 0.1, 0.02, 1.0, 10.0)
    coevolved = expm_multiply_coevolution(*args, product_vector(bits), 20)
    assert np.max(np.abs(coevolved - expm_multiply_series(*args, bits, 20))) < 1e-12


FAILURE_POINT = SimulationParams(L=4, omega=np.pi / 2, epsilon=0.2, v=0.1, f=0.02)


def skew_phases(monkeypatch):
    """Push every stage-2 phase vector the evolution forms off the unit circle."""
    phases = observables.propagator_u2
    monkeypatch.setattr(observables, "propagator_u2", lambda h2, t2: phases(h2, t2) * 1.001)


@pytest.mark.parametrize("bits", ["1111"], ids=["fast"])
def test_single_point_norm_failure_names_the_cycle(monkeypatch, bits):
    prop = floquet_operator(FAILURE_POINT)
    skew_phases(monkeypatch)
    with pytest.raises(NumericError, match="state norm drifted by .* at cycle 1$"):
        autocorrelator_series(prop, bits, 30)


@pytest.mark.parametrize("bits", ["1111"], ids=["fast"])
def test_single_point_norm_failure_names_point_and_tolerance(monkeypatch, bits):
    prop = floquet_operator(FAILURE_POINT)
    skew_phases(monkeypatch)
    with pytest.raises(NumericError, match=r"tolerance 1e-08\) for \(" + point_pattern(FAILURE_POINT)):
        autocorrelator_series(prop, bits, 30)


@pytest.mark.parametrize("bits", ["1111"], ids=["fast"])
def test_magnitude_failure_names_point_and_tolerance(monkeypatch, bits):
    # a negative tolerance makes |C(0)| = 1 a failure
    monkeypatch.setattr(observables, "MAGNITUDE_TOL", -0.5)
    pattern = r"magnitude exceeded 1 by .* \(tolerance -5e-01\) for \(" + point_pattern(FAILURE_POINT)
    with pytest.raises(NumericError, match=pattern + r".* at cycle \d+$"):
        autocorrelator_series(floquet_operator(FAILURE_POINT), bits, 30)


def test_fourier_perfect_alternation():
    values = (-1.0) ** np.arange(101)
    series = AutocorrelatorSeries(values=values)
    spectral = fourier_spectrum(series)
    assert spectral.a_pi == pytest.approx(1.0, abs=1e-10)
    assert spectral.a_pi == spectral.magnitudes[50]
    assert spectral.frequencies[50] == pytest.approx(np.pi)
    assert (spectral.magnitudes >= 0).all()


def test_fourier_constant_series():
    series = AutocorrelatorSeries(values=np.ones(101))
    spectral = fourier_spectrum(series)
    assert spectral.a_pi == pytest.approx(0.0, abs=1e-12)
    assert spectral.magnitudes[0] == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(spectral.magnitudes) == 0


def test_fourier_odd_cycle_count_rejected():
    series = AutocorrelatorSeries(values=np.ones(100))
    with pytest.raises(ValueError):
        fourier_spectrum(series)


def test_fourier_against_direct_dft_oracle():
    rng = np.random.default_rng(7)
    values = np.concatenate([[1.0], rng.uniform(-1, 1, size=20)])
    series = AutocorrelatorSeries(values=values)
    spectral = fourier_spectrum(series)
    assert np.max(np.abs(spectral.magnitudes - dft_magnitudes(values))) < 1e-12


def test_parseval_consistency():
    rng = np.random.default_rng(19)
    values = np.concatenate([[1.0], rng.uniform(-1, 1, size=50)])
    series = AutocorrelatorSeries(values=values)
    spectral = fourier_spectrum(series)
    lhs = np.sum((spectral.magnitudes * 50) ** 2)
    rhs = 50 * np.sum(values[1:] ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_a_pi_sign_flip_invariance():
    rng = np.random.default_rng(23)
    values = np.concatenate([[1.0], rng.uniform(-1, 1, size=30)])
    plus = AutocorrelatorSeries(values=values)
    flipped = values.copy()
    flipped[1:] *= -1.0
    minus = AutocorrelatorSeries(values=flipped)
    assert fourier_spectrum(plus).a_pi == pytest.approx(fourier_spectrum(minus).a_pi, abs=1e-12)


def test_magnetization_echo_under_perfect_flips():
    # total z-magnetization alternates with conserved magnitude when eps = 0
    p = SimulationParams(L=6, omega=np.pi / 2, epsilon=0.0, v=0.0, f=0.004, t2=10.0)
    prop = floquet_operator(p)
    sz = 2.0 * occupations(p.L) - 1.0
    psi = product_vector("110100")
    m0 = np.sum(sz @ np.abs(psi) ** 2)
    for n in range(1, 9):
        psi = prop.apply(psi)
        m = np.sum(sz @ np.abs(psi) ** 2)
        assert m == pytest.approx((-1.0) ** n * m0, abs=1e-10)


def test_reversal_analysis_never_reverses():
    values = (-1.0) ** np.arange(201)
    result = reversal_analysis(values)
    assert result.first_reversal is None
    assert result.n_c is None
    assert not result.observed
    assert result.record()["n_c"] == "not_observed"


def test_reversal_analysis_single_qubit_closed_form():
    # C[n] = (-1)^n cos(2 eps n): first flip at the first n with cos < 0,
    # lifetime at the first cosine minimum
    eps = 0.05
    n = np.arange(0, 200)
    values = (-1.0) ** n * np.cos(2 * eps * n)
    result = reversal_analysis(values)
    expected_first = int(np.ceil(np.pi / (4 * eps)))
    while np.cos(2 * eps * expected_first) >= 0:
        expected_first += 1
    assert result.first_reversal == expected_first
    expected_nc = 3 + int(np.argmin(np.cos(2 * eps * np.arange(3, 200))))
    assert result.n_c == expected_nc
    # the lifetime sits at a minimum of the parity-aligned envelope, i.e. at
    # an odd multiple of pi/(2 eps) cycles on this undamped closed form
    assert np.cos(2 * eps * result.n_c) < -0.999
    assert (2 * eps * result.n_c) % (2 * np.pi) == pytest.approx(np.pi, abs=0.05)
    assert result.reversal_depth == pytest.approx(-np.min(np.cos(2 * eps * n[3:])), abs=1e-12)


def test_lifetime_single_qubit_against_closed_form():
    eps = 0.05
    p = SimulationParams(L=1, omega=np.pi / 2, epsilon=eps, v=0.0, f=0.0)
    prop = floquet_operator(p)
    result = lifetime(prop, "1", 200)
    analytic = reversal_analysis((-1.0) ** np.arange(201) * np.cos(2 * eps * np.arange(201)))
    assert result.first_reversal == analytic.first_reversal
    assert result.n_c == analytic.n_c


def test_lifetime_perfect_flip_not_observed():
    p = perfect_flip_params(4)
    prop = floquet_operator(p)
    result = lifetime(prop, "1111", 300)
    assert not result.observed
    assert result.n_max == 300


def test_lifetime_zero_counts_as_reversal():
    values = np.ones(12)
    values[1::2] = -1.0
    values[7] = 0.0
    result = reversal_analysis(values)
    assert result.first_reversal == 7


@settings(max_examples=100, deadline=None)
@given(
    n_max=st.integers(3, 300),
    signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
    data=st.data(),
)
def test_reversal_analysis_finds_planted_reversals(n_max, signs, data):
    # a series that keeps the signs of C[1] (odd cycles) and C[2] (even
    # cycles) except at planted cycles >= 3, where it is reversed or zero
    odd_sign, even_sign = signs
    n = np.arange(n_max + 1)
    magnitude = np.array(data.draw(st.lists(st.floats(1e-6, 1.0), min_size=n_max + 1, max_size=n_max + 1)))
    planted = data.draw(st.sets(st.integers(3, n_max), max_size=8))
    zeros = data.draw(st.sets(st.sampled_from(sorted(planted)), max_size=3)) if planted else set()
    sign = np.where(n % 2 == 0, even_sign, odd_sign)
    values = sign * magnitude
    for cycle in planted:
        values[cycle] = 0.0 if cycle in zeros else -values[cycle]
    result = reversal_analysis(values)
    assert result.n_max == n_max
    if not planted:
        assert result.first_reversal is None and result.n_c is None and not result.observed
        return
    first = min(planted)
    assert result.first_reversal == first
    # deepest reversal: the largest reversed magnitude, else the first zero
    reversed_cycles = sorted(planted - zeros)
    if reversed_cycles:
        depths = [magnitude[c] for c in reversed_cycles]
        expected = reversed_cycles[int(np.argmax(depths))]
    else:
        expected = first
    assert result.n_c == expected
    assert result.reversal_depth == (0.0 if expected in zeros else magnitude[expected])


def test_lifetime_input_validation():
    p = perfect_flip_params(2)
    prop = floquet_operator(p)
    with pytest.raises(ValueError):
        lifetime(prop, "11", 1)
    with pytest.raises(ValueError):
        reversal_analysis(np.array([1.0, -0.5]))


@pytest.mark.parametrize("count", [True, 2.5, "10", 0], ids=["bool", "fractional", "string", "zero"])
def test_series_and_lifetime_refuse_bad_counts(count):
    # True used to run one cycle, and 2.5 and "10" to raise TypeError
    prop = floquet_operator(perfect_flip_params(2))
    with pytest.raises(ValueError, match=f"^n_cycles must be a positive integer, got {re.escape(repr(count))}$"):
        autocorrelator_series(prop, "11", count)
    with pytest.raises(ValueError, match=f"^n_max must be a positive integer, got {re.escape(repr(count))}$"):
        lifetime(prop, "11", count)


def test_lifetime_reference_signs_from_series_not_assumed():
    # a series starting positive on odd cycles is handled by taking
    # references from C[1], C[2] instead of assuming C[1] < 0
    n = np.arange(0, 60)
    values = (+1.0) ** n * np.cos(0.1 * n)  # no alternation at all
    values[0] = 1.0
    result = reversal_analysis(values)
    assert result.first_reversal == int(np.ceil(np.pi / 0.2))
