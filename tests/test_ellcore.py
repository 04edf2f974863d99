import cmath
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from eqtor.ellcore import (BalanceError, DeltaTerm, Lat, ParameterError, Params,
                           PoleProximityError, ThetaRatioSpec, gkernel,
                           gkernel_branches, pf_expand, phi_delta_difference,
                           poch_pairs_series, pochratio_series, qpoch, theta,
                           theta_coefficient, theta_zero_distance)

P = Params()


def test_qpoch_trivial_cases():
    assert qpoch(0, 0.3, 40) == 1
    assert qpoch(1, 0.3, 40) == 0
    assert qpoch(0.5, 0, 40) == pytest.approx(0.5)


def test_qpoch_rejects_bad_input():
    with pytest.raises(ValueError):
        qpoch(float("nan"), 0.3, 40)
    with pytest.raises(ValueError):
        qpoch(0.5, 1.2, 40)
    with pytest.raises(ValueError):
        qpoch(0.5, 0.3, terms=0)


def test_theta_trivial_cases():
    assert theta(1, P.p, 40) == 0
    assert theta(2, 0, 40) == pytest.approx(-1)
    with pytest.raises(ValueError):
        theta(0, P.p, 40)


def test_theta_quasi_periodicity_seeded():
    rng = random.Random(11)
    for _ in range(100):
        z = cmath.rect(rng.uniform(0.3, 2.5), rng.uniform(0, 2 * math.pi))
        p = cmath.rect(rng.uniform(0.01, 0.3), rng.uniform(0, 2 * math.pi))
        lhs = theta(p * z, p, 40)
        rhs = -theta(z, p, 40) / z
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_theta_reflection_derived():
    # theta(p z) = -z^{-1} theta(z) evaluated from the defining product
    z, p = 0.7 + 0.2j, 0.1
    assert abs(theta(p * z, p, 40) + theta(z, p, 40) / z) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(0.3, 2.0), st.floats(0, 6.28))
def test_theta_laurent_expansion(r, phi):
    z = cmath.rect(r, phi)
    total = sum(theta_coefficient(n, P.p, qpoch(P.p, P.p, 40)) * z ** n for n in range(-12, 13))
    assert abs(total - theta(z, P.p, 40)) < 1e-12 * (1 + abs(total))


def test_gkernel_trivial_cases():
    assert gkernel(0.3, 0, 2, P.q, 40) == pytest.approx(1)
    assert gkernel(0, 0.2, 2, P.q, 40) == pytest.approx(1)


def test_gkernel_dual_branch():
    series, poch = gkernel_branches(0.3, 0.2, 2, 0.9, 40)
    assert abs(series - poch) < 1e-12
    rng = random.Random(5)
    for b in range(-3, 4):
        for _ in range(100):
            z = cmath.rect(rng.uniform(0.05, 1.1), rng.uniform(0, 6.28))
            s = cmath.rect(rng.uniform(0.02, 0.3), rng.uniform(0, 6.28))
            series, poch = gkernel_branches(z, s, b, P.q, terms=60)
            assert abs(series - poch) / (1 + abs(poch)) < 1e-12


def test_pochratio_series_trivial():
    assert pochratio_series(0.4, 0.4, 0.1, 5) == [1, 0j, 0j, 0j, 0j, 0j]
    a, b = 0.25, 0.6
    coeffs = pochratio_series(a, b, 0, 6)
    # s = 0 reduces to (1 - a x)/(1 - b x)
    expect = [1.0, b - a] + [b ** n * (b - a) for n in range(1, 5)]
    for got, want in zip(coeffs, expect):
        assert abs(got - want) < 1e-14


def test_pochratio_series_matches_direct_ratio():
    a, b, s, xi = 0.2, 0.5, 0.1, 0.3
    coeffs = pochratio_series(a, b, s, 24)
    total = sum(c * xi ** n for n, c in enumerate(coeffs))
    direct = qpoch(a * xi, s, 60) / qpoch(b * xi, s, 60)
    assert abs(total - direct) < 1e-10


def test_poch_pairs_series_multiplies():
    pairs = [(0.2, 0.5, 0.1), (0.1 + 0.2j, 0.3, 0.08)]
    joint = poch_pairs_series(pairs, 10)
    c1 = pochratio_series(*pairs[0], 10)
    c2 = pochratio_series(*pairs[1], 10)
    for n in range(11):
        conv = sum(c1[k] * c2[n - k] for k in range(n + 1))
        assert abs(joint[n] - conv) < 1e-12


def test_pf_expand_single_pole():
    c, t = 1.3, 0.9
    a = [0.4]
    b = [0.4 * c, t / c]
    lhs, rhs = pf_expand(a, b, t, P)
    assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_pf_expand_random_balanced():
    rng = random.Random(2)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            a = [cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 6.28)) for _ in range(n)]
            b = [cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 6.28)) for _ in range(n)]
            t = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 6.28))
            prod_a = t
            for x in a:
                prod_a *= x
            prod_b = 1 + 0j
            for x in b:
                prod_b *= x
            lhs, rhs = pf_expand(a, b + [prod_a / prod_b], t, P)
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_pf_expand_larger_nome():
    # stays below 1e-9 with |p| up to 0.3 at the default truncation length
    big = Params(p=0.28 * cmath.exp(0.45j))
    rng = random.Random(8)
    for n in (2, 4):
        for _ in range(8):
            a = [cmath.rect(rng.uniform(0.6, 1.4), rng.uniform(0, 6.28)) for _ in range(n)]
            b = [cmath.rect(rng.uniform(0.6, 1.4), rng.uniform(0, 6.28)) for _ in range(n)]
            t = cmath.rect(rng.uniform(0.6, 1.4), rng.uniform(0, 6.28))
            prod_a = t
            for x in a:
                prod_a *= x
            prod_b = 1 + 0j
            for x in b:
                prod_b *= x
            try:
                lhs, rhs = pf_expand(a, b + [prod_a / prod_b], t, big)
            except PoleProximityError:
                continue
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_pochratio_series_order_eight_example():
    # truncating at order 8 leaves the geometric tail sum_{n>8} c_n xi^n with
    # c_n ~ (b-a) b^{n-1}, about 3e-8 here; order 24 pushes it below 1e-10
    a, b, s, xi = 0.2, 0.5, 0.1, 0.3
    coeffs = pochratio_series(a, b, s, 8)
    total = sum(c * xi ** n for n, c in enumerate(coeffs))
    direct = qpoch(a * xi, s, 60) / qpoch(b * xi, s, 60)
    assert abs(total - direct) < 5e-8


def test_pf_expand_guards():
    with pytest.raises(BalanceError):
        pf_expand([0.4], [0.5, 0.9], 0.9, P)
    # closing pole b_{n+1} = t sits on the theta zero ring
    with pytest.raises(PoleProximityError):
        pf_expand([0.4], [0.4, 0.9], 0.9, P)


def test_phi_delta_difference_lowest_weight():
    q = P.q
    spec = ThetaRatioSpec((Lat(0, 2, 1),), (Lat(0, 0, 1),), 1 / q)
    out = phi_delta_difference(spec, P)
    assert len(out) == 1
    support, coeff = out[0]
    assert support == Lat(0, 0, 1)
    expected = theta(q ** -2, P.p, 40) * (-q) / qpoch(P.p, P.p, 40) ** 2
    assert abs(coeff - expected) < 1e-12 * (1 + abs(expected))


def _laurent_coeffs(f, r, ns, samples=4096):
    out = {}
    vals = [f(cmath.rect(r, 2 * math.pi * k / samples)) for k in range(samples)]
    for n in ns:
        acc = 0j
        for k, v in enumerate(vals):
            acc += v / cmath.rect(r, 2 * math.pi * k / samples) ** n
        out[n] = acc / samples
    return out


def test_phi_delta_difference_against_laurent_extraction():
    # independent oracle: numeric Laurent coefficients on circles on each
    # side of the pole ring; their difference must match the delta sum
    u = P.u
    # poles at u and kappa u, both between the two circles
    spec = ThetaRatioSpec((Lat(0, 2, 1), Lat(1, 2, 1)), (Lat(0, 0, 1), Lat(1, 0, 1)), 0.7 + 0.1j)
    out = dict((s.value(P), c) for s, c in phi_delta_difference(spec, P))
    f = lambda z: spec.evaluate(z, P)
    ns = range(-3, 4)
    outer = _laurent_coeffs(f, abs(u) * 1.6, ns)
    inner = _laurent_coeffs(f, abs(u) * 0.75, ns)
    for n in ns:
        predicted = sum(c * d ** -n for d, c in out.items())
        assert abs(outer[n] - inner[n] - predicted) < 1e-10 * (1 + abs(predicted))


def test_phi_delta_difference_linearity_and_supports():
    spec = ThetaRatioSpec((Lat(0, 2, 1), Lat(1, 4, 1)), (Lat(0, 0, 1), Lat(1, 2, 1)), 1 / P.q)
    base = phi_delta_difference(spec, P)
    scaled = phi_delta_difference(
        replace(spec, scalar_prefactor=spec.scalar_prefactor * (3.5 - 1j)), P)
    assert [s for s, _ in base] == list(spec.denom_shifts)
    for (_, c1), (_, c2) in zip(base, scaled):
        assert abs(c2 - (3.5 - 1j) * c1) < 1e-12 * (1 + abs(c2))


def test_phi_delta_difference_rejects_coincident_poles():
    spec = ThetaRatioSpec((Lat(0, 2, 1), Lat(0, 2, 1)), (Lat(0, 0, 1), Lat(0, 0, 1)), 1.0)
    with pytest.raises(PoleProximityError):
        phi_delta_difference(spec, P)


def test_phi_delta_difference_empty_spec():
    assert phi_delta_difference(ThetaRatioSpec((), (), 2.0), P) == []


def test_theta_ratio_balance():
    u = P.u
    spec = ThetaRatioSpec((Lat(0, 2, 1),), (Lat(0, 0, 1),), 1.0)
    assert spec.balance_exponent() == 1
    bad = ThetaRatioSpec((Lat(1, 0, 1),), (Lat(0, 0, 1),), 1.0)
    with pytest.raises(BalanceError):
        bad.balance_exponent()
    # shifts are exact lattice points; a plain number is refused, not scanned
    numeric = ThetaRatioSpec((P.q ** 2 * u,), (u,), 1.0)
    with pytest.raises(TypeError):
        numeric.balance_exponent()
    with pytest.raises(TypeError):
        phi_delta_difference(numeric, P)


def test_delta_term_substitution():
    term = DeltaTerm(Lat(1, -2, 1), 2.0 + 1j, payload="x")
    # z -> support: kappa q^-2 u
    assert term.support.value(P) == P.kappa * P.q ** -2 * P.u
    with pytest.raises(ValueError):
        DeltaTerm(0, 1.0)


def test_lat_arithmetic():
    a = Lat(1, -2, 1)
    b = Lat(0, 3, 0)
    assert (a * b) == Lat(1, 1, 1)
    assert (a / b) == Lat(1, -5, 1)
    assert abs(a.value(P) - P.kappa * P.q ** -2 * P.u) < 1e-15
    assert repr(a) == "Lat(kappa_e=1, q_e=-2, u_e=1)"


@pytest.mark.parametrize("op", [lambda a: a + a, lambda a: a * 2, lambda a: 2 * a],
                         ids=["lat+lat", "lat*2", "2*lat"])
def test_lat_refuses_tuple_arithmetic(op):
    # a lattice point is a tuple, but concatenation and repetition are no
    # lattice operations
    with pytest.raises(TypeError):
        op(Lat(1, -2, 1))


def test_params_validation():
    with pytest.raises(ParameterError):
        Params(p=0.95)
    with pytest.raises(ParameterError):
        Params(q=1.0)  # q^1 = 1 is degenerate
    with pytest.raises(ParameterError):
        Params(kappa=complex(P.q) ** -1)  # kappa q = 1
    # the genericity radius is fixed at 1e-8: the pass tolerance neither widens
    # it (a loose tol used to reject the default point) nor narrows it
    assert Params(tol=0.3).tol == 0.3
    # a NaN tol failed every report and an infinite one passed every finite residual
    for tol in (0.0, -1e-8, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="tol must be finite and positive"):
            Params(tol=tol)
    near = P.q * (1 + 5e-10)  # kappa q^-1 within 1e-9 of 1
    for tol in (0.3, 1e-12):
        with pytest.raises(ParameterError):
            Params(kappa=near, tol=tol)
    p1 = Params(level_k=1)
    assert abs(p1.p_star - p1.p * p1.q ** -2) < 1e-16


def test_theta_cache_not_shared_after_replace():
    lat = Lat(1, 2, 1)
    P.theta_lat(lat)  # fill the original's cache first
    p2 = replace(P, q=0.85 * P.q / abs(P.q))
    assert p2._lat_thetas is not P._lat_thetas
    assert p2.theta_lat(lat) == theta(lat.value(p2), p2.p, p2.trunc_M)
    assert abs(p2.theta_lat(lat) - P.theta_lat(lat)) > 1e-3


def test_theta_memo_belongs_to_its_parameter_point(monkeypatch):
    import mpmath

    z = 0.7 + 0.2j
    other = replace(P, p=0.04 * cmath.exp(0.2j))
    assert other.theta_p(z) == theta(z, other.p, other.trunc_M)
    assert abs(other.theta_p(z) - P.theta_p(z)) > 1e-6
    # every construction starts with an empty memo
    P.theta_lat(Lat(1, 2, 1))
    assert P._lat_thetas
    assert replace(P)._lat_thetas == {}
    assert P.with_level(1)._lat_thetas == {}
    monkeypatch.setattr(mpmath.mp, "dps", mpmath.mp.dps)  # restored after the test
    hp = P.with_precision(30)
    assert isinstance(hp.theta_p(hp.u), mpmath.mpc)
    hp.theta_lat(Lat(1, 2, 1))
    assert all(isinstance(v, mpmath.mpc) for v in hp._lat_thetas.values())


# every memo a Params instance keeps for its own parameter point
PARAMS_MEMOS = ("_lat_thetas", "_vertex_constants", "_nome_pochhammers")


def _filled(params):
    """params after the checks that fill each of its memos on one Fock handle."""
    from eqtor.fock01 import FockRep
    from eqtor.relcheck import run_relation

    rep = FockRep(params, 3, 0)
    for rel_id in ("xpxp", "xpxm"):
        assert run_relation(rep, rel_id, (2,)).status == "pass"
    return params


def test_params_memos_start_empty_and_serve_only_their_point(monkeypatch):
    import mpmath

    here = _filled(replace(P))
    assert all(getattr(here, name) for name in PARAMS_MEMOS)
    monkeypatch.setattr(mpmath.mp, "dps", mpmath.mp.dps)  # restored after the test
    for fresh in (replace(here), here.with_level(1), here.with_precision(30)):
        assert all(getattr(fresh, name) == {} for name in PARAMS_MEMOS)
    # a second point fills its own memos with its own values
    there = _filled(replace(P, p=0.04 * cmath.exp(0.2j), u=1.2 * cmath.exp(0.1j)))
    for name in PARAMS_MEMOS:
        assert getattr(there, name) is not getattr(here, name)
    for lat, value in there._lat_thetas.items():
        assert value == theta(lat.value(there), there.p, there.trunc_M)
        assert abs(value - here.theta_lat(lat)) > 1e-6
    assert there.nome_pochhammer(False) == qpoch(there.p, there.p, there.trunc_M)
    assert abs(there.nome_pochhammer(False) - here.nome_pochhammer(False)) > 1e-6
    # at level one the two nomes differ, and so do their Pochhammer products
    p1 = here.with_level(1)
    lat = Lat(1, 2, 1)
    assert p1.theta_lat(lat) == theta(lat.value(p1), p1.p, p1.trunc_M)
    assert p1.nome_pochhammer(False) == qpoch(p1.p, p1.p, p1.trunc_M)
    assert p1.nome_pochhammer(True) == qpoch(p1.p_star, p1.p_star, p1.trunc_M)


def test_theta_lat_raises_on_a_memoized_near_zero():
    # u = p puts the lattice point u^1 on a zero of theta_p
    pz = Params(u=P.p)
    assert pz.theta_p(pz.u) == 0
    for _ in range(2):
        with pytest.raises(ParameterError):
            pz.theta_lat(Lat(u_e=1))
    assert pz._lat_thetas == {}  # a near-zero value is never kept


def test_theta_coefficient_keeps_high_precision():
    import mpmath

    # a double-precision call must not leak into mpmath mode
    theta_coefficient(3, P.p, qpoch(P.p, P.p, 40))
    hp = Params().with_precision(40)
    exact = -hp.p ** 3 / qpoch(hp.p, hp.p, 200)
    got = theta_coefficient(3, hp.p, qpoch(hp.p, hp.p, hp.trunc_M))
    assert abs(got - exact) < mpmath.mpf(10) ** -35


def test_with_precision_sets_the_requested_digits(monkeypatch):
    # a later request for fewer digits used to be ignored: mp.dps only grew
    import mpmath

    monkeypatch.setattr(mpmath.mp, "dps", mpmath.mp.dps)  # restored after the test
    P.with_precision(40)
    assert mpmath.mp.dps == 40
    P.with_precision(20)
    assert mpmath.mp.dps == 20


def test_params_theta_lat_exact_zero():
    assert P.theta_lat(Lat(0, 0, 0)) == 0
    assert P.theta_lat(Lat(0, 2, 0)) != 0


def test_theta_zero_distance():
    assert theta_zero_distance(1.0, P.p) == 0
    assert theta_zero_distance(complex(P.p), P.p) < 1e-15
    assert theta_zero_distance(0.5 + 0.4j, P.p) > 0.1


def test_high_precision_mode_matches_double():
    hp = P.with_precision(40)
    a = qpoch(0.3 + 0.1j, 0.2, 40)
    b = qpoch(hp.q * 0 + (0.3 + 0.1j), hp.q * 0 + 0.2, 40)
    assert abs(complex(b) - a) < 1e-14
    th = hp.theta_p(hp.u)
    assert abs(complex(th) - P.theta_p(P.u)) < 1e-12
