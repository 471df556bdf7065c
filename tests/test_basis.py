import warnings

import numpy as np
import pytest

from ppcavity.basis import ADDITIVE_NOISE, BasisFamily, checked_denominator
from ppcavity.errors import PoleProximityError, UnreachableTargetError

from helpers import random_disc

ADD = BasisFamily.additive_noise(4.0, 0.0)
ADD_C = BasisFamily.additive_noise(3.0 + 1.0j, 0.2 - 0.1j)
CS = BasisFamily.coherent_spin()


def test_coherent_spin_eval_is_identity():
    pf = CS.jet(0.3, 0.2)
    h, hp, ht, htp = pf.h, pf.hp, pf.ht, pf.htp
    assert complex(h) == 0.3
    assert complex(hp) == 1.0
    assert complex(ht) == 0.2
    assert complex(htp) == 1.0


def test_additive_eval_at_origin():
    pf = ADD.jet(0.0, 0.0)
    h, hp, ht, htp = pf.h, pf.hp, pf.ht, pf.htp
    assert abs(complex(h)) == 0.0
    assert complex(hp) == -0.25
    assert abs(complex(ht)) == 0.0
    assert complex(htp) == -0.25


def test_htilde_is_conjugate_of_h_at_conjugate_point(rng):
    for fam in (ADD, ADD_C, CS):
        z = random_disc(rng, 50, 1.5)
        ht = fam.pair(np.zeros_like(z), np.conj(z))[1]
        h = fam.pair(z, np.zeros_like(z))[0]
        assert np.abs(ht - np.conj(h)).max() <= 1e-14


def test_ode_identity_on_disc(rng):
    # delta * h' = h^2 - 1 throughout |z| <= 2
    for fam in (ADD, ADD_C):
        z = random_disc(rng, 1000, 2.0)
        pf = fam.jet(z, np.zeros_like(z))
        h, hp = pf.h, pf.hp
        err = np.abs(fam.delta * hp - (h * h - 1.0))
        assert (err <= 1e-12 * (1.0 + np.abs(h) ** 2)).all()


def test_derivative_matches_central_difference(rng):
    step = 1e-6
    for fam in (ADD, ADD_C, CS):
        z = random_disc(rng, 100, 0.9)
        hp = fam.jet(z, np.zeros_like(z)).hp
        hplus = fam.pair(z + step, np.zeros_like(z))[0]
        hminus = fam.pair(z - step, np.zeros_like(z))[0]
        fd = (hplus - hminus) / (2.0 * step)
        assert (np.abs(fd - hp) <= 1e-6 * (1.0 + np.abs(hp))).all()


def test_invert_round_trips(rng):
    for fam in (ADD, ADD_C, CS):
        for _ in range(100):
            target = complex(random_disc(rng, None, 0.8))
            z = fam.invert_h(target)
            w = fam.invert_htilde(target)
            h, ht = fam.pair(z, w)
            assert abs(complex(h) - target) <= 1e-12 * (1.0 + abs(target))
            assert abs(complex(ht) - target) <= 1e-12 * (1.0 + abs(target))


def test_invert_examples():
    assert CS.invert_h(0.6065) == 0.6065
    assert ADD.invert_h(0.0) == 0.0
    target = np.exp(-0.5)
    z = ADD.invert_h(target)
    # quoted to four decimals; the forward evaluation is the authority
    assert abs(z - (-2.8138)) < 2.5e-4
    h = ADD.pair(z, 0.0)[0]
    assert abs(complex(h) - target) <= 1e-12


def test_invert_unreachable_targets():
    for bad in (1.0, -1.0):
        with pytest.raises(UnreachableTargetError):
            ADD.invert_h(bad)
        with pytest.raises(UnreachableTargetError):
            ADD.invert_htilde(bad)
    # coherent spin reaches everything
    assert CS.invert_h(1.0) == 1.0


def test_pole_detection():
    # h has a pole where 1 + exp(2z/delta + kappa) = 0, i.e. z = i*pi*delta/2;
    # the jet carries it without raising, as |h| beyond 1e15 (1/h' -> 0 there)
    pole = 0.5j * np.pi * 4.0
    assert abs(complex(ADD.jet(pole, 0.0).h)) > 1e15
    assert abs(complex(ADD.jet(0.0, np.conj(pole)).ht)) > 1e15
    # checked_denominator refuses a state where 1 + h*htilde vanishes (here
    # h = htilde = i) or the jet is not finite, and passes one 0.1 away
    z, w = ADD.invert_h(1j), ADD.invert_htilde(1j)
    for pf in (ADD.jet(z, w), ADD.jet(np.nan, w)):
        with pytest.raises(PoleProximityError):
            checked_denominator(pf.h, pf.ht, pf.hp, pf.htp)
    pf = ADD.jet(z + 0.1, w)
    checked_denominator(pf.h, pf.ht, pf.hp, pf.htp)


def test_family_validation():
    with pytest.raises(ValueError):
        BasisFamily("no-such-family")
    with pytest.raises(ValueError):
        BasisFamily.additive_noise(0.0)


def test_jet_matches_pair_and_ratios(rng):
    for fam in (ADD, ADD_C, CS):
        z = random_disc(rng, 40, 0.9)
        w = random_disc(rng, 40, 0.9)
        h, ht = fam.pair(z, w)
        # the slopes from the family identity delta * h' = h^2 - 1
        if fam.kind == ADDITIVE_NOISE:
            hp, htp = (h * h - 1.0) / fam.delta, (ht * ht - 1.0) / np.conj(fam.delta)
        else:
            hp, htp = np.ones_like(h), np.ones_like(ht)
        pf = fam.jet(z, w)
        assert np.abs(pf.h - h).max() == 0.0
        assert np.abs(pf.hp - hp).max() <= 1e-15
        assert np.abs(pf.ht - ht).max() == 0.0
        assert np.abs(pf.htp - htp).max() <= 1e-15
        # closed-form ratios agree with the quotients
        assert np.abs(pf.lin - h / hp).max() <= 1e-12 * (1.0 + np.abs(h / hp).max())
        assert np.abs(pf.quad - (h * h - 1.0) / hp).max() <= 1e-12 * (
            1.0 + np.abs(pf.quad).max()
        )
        assert np.abs(pf.inv_hp * hp - 1.0).max() <= 1e-12
        if fam.kind == ADDITIVE_NOISE:
            # second derivative obeys the differentiated family identity
            assert np.abs(pf.hpp - 2.0 * h * hp / fam.delta).max() <= 1e-14
            # the diffusion ratio is the exact constant delta, not an array
            assert np.shape(pf.quad) == np.shape(pf.quad_t) == ()
            assert complex(pf.quad) == fam.delta
            assert complex(pf.quad_t) == np.conj(fam.delta)


def test_jet_matches_hyperbolic_definitions(rng):
    # the exp-form jet against tanh/cosh/sinh of u = z/delta + kappa/2 and of
    # its mirror at w, relative to max(1, |value|), on a disc around the poles
    # of h at u = +-i*pi/2
    for fam in (ADD, ADD_C):
        z, w = random_disc(rng, 2000, 8.0), random_disc(rng, 2000, 8.0)
        pf = fam.jet(z, w)
        dc = np.conj(fam.delta)
        sides = (
            (z / fam.delta + fam.kappa / 2.0, fam.delta,
             (pf.h, pf.hp, pf.hpp, pf.inv_hp, pf.lin, pf.quad)),
            (w / dc + np.conj(fam.kappa) / 2.0, dc,
             (pf.ht, pf.htp, pf.htpp, pf.inv_htp, pf.lin_t, pf.quad_t)),
        )
        for u, d, got in sides:
            t, c = np.tanh(u), np.cosh(u)
            want = (
                -t,
                -1.0 / (d * c * c),
                2.0 * t / (d * c) ** 2,
                -d * c * c,
                (d / 2.0) * np.sinh(2.0 * u),
                np.full_like(u, d),
            )
            for value, ref in zip(got, want):
                assert (np.abs(value - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))).all()


def test_far_from_origin_h_is_finite(rng):
    # at |Re u| >= 400, exp(2u) over- or underflows: h = -tanh(u) is -+1 and
    # finite, and no evaluation raises or warns under numpy's default settings
    for fam in (ADD, ADD_C):
        u = np.array([400.0, -400.0, 1e4, -1e4]) + 1j * rng.uniform(-3.0, 3.0, 4)
        z = fam.delta * (u - fam.kappa / 2.0)
        w = np.conj(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = fam.pair(z, w)
            pf = fam.jet(z, w)
            # the members formed on first read do not warn either
            members = {name: getattr(pf, name) for name in MEMBERS}
        for value in pair + (pf.h, pf.ht):
            assert np.array_equal(value, -np.sign(u.real))
        for name in ("hp", "htp", "hpp", "htpp", "hht", "denom"):
            assert np.isfinite(members[name]).all()


MEMBERS = (
    "h", "ht", "hp", "htp", "hpp", "htpp", "inv_hp", "inv_htp",
    "lin", "lin_t", "quad", "quad_t", "hht", "denom",
)


def test_members_do_not_depend_on_read_order(rng):
    # every member formed on first read is the same array whichever member
    # is read first, including at a pole of h and far from the origin
    for fam in (ADD, ADD_C, CS):
        z = np.concatenate([random_disc(rng, 50, 8.0), [0.5j * np.pi * 4.0, 1e4, np.nan]])
        w = np.concatenate([random_disc(rng, 50, 8.0), [0.0, -1e4, 1.0]])
        # 1/h' first and the rest backwards (h'' before h', 1 + h*htilde
        # before h*htilde) on one jet; in declaration order on the other
        backwards, forwards = fam.jet(z, w), fam.jet(z, w)
        with np.errstate(all="raise"):
            first = {name: getattr(backwards, name) for name in ("inv_hp", "inv_htp") + MEMBERS[::-1]}
            last = {name: getattr(forwards, name) for name in MEMBERS}
        for name in MEMBERS:
            assert np.array_equal(first[name], last[name], equal_nan=True), name
        assert np.array_equal(first["hht"], first["h"] * first["ht"], equal_nan=True)
        assert np.array_equal(first["denom"], 1.0 + first["hht"], equal_nan=True)


def _per_side(x, d, kappa):
    """One side of the additive-noise jet as it was formed before the sides
    were stacked: h = -tanh(u) at u = x/d + kappa/2 from one exponential."""
    two_u = np.asarray(x, dtype=complex) * (2.0 / d) + kappa
    s = 1.0 - 2.0 * (two_u.real > 0)
    q = np.exp(s * two_u)
    h = s * (1.0 - q) / (1.0 + q)
    q_inv = 1.0 / q
    hp = (h * h - 1.0) / d
    return {
        "h": h, "lin": d / 4.0 * s * (q - q_inv), "quad": np.asarray(d),
        "hp": hp, "hpp": 2.0 * h * hp / d, "inv_hp": -(d / 4.0) * (q + 2.0 + q_inv),
    }


def test_stacked_jet_matches_the_per_side_forms_bit_for_bit(rng):
    # complex delta and nonzero kappa, so the mirror side's constants (conj
    # delta, conj kappa) differ from the side's: a swapped constant shows here
    fam = BasisFamily.additive_noise(4.0 + 0.5j, 0.1 - 0.2j)
    d, k = fam.delta, fam.kappa
    u = np.concatenate([
        random_disc(rng, 200, 3.0),  # both branches, Re u > 0 and Re u <= 0
        0.5j * np.pi * np.array([1, -1, 1, -1]) + 1e-9 * random_disc(rng, 4, 1.0),  # poles of h
        np.array([400.0, -400.0, 1e4, -1e4]) + 1j * rng.uniform(-3.0, 3.0, 4),  # far out
    ])
    u_mirror = rng.permutation(u)
    z = d * (u - k / 2.0)
    w = np.conj(d) * (u_mirror - np.conj(k) / 2.0)
    assert (u.real > 0).any() and (u.real <= 0).any()
    pf = fam.jet(z, w)
    with np.errstate(all="ignore"):
        side, mirror = _per_side(z, d, k), _per_side(w, np.conj(d), np.conj(k))
        names = {
            "h": "ht", "lin": "lin_t", "quad": "quad_t", "hp": "htp", "hpp": "htpp", "inv_hp": "inv_htp",
        }
        for name, mirror_name in names.items():
            got_want = ((getattr(pf, name), side[name]), (getattr(pf, mirror_name), mirror[name]))
            for got, want in got_want:
                assert got.shape == want.shape, name
                assert np.array_equal(np.asarray(got), want, equal_nan=True), name
        hht = side["h"] * mirror["h"]
    assert np.array_equal(pf.hht, hht, equal_nan=True)
    assert np.array_equal(pf.denom, 1.0 + hht, equal_nan=True)
    # pair is the jet's (h, htilde), and the (..., 2) form of the arguments,
    # such as the last two coordinates of a state, is the two-argument call
    zw = np.stack([z, w], axis=-1)
    for h, ht in (fam.pair(z, w), fam.pair(zw)):
        assert np.array_equal(h, pf.h, equal_nan=True)
        assert np.array_equal(ht, pf.ht, equal_nan=True)
    state = np.concatenate([random_disc(rng, (len(z), 2), 1.0), zw], axis=-1)
    view = fam.jet(state[..., -2:])
    for name in MEMBERS:
        assert np.array_equal(getattr(view, name), getattr(pf, name), equal_nan=True), name


MEMBERS_FORMED_ON_READ = ("slopes", "curvatures", "inv_slopes")


def test_step_jet_members_follow_the_readers_error_state():
    # at a pole of the exponential, 1/h' multiplies an infinite 1/q: a jet of
    # the stepping loop forms it under the error state of its reader, which
    # already runs under one, while the public jet forms it without warnings
    zw = np.array([(2000.0, -2000.0), (0.1, 0.2)], dtype=complex)
    with np.errstate(all="ignore"):
        step = ADD.bind_jet(zw)()
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        step.inv_slopes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        public = ADD.jet(zw)
        with np.errstate(all="raise"):
            formed = {name: getattr(public, name) for name in MEMBERS_FORMED_ON_READ}
    with np.errstate(all="ignore"):
        step = ADD.bind_jet(zw)()
        for name, value in formed.items():
            assert np.array_equal(value, getattr(step, name), equal_nan=True), name
    assert not np.isfinite(formed["inv_slopes"][0]).all()
