"""Tests for the radial column-norm machinery against independent oracles."""

import json
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from oracles import bump, level_sum_profile, radial_gram
from scipy.linalg import eigvalsh_tridiagonal

from grushin import engine
from grushin.errors import DomainError, TruncationError
from grushin.fields import GrushinGrid, MultiplierProfile, SpectralTruncation
from grushin.hermite import PrimeGrid
from grushin.lab.experiments import band_profile
from grushin.lab import radial
from grushin.lab.radial import (
    _connection_matrix,
    _gauss_modes,
    _normalized_recurrence,
    _radial_log_row0,
    laguerre_radial_table,
    weighted_column_norms,
    weighted_operator_norm,
)


def weighted_column_norm(profile, u, gamma, torus_half_period, k_max, lambda_max):
    """One foot of weighted_column_norms, as a float."""
    return float(weighted_column_norms(profile, np.array([u]), gamma,
                                       torus_half_period, k_max, lambda_max)[0])


def trapezoid_weights(s):
    w = np.full(s.size, s[1] - s[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def orthonormal_laguerre_rows(n_max, alpha, t, log_row0):
    """Rows n = 0..n_max of exp(log_row0) L_n^alpha(t) times
    sqrt(n! Gamma(alpha + 1) / Gamma(n + alpha + 1)), by the three-term
    recurrence."""
    rows, prev = [np.exp(log_row0)], np.zeros_like(t)
    for n in range(n_max):
        nxt = ((2.0 * n + 1.0 + alpha - t) * rows[-1]
               - np.sqrt(n * (n + alpha)) * prev) \
            / np.sqrt((n + 1.0) * (n + 1.0 + alpha))
        prev = rows[-1]
        rows.append(nxt)
    return np.array(rows)


def gauss_laguerre_gram(n_max, l, gamma):
    """Reference weighted Gram by Gauss-Laguerre quadrature in t = s^2.

    The n_max + 1 nodes for the weight t^alpha e^{-t}, alpha = l + gamma, are
    the eigenvalues of the Jacobi matrix; the weights are the Christoffel
    numbers w_q = 1 / sum_n p_n(t_q)^2 over the orthonormal Laguerre
    polynomials p_n of parameter alpha.  Both recurrences carry a common node
    factor exp(start) in log scale, so each weight is accurate in relative
    terms however small; Gamma(alpha + 1) / l! comes from mpmath.  The
    quadrature is exact for polynomial degree 2 n_max + 1.
    """
    alpha = l + gamma
    k = np.arange(n_max + 1.0)
    t = eigvalsh_tridiagonal(2.0 * k + alpha + 1.0,
                             np.sqrt(k[1:] * (k[1:] + alpha)))
    with mp.workdps(40):
        log_mass = mp.loggamma(alpha + 1)
        log_ratio = float(log_mass - mp.loggamma(l + 1))
    start = 0.5 * (alpha * np.log(t) - t - float(log_mass))
    phi = orthonormal_laguerre_rows(n_max, alpha, t, start)
    # modes sqrt(n!/(n+l)!) L_n^l(t_q) sqrt(w_q) start from sqrt(w_q / l!),
    # and log(w_q / l!) = log_ratio - log(sum phi^2) + 2 start
    modes = orthonormal_laguerre_rows(
        n_max, float(l), t,
        start + 0.5 * (log_ratio - np.log(np.sum(phi * phi, axis=0))))
    assert np.all(np.isfinite(modes))
    return modes @ modes.T


def mp_gram_diagonal(n, l, gamma):
    """The Gram entry (n, n) to 40 digits from the power series of L_n^l,
    sum_{i,j} a_i a_j Gamma(i + j + l + gamma + 1) n!/(n+l)!, in a precision
    that covers the cancellation of its terms."""
    def series(dps, magnitude):
        with mp.workdps(dps):
            alpha = l + mp.mpf(gamma)
            a = [(-1) ** j * mp.binomial(n + l, n - j) / mp.factorial(j)
                 for j in range(n + 1)]
            if magnitude:
                a = [abs(x) for x in a]
            moment = [mp.gamma(alpha + 1)]
            for m in range(1, 2 * n + 1):
                moment.append(moment[-1] * (alpha + m))
            total = mp.fsum(
                moment[m] * mp.fdot(a[max(0, m - n):min(m, n) + 1],
                                    a[m - min(m, n):m - max(0, m - n) + 1][::-1])
                for m in range(2 * n + 1))
            return total * mp.factorial(n) / mp.factorial(n + l)

    # the entry is at least Gamma(1 + gamma) > 0.88, so the terms' absolute
    # sum bounds the digits lost to cancellation
    return series(45 + int(mp.log10(series(20, True))), False)


class TestRadialModes:
    def test_orthonormal_under_radial_measure(self):
        s = np.linspace(0.0, 30.0, 60001)
        w = trapezoid_weights(s)
        for l in (0, 1, 3, 7):
            psi = laguerre_radial_table(12, l, s)
            gram = psi @ ((s * w)[None, :] * psi).T
            # floor is the trapezoid quadrature error at this spacing
            assert np.max(np.abs(gram - np.eye(13))) < 1e-7

    def test_origin_values(self):
        # psi_{n,0}(0) = sqrt(2) by the normalization; zero angular momentum
        # is the only sector alive at the origin
        at0 = laguerre_radial_table(3, 0, np.array([0.0]))[:, 0]
        assert np.allclose(at0, np.sqrt(2.0), atol=1e-14)
        assert np.array_equal(laguerre_radial_table(3, 2, np.array([0.0]))[:, 0],
                              np.zeros(4))

    def test_level_sum_matches_cartesian_profile(self):
        # sum over 2n + l = k of the sector densities reproduces the
        # rotation-invariant level profile computed from the Cartesian table
        r = np.linspace(0.0, 4.0, 17)
        for k in (0, 1, 4, 9):
            acc = np.zeros_like(r)
            for l in range(k + 1):
                if (k - l) % 2:
                    continue
                n = (k - l) // 2
                psi = laguerre_radial_table(n, l, r)[n]
                acc += (2.0 if l > 0 else 1.0) * psi ** 2
            acc /= 2.0 * np.pi
            assert np.max(np.abs(acc - level_sum_profile(k, 2, r))) < 1e-12

    def test_large_arguments_do_not_overflow(self):
        s = np.array([0.0, 1.0, 40.0, 80.0])
        psi = laguerre_radial_table(200, 5, s)
        assert np.all(np.isfinite(psi))
        # far outside the classically allowed region the modes are tiny
        assert np.max(np.abs(psi[:, -1])) < 1e-200 or np.max(np.abs(psi[:, -1])) < 1.0


    @pytest.mark.parametrize("l", [20, 200, 2000, 4000])
    def test_large_angular_momentum_matches_mpmath(self, l):
        # the start value psi_{0,l} takes Stirling's form from l = 20 on;
        # log l! alone gave 5e-13 at l = 2 000 and 1e-12 at l = 4 000
        s = np.sqrt(np.array([1.0, 1.3]) * l)
        psi = laguerre_radial_table(3, l, s)
        for j, sj in enumerate(s):
            for n in (0, 3):
                with mp.workdps(40):
                    x = mp.mpf(float(sj))
                    want = (mp.sqrt(2 * mp.factorial(n) / mp.factorial(n + l))
                            * x ** l * mp.laguerre(n, l, x * x)
                            * mp.exp(-x * x / 2))
                    err = abs(float(mp.mpf(float(psi[n, j])) / want - 1))
                assert err <= 2e-13

class TestRadialGram:
    def test_unweighted_gram_is_identity(self):
        for l in (0, 2, 5):
            gram = radial_gram(10, l, 0.0)
            assert np.max(np.abs(gram - np.eye(11))) < 1e-12

    @pytest.mark.parametrize("n,l", [(40, 10), (100, 60), (250, 0), (500, 300),
                                     (1000, 10)])
    def test_unweighted_gram_is_identity_at_default_run_sizes(self, n, l):
        gram = radial_gram(n, l, 0.0)
        assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-12

    @pytest.mark.parametrize("n,l", [(40, 10), (100, 60), (250, 0), (500, 300)])
    def test_gamma_one_gram_is_the_jacobi_matrix(self, n, l):
        # gamma = 1 weights the modes by t = s^2, whose matrix in the
        # orthonormal Laguerre basis is tridiagonal with known entries
        k = np.arange(n + 1.0)
        off = np.sqrt(k[1:] * (k[1:] + l))
        jacobi = np.diag(2.0 * k + l + 1.0) - np.diag(off, 1) - np.diag(off, -1)
        gram = radial_gram(n, l, 1.0)
        assert np.max(np.abs(gram - jacobi)) <= 1e-12 * np.max(np.abs(jacobi))

    def test_weighted_gram_matches_trapezoid(self):
        s = np.linspace(0.0, 30.0, 60001)
        w = trapezoid_weights(s)
        psi = laguerre_radial_table(10, 3, s)
        for gamma in (0.25, 0.5, 1.0):
            ref = psi @ ((np.power(s, 2.0 * gamma + 1.0) * w)[None, :] * psi).T
            gram = radial_gram(10, 3, gamma)
            assert np.max(np.abs(gram - ref)) < 1e-8
            assert np.max(np.abs(gram - gram.T)) == 0.0

    def test_large_mode_counts_stay_finite(self):
        gram = radial_gram(250, 0, 0.25)
        assert np.all(np.isfinite(gram))
        gram = radial_gram(100, 300, 0.25)
        assert np.all(np.isfinite(gram))

    def test_rejects_negative_weight(self):
        with pytest.raises(DomainError):
            radial_gram(5, 0, -0.5)


class TestClosedFormGram:
    # the closed-form factor against independent constructions, at the
    # (n_max, l) corners that the default runs reach
    SIZES = [(255, 0), (128, 200), (10, 500)]
    GAMMAS = [0.25, 0.7, 1.5]

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("n,l", SIZES)
    def test_matches_gauss_laguerre_quadrature(self, n, l, gamma):
        gram = radial_gram(n, l, gamma)
        ref = gauss_laguerre_gram(n, l, gamma)
        # each entry against the scale sqrt(G_nn G_mm) of its row and column
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.max(np.abs(gram - ref) / scale) <= 1e-12

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("n,l", SIZES)
    def test_diagonal_matches_mpmath(self, n, l, gamma):
        gram = radial_gram(n, l, gamma)
        for i in (0, n // 2, n):
            want = float(mp_gram_diagonal(i, l, gamma))
            assert gram[i, i] == pytest.approx(want, rel=1e-13), i


class TestDefaultRunSizes:
    # lambda_max = R^2 reaches k_hi = 2047 at R = 64 on S = pi, and the
    # k_max = 4000 policy allows k_hi = 3999.  E and E' span up to e^{+-960}
    # over one lane there; l ~ 0.45 k_hi is where that span is widest
    @pytest.mark.parametrize("k_hi", [2047, 3999])
    def test_block_factor_is_finite(self, k_hi):
        # blocks of consecutive l of one frequency
        for l0 in (0, int(0.45 * k_hi), k_hi - 9):
            l = np.arange(l0, min(k_hi + 1, l0 + 12))
            n_max = (k_hi - l) // 2
            e, ep_inv = _gauss_modes(n_max, l[:, None].astype(float), 0.25)
            t = _connection_matrix(n_max[0] + 1, 0.25)
            for part in (e, t, ep_inv):
                assert np.all(np.isfinite(part))
            assert np.all(e[:, 0] > 0) and np.all(ep_inv[:, 0] > 0)

    @pytest.mark.parametrize("gamma", [0.25, 1.5])
    @pytest.mark.parametrize("k_hi", [2047, 3999])
    def test_gram_is_finite_symmetric_with_positive_diagonal(self, k_hi,
                                                             gamma):
        for l in (0, int(0.45 * k_hi), k_hi - 9, k_hi):
            gram = radial_gram((k_hi - l) // 2, l, gamma)
            assert np.all(np.isfinite(gram)), l
            assert np.array_equal(gram, gram.T), l
            assert np.all(np.diag(gram) > 0), l
            # G_00 = Gamma(l + gamma + 1) / l!
            with mp.workdps(40):
                want = float(mp.gammaprod([l + gamma + 1], [l + 1]))
            assert gram[0, 0] == pytest.approx(want, rel=1e-13), l


def ramp_profile():
    return MultiplierProfile(
        lambda lam: np.exp(-0.2 * np.asarray(lam))
        * np.clip((np.asarray(lam) - 1.0) / 2.0, 0.0, 1.0)
        * (np.asarray(lam) >= 1.0) * (np.asarray(lam) <= 24.0),
        (1.0, 24.0))


class TestWeightedColumnNorm:
    # independent oracle: full 2-D Cartesian Hermite quadrature of the same
    # weighted column L^2 mass on a 1024^2 grid of extent 12, frozen values
    ORACLE = {
        (0.0, 0.0): 0.3632309127941121,
        (0.0, 0.7): 0.22481583026284996,
        (0.0, 2.3): 0.00848217685983601,
        (0.25, 0.0): 0.2953755851546256,
        (0.25, 0.7): 0.20026926687665567,
        (0.25, 2.3): 0.009619296349851035,
        (0.5, 0.0): 0.24990988996834174,
        (0.5, 0.7): 0.1847751628471635,
        (0.5, 2.3): 0.010975598034335897,
    }

    def test_matches_cartesian_quadrature_oracle(self):
        prof = ramp_profile()
        for (gamma, u), want in self.ORACLE.items():
            got = weighted_column_norm(prof, u, gamma, np.pi / 2.0, 40, 24.0)
            tol = 1e-12 if gamma == 0.0 else 2e-4
            assert got == pytest.approx(want, rel=tol), (gamma, u)

    def test_vectorized_matches_scalar(self):
        prof = ramp_profile()
        us = np.array([0.0, 0.3, 1.1, 2.9])
        vec = weighted_column_norms(prof, us, 0.25, np.pi / 2.0, 40, 24.0)
        for i, u in enumerate(us):
            one = weighted_column_norm(prof, float(u), 0.25, np.pi / 2.0, 40, 24.0)
            assert vec[i] == one

    @pytest.mark.parametrize("gamma", [0.0, 0.25])
    def test_no_feet_gives_no_norms(self, gamma):
        got = weighted_column_norms(ramp_profile(), [], gamma, np.pi / 2.0, 40,
                                    24.0)
        assert got.shape == (0,)

    @pytest.mark.parametrize("gamma", [0.0, 0.25])
    def test_no_active_frequency_gives_zero_norms(self, gamma):
        # lambda_max = 1 on S = pi is below the lowest slab eigenvalue 2
        got = weighted_column_norms(band_profile(1.0), [0.0, 1.0], gamma,
                                    np.pi, 40, 1.0)
        assert np.array_equal(got, np.zeros(2))

    @pytest.mark.parametrize("gamma", [0.0, 0.25])
    def test_huge_feet_give_zero_norms(self, gamma):
        # s^2 = xi u^2 would overflow past u ~ 1e154, and the recurrence's
        # products past u ~ 1e54; every row there is far below the double
        # floor, as at u = 40 (RuntimeWarnings are errors here)
        feet = np.array([40.0, 1e100, 1e154, 1e300])
        norms = weighted_column_norms(band_profile(8.0), feet, gamma, np.pi,
                                      4000, 64.0)
        assert np.array_equal(norms, np.zeros(4))
        # a huge foot leaves the others alone
        near = weighted_column_norms(band_profile(8.0), [0.5, 1e300], gamma,
                                     np.pi, 4000, 64.0)
        assert near[0] == weighted_column_norm(band_profile(8.0), 0.5, gamma,
                                               np.pi, 4000, 64.0) > 0
        assert near[1] == 0.0

    def test_truncation_policy_enforced(self):
        # lambda_max = 24 at the lowest frequency xi = 2 needs oscillator
        # levels up to 5; a cap below that must refuse, not silently clip
        with pytest.raises(TruncationError):
            weighted_column_norm(ramp_profile(), 0.0, 0.0, np.pi / 2.0, 3, 24.0)

    def test_rejects_bad_arguments(self):
        prof = ramp_profile()
        with pytest.raises(DomainError):
            weighted_column_norm(prof, -1.0, 0.0, np.pi / 2.0, 40, 24.0)
        with pytest.raises(DomainError):
            weighted_column_norm(prof, 0.0, -0.25, np.pi / 2.0, 40, 24.0)


NAN, INF = float("nan"), float("inf")
BAD_RADIAL_INPUT = {
    "gamma=nan": lambda p: weighted_column_norms(p, [1.0], NAN, 1.5, 40, 24.0),
    "gamma=inf": lambda p: weighted_column_norms(p, [1.0], INF, 1.5, 40, 24.0),
    "u=nan": lambda p: weighted_column_norms(p, [NAN], 0.25, 1.5, 40, 24.0),
    "u=inf": lambda p: weighted_column_norms(p, [INF], 0.25, 1.5, 40, 24.0),
    "torus_half_period=nan":
        lambda p: weighted_column_norms(p, [1.0], 0.25, NAN, 40, 24.0),
    "torus_half_period=inf":
        lambda p: weighted_column_norms(p, [1.0], 0.25, INF, 40, 24.0),
    "opnorm-torus_half_period=nan":
        lambda p: weighted_operator_norm(p, 0.25, NAN, 40, 24.0),
    "opnorm-torus_half_period=inf":
        lambda p: weighted_operator_norm(p, 0.25, INF, 40, 24.0),
    "lambda_max=nan":
        lambda p: weighted_column_norms(p, [1.0], 0.25, 1.5, 40, NAN),
    "k_max=nan":
        lambda p: weighted_column_norms(p, [1.0], 0.25, 1.5, NAN, 24.0),
    # k > inf never holds, so an infinite k_max would switch the level check
    # off; a fractional one is no level
    "k_max=inf":
        lambda p: weighted_column_norms(p, [1.0], 0.25, 1.5, INF, 24.0),
    "k_max=fractional":
        lambda p: weighted_column_norms(p, [1.0], 0.25, 1.5, 3.5, 24.0),
    "opnorm-k_max=inf":
        lambda p: weighted_operator_norm(p, 0.25, 1.5, INF, 24.0),
    "opnorm-k_max=fractional":
        lambda p: weighted_operator_norm(p, 0.25, 1.5, 3.5, 24.0),
    # np.linspace would raise a bare TypeError on a fractional count
    "opnorm-n_scan=fractional":
        lambda p: weighted_operator_norm(p, 0.25, 1.5, 40, 24.0, n_scan=5.5),
    "opnorm-n_scan=4":
        lambda p: weighted_operator_norm(p, 0.25, 1.5, 40, 24.0, n_scan=4),
    "radial_gram-gamma=nan": lambda p: radial_gram(5, 2, NAN),
    "radial_gram-gamma=inf": lambda p: radial_gram(5, 2, INF),
    "laguerre_radial_table-s=nan":
        lambda p: laguerre_radial_table(5, 2, np.array([0.5, NAN])),
    # not a number, or a fractional level: a bare error or a silent table
    "gamma=string":
        lambda p: weighted_column_norms(p, [1.0], "a", 1.5, 40, 24.0),
    "u=string": lambda p: weighted_column_norms(p, ["a"], 0.25, 1.5, 40, 24.0),
    # one number given a list
    "gamma=list":
        lambda p: weighted_column_norms(p, [1.0], [0.0, 0.1], 1.5, 40, 24.0),
    "opnorm-torus_half_period=list":
        lambda p: weighted_operator_norm(p, 0.25, [np.pi], 40, 24.0),
    "laguerre_radial_table-n_max=fractional":
        lambda p: laguerre_radial_table(2.5, 0, np.array([0.5])),
    "laguerre_radial_table-l=fractional":
        lambda p: laguerre_radial_table(2, 1.5, np.array([0.5])),
}


@pytest.mark.parametrize("case", BAD_RADIAL_INPUT.values(),
                         ids=BAD_RADIAL_INPUT.keys())
def test_bad_radial_input_raises_domain_error(case):
    # refused up front, before NaN reaches a comparison that lets it through
    with pytest.raises(DomainError):
        case(ramp_profile())


class TestSharedWindow:
    # the slabs and levels are oscillator.torus_slabs' (test_oscillator); on
    # S = pi/2 the slab eigenvalues are 4j(k + 1), and those of slab 2,
    # 8 and 16, miss [9, 13]
    @pytest.mark.parametrize("gamma", [0.0, 0.25])
    def test_slab_without_an_active_level_is_skipped(self, monkeypatch, gamma):
        forms, lanes = radial._block_forms, []

        def spy(vals, base, n_max, l, root_xi, u, gamma, t):
            lanes.extend(root_xi.tolist())
            return forms(vals, base, n_max, l, root_xi, u, gamma, t)

        monkeypatch.setattr(radial, "_block_forms", spy)
        norms = weighted_column_norms(bump(9.0, 13.0), [0.0, 0.5], gamma,
                                      np.pi / 2.0, 40, 13.0)
        assert np.all(norms > 0)
        # slab 1 at level 2 (at gamma = 0 its two parity lanes, at gamma > 0
        # its three sectors l = 0, 1, 2), slab 3 at level 0 (one lane)
        slab1 = 2 if gamma == 0.0 else 3
        assert sorted(lanes) == sorted([np.sqrt(2.0)] * slab1 + [np.sqrt(6.0)])

    def test_k_max_error_names_the_slab_as_the_engine_does(self):
        # slab 1 keeps level 2 (eigenvalue 12), past k_max = 1
        band = bump(9.0, 13.0)
        with pytest.raises(TruncationError) as err:
            weighted_column_norms(band, [0.0], 0.0, np.pi / 2.0, 1, 13.0)
        with pytest.raises(TruncationError) as via_engine:
            engine._kept_bins(band, GrushinGrid(PrimeGrid(12.0, 128, 2),
                                                np.pi / 2.0, 8, 1),
                              SpectralTruncation(k_max=1, lambda_max=13.0))
        for e in (err.value, via_engine.value):
            assert (e.level, e.xi_mag, e.k_max) == (2, 2.0, 1)


class TestWeightedOperatorNorm:
    def test_dominates_every_scanned_column(self):
        prof = ramp_profile()
        val, u_star = weighted_operator_norm(prof, 0.25, np.pi / 2.0, 40, 24.0)
        us = np.linspace(0.0, 3.0, 31)
        cols = weighted_column_norms(prof, us, 0.25, np.pi / 2.0, 40, 24.0)
        assert val >= cols.max() - 1e-12
        at_star = weighted_column_norm(prof, u_star, 0.25, np.pi / 2.0, 40, 24.0)
        assert val == at_star


def per_sector_norms(profile, u, gamma, torus_half_period, lambda_max):
    """The column norms as one quadratic form per (xi, l), from the public
    single-l table and Gram: the form the block recurrence must reproduce."""
    dxi = np.pi / torus_half_period
    total = np.zeros(len(u))
    for j in range(1, int(lambda_max / (2.0 * dxi)) + 1):
        xi = j * dxi
        k_hi = int(np.floor((lambda_max / xi - 2.0) / 2.0))
        slab = np.zeros(len(u))
        for l in range(k_hi + 1):
            n_hi = (k_hi - l) // 2
            eig = (2.0 * (2 * np.arange(n_hi + 1) + l) + 2.0) * xi
            coef = (profile(eig).real[:, None]
                    * laguerre_radial_table(n_hi, l, np.sqrt(xi) * u))
            form = np.einsum("nu,nm,mu->u", coef, radial_gram(n_hi, l, gamma),
                             coef)
            slab += (2.0 if l > 0 else 1.0) * form
        total += 2.0 * xi ** (1.0 - gamma) / (2.0 * np.pi) * slab
    return np.sqrt(total / (2.0 * torus_half_period))


class TestBlockRecurrence:
    # lambda_max = 256 on S = pi reaches level 127 at xi = 1, as default runs
    # do; at u = 6 the psi start values underflow at the higher frequencies
    FEET = np.array([0.0, 0.5, 3.0, 6.0])

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 1.0])
    def test_matches_the_per_sector_sum(self, gamma):
        prof = band_profile(16.0)
        got = weighted_column_norms(prof, self.FEET, gamma, np.pi, 4000, 256.0)
        want = per_sector_norms(prof, self.FEET, gamma, np.pi, 256.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # blocks are sized by the number of feet; no foot sees the others
        for i, u in enumerate(self.FEET):
            assert weighted_column_norm(prof, u, gamma, np.pi, 4000,
                                        256.0) == got[i]

    def test_profile_is_evaluated_once_per_call(self, monkeypatch):
        prof = band_profile(8.0)
        calls = []
        evaluate = MultiplierProfile.__call__

        def counted(self, lam):
            calls.append(lam)
            return evaluate(self, lam)

        monkeypatch.setattr(MultiplierProfile, "__call__", counted)
        weighted_column_norms(prof, [0.0, 3.0], 0.25, np.pi, 4000, 64.0)
        # lambda_max = 64 on S = pi: frequencies xi = 1..32 are all active,
        # and one call takes the levels k = 0..k_hi of every one of them
        assert len(calls) == 1
        want = np.concatenate([(2.0 * np.arange((64 // j - 2) // 2 + 1) + 2.0)
                               * j for j in range(1, 33)])
        assert np.array_equal(calls[0], want)

    @pytest.mark.parametrize("gamma", [0.0, 0.25])
    def test_passes_are_bounded_by_blocks_not_frequencies(self, gamma,
                                                          monkeypatch):
        passes, gauss = [], []
        recurrence, modes = _normalized_recurrence, _gauss_modes
        monkeypatch.setattr(radial, "_normalized_recurrence",
                            lambda *a: passes.append(a[0]) or recurrence(*a))
        monkeypatch.setattr(radial, "_gauss_modes",
                            lambda *a: gauss.append(a[0]) or modes(*a))
        feet = np.linspace(0.0, 6.0, 97)
        weighted_column_norms(band_profile(16.0), feet, gamma, np.pi, 4000,
                              256.0)
        # lambda_max = 256 on S = pi: 128 active frequencies, k_hi = 127 at
        # xi = 1 down to 0 at xi = 65..128
        k_his = [(256 // j - 2) // 2 for j in range(1, 129)]
        if gamma == 0.0:  # two parity lanes, one where k_hi = 0
            lanes = sum(min(k, 1) + 1 for k in k_his)
            assert lanes == 2 * 64 + 64
            per_block = int(radial._BLOCK_BUDGET / (7 * (feet.size + 1)))
            assert len(passes) == -(-lanes // per_block) == 1
            assert gauss == []
        else:  # one lane per level
            lanes = sum(k + 1 for k in k_his)
            assert len(gauss) == len(passes) < 128 // 4
            # a lane of r rows counts 7 (feet + 1) + r (feet + 8)
            # + min(r, 32) feet floats, and its r feet coefficients at most
            # half the budget, which binds at 97 feet: the first pass takes
            # 45 lanes of 64 rows
            assert [n.size for n in passes] == [45, 68, 113, 243, 176]
        assert sum(n.size for n in passes) == lanes
        # every pass takes its lanes longest first
        assert all(np.all(np.diff(n) <= 0) for n in passes)


class TestLevelDiagonalRoute:
    # gamma = 0 norms of the per-sector route (one Laguerre lane per (xi, l)),
    # frozen over the default weighted_operator_norm scan at R = 32 (144
    # feet, down to 2.3e-14 in the tail) and at seven feet at R = 64 (down
    # to 4.7e-23 at u = 65); S = pi, lambda_max = R^2 as the default
    # weighted_restriction run.  The parity lanes met them within 5.1e-14
    # and 1.3e-13
    FROZEN = json.loads(
        (Path(__file__).parent / "data" / "gamma0_norms.json").read_text())

    @pytest.mark.parametrize("radius", ["32", "64"])
    def test_matches_the_frozen_sector_norms(self, radius):
        feet, want = np.array(self.FROZEN[radius]).T
        R = float(radius)
        got = weighted_column_norms(band_profile(R), feet, 0.0, np.pi, 4000,
                                    R * R)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_sector_route_at_tiny_gamma_is_continuous(self):
        # gamma = 1e-9 goes by the Gauss-Laguerre sector route, gamma = 0 by
        # the parity lanes; the norms move by gamma times a log moment of the
        # column, 3.4e-9 at most over the scan (also in the tail) at R = 32,
        # 8.5e-10 at R = 4
        feet = np.array(self.FROZEN["32"])[:, 0]
        plain, near = (weighted_column_norms(band_profile(32.0), feet, gamma,
                                             np.pi, 4000, 1024.0)
                       for gamma in (0.0, 1e-9))
        np.testing.assert_allclose(near, plain, rtol=5e-9, atol=0.0)

    def test_passes_follow_the_block_budget(self, monkeypatch):
        # 192 parity lanes at lambda_max = 256 (see above), 50 per block
        feet = np.linspace(0.0, 6.0, 9)
        monkeypatch.setattr(radial, "_BLOCK_BUDGET", 7 * (feet.size + 1) * 50)
        passes, recurrence = [], _normalized_recurrence
        monkeypatch.setattr(radial, "_normalized_recurrence",
                            lambda *a: passes.append(a[0]) or recurrence(*a))
        weighted_column_norms(band_profile(16.0), feet, 0.0, np.pi, 4000,
                              256.0)
        assert [n.size for n in passes] == [50, 50, 50, 42]
        # the longest lanes go first: the two parities of xi = 1, k_hi = 127
        assert passes[0][:2].tolist() == [63, 63]

    def test_sector_passes_follow_the_block_budget(self, monkeypatch):
        # the 645 sectors at lambda_max = 256; a lane of r rows counts
        # 7 (feet + 1) + r (feet + 8) + min(r, 32) feet floats, which binds
        # at 9 feet before the cap of 2 r feet: the first pass holds 50
        # lanes, sized by the 64 rows of xi = 1, l = 0, and later passes
        # more of the shorter ones
        feet = np.linspace(0.0, 6.0, 9)
        monkeypatch.setattr(radial, "_BLOCK_BUDGET",
                            (7 * (feet.size + 1) + 64 * (feet.size + 8)
                             + 32 * feet.size) * 50)
        passes, recurrence = [], _normalized_recurrence
        monkeypatch.setattr(radial, "_normalized_recurrence",
                            lambda *a: passes.append(a[0]) or recurrence(*a))
        weighted_column_norms(band_profile(16.0), feet, 0.25, np.pi, 4000,
                              256.0)
        assert [n.size for n in passes] == [50, 70, 128, 286, 111]
        assert [int(n[0]) for n in passes] == [63, 38, 18, 6, 0]


class TestSectorRoute:
    # gamma > 0 norms of the sector route as it stood with a full product
    # by T and per-step recurrence coefficients: the 17 feet of the
    # benchmark's ball (centre 3, radius 0.1875) at R = 32 and 64, and the
    # first weighted_operator_norm scan at R = 32 (144 feet) with its result;
    # S = pi, lambda_max = R^2.  The banded product meets them within 2.3e-16
    FROZEN = json.loads(
        (Path(__file__).parent / "data" / "gamma_pos_norms.json").read_text())

    @pytest.mark.parametrize("gamma", ["0.25", "1"])
    @pytest.mark.parametrize("radius", ["32", "64"])
    def test_ball_matches_the_frozen_norms(self, radius, gamma):
        R = float(radius)
        got = weighted_column_norms(band_profile(R), self.FROZEN["ball_feet"],
                                    float(gamma), np.pi, 4000, R * R)
        want = self.FROZEN["ball"][radius][gamma]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_scan_matches_the_frozen_norms(self):
        feet, want = np.array(self.FROZEN["scan_32"]).T
        got = weighted_column_norms(band_profile(32.0), feet, 0.25, np.pi,
                                    4000, 1024.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        norm, u_star = weighted_operator_norm(band_profile(32.0), 0.25, np.pi,
                                              4000, 1024.0)
        assert norm == pytest.approx(self.FROZEN["opnorm_32"][0], rel=1e-12)
        assert u_star == self.FROZEN["opnorm_32"][1]

    def test_ball_call_peak_memory(self):
        # 5.21 MB when a pass held the coefficients and their product with
        # T and built its own T; 4.39 MB measured with the product written
        # over the coefficients
        feet = np.array(self.FROZEN["ball_feet"])
        prof = band_profile(32.0)
        weighted_column_norms(prof, feet, 0.25, np.pi, 4000, 1024.0)
        tracemalloc.start()
        try:
            weighted_column_norms(prof, feet, 0.25, np.pi, 4000, 1024.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5.21e6


class TestMixedLanes:
    # lanes of several frequencies in one block: x = xi u^2 differs per lane,
    # l is in no order, and lanes with l < 20 and l >= 20 take the two forms
    # of the start value; the far feet need rescaling on the way
    XI = np.array([1.0, 2.0, 1.0, 3.0])
    L = np.array([0, 7, 40, 25])
    N_MAX = np.array([500, 480, 480, 300])
    U = np.array([0.0, 3.0, 30.0, 40.0])

    def rows(self, lanes):
        l = self.L[lanes, None].astype(float)
        s = np.sqrt(self.XI[lanes])[:, None] * self.U
        return [row.copy() for row in _normalized_recurrence(
            self.N_MAX[lanes], l, s * s, _radial_log_row0(l, s))]

    def test_recurrence_lanes_equal_each_lane_alone(self):
        block = self.rows(np.arange(4))
        for i in range(4):
            alone = self.rows(np.array([i]))
            assert len(alone) == self.N_MAX[i] + 1
            for n, row in enumerate(alone):
                assert np.array_equal(block[n][i], row[0]), (i, n)

    def test_gram_factor_lanes_equal_each_lane_alone(self):
        l = self.L[:, None].astype(float)
        e, ep_inv = _gauss_modes(self.N_MAX, l, 0.25)
        t = _connection_matrix(self.N_MAX[0] + 1, 0.25)
        for i in range(4):
            e1, ep1 = _gauss_modes(self.N_MAX[i:i + 1], l[i:i + 1], 0.25)
            width = self.N_MAX[i] + 1
            assert np.array_equal(e[i, :width], e1[0])
            assert np.array_equal(ep_inv[i, :width], ep1[0])
            assert not np.any(e[i, width:]) and not np.any(ep_inv[i, width:])
            # the leading submatrix of the call's T is each lane's own
            assert np.array_equal(t[:width, :width],
                                  _connection_matrix(width, 0.25))


class TestFeetAreIndependent:
    # a scan relies on this: weighted_operator_norm returns the value the
    # vector call gave at its maximizer, which must be the single-foot norm
    FEET = np.linspace(0.0, 4.0, 9)

    @pytest.mark.parametrize("budget", [None, 3e3])
    @pytest.mark.parametrize("gamma", [0.0, 0.25])
    def test_each_foot_equals_its_single_foot_call(self, gamma, budget,
                                                   monkeypatch):
        if budget is not None:  # several blocks at gamma = 0 as well
            monkeypatch.setattr(radial, "_BLOCK_BUDGET", budget)
        prof = band_profile(16.0)
        got = weighted_column_norms(prof, self.FEET, gamma, np.pi, 4000, 256.0)
        for i, u in enumerate(self.FEET):
            assert weighted_column_norm(prof, u, gamma, np.pi, 4000,
                                        256.0) == got[i], u
