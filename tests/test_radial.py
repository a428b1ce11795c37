"""Tests for the radial column-norm machinery against independent oracles."""

import numpy as np
import pytest

from grushin.errors import DomainError, TruncationError
from grushin.fields import MultiplierProfile
from grushin.hermite import level_sum_profile
from grushin.lab.radial import (
    laguerre_radial_table,
    radial_gram,
    weighted_column_norm,
    weighted_column_norms,
    weighted_operator_norm,
)


def trapezoid_weights(s):
    w = np.full(s.size, s[1] - s[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


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


class TestWeightedOperatorNorm:
    def test_dominates_every_scanned_column(self):
        prof = ramp_profile()
        val, u_star = weighted_operator_norm(prof, 0.25, np.pi / 2.0, 40, 24.0)
        us = np.linspace(0.0, 3.0, 31)
        cols = weighted_column_norms(prof, us, 0.25, np.pi / 2.0, 40, 24.0)
        assert val >= cols.max() - 1e-12
        at_star = weighted_column_norm(prof, u_star, 0.25, np.pi / 2.0, 40, 24.0)
        assert val == at_star

    def test_restricted_range_is_dominated(self):
        prof = ramp_profile()
        full, _ = weighted_operator_norm(prof, 0.25, np.pi / 2.0, 40, 24.0)
        part, u_star = weighted_operator_norm(prof, 0.25, np.pi / 2.0, 40, 24.0,
                                              u_range=(2.0, 3.0), n_scan=17)
        assert part <= full + 1e-12
        assert 2.0 <= u_star <= 3.0
