"""Tests for cutoffs, Sobolev norms, and the dyadic cosine decomposition."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import grushin

from grushin.errors import DomainError, WindowingError
from grushin.lab.profiles import CutoffSpec, dyadic_pieces, smoothstep, sobolev_norm


class TestSmoothstep:
    def test_hard_zeros_and_ones(self):
        u = np.array([-5.0, -1e-9, 0.0, 1.0, 1.0 + 1e-9, 7.0])
        out = smoothstep(u)
        assert np.array_equal(out[:3], [0.0, 0.0, 0.0])
        assert np.array_equal(out[3:], [1.0, 1.0, 1.0])

    def test_monotone_and_bounded(self):
        u = np.linspace(-0.5, 1.5, 2001)
        out = smoothstep(u)
        assert np.all(np.diff(out) >= 0.0)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_symmetry_about_half(self):
        u = np.linspace(0.01, 0.99, 99)
        assert np.allclose(smoothstep(u) + smoothstep(1.0 - u), 1.0, atol=1e-14)


class TestCutoffSpec:
    cs = CutoffSpec.standard()

    def test_eta_support(self):
        lam = np.linspace(0.0, 8.0, 20001)
        e = self.cs.eta(lam)
        live = lam[e > 1e-14]
        assert live.min() >= 0.25 and live.max() <= 1.0
        assert e.max() > 0.9  # a genuine bump, not a sliver

    def test_dyadic_partition_of_unity(self):
        # the telescoping that lets dyadic_pieces sum back to the profile:
        # sum_l eta(2^-l lam) = 1 over a ladder of levels covering lam
        lam = np.exp(np.linspace(np.log(2.0 ** -10), np.log(2.0 ** 10), 4001))
        total = sum(self.cs.eta(lam / 2.0 ** level) for level in range(-13, 14))
        assert np.abs(total - 1.0).max() < 1e-14


class TestSobolevNorm:
    def test_order_zero_is_plancherel(self):
        x = np.linspace(-30.0, 30.0, 4096)
        h = x[1] - x[0]
        g = np.exp(-x ** 2 / 2.0)
        # || exp(-x^2/2) ||_2 = pi^{1/4}
        assert sobolev_norm(g, h, 0.0) == pytest.approx(np.pi ** 0.25, rel=1e-12)
        direct = np.sqrt(np.sum(g ** 2) * h)
        assert sobolev_norm(g, h, 0.0) == pytest.approx(direct, rel=1e-12)

    def test_gaussian_higher_orders_analytic(self):
        # (1+tau^2)^s |ghat|^2 integrates in closed form for s = 1:
        # ghat = exp(-tau^2/2), integral sqrt(pi) (1 + 1/2) = 1.5 sqrt(pi)
        x = np.linspace(-30.0, 30.0, 8192)
        h = x[1] - x[0]
        g = np.exp(-x ** 2 / 2.0)
        want = np.sqrt(1.5 * np.sqrt(np.pi))
        assert sobolev_norm(g, h, 1.0) == pytest.approx(want, rel=1e-10)

    def test_monotone_in_order(self):
        x = np.linspace(-20.0, 20.0, 2048)
        g = np.exp(-x ** 2)
        h = x[1] - x[0]
        n0 = sobolev_norm(g, h, 0.5)
        n1 = sobolev_norm(g, h, 1.0)
        n2 = sobolev_norm(g, h, 2.0)
        assert n0 <= n1 <= n2

    @staticmethod
    def mpmath_norm(values, spacing, s):
        # the same |F-hat|^2 samples, weighted and summed at 40 digits
        fhat = np.fft.fft(values) * spacing / np.sqrt(2.0 * np.pi)
        tau = 2.0 * np.pi * np.fft.fftfreq(values.size, d=spacing)
        dtau = 2.0 * np.pi / (values.size * spacing)
        with mp.workdps(40):
            total = mp.fsum((1 + mp.mpf(float(t)) ** 2) ** s * mp.mpf(float(a)) ** 2
                            for t, a in zip(tau, np.abs(fhat)))
            return float(mp.sqrt(total * dtau))

    def test_high_orders_do_not_overflow(self):
        # on the default multiplier_norm window (|tau| up to 2 513) the
        # weight (1 + tau^2)^s overflows near s = 45; on the coarse Gaussian
        # window (|tau| up to 2.33) it overflows at s = 400, the norm not
        lam = np.linspace(-2.0, 3.0, 4001)
        eta = CutoffSpec.standard().eta(lam)
        x = 1.35 * np.arange(-128, 128)
        gauss = np.exp(-x ** 2 / 800.0)
        for values, spacing, s in ((eta, lam[1] - lam[0], 50.0),
                                   (gauss, 1.35, 400.0)):
            got = sobolev_norm(values, spacing, s)  # warnings are errors here
            assert np.isfinite(got)
            assert got == pytest.approx(self.mpmath_norm(values, spacing, s),
                                        rel=1e-12)

    def test_norm_past_the_double_range_is_refused(self):
        lam = np.linspace(-2.0, 3.0, 4001)
        with pytest.raises(DomainError, match="exceeds the double range"):
            sobolev_norm(CutoffSpec.standard().eta(lam), lam[1] - lam[0], 400.0)

    def test_rejects_non_decaying_window(self):
        x = np.linspace(-1.0, 1.0, 64)
        with pytest.raises(WindowingError):
            sobolev_norm(np.cos(x), x[1] - x[0], 1.0)

    def test_rejects_bad_inputs(self):
        g = np.zeros(16)
        with pytest.raises(DomainError):
            sobolev_norm(g, 0.1, -1.0)
        with pytest.raises(DomainError):
            sobolev_norm(np.zeros(4), 0.1, 1.0)
        for spacing, s in [(0.1, np.nan), (0.1, np.inf), (np.nan, 1.0), (np.inf, 1.0)]:
            with pytest.raises(DomainError):
                sobolev_norm(g, spacing, s)
        g[7] = np.nan
        with pytest.raises(DomainError):
            sobolev_norm(g, 0.1, 1.0)


@pytest.mark.parametrize("call", [
    lambda: sobolev_norm(np.zeros(16), 0.1, "a"),
    lambda: sobolev_norm(np.zeros(16), "a", 1.0),
    lambda: dyadic_pieces(CutoffSpec.standard().eta, CutoffSpec.standard(),
                          n_levels=1.5),
    lambda: dyadic_pieces(CutoffSpec.standard().eta, CutoffSpec.standard(),
                          n_levels=True),
    lambda: sobolev_norm(np.zeros(16), 0.1, [1.0, 2.0]),
], ids=["sobolev-order-string", "sobolev-spacing-string",
        "dyadic-levels-fractional", "dyadic-levels-bool", "sobolev-order-list"])
def test_bad_numbers_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


class TestDyadicPieces:
    cs = CutoffSpec.standard()

    def test_reconstruction_of_source_profile(self):
        pieces = dyadic_pieces(self.cs.eta, self.cs, n_levels=12)
        mu = np.linspace(0.0, 4.0, 801)
        total = sum(piece(mu) for piece in pieces)
        assert np.max(np.abs(total - self.cs.eta(mu))) <= 1e-6

    def test_piece_norms_decay_beyond_the_bulk(self):
        pieces = dyadic_pieces(self.cs.eta, self.cs, n_levels=10)
        mu = np.linspace(0.0, 4.0, 3201)
        h = mu[1] - mu[0]
        norms = [np.sqrt(np.sum(piece(mu) ** 2) * h) for piece in pieces]
        # the bulk sits at levels <= 3; past it the Gevrey tail of the
        # cosine transform takes over and the decay accelerates
        for a, b in zip(norms[3:-1], norms[4:]):
            assert b <= 0.75 * a
        assert norms[-1] <= 1e-6

    def test_time_supports_are_dyadic(self):
        pieces = dyadic_pieces(self.cs.eta, self.cs, n_levels=4)
        assert len(pieces) == 5
        assert (pieces[0].nodes[0], pieces[0].nodes[-1]) == (0.0, 1.0)
        for level in range(1, 5):
            nodes = pieces[level].nodes
            assert nodes[0] == 2.0 ** (level - 2) and nodes[-1] == 2.0 ** level

    def test_zero_profile_gives_zero_pieces(self):
        pieces = dyadic_pieces(lambda lam: np.zeros(np.shape(lam)), self.cs, 5)
        mu = np.linspace(0.0, 4.0, 401)
        assert max(np.max(np.abs(piece(mu))) for piece in pieces) < 1e-13

    def test_rejects_profile_escaping_support(self):
        with pytest.raises(DomainError):
            dyadic_pieces(lambda lam: np.exp(-np.asarray(lam)), self.cs, 3)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            dyadic_pieces(self.cs.eta, self.cs, n_levels=0)


def test_piece_values_do_not_depend_on_the_blas_thread_count():
    # the default kernel_support piece at every distinct value of its zero
    # slab's symbol (28 685 points), where one BLAS product over the nodes
    # gave different last bits at 1 and 2 threads; the thread count is read
    # when the BLAS library loads, so each count takes its own process
    src = str(Path(grushin.__file__).resolve().parents[1])
    code = ("import sys, numpy as np\n"
            "from grushin.engine import _xi_zero_symbol\n"
            "from grushin.hermite import PrimeGrid\n"
            "from grushin.lab.profiles import CutoffSpec, dyadic_pieces\n"
            "cs = CutoffSpec.standard()\n"
            "mu = np.sqrt(_xi_zero_symbol(PrimeGrid(22.0, 256, 2))[0])\n"
            "for piece in dyadic_pieces(cs.eta, cs, n_levels=2):\n"
            "    sys.stdout.write(piece(mu).tobytes().hex())\n")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])
        out.append(subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  check=True).stdout)
    assert len(out[0]) == 2 * 3 * 8 * 28685
    assert out[0] == out[1]
